"""Seeded Monte Carlo harness: detection / false-alarm / miss probabilities
over sweeps of attacker distance, SNR, and threshold.

Trials are seeded in fixed blocks of :data:`BLOCK`: block b holds trials
[b * BLOCK, (b + 1) * BLOCK) and owns one substream root derived from
(master_seed, b) by :func:`block_streams`, with one generator for position
noise and one for RSS noise.  Trial r of a block takes row r of each
generator's trial-major draws, so results do not depend on chunking: a chunk
continues its block's generators, and a smaller draw is a prefix of a larger
one.  The batched engine shares the truth path, the acceleration inputs and
the covariance/gain recursion across trials (none of them depends on
measurement data in a linear filter), and each sweep computes them once for
all of its cells.  All per-trial state math is elementwise, which makes
chunked and unchunked runs bit-identical.  :func:`reference_trial` is the
plain one-trial-at-a-time statement of the same procedure; tests hold the two
routes together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .detection import (
    ATTACKER,
    LEGITIMATE,
    OR_ACROSS_ANCHORS,
    SINGLE_ANCHOR,
    DetectorConfig,
    calibrate_tau,
    detect_step,
)
from .errors import InvalidInputError
from .propagation import sigma_from_snr
from .scenario import (
    PU,
    PUE,
    Scenario,
    emit_position_measurement,
    emit_rss,
    place_attacker_at_offset,
    truth_at,
    with_schedule_at,
)
from .tracking import (
    MeasurementModel,
    MotionModel,
    gain_and_updated_covariance,
    initial_estimate,
    predict_covariance,
    track,
)

DEFAULT_CHUNK_SIZE = 20_000

# Trials per seeding block: each block of trials owns one substream root.
BLOCK = 4096


@dataclass(frozen=True)
class TrialOutcome:
    """One Monte Carlo trial: what was scheduled, what the detector said."""

    scheduled: str
    verdict: str
    residual: float
    seed: int

    @property
    def is_detection(self) -> bool:
        return self.scheduled == PUE and self.verdict == ATTACKER

    @property
    def is_miss(self) -> bool:
        return self.scheduled == PUE and self.verdict == LEGITIMATE

    @property
    def is_false_alarm(self) -> bool:
        return self.scheduled == PU and self.verdict == ATTACKER


class SweepCoords(NamedTuple):
    d_pu_pue: float | None
    snr_db: float | None
    tau: float


@dataclass(frozen=True)
class MetricsReport:
    """Empirical detection metrics for one experiment cell."""

    pd: float | None
    pfa: float | None
    pm: float | None
    n_attack_trials: int
    n_legit_trials: int
    sweep_coords: SweepCoords | None = None


@dataclass(frozen=True)
class BaselineComparison:
    """Paired proposed-vs-baseline metrics at one distance bin."""

    distance: float
    actual_distance: float
    proposed: MetricsReport
    baseline: MetricsReport


def metrics(outcomes: Sequence[TrialOutcome], sweep_coords: SweepCoords | None = None) -> MetricsReport:
    """Count outcomes into detection / false-alarm / miss probabilities."""
    if not outcomes:
        raise InvalidInputError("need at least one trial outcome")
    n_attack = sum(1 for o in outcomes if o.scheduled == PUE)
    n_legit = len(outcomes) - n_attack
    detections = sum(1 for o in outcomes if o.is_detection)
    false_alarms = sum(1 for o in outcomes if o.is_false_alarm)
    pd = detections / n_attack if n_attack else None
    pm = (n_attack - detections) / n_attack if n_attack else None
    pfa = false_alarms / n_legit if n_legit else None
    return MetricsReport(pd, pfa, pm, n_attack, n_legit, sweep_coords)


def block_streams(
    master_seed: int, block: int
) -> tuple[np.random.SeedSequence, np.random.Generator, np.random.Generator]:
    """The substream root of one block of trials, with the block's
    position-noise and RSS-noise generators; the whole harness derives trial
    randomness only through this function.

    Row r of the root's ``generate_state(m, np.uint64)`` is the seed reported
    for trial r of the block.
    """
    root = np.random.SeedSequence((master_seed, block))
    pos, rss = root.spawn(2)
    return root, np.random.default_rng(pos), np.random.default_rng(rss)


def child_seed(master_seed: int, *path: int) -> int:
    """A derived 64-bit seed for a sub-experiment (one sweep cell, etc.)."""
    ss = np.random.SeedSequence((master_seed,) + tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _filter_models(scenario: Scenario) -> tuple[MotionModel, MeasurementModel]:
    v = scenario.process_noise_std
    return (
        MotionModel(scenario.dt, v * v, v * v),
        MeasurementModel.isotropic(scenario.meas_noise_std),
    )


def _step_accels(scenario: Scenario, eval_step: int) -> np.ndarray:
    """Acceleration input for the predict into each step (row 0 unused)."""
    acc = np.zeros((eval_step + 1, 2))
    for k in range(1, eval_step + 1):
        acc[k] = scenario.trajectory.accel_at(scenario.step_time(k - 1))
    return acc


class _Kinematics(NamedTuple):
    """What every trial of a cell shares up to its evaluation step: the true
    PU position and the acceleration input at each step, and the Kalman gain
    of each update as 8 row-major floats (``gains[k - 1]`` is step k's).
    None of it depends on noise, anchors or the attacker."""

    truth: np.ndarray
    accels: np.ndarray
    gains: list[tuple[float, ...]]

    def upto(self, eval_step: int) -> "_Kinematics":
        """The same quantities for a cell evaluated at an earlier step."""
        return _Kinematics(
            self.truth[: eval_step + 1], self.accels[: eval_step + 1], self.gains[:eval_step]
        )


def _kinematics(scenario: Scenario) -> _Kinematics:
    k_eval = scenario.evaluation_step
    motion, meas_model = _filter_models(scenario)
    truth = np.array([truth_at(scenario, k).position for k in range(k_eval + 1)])
    p = initial_estimate(truth[0], meas_model, scenario.v_max).covariance
    gains = []
    for _ in range(k_eval):
        # Covariance and gain are measurement-independent: one shared
        # recursion through the exact same code path as tracking.track.
        g, p = gain_and_updated_covariance(predict_covariance(p, motion), meas_model)
        gains.append(tuple(g.ravel().tolist()))
    return _Kinematics(truth, _step_accels(scenario, k_eval), gains)


@dataclass
class _CellResult:
    is_pue: np.ndarray
    d_kf: np.ndarray
    d_rss: np.ndarray
    residuals: np.ndarray
    attacker_flag: np.ndarray
    seeds: np.ndarray

    def outcomes(self) -> list[TrialOutcome]:
        return [
            TrialOutcome(
                PUE if pue else PU,
                ATTACKER if att else LEGITIMATE,
                float(res),
                int(seed),
            )
            for pue, att, res, seed in zip(
                self.is_pue, self.attacker_flag, self.residuals, self.seeds
            )
        ]


def _fuse(residuals: np.ndarray, config: DetectorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial fused residual and attacker flag from per-anchor residuals."""
    if config.fusion == OR_ACROSS_ANCHORS:
        fused = residuals.max(axis=1)
        flag = (residuals >= config.tau).any(axis=1)
    else:
        fused = residuals[:, 0]
        flag = fused >= config.tau
    return fused, flag


def _run_cell(
    scenario: Scenario,
    config: DetectorConfig,
    is_pue: np.ndarray,
    attacker_xy: np.ndarray,
    master_seed: int,
    chunk_size: int | None = None,
    kinematics: _Kinematics | None = None,
) -> _CellResult:
    """Vectorized execution of one cell's trials.

    Per trial, the position generator of its block yields (eval_step + 1) x 2
    standard normals for position measurements and the RSS generator one per
    anchor; :func:`reference_trial` consumes the identical rows.
    `kinematics` is the scenario's :func:`_kinematics`, passed in by sweeps
    that share it across cells and computed here otherwise.
    """
    n = len(is_pue)
    k_eval = scenario.evaluation_step
    n_anchors = len(scenario.anchors)
    chunk = chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE
    if chunk < 1:
        raise InvalidInputError("chunk_size must be >= 1")

    truth, accels, gains = kinematics if kinematics is not None else _kinematics(scenario)
    anchor_xy = np.array([[a.x, a.y] for a in scenario.anchors])
    link = scenario.link
    a_link = link.link_constant_db
    sigma_z = scenario.meas_noise_std
    sigma_db = scenario.rss_noise.sigma_db
    dt = scenario.dt
    half = 0.5 * dt * dt

    d_kf = np.empty((n, n_anchors))
    d_rss = np.empty((n, n_anchors))
    seeds = np.empty(n, dtype=np.uint64)

    for block_lo in range(0, n, BLOCK):
        block_hi = min(block_lo + BLOCK, n)
        root, pos_gen, rss_gen = block_streams(master_seed, block_lo // BLOCK)
        seeds[block_lo:block_hi] = root.generate_state(block_hi - block_lo, np.uint64)
        for lo in range(block_lo, block_hi, chunk):
            hi = min(lo + chunk, block_hi)
            m = hi - lo
            # Position measurements of every trial and step, in place.
            z = pos_gen.standard_normal((m, k_eval + 1, 2))
            z *= sigma_z
            z += truth
            rss_noise = rss_gen.standard_normal((m, n_anchors))

            # Initialization from the first measurement, zero velocity.
            x = z[:, 0, 0].copy()
            y = z[:, 0, 1].copy()
            vx = np.zeros(m)
            vy = np.zeros(m)
            for k in range(1, k_eval + 1):
                ux, uy = accels[k]
                g00, g01, g10, g11, g20, g21, g30, g31 = gains[k - 1]
                px = x + dt * vx + half * ux
                py = y + dt * vy + half * uy
                ix = z[:, k, 0] - px
                iy = z[:, k, 1] - py
                x = px + (g00 * ix + g01 * iy)
                y = py + (g10 * ix + g11 * iy)
                vx = vx + dt * ux + (g20 * ix + g21 * iy)
                vy = vy + dt * uy + (g30 * ix + g31 * iy)

            tx = np.where(is_pue[lo:hi, None], attacker_xy[lo:hi], truth[k_eval])
            for j in range(n_anchors):
                d_kf[lo:hi, j] = np.hypot(x - anchor_xy[j, 0], y - anchor_xy[j, 1])
                d_tx = np.hypot(tx[:, 0] - anchor_xy[j, 0], tx[:, 1] - anchor_xy[j, 1])
                if (d_tx <= 0.0).any():
                    raise InvalidInputError(
                        f"transmitter coincides with anchor {scenario.anchors[j].id!r}"
                    )
                pr = -10.0 * link.alpha * np.log10(d_tx) + a_link + sigma_db * rss_noise[:, j]
                d_rss[lo:hi, j] = 10.0 ** ((a_link - pr) / (10.0 * link.alpha))

    residuals, attacker_flag = _fuse(np.abs(d_kf - d_rss), config)
    return _CellResult(is_pue.copy(), d_kf, d_rss, residuals, attacker_flag, seeds)


def _schedule_labels(n_trials: int, schedule_mix: float) -> np.ndarray:
    n_pue = round(schedule_mix * n_trials)
    return np.arange(n_trials) < n_pue


def _validate_run_args(n_trials: int, schedule_mix: float, master_seed: int) -> None:
    if n_trials < 1:
        raise InvalidInputError(f"n_trials must be >= 1, got {n_trials}")
    if not 0.0 <= schedule_mix <= 1.0:
        raise InvalidInputError(f"schedule_mix must be in [0, 1], got {schedule_mix}")
    if not (isinstance(master_seed, (int, np.integer)) and master_seed >= 0):
        raise InvalidInputError(f"master_seed must be a non-negative integer, got {master_seed!r}")


def run_trials(
    scenario_template: Scenario,
    config: DetectorConfig,
    n_trials: int,
    schedule_mix: float,
    master_seed: int,
    chunk_size: int | None = None,
) -> list[TrialOutcome]:
    """Run independent detection trials; each is a full tracking run evaluated
    at the scenario's designated step, with the trial's schedule label deciding
    which transmitter emits there."""
    _validate_run_args(n_trials, schedule_mix, master_seed)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    attacker_xy = np.tile(np.asarray(scenario_template.attacker_pos, float), (n_trials, 1))
    cell = _run_cell(scenario_template, config, is_pue, attacker_xy, master_seed, chunk_size)
    return cell.outcomes()


def reference_trial(
    scenario: Scenario,
    config: DetectorConfig,
    master_seed: int,
    trial_index: int,
    scheduled: str = PU,
) -> TrialOutcome:
    """One trial executed through the plain per-step API (no batching).

    This is the readable statement of the trial procedure; the batched engine
    must agree with it, and tests enforce that.
    """
    block, row = divmod(trial_index, BLOCK)
    root, pos_gen, rss_gen = block_streams(master_seed, block)
    k_eval = scenario.evaluation_step
    run = with_schedule_at(scenario, k_eval, scheduled)
    # Skip the rows of the block's earlier trials.
    pos_gen.standard_normal((row, k_eval + 1, 2))
    rss_gen.standard_normal((row, len(run.anchors)))

    times = [run.step_time(k) for k in range(k_eval + 1)]
    zs = [emit_position_measurement(run, k, pos_gen) for k in range(k_eval + 1)]
    motion, meas_model = _filter_models(run)
    accels = _step_accels(run, k_eval)
    init = initial_estimate(zs[0], meas_model, run.v_max)
    estimates = track(times, zs, motion, meas_model, init=init, accels=accels)

    samples = [emit_rss(run, k_eval, a, rss_gen) for a in run.anchors]
    verdict = detect_step(estimates[k_eval], samples, run.anchors, run.link, config)
    seed = int(root.generate_state(row + 1, np.uint64)[row])
    return TrialOutcome(scheduled, verdict.label, verdict.residual, seed)


def _default_bearings(scenario: Scenario, eval_step: int) -> tuple[float, float]:
    """Collinear pair (toward / away from the designated anchor).

    Off-axis bearings shrink the observable residual below the true
    PU-attacker distance; the collinear default keeps the sweep axis equal to
    the detectable offset, which is the regime the comparison figures assume.
    """
    pu = truth_at(scenario, eval_step)
    anchor = scenario.anchors[0]
    theta = math.atan2(anchor.y - pu.y, anchor.x - pu.x)
    return (theta, theta + math.pi)


def _attacker_positions(
    scenario: Scenario,
    eval_step: int,
    distance: float,
    bearings: Sequence[float],
    n_trials: int,
) -> np.ndarray:
    pos = np.array(
        [
            place_attacker_at_offset(scenario.trajectory, eval_step, distance, b, dt=scenario.dt)
            for b in bearings
        ]
    )
    return pos[np.arange(n_trials) % len(bearings)]


def sweep_distance(
    base: Scenario,
    distances: Sequence[float],
    snr_db_list: Sequence[float],
    config: DetectorConfig,
    n_trials: int,
    master_seed: int,
    snr_calibration: float = 10.0,
    bearings: Sequence[float] | None = None,
    schedule_mix: float = 0.5,
    chunk_size: int | None = None,
) -> list[MetricsReport]:
    """One MetricsReport per (attacker distance, SNR) cell, distance-major."""
    if not distances or not snr_db_list:
        raise InvalidInputError("distances and snr_db_list must be non-empty")
    _validate_run_args(n_trials, schedule_mix, master_seed)
    k_eval = base.evaluation_step
    brg = tuple(bearings) if bearings else _default_bearings(base, k_eval)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    kinematics = _kinematics(base)
    reports = []
    for i, d in enumerate(distances):
        attacker_xy = _attacker_positions(base, k_eval, d, brg, n_trials)
        for j, snr in enumerate(snr_db_list):
            cell_scenario = replace(base, rss_noise=sigma_from_snr(snr, snr_calibration))
            cell = _run_cell(
                cell_scenario, config, is_pue, attacker_xy,
                child_seed(master_seed, 0, i, j), chunk_size, kinematics,
            )
            reports.append(
                metrics(cell.outcomes(), SweepCoords(float(d), float(snr), config.tau))
            )
    return reports


def sweep_roc(
    base: Scenario,
    d_pu_pue: float,
    snr_db_list: Sequence[float],
    pfa_targets: Sequence[float],
    n_trials: int,
    master_seed: int,
    snr_calibration: float = 10.0,
    n_calibration: int | None = None,
    bearings: Sequence[float] | None = None,
    schedule_mix: float = 0.5,
    fusion: str = SINGLE_ANCHOR,
    chunk_size: int | None = None,
) -> list[MetricsReport]:
    """Calibrated-threshold operating points: per SNR, tau is fitted to each
    false-alarm target on a fresh legitimate-only calibration set and then
    evaluated on held-out trials."""
    if not snr_db_list or not pfa_targets:
        raise InvalidInputError("snr_db_list and pfa_targets must be non-empty")
    if any(not 0.0 < t < 1.0 for t in pfa_targets):
        raise InvalidInputError("pfa targets must lie in (0, 1)")
    _validate_run_args(n_trials, schedule_mix, master_seed)
    n_cal = n_calibration if n_calibration is not None else n_trials
    if n_cal < 1:
        raise InvalidInputError("n_calibration must be >= 1")

    k_eval = base.evaluation_step
    brg = tuple(bearings) if bearings else _default_bearings(base, k_eval)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    probe = DetectorConfig(tau=0.0, fusion=fusion)
    kinematics = _kinematics(base)
    reports = []
    for j, snr in enumerate(snr_db_list):
        cell_scenario = replace(base, rss_noise=sigma_from_snr(snr, snr_calibration))
        cal = _run_cell(
            cell_scenario, probe,
            np.zeros(n_cal, dtype=bool), np.zeros((n_cal, 2)),
            child_seed(master_seed, 1, j, 0), chunk_size, kinematics,
        )
        attacker_xy = _attacker_positions(base, k_eval, d_pu_pue, brg, n_trials)
        eval_cell = _run_cell(
            cell_scenario, probe, is_pue, attacker_xy,
            child_seed(master_seed, 1, j, 1), chunk_size, kinematics,
        )
        for target in pfa_targets:
            cfg = calibrate_tau(cal.residuals, target, fusion)
            _, flag = _fuse(np.abs(eval_cell.d_kf - eval_cell.d_rss), cfg)
            relabeled = _CellResult(
                eval_cell.is_pue, eval_cell.d_kf, eval_cell.d_rss,
                eval_cell.residuals, flag, eval_cell.seeds,
            )
            reports.append(
                metrics(relabeled.outcomes(), SweepCoords(float(d_pu_pue), float(snr), cfg.tau))
            )
    return reports


def _eval_step_for_distance(scenario: Scenario, reference: np.ndarray, distance: float) -> int:
    """First step at which the PU has moved at least `distance` from `reference`."""
    for k in range(scenario.n_steps):
        pos = truth_at(scenario, k).position
        if math.hypot(pos[0] - reference[0], pos[1] - reference[1]) >= distance:
            return k
    raise InvalidInputError(
        f"trajectory never reaches {distance} m from the reference position"
    )


def compare_baseline(
    base: Scenario,
    config: DetectorConfig,
    n_trials: int,
    master_seed: int,
    distances: Sequence[float] = (30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0),
    schedule_mix: float = 0.5,
    chunk_size: int | None = None,
) -> list[BaselineComparison]:
    """Paired evaluation of the tracking detector against the static-reference
    RSS baseline as the PU walks away from a fixed attacker.

    Both detectors consume the identical trial streams (same measurements,
    same RSS samples); the baseline's reference stays at the PU's initial
    position for the whole run.
    """
    if not distances:
        raise InvalidInputError("distances must be non-empty")
    _validate_run_args(n_trials, schedule_mix, master_seed)
    reference = np.array(base.trajectory.positions[0])
    anchor_xy = np.array([[a.x, a.y] for a in base.anchors])
    d_ref = np.hypot(reference[0] - anchor_xy[:, 0], reference[1] - anchor_xy[:, 1])
    is_pue = _schedule_labels(n_trials, schedule_mix)
    attacker_xy = np.tile(np.asarray(base.attacker_pos, float), (n_trials, 1))

    eval_steps = [_eval_step_for_distance(base, reference, d) for d in distances]
    # One recursion up to the latest evaluation step; each cell reads a prefix.
    kinematics = _kinematics(replace(base, eval_step=max(eval_steps)))

    rows = []
    for i, (d, k) in enumerate(zip(distances, eval_steps)):
        pos = kinematics.truth[k]
        actual = float(np.hypot(pos[0] - base.attacker_pos[0], pos[1] - base.attacker_pos[1]))
        cell_scenario = replace(base, eval_step=k)
        cell = _run_cell(
            cell_scenario, config, is_pue, attacker_xy,
            child_seed(master_seed, 2, i), chunk_size, kinematics.upto(k),
        )
        base_res, base_flag = _fuse(np.abs(d_ref[None, :] - cell.d_rss), config)
        baseline_cell = _CellResult(
            cell.is_pue, np.tile(d_ref, (n_trials, 1)), cell.d_rss,
            base_res, base_flag, cell.seeds,
        )
        coords = SweepCoords(float(d), None, config.tau)
        rows.append(
            BaselineComparison(
                float(d), actual,
                metrics(cell.outcomes(), coords),
                metrics(baseline_cell.outcomes(), coords),
            )
        )
    return rows


def calibrated_config(
    base: Scenario,
    target_pfa: float,
    n_trials: int,
    master_seed: int,
    fusion: str = SINGLE_ANCHOR,
    chunk_size: int | None = None,
) -> DetectorConfig:
    """Fit tau on legitimate-only trials of the given scenario."""
    _validate_run_args(n_trials, 0.0, master_seed)
    probe = DetectorConfig(tau=0.0, fusion=fusion)
    cal = _run_cell(
        base, probe, np.zeros(n_trials, dtype=bool), np.zeros((n_trials, 2)),
        child_seed(master_seed, 3), chunk_size,
    )
    return calibrate_tau(cal.residuals, target_pfa, fusion)

"""Seeded Monte Carlo harness: detection / false-alarm / miss probabilities
over sweeps of attacker distance, SNR, and threshold.

A cell's trials draw from one substream root, derived from (master_seed, 0)
by :func:`cell_streams`, with one generator for position noise and one for
RSS noise.  Trial i takes row i of each generator's trial-major draws, so a
run of n trials is a prefix of a longer run.  The filter's gains do not
depend on the data, so its estimate at the evaluation step K is a fixed
linear map of the trial's measurement noise,
``offset + meas_noise_std * W @ noise`` (:meth:`Scenario.estimate_weights`),
and its exact law is ``N(offset, meas_noise_std**2 * W @ W.T)``.  The
engine draws it directly: two standard normals eta per trial, mapped by the
lower Cholesky factor L of ``W @ W.T``, instead of the 2(K + 1) measurement
normals that W would contract to the same law.  Each sweep computes W and
the offset once for all of its cells.  Ranging and its checks run once over
the whole cell.  :func:`run_cell` returns a :class:`Cell` of per-trial
arrays, which is scored at any threshold without re-running it.  The sweeps
run their cells one after another, in cell order, so the first failing cell
decides the error.

:func:`reference_trial` is the plain one-trial-at-a-time statement of the
same procedure: it conditions the 2(K + 1) measurement normals on the
trial's draw, ``xi = W⁺ L eta + (I - W⁺ W) zeta`` with zeta from a stream of
the trial's own, which gives ``W @ xi = L eta`` and leaves xi standard
normal, and runs the filter step by step over ``truth + meas_noise_std * xi``.
Tests hold the two routes together, so a wrong weight map or offset still
shows as a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .config import SweepSettings
from .detection import (
    ATTACKER,
    LEGITIMATE,
    OR_ACROSS_ANCHORS,
    SINGLE_ANCHOR,
    DetectorConfig,
    calibrate_tau,
    detect_step,
)
from .errors import InvalidInputError, NumericalDegeneracyError
from .propagation import sigma_from_snr
from .scenario import (
    PU,
    PUE,
    Scenario,
    emit_rss,
    truth_at,
)

@dataclass(frozen=True)
class TrialOutcome:
    """One Monte Carlo trial: what was scheduled, what the detector said."""

    scheduled: str
    verdict: str
    residual: float
    seed: int


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


def _count(is_pue: np.ndarray, flags: np.ndarray, sweep_coords: SweepCoords | None) -> MetricsReport:
    """Detection / false-alarm / miss probabilities from per-trial schedule
    labels (True = attacker transmits) and attacker verdicts."""
    if is_pue.size == 0:
        raise InvalidInputError("need at least one trial outcome")
    n_attack = int(np.count_nonzero(is_pue))
    n_legit = is_pue.size - n_attack
    detections = int(np.count_nonzero(flags & is_pue))
    false_alarms = int(np.count_nonzero(flags & ~is_pue))
    pd = detections / n_attack if n_attack else None
    pm = (n_attack - detections) / n_attack if n_attack else None
    pfa = false_alarms / n_legit if n_legit else None
    return MetricsReport(pd, pfa, pm, n_attack, n_legit, sweep_coords)


def metrics(outcomes: Sequence[TrialOutcome], sweep_coords: SweepCoords | None = None) -> MetricsReport:
    """Count outcomes into detection / false-alarm / miss probabilities."""
    is_pue = np.array([o.scheduled == PUE for o in outcomes], dtype=bool)
    flags = np.array([o.verdict == ATTACKER for o in outcomes], dtype=bool)
    return _count(is_pue, flags, sweep_coords)


def cell_streams(master_seed: int) -> tuple[np.random.SeedSequence, np.random.Generator, np.random.Generator]:
    """The substream root of a cell's trials, with its position-noise and
    RSS-noise generators; the whole harness derives trial randomness only
    through this function.

    Row i of the root's ``generate_state(n, np.uint64)`` is the seed reported
    for trial i.  The root's third child feeds only :func:`reference_trial`,
    so the first two never change.  The entropy ``(master_seed, 0)`` is part
    of the determinism contract: the committed results were drawn from it.
    """
    root = np.random.SeedSequence((master_seed, 0))
    pos, rss = root.spawn(2)
    return root, np.random.default_rng(pos), np.random.default_rng(rss)


def child_seed(master_seed: int, *path: int) -> int:
    """A derived 64-bit seed for a sub-experiment (one sweep cell, etc.)."""
    ss = np.random.SeedSequence((master_seed,) + tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _eval_weights(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scenario's :meth:`Scenario.estimate_weights` at its evaluation step."""
    k_eval = scenario.evaluation_step
    return scenario.estimate_weights((k_eval,))[k_eval]


def _estimate_factor(weights: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of ``weights @ weights.T``, so that
    ``L @ eta`` for eta ~ N(0, I_2) has the law of ``weights @ noise``.  All-zero
    weights mean a point-mass estimate, L = 0; any other singular product
    raises NumericalDegeneracyError."""
    if not weights.any():
        return np.zeros((2, 2))
    try:
        return np.linalg.cholesky(weights @ weights.T)
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError("estimate covariance W W^T is singular") from None


@dataclass(frozen=True)
class Cell:
    """The trials of one experiment cell as arrays, ready to score at any
    detector setting: the schedule label (True = the attacker transmits) of
    each trial, the tracker-implied and RSS-implied distance from each trial's
    transmitter to each anchor, shape (n_trials, n_anchors), and each trial's
    reported seed."""

    is_pue: np.ndarray
    d_kf: np.ndarray
    d_rss: np.ndarray
    seeds: np.ndarray

    def residuals(self, fusion: str) -> np.ndarray:
        """Per-trial residual |d_kf - d_rss|: the designated (first) anchor's
        under single fusion, the largest across anchors under or-fusion."""
        res = np.abs(self.d_kf - self.d_rss)
        return res.max(axis=1) if fusion == OR_ACROSS_ANCHORS else res[:, 0]

    def flags(self, config: DetectorConfig) -> np.ndarray:
        """Per-trial attacker verdict: residual >= tau (a tie is an attack)."""
        return self.residuals(config.fusion) >= config.tau

    def score(self, config: DetectorConfig, coords: SweepCoords | None = None) -> MetricsReport:
        """Detection / false-alarm / miss probabilities at `config`."""
        return _count(self.is_pue, self.flags(config), coords)

    def outcomes(self, config: DetectorConfig) -> list[TrialOutcome]:
        """One :class:`TrialOutcome` per trial at `config`."""
        return [
            TrialOutcome(PUE if pue else PU, ATTACKER if flag else LEGITIMATE, res, seed)
            for pue, flag, res, seed in zip(
                self.is_pue.tolist(),
                self.flags(config).tolist(),
                self.residuals(config.fusion).tolist(),
                self.seeds.tolist(),
            )
        ]


def run_cell(
    scenario: Scenario,
    is_pue: np.ndarray,
    attacker_xy: np.ndarray,
    master_seed: int,
    weight_map: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Cell:
    """Run one cell's trials, vectorized: trial i transmits from
    ``attacker_xy[i]`` at the evaluation step if ``is_pue[i]``, else from the
    PU's true position.

    Per trial, the cell's position generator yields two standard normals,
    which set the estimate from its exact law, and the RSS generator one per
    anchor; :func:`reference_trial` consumes the identical rows.
    `weight_map` is the scenario's ``estimate_weights`` entry for the
    evaluation step, passed in by sweeps that share it across cells and
    computed here otherwise.  Ranging and its checks (every anchor's readings,
    in anchor order, before any inversion) run once over the cell.
    """
    is_pue = np.array(is_pue, dtype=bool)
    attacker_xy = np.asarray(attacker_xy, dtype=float)
    n = len(is_pue)
    if n < 1 or attacker_xy.shape != (n, 2):
        raise InvalidInputError("need n >= 1 schedule labels and n x 2 attacker positions")
    truth, weights, offset = weight_map if weight_map is not None else _eval_weights(scenario)
    factor = _estimate_factor(weights)
    link = scenario.link
    a_link = link.link_constant_db
    root, pos_gen, rss_gen = cell_streams(master_seed)
    seeds = root.generate_state(n, np.uint64)
    eta = pos_gen.standard_normal((n, 2))
    rss_noise = rss_gen.standard_normal((n, len(scenario.anchors)))

    # est = offset + sigma_z * L @ eta per row, written elementwise so that a
    # row's value does not depend on how many rows the cell has.
    est = eta[:, :1] * factor[:, 0] + eta[:, 1:] * factor[:, 1]
    est *= scenario.meas_noise_std
    est += offset

    # Range every trial at every anchor; the checks report any limit hit.
    tx = np.where(is_pue[:, None], attacker_xy, truth)
    ax, ay = np.array([(a.x, a.y) for a in scenario.anchors]).T
    d_kf = np.hypot(est[:, :1] - ax, est[:, 1:] - ay)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_tx = np.hypot(tx[:, :1] - ax, tx[:, 1:] - ay)
        pr = -10.0 * link.alpha * np.log10(d_tx) + a_link + scenario.rss_noise.sigma_db * rss_noise
        d_rss = 10.0 ** ((a_link - pr) / (10.0 * link.alpha))

    # Every reading is checked, in anchor order, before any inversion.
    for j, anchor in enumerate(scenario.anchors):
        if (d_tx[:, j] <= 0.0).any():
            raise InvalidInputError(f"transmitter coincides with anchor {anchor.id!r}")
        bad = ~np.isfinite(pr[:, j])
        if bad.any():
            raise InvalidInputError(f"pr_db must be finite, got {pr[bad, j][0]} at anchor {anchor.id!r}")
    bad = ~np.isfinite(d_rss).all(axis=0)
    if bad.any():
        raise NumericalDegeneracyError(
            f"anchor {scenario.anchors[bad.argmax()].id!r}: RSS-implied distance left the finite range"
        )
    return Cell(is_pue, d_kf, d_rss, seeds)


def _schedule_labels(n_trials: int, schedule_mix: float) -> np.ndarray:
    n_pue = round(schedule_mix * n_trials)
    return np.arange(n_trials) < n_pue


def _validate_run_args(n_trials: int, schedule_mix: float, master_seed: int) -> None:
    if not (isinstance(n_trials, (int, np.integer)) and n_trials >= 1):
        raise InvalidInputError(f"n_trials must be an integer >= 1, got {n_trials!r}")
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
) -> list[TrialOutcome]:
    """Run independent detection trials; each is a full tracking run evaluated
    at the scenario's designated step, with the trial's schedule label deciding
    which transmitter emits there."""
    _validate_run_args(n_trials, schedule_mix, master_seed)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    attacker_xy = np.tile(np.asarray(scenario_template.attacker_pos, float), (n_trials, 1))
    return run_cell(scenario_template, is_pue, attacker_xy, master_seed).outcomes(config)


def reference_trial(
    scenario: Scenario,
    config: DetectorConfig,
    master_seed: int,
    trial_index: int,
    scheduled: str = PU,
) -> TrialOutcome:
    """One trial, unbatched: its measurements emitted step by step, tracked by
    :meth:`Scenario.track`, and :func:`detect_step` at the estimated position.

    The measurement noise xi of steps 0..K is drawn given the trial's two
    position normals eta: ``xi = W⁺ L eta + (I - W⁺ W) zeta``, with zeta the
    2(K + 1) normals of the trial's own child of the root's third child.  Then
    ``W @ xi = L eta``, and xi is standard normal for any W of full row rank,
    so the measurements keep their law.  This is the readable statement of
    the trial procedure; the batched engine must agree with it, and tests
    enforce that.  `scheduled` names the transmitter at the evaluation step:
    PU at its true position, or PUE at the scenario's attacker position.
    """
    if scheduled not in (PU, PUE):
        raise InvalidInputError(f"invalid schedule label {scheduled!r}")
    root, pos_gen, rss_gen = cell_streams(master_seed)
    null_gen = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(2, trial_index)))
    k_eval = scenario.evaluation_step
    # Row `trial_index` of the cell's trial-major draws.
    eta = pos_gen.standard_normal((trial_index + 1, 2))[trial_index]
    rss_gen.standard_normal((trial_index, len(scenario.anchors)))
    zeta = null_gen.standard_normal(2 * (k_eval + 1))

    _, weights, _ = _eval_weights(scenario)
    xi = zeta + np.linalg.pinv(weights) @ (_estimate_factor(weights) @ eta - weights @ zeta)
    zs = scenario.truth_path(k_eval) + scenario.meas_noise_std * xi.reshape(k_eval + 1, 2)
    position = scenario.track(zs)[k_eval, :2]

    tx = scenario.attacker_pos if scheduled == PUE else truth_at(scenario, k_eval).position
    samples = [emit_rss(scenario, tx, a, rss_gen) for a in scenario.anchors]
    verdict = detect_step(position, samples, scenario.anchors, scenario.link, config)
    seed = int(root.generate_state(trial_index + 1, np.uint64)[trial_index])
    return TrialOutcome(scheduled, verdict.label, verdict.residual, seed)


def attacker_positions(
    scenario: Scenario,
    distance: float,
    n_trials: int,
    bearings: Sequence[float] | None = None,
) -> np.ndarray:
    """Attacker position of each of `n_trials` trials, shape (n_trials, 2):
    `distance` from the PU's true position at the evaluation step, at the
    given absolute bearings (rad) in turn.  Raises InvalidInputError unless
    `distance` is finite and >= 0 and every bearing is finite.

    No bearings means the collinear pair toward / away from the designated
    anchor.  Off-axis bearings shrink the observable residual below the true
    PU-attacker distance; the collinear default keeps the sweep axis equal to
    the detectable offset, which is the regime the comparison figures assume.
    """
    if not (math.isfinite(distance) and distance >= 0.0):
        raise InvalidInputError(f"attacker distance must be >= 0, got {distance}")
    if bearings and not all(math.isfinite(b) for b in bearings):
        raise InvalidInputError(f"attacker bearings must be finite, got {tuple(bearings)}")
    pu = truth_at(scenario, scenario.evaluation_step)
    if not bearings:
        anchor = scenario.anchors[0]
        theta = math.atan2(anchor.y - pu.y, anchor.x - pu.x)
        bearings = (theta, theta + math.pi)
    pos = np.array([(pu.x + distance * math.cos(b), pu.y + distance * math.sin(b)) for b in bearings])
    return pos[np.arange(n_trials) % len(bearings)]


def sweep_distance(
    base: Scenario,
    distances: Sequence[float],
    snr_db_list: Sequence[float],
    config: DetectorConfig,
    n_trials: int,
    master_seed: int,
    snr_calibration: float,
    bearings: Sequence[float] | None = None,
    schedule_mix: float = SweepSettings.schedule_mix,
) -> list[MetricsReport]:
    """One MetricsReport per (attacker distance, SNR) cell, distance-major."""
    if not distances or not snr_db_list:
        raise InvalidInputError("distances and snr_db_list must be non-empty")
    _validate_run_args(n_trials, schedule_mix, master_seed)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    # Every argument is checked before the first cell runs.
    positions = [attacker_positions(base, d, n_trials, bearings) for d in distances]
    noises = [sigma_from_snr(snr, snr_calibration) for snr in snr_db_list]
    weight_map = _eval_weights(base)
    return [
        run_cell(
            replace(base, rss_noise=noise), is_pue, attacker_xy, child_seed(master_seed, 0, i, j), weight_map
        ).score(config, SweepCoords(float(d), float(snr), config.tau))
        for i, (d, attacker_xy) in enumerate(zip(distances, positions))
        for j, (snr, noise) in enumerate(zip(snr_db_list, noises))
    ]


def sweep_roc(
    base: Scenario,
    d_pu_pue: float,
    snr_db_list: Sequence[float],
    pfa_targets: Sequence[float],
    n_trials: int,
    master_seed: int,
    snr_calibration: float,
    n_calibration: int | None = None,
    bearings: Sequence[float] | None = None,
    schedule_mix: float = SweepSettings.schedule_mix,
    fusion: str = SINGLE_ANCHOR,
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
    if not (isinstance(n_cal, (int, np.integer)) and n_cal >= 1):
        raise InvalidInputError(f"n_calibration must be an integer >= 1, got {n_cal!r}")

    is_pue = _schedule_labels(n_trials, schedule_mix)
    attacker_xy = attacker_positions(base, d_pu_pue, n_trials, bearings)
    noises = [sigma_from_snr(snr, snr_calibration) for snr in snr_db_list]
    weight_map = _eval_weights(base)
    reports = []
    # Each SNR's calibration cell, then its evaluation cell.
    for j, (snr, noise) in enumerate(zip(snr_db_list, noises)):
        cell_scenario = replace(base, rss_noise=noise)
        cal = run_cell(
            cell_scenario, np.zeros(n_cal, dtype=bool), np.zeros((n_cal, 2)),
            child_seed(master_seed, 1, j, 0), weight_map,
        )
        eval_cell = run_cell(cell_scenario, is_pue, attacker_xy, child_seed(master_seed, 1, j, 1), weight_map)
        cal_residuals = cal.residuals(fusion)
        for target in pfa_targets:
            cfg = calibrate_tau(cal_residuals, target, fusion)
            reports.append(eval_cell.score(cfg, SweepCoords(float(d_pu_pue), float(snr), cfg.tau)))
    return reports


def _eval_steps_for_distances(scenario: Scenario, reference: np.ndarray, distances: Sequence[float]) -> list[int]:
    """For each of `distances`, the first step at which the PU has moved that far from `reference`."""
    rx, ry = reference.tolist()
    moved = [math.hypot(x - rx, y - ry) for x, y in scenario.truth_path(scenario.n_steps - 1).tolist()]
    reached = np.array(moved) >= np.array(distances, float)[:, None]
    found = reached.any(axis=1)
    if not found.all():
        raise InvalidInputError(f"trajectory never reaches {distances[found.argmin()]} m from the reference position")
    return reached.argmax(axis=1).tolist()


def compare_baseline(
    base: Scenario,
    config: DetectorConfig,
    n_trials: int,
    master_seed: int,
    distances: Sequence[float],
    schedule_mix: float = SweepSettings.schedule_mix,
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
    reference = np.array(base.trajectory.start)
    anchor_xy = np.array([[a.x, a.y] for a in base.anchors])
    d_ref = np.hypot(reference[0] - anchor_xy[:, 0], reference[1] - anchor_xy[:, 1])
    is_pue = _schedule_labels(n_trials, schedule_mix)
    attacker_xy = np.tile(np.asarray(base.attacker_pos, float), (n_trials, 1))

    eval_steps = _eval_steps_for_distances(base, reference, distances)
    # One recursion up to the latest evaluation step, snapshotted at each.
    weight_maps = base.estimate_weights(eval_steps)

    rows = []
    for i, (d, k) in enumerate(zip(distances, eval_steps)):
        cell = run_cell(replace(base, eval_step=k), is_pue, attacker_xy, child_seed(master_seed, 2, i), weight_maps[k])
        pos = weight_maps[k][0]
        actual = float(np.hypot(pos[0] - base.attacker_pos[0], pos[1] - base.attacker_pos[1]))
        # The baseline reads the same RSS against its fixed reference.
        baseline = replace(cell, d_kf=np.broadcast_to(d_ref, cell.d_kf.shape))
        coords = SweepCoords(float(d), None, config.tau)
        rows.append(
            BaselineComparison(float(d), actual, cell.score(config, coords), baseline.score(config, coords))
        )
    return rows


def calibrated_config(
    base: Scenario,
    target_pfa: float,
    n_trials: int,
    master_seed: int,
    fusion: str = SINGLE_ANCHOR,
) -> DetectorConfig:
    """Fit tau on legitimate-only trials of the given scenario."""
    _validate_run_args(n_trials, 0.0, master_seed)
    cal = run_cell(
        base, np.zeros(n_trials, dtype=bool), np.zeros((n_trials, 2)),
        child_seed(master_seed, 3),
    )
    return calibrate_tau(cal.residuals(fusion), target_pfa, fusion)

"""Seeded Monte Carlo harness: detection / false-alarm / miss probabilities
over sweeps of attacker distance, SNR, and threshold.

Trials are seeded in fixed blocks of :data:`BLOCK`: block b holds trials
[b * BLOCK, (b + 1) * BLOCK) and owns one substream root derived from
(master_seed, b) by :func:`block_streams`, with one generator for position
noise and one for RSS noise.  Trial r of a block takes row r of each
generator's trial-major draws, so results do not depend on chunking: a chunk
continues its block's generators, and a smaller draw is a prefix of a larger
one.  The batched engine shares the truth path and the covariance/gain
recursion across trials (none of it depends on measurement data in a linear
filter), and each sweep computes them once for all of its cells, as the
weight map of :meth:`Scenario.estimate_weights`: the filter's estimate at the
evaluation step is a fixed linear combination of the trial's position-noise
draws plus a fixed offset.  The weights are a C-contiguous (2, 2(K + 1))
block, so a chunk's (rows, 2(K + 1)) draws and the weights are both
contiguous along the summed axis, and one ``np.einsum`` contracts them with
numpy's contiguous dot loop.  That loop sums a row in an order that does not
depend on how many rows the chunk has; BLAS ``@`` is not used because its
blocking does, which would let results differ in the last bits between chunk
sizes.  Everything else per trial is elementwise, so chunked and unchunked
runs are bit-identical.
:func:`run_cell` returns a :class:`Cell` of per-trial arrays, which is scored
at any threshold without re-running it.  The sweeps run their cells on one
worker thread per CPU (numpy releases the GIL while it draws and contracts)
and score them in cell order; a cell depends only on its own seed, so the
results do not depend on the thread count.  :func:`reference_trial` is the plain
one-trial-at-a-time statement of the same procedure, running the filter step
by step; tests hold the two routes together.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

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
    emit_position_measurement,
    emit_rss,
    truth_at,
)

# Position-noise draws per chunk: a chunk of a cell evaluated at step K holds
# max(1, CHUNK_DRAWS // (2(K + 1))) trials, so its buffers stay small (and
# cache-resident) whatever K is.
CHUNK_DRAWS = 1 << 15

# Trials per seeding block: each block of trials owns one substream root.
BLOCK = 4096


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


def _eval_weights(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scenario's :meth:`Scenario.estimate_weights` at its evaluation step."""
    k_eval = scenario.evaluation_step
    return scenario.estimate_weights((k_eval,))[k_eval]


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

    Per trial, the position generator of its block yields (eval_step + 1) x 2
    standard normals for position measurements and the RSS generator one per
    anchor; :func:`reference_trial` consumes the identical rows.
    `weight_map` is the scenario's ``estimate_weights`` entry for the
    evaluation step, passed in by sweeps that share it across cells and computed here
    otherwise.
    """
    is_pue = np.array(is_pue, dtype=bool)
    attacker_xy = np.asarray(attacker_xy, dtype=float)
    n = len(is_pue)
    if n < 1 or attacker_xy.shape != (n, 2):
        raise InvalidInputError("need n >= 1 schedule labels and n x 2 attacker positions")
    k_eval = scenario.evaluation_step
    n_anchors = len(scenario.anchors)
    chunk = max(1, CHUNK_DRAWS // (2 * (k_eval + 1)))
    truth, weights, offset = weight_map if weight_map is not None else _eval_weights(scenario)
    link = scenario.link
    a_link = link.link_constant_db
    sigma_z = scenario.meas_noise_std
    sigma_db = scenario.rss_noise.sigma_db

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
            noise = pos_gen.standard_normal((m, k_eval + 1, 2))
            rss_noise = rss_gen.standard_normal((m, n_anchors))
            # The filter's estimate at the evaluation step, one row per trial.
            # einsum, not BLAS `@`: its per-row sum order does not depend on
            # the chunk's row count, which keeps chunking bit-exact.
            est = np.einsum("mk,jk->mj", noise.reshape(m, -1), weights)
            est *= sigma_z
            est += offset
            x, y = est[:, 0], est[:, 1]

            # Every anchor's reading is emitted and checked before any is
            # inverted, in the order reference_trial emits them; an
            # overflowing reading or inversion is reported by the checks.
            tx = np.where(is_pue[lo:hi, None], attacker_xy[lo:hi], truth)
            pr = np.empty((m, n_anchors))
            for j, anchor in enumerate(scenario.anchors):
                d_kf[lo:hi, j] = np.hypot(x - anchor.x, y - anchor.y)
                d_tx = np.hypot(tx[:, 0] - anchor.x, tx[:, 1] - anchor.y)
                if (d_tx <= 0.0).any():
                    raise InvalidInputError(f"transmitter coincides with anchor {anchor.id!r}")
                with np.errstate(over="ignore", invalid="ignore"):
                    pr[:, j] = -10.0 * link.alpha * np.log10(d_tx) + a_link + sigma_db * rss_noise[:, j]
                bad = ~np.isfinite(pr[:, j])
                if bad.any():
                    raise InvalidInputError(
                        f"pr_db must be finite, got {pr[bad, j][0]} at anchor {anchor.id!r}"
                    )
            with np.errstate(over="ignore"):
                d = 10.0 ** ((a_link - pr) / (10.0 * link.alpha))
            for j, anchor in enumerate(scenario.anchors):
                if not np.isfinite(d[:, j]).all():
                    raise NumericalDegeneracyError(
                        f"anchor {anchor.id!r}: RSS-implied distance left the finite range"
                    )
            d_rss[lo:hi] = d

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
    """One trial executed through the plain per-step API (no batching).

    This is the readable statement of the trial procedure; the batched engine
    must agree with it, and tests enforce that.  `scheduled` names the
    transmitter at the evaluation step: PU at its true position, or PUE at
    the scenario's attacker position.
    """
    if scheduled not in (PU, PUE):
        raise InvalidInputError(f"invalid schedule label {scheduled!r}")
    block, row = divmod(trial_index, BLOCK)
    root, pos_gen, rss_gen = block_streams(master_seed, block)
    k_eval = scenario.evaluation_step
    # Skip the rows of the block's earlier trials.
    pos_gen.standard_normal((row, k_eval + 1, 2))
    rss_gen.standard_normal((row, len(scenario.anchors)))

    zs = [emit_position_measurement(scenario, k, pos_gen) for k in range(k_eval + 1)]
    estimates = scenario.track(zs)

    tx = scenario.attacker_pos if scheduled == PUE else truth_at(scenario, k_eval).position
    samples = [emit_rss(scenario, tx, a, rss_gen) for a in scenario.anchors]
    verdict = detect_step(estimates[k_eval], samples, scenario.anchors, scenario.link, config)
    seed = int(root.generate_state(row + 1, np.uint64)[row])
    return TrialOutcome(scheduled, verdict.label, verdict.residual, seed)


def _run_cells(jobs: Sequence[tuple]) -> Iterator[Cell]:
    """:func:`run_cell` of each job's arguments on one worker thread per CPU,
    yielding the cells in job order.  A failed job raises its error when its
    turn comes, so the first failing job in job order decides what a sweep
    raises; the jobs not yet started are then cancelled, and every worker has
    exited before the error leaves."""
    # Imported on first use: the executor's imports (logging, queue) would
    # add about 15 ms to the start-up of every command, sweep or not.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(min(len(jobs), os.cpu_count() or 1))
    try:
        futures = deque(pool.submit(run_cell, *job) for job in jobs)
        while futures:
            # Popped before it is yielded, so a cell lives only until scored.
            yield futures.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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
    weight_map = _eval_weights(base)
    jobs, coords = [], []
    for i, d in enumerate(distances):
        attacker_xy = attacker_positions(base, d, n_trials, bearings)
        for j, snr in enumerate(snr_db_list):
            cell_scenario = replace(base, rss_noise=sigma_from_snr(snr, snr_calibration))
            jobs.append((cell_scenario, is_pue, attacker_xy, child_seed(master_seed, 0, i, j), weight_map))
            coords.append(SweepCoords(float(d), float(snr), config.tau))
    return [cell.score(config, c) for cell, c in zip(_run_cells(jobs), coords)]


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
    weight_map = _eval_weights(base)
    # Each SNR's calibration cell, then its evaluation cell.
    jobs = []
    for j, snr in enumerate(snr_db_list):
        cell_scenario = replace(base, rss_noise=sigma_from_snr(snr, snr_calibration))
        jobs += [
            (cell_scenario, np.zeros(n_cal, dtype=bool), np.zeros((n_cal, 2)),
             child_seed(master_seed, 1, j, 0), weight_map),
            (cell_scenario, is_pue, attacker_xy, child_seed(master_seed, 1, j, 1), weight_map),
        ]
    cells = _run_cells(jobs)
    reports = []
    # zip(cells, cells) pairs each calibration cell with the evaluation cell after it.
    for (cal, eval_cell), snr in zip(zip(cells, cells), snr_db_list):
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

    jobs = [
        (replace(base, eval_step=k), is_pue, attacker_xy, child_seed(master_seed, 2, i), weight_maps[k])
        for i, k in enumerate(eval_steps)
    ]
    rows = []
    for cell, d, k in zip(_run_cells(jobs), distances, eval_steps):
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

"""Seeded Monte Carlo harness: detection / false-alarm / miss probabilities
over sweeps of attacker distance, SNR, and threshold.

A cell's trials draw from one substream root, derived from (master_seed, 0)
by :func:`cell_streams`, with one generator for position noise and one for
RSS noise.  Trial i takes row i of each generator's trial-major draws, so a
run of n trials is a prefix of a longer run, and the cell's seed and i name
the trial.  The filter's gains do not depend on the data, so its estimate at
the evaluation step K is Gaussian: ``N(offset, meas_noise_std**2 * W @
W.T)``, with ``offset`` the noiseless estimate and W the filter's weight map
over the measurements.  Both routes read that law as one
:class:`~puedet.scenario.EstimateLaw` from :meth:`Scenario.estimate_law`
(built in O(K)), which also holds the lower Cholesky factor L of ``W @
W.T``.  The engine draws the estimate from it: two standard normals eta per
trial, mapped as ``offset + meas_noise_std * L @ eta`` one coordinate column
at a time, instead of 2(K + 1) measurement normals.  Each sweep reads the
law once for all of its cells.  A cell has few transmitter sites, the PU's
true position and the attacker's k sites, so each site is ranged to each
anchor once and every trial reads its own site's path loss; the readings are
checked once over the whole cell.
:func:`run_cell` returns a :class:`Cell` of per-trial arrays, which is
scored at any threshold without re-running it.  The sweeps run their cells
one after another, in cell order, so the first failing cell decides the
error.

:func:`reference_trial` is the plain one-trial-at-a-time statement of the
same procedure.  It reads the map W and factor L of the same law, and
conditions the 2(K + 1) measurement normals on the trial's draw, ``xi = W⁺
L eta + (I - W⁺ W) zeta`` with zeta from a stream of the trial's own, which
gives ``W @ xi = L eta`` and leaves xi standard normal.  It then runs the
filter step by step over ``truth + meas_noise_std * xi``, so a wrong W or
offset shows as a disagreement with the engine: tests hold the two routes
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .detection import (
    ATTACKER,
    LEGITIMATE,
    OR_ACROSS_ANCHORS,
    SINGLE_ANCHOR,
    DetectorConfig,
    calibrate_taus,
    check_fusion,
    detect_step,
)
from .errors import InvalidInputError, NumericalDegeneracyError
from .propagation import sigma_from_snr
from .scenario import PU, PUE, EstimateLaw, Scenario, emit_rss, truth_at

# The default share of a cell's trials in which the attacker transmits.
SCHEDULE_MIX = 0.5


@dataclass(frozen=True)
class TrialOutcome:
    """One Monte Carlo trial: what was scheduled, what the detector said, and
    the seed of its cell; that seed and the trial's index replay it through
    :func:`reference_trial`."""

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


def _count(is_pue: np.ndarray, flags: np.ndarray, coords: Sequence[SweepCoords | None]) -> list[MetricsReport]:
    """Detection / false-alarm / miss probabilities from per-trial schedule
    labels (True = attacker transmits) and a matrix of attacker verdicts, one
    row per report, each row with its sweep coordinates; every row is counted
    in one pass."""
    if is_pue.size == 0:
        raise InvalidInputError("need at least one trial outcome")
    n_attack = int(np.count_nonzero(is_pue))
    n_legit = is_pue.size - n_attack
    detections = np.count_nonzero(flags & is_pue, axis=1).tolist()
    false_alarms = np.count_nonzero(flags & ~is_pue, axis=1).tolist()
    return [
        MetricsReport(
            det / n_attack if n_attack else None,
            fa / n_legit if n_legit else None,
            (n_attack - det) / n_attack if n_attack else None,
            n_attack,
            n_legit,
            c,
        )
        for det, fa, c in zip(detections, false_alarms, coords, strict=True)
    ]


def metrics(outcomes: Sequence[TrialOutcome], sweep_coords: SweepCoords | None = None) -> MetricsReport:
    """Count outcomes into detection / false-alarm / miss probabilities."""
    is_pue = np.array([o.scheduled == PUE for o in outcomes], dtype=bool)
    flags = np.array([[o.verdict == ATTACKER for o in outcomes]], dtype=bool)
    return _count(is_pue, flags, [sweep_coords])[0]


def _check_index(value: int, name: str) -> None:
    """InvalidInputError naming `name` unless `value` is a non-negative integer."""
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise InvalidInputError(f"{name} must be a non-negative integer, got {value!r}")


def cell_streams(master_seed: int) -> tuple[np.random.SeedSequence, np.random.Generator, np.random.Generator]:
    """The substream root of a cell's trials, with its position-noise and
    RSS-noise generators; the whole harness derives trial randomness only
    through this function.

    Trial i reads row i of each generator's draws, so no trial has a seed of
    its own.  The root's third child feeds only :func:`reference_trial`, so
    the first two never change.  The entropy ``(master_seed, 0)`` is part
    of the determinism contract: the committed results were drawn from it.
    Raises InvalidInputError unless `master_seed` is a non-negative integer.
    """
    _check_index(master_seed, "master_seed")
    root = np.random.SeedSequence((master_seed, 0))
    pos, rss = root.spawn(2)
    return root, np.random.default_rng(pos), np.random.default_rng(rss)


def child_seed(master_seed: int, *path: int) -> int:
    """A derived 64-bit seed for a sub-experiment (one sweep cell, etc.)."""
    ss = np.random.SeedSequence((master_seed,) + tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _eval_law(scenario: Scenario) -> EstimateLaw:
    """The scenario's :meth:`Scenario.estimate_law` at its evaluation step."""
    k_eval = scenario.evaluation_step
    return scenario.estimate_law((k_eval,))[k_eval]


@dataclass(frozen=True)
class Cell:
    """The trials of one experiment cell as arrays, ready to score at any
    detector setting: the schedule label (True = the attacker transmits) of
    each trial, the tracker-implied and RSS-implied distance from each trial's
    transmitter to each anchor, shape (n_trials, n_anchors), and the seed the
    cell was drawn under."""

    is_pue: np.ndarray
    d_kf: np.ndarray
    d_rss: np.ndarray
    seed: int

    def residuals(self, fusion: str) -> np.ndarray:
        """Per-trial residual |d_kf - d_rss|: the designated (first) anchor's
        under single fusion, the largest across anchors under or-fusion."""
        check_fusion(fusion)
        if fusion == OR_ACROSS_ANCHORS:
            return reduce(np.maximum, np.abs(self.d_kf - self.d_rss).T)
        return np.abs(self.d_kf[:, 0] - self.d_rss[:, 0])

    def _verdicts(self, configs: Sequence[DetectorConfig]) -> tuple[np.ndarray, np.ndarray]:
        """The per-trial residuals under the fusion mode that `configs` share,
        and the attacker verdicts at every config's tau in one compare, one
        row per config: residual >= tau, so a tie is an attack."""
        fusions = {c.fusion for c in configs}
        if len(fusions) != 1:
            raise InvalidInputError(f"need configs that share one fusion mode, got {sorted(fusions)}")
        res = self.residuals(fusions.pop())
        return res, res >= np.array([[c.tau] for c in configs])

    def scores(
        self, configs: Sequence[DetectorConfig], coords: Sequence[SweepCoords | None] | None = None
    ) -> list[MetricsReport]:
        """Detection / false-alarm / miss probabilities at each of `configs`,
        from one residual pass, one compare and one count; `coords`, if
        given, holds each report's sweep coordinates."""
        if coords is None:
            coords = [None] * len(configs)
        elif len(coords) != len(configs):
            raise InvalidInputError(f"need one sweep coordinate per config, got {len(coords)} for {len(configs)}")
        _, flags = self._verdicts(configs)
        return _count(self.is_pue, flags, coords)

    def score(self, config: DetectorConfig, coords: SweepCoords | None = None) -> MetricsReport:
        """Detection / false-alarm / miss probabilities at `config`."""
        return self.scores([config], [coords])[0]

    def outcomes(self, config: DetectorConfig) -> list[TrialOutcome]:
        """One :class:`TrialOutcome` per trial at `config`."""
        res, (flags,) = self._verdicts([config])
        return [
            TrialOutcome(PUE if pue else PU, ATTACKER if flag else LEGITIMATE, r, self.seed)
            for pue, flag, r in zip(self.is_pue.tolist(), flags.tolist(), res.tolist())
        ]


def run_cell(
    scenario: Scenario,
    is_pue: np.ndarray,
    attacker_xy: np.ndarray,
    master_seed: int,
    law: EstimateLaw | None = None,
) -> Cell:
    """Run one cell's trials, vectorized: trial i transmits at the evaluation
    step from attacker site ``attacker_xy[i % k]`` if ``is_pue[i]``, else
    from the PU's true position.  `attacker_xy` holds k >= 1 sites, shape
    (k, 2); an (n, 2) array gives every trial a site of its own.

    Per trial, the cell's position generator yields two standard normals,
    which set the estimate from its exact law, and the RSS generator one per
    anchor; :func:`reference_trial` consumes the identical rows.
    `law` is the :class:`~puedet.scenario.EstimateLaw` at the step the cell
    is evaluated at, passed in by sweeps that share it across cells and by
    :func:`compare_baseline` at each of its steps, and read by
    :func:`_eval_law` at the scenario's evaluation step otherwise; the cell
    uses its ``truth``, ``factor`` and ``offset``, and reads no step of the
    scenario.  :func:`cell_streams` refuses a `master_seed` that is
    not a non-negative integer.
    The estimate is computed one coordinate column at a time, with the same
    float operations per row whatever the cell's size.  Each transmitter
    site, the PU's true position or an attacker site, is ranged to each
    anchor once, and each trial reads its site's path-loss term before its
    own RSS noise is added.  Every reading is checked before any inversion;
    a failure is named in anchor order, and only a site that some trial
    uses can coincide with an anchor.
    """
    is_pue = np.array(is_pue, dtype=bool)
    attacker_xy = np.asarray(attacker_xy, dtype=float)
    n = len(is_pue)
    if n < 1 or attacker_xy.ndim != 2 or attacker_xy.shape[0] < 1 or attacker_xy.shape[1] != 2:
        raise InvalidInputError("need n >= 1 schedule labels and k >= 1 attacker sites, shape (k, 2)")
    law = law if law is not None else _eval_law(scenario)
    (f00, f01), (f10, f11) = law.factor.tolist()
    link = scenario.link
    _, pos_gen, rss_gen = cell_streams(master_seed)
    eta = pos_gen.standard_normal((n, 2))
    rss_noise = rss_gen.standard_normal((n, len(scenario.anchors)))

    # est = offset + sigma_z * L @ eta per row, written elementwise so that a
    # row's value does not depend on how many rows the cell has.
    e0, e1 = eta[:, 0], eta[:, 1]
    sigma_z = scenario.meas_noise_std
    est_x = (e0 * f00 + e1 * f01) * sigma_z + law.offset[0]
    est_y = (e0 * f10 + e1 * f11) * sigma_z + law.offset[1]
    ax, ay = np.array([(a.x, a.y) for a in scenario.anchors]).T
    d_kf = np.hypot(est_x[:, None] - ax, est_y[:, None] - ay)

    # Site 0 is the PU's true position and site 1 + s attacker site s.  Each
    # is ranged once; trial i reads site 1 + i % k if the attacker transmits.
    sites = np.concatenate(([law.truth], attacker_xy))
    site = np.where(is_pue, np.arange(n) % len(attacker_xy) + 1, 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_site = np.hypot(sites[:, :1] - ax, sites[:, 1:] - ay)
        pr_site = -10.0 * link.alpha * np.log10(d_site)
        pr = pr_site.take(site, axis=0) + scenario.rss_noise.sigma_db * rss_noise
        d_rss = 10.0 ** (-pr / (10.0 * link.alpha))

    # A transmitter on an anchor reads an infinite power, so one finiteness
    # test covers every reading; the loop only names the first failure.
    if not np.isfinite(pr).all():
        used = d_site[np.unique(site)]
        for j, anchor in enumerate(scenario.anchors):
            if (used[:, j] <= 0.0).any():
                raise InvalidInputError(f"transmitter coincides with anchor {anchor.id!r}")
            bad = ~np.isfinite(pr[:, j])
            if bad.any():
                raise InvalidInputError(f"pr_db must be finite, got {pr[bad, j][0]} at anchor {anchor.id!r}")
    if not np.isfinite(d_rss).all():
        bad = ~np.isfinite(d_rss).all(axis=0)
        raise NumericalDegeneracyError(
            f"anchor {scenario.anchors[bad.argmax()].id!r}: RSS-implied distance left the finite range"
        )
    return Cell(is_pue, d_kf, d_rss, int(master_seed))


def _schedule_labels(n_trials: int, schedule_mix: float) -> np.ndarray:
    n_pue = round(schedule_mix * n_trials)
    return np.arange(n_trials) < n_pue


def _validate_run_args(
    scenario: Scenario, n_trials: int, schedule_mix: float, master_seed: int, name: str = "n_trials"
) -> None:
    if not (isinstance(n_trials, (int, np.integer)) and n_trials >= 1):
        raise InvalidInputError(f"{name} must be an integer >= 1, got {n_trials!r}")
    # A cell draws n_trials rows of max(2, anchors) float64 values; numpy
    # cannot even size an array of more bytes than an intp holds.
    limit = np.iinfo(np.intp).max // (8 * max(2, len(scenario.anchors)))
    if n_trials > limit:
        raise InvalidInputError(f"{name} must be at most {limit}, got {n_trials}")
    if not 0.0 <= schedule_mix <= 1.0:
        raise InvalidInputError(f"schedule_mix must be in [0, 1], got {schedule_mix}")
    _check_index(master_seed, "master_seed")


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
    _validate_run_args(scenario_template, n_trials, schedule_mix, master_seed)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    return run_cell(scenario_template, is_pue, [scenario_template.attacker_pos], master_seed).outcomes(config)


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
    Raises InvalidInputError unless `master_seed` and `trial_index` are
    non-negative integers.
    """
    if scheduled not in (PU, PUE):
        raise InvalidInputError(f"invalid schedule label {scheduled!r}")
    _check_index(trial_index, "trial_index")
    root, pos_gen, rss_gen = cell_streams(master_seed)
    null_gen = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(2, trial_index)))
    k_eval = scenario.evaluation_step
    # Row `trial_index` of the cell's trial-major draws.
    eta = pos_gen.standard_normal((trial_index + 1, 2))[trial_index]
    rss_gen.standard_normal((trial_index, len(scenario.anchors)))
    zeta = null_gen.standard_normal(2 * (k_eval + 1))

    law = _eval_law(scenario)
    xi = zeta + np.linalg.pinv(law.weights) @ (law.factor @ eta - law.weights @ zeta)
    zs = scenario.truth_path(k_eval) + scenario.meas_noise_std * xi.reshape(k_eval + 1, 2)
    position = scenario.track(zs)[k_eval, :2]

    tx = scenario.attacker_pos if scheduled == PUE else truth_at(scenario, k_eval).position
    samples = [emit_rss(scenario, tx, a, rss_gen) for a in scenario.anchors]
    verdict = detect_step(position, samples, scenario.anchors, scenario.link, config)
    return TrialOutcome(scheduled, verdict.label, verdict.residual, int(master_seed))


def attacker_positions(
    scenario: Scenario,
    distance: float,
    bearings: Sequence[float] | None = None,
) -> np.ndarray:
    """The attacker sites, shape (k, 2), one per bearing in the order given:
    `distance` from the PU's true position at the evaluation step, at the
    given absolute bearings (rad).  :func:`run_cell` gives trial i site
    ``i % k``.  Raises InvalidInputError unless `distance` is finite and >= 0
    and every bearing is finite.

    No bearings means the collinear pair toward / away from the designated
    anchor.  Off-axis bearings shrink the observable residual below the true
    PU-attacker distance; the collinear default keeps the sweep axis equal to
    the detectable offset, which is the regime the comparison figures assume.
    """
    if not (math.isfinite(distance) and distance >= 0.0):
        raise InvalidInputError(f"attacker distance must be >= 0, got {distance}")
    if bearings is not None and not all(math.isfinite(b) for b in bearings):
        raise InvalidInputError(f"attacker bearings must be finite, got {tuple(bearings)}")
    pu = truth_at(scenario, scenario.evaluation_step)
    if bearings is None or len(bearings) == 0:
        anchor = scenario.anchors[0]
        theta = math.atan2(anchor.y - pu.y, anchor.x - pu.x)
        bearings = (theta, theta + math.pi)
    return np.array([(pu.x + distance * math.cos(b), pu.y + distance * math.sin(b)) for b in bearings])


def sweep_distance(
    base: Scenario,
    distances: Sequence[float],
    snr_db_list: Sequence[float],
    config: DetectorConfig,
    n_trials: int,
    master_seed: int,
    snr_calibration: float,
    bearings: Sequence[float] | None = None,
    schedule_mix: float = SCHEDULE_MIX,
) -> list[MetricsReport]:
    """One MetricsReport per (attacker distance, SNR) cell, distance-major."""
    if len(distances) == 0 or len(snr_db_list) == 0:
        raise InvalidInputError("distances and snr_db_list must be non-empty")
    _validate_run_args(base, n_trials, schedule_mix, master_seed)
    is_pue = _schedule_labels(n_trials, schedule_mix)
    # Every argument is checked before the first cell runs.
    positions = [attacker_positions(base, d, bearings) for d in distances]
    noises = [sigma_from_snr(snr, snr_calibration) for snr in snr_db_list]
    law = _eval_law(base)
    return [
        run_cell(
            replace(base, rss_noise=noise), is_pue, attacker_xy, child_seed(master_seed, 0, i, j), law
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
    schedule_mix: float = SCHEDULE_MIX,
    fusion: str = SINGLE_ANCHOR,
) -> list[MetricsReport]:
    """Calibrated-threshold operating points: per SNR, tau is fitted to each
    false-alarm target on a fresh legitimate-only calibration set and then
    evaluated on held-out trials.  One sort of the calibration residuals
    serves every target, and one compare of the held-out residuals with
    every tau scores them all."""
    if len(snr_db_list) == 0 or len(pfa_targets) == 0:
        raise InvalidInputError("snr_db_list and pfa_targets must be non-empty")
    if any(not 0.0 < t < 1.0 for t in pfa_targets):
        raise InvalidInputError("pfa targets must lie in (0, 1)")
    check_fusion(fusion)
    _validate_run_args(base, n_trials, schedule_mix, master_seed)
    n_cal = n_calibration if n_calibration is not None else n_trials
    _validate_run_args(base, n_cal, schedule_mix, master_seed, "n_calibration")

    is_pue = _schedule_labels(n_trials, schedule_mix)
    attacker_xy = attacker_positions(base, d_pu_pue, bearings)
    noises = [sigma_from_snr(snr, snr_calibration) for snr in snr_db_list]
    law = _eval_law(base)
    reports = []
    # Each SNR's calibration cell, then its evaluation cell.
    for j, (snr, noise) in enumerate(zip(snr_db_list, noises)):
        cell_scenario = replace(base, rss_noise=noise)
        cal = run_cell(cell_scenario, np.zeros(n_cal, dtype=bool), attacker_xy, child_seed(master_seed, 1, j, 0), law)
        eval_cell = run_cell(cell_scenario, is_pue, attacker_xy, child_seed(master_seed, 1, j, 1), law)
        configs = calibrate_taus(cal.residuals(fusion), pfa_targets, fusion)
        reports += eval_cell.scores(configs, [SweepCoords(float(d_pu_pue), float(snr), c.tau) for c in configs])
    return reports


def baseline_eval_steps(scenario: Scenario, distances: Sequence[float]) -> list[int]:
    """For each of `distances`, the first step at which the PU has moved that
    far from its start, the baseline's fixed reference; raises
    InvalidInputError if the trajectory never gets that far."""
    rx, ry = scenario.trajectory.start
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
    schedule_mix: float = SCHEDULE_MIX,
) -> list[BaselineComparison]:
    """Paired evaluation of the tracking detector against the static-reference
    RSS baseline as the PU walks away from a fixed attacker.

    Both detectors consume the identical trial streams (same measurements,
    same RSS samples); the baseline's reference stays at the PU's initial
    position for the whole run.
    """
    if len(distances) == 0:
        raise InvalidInputError("distances must be non-empty")
    _validate_run_args(base, n_trials, schedule_mix, master_seed)
    reference = np.array(base.trajectory.start)
    anchor_xy = np.array([[a.x, a.y] for a in base.anchors])
    d_ref = np.hypot(reference[0] - anchor_xy[:, 0], reference[1] - anchor_xy[:, 1])
    is_pue = _schedule_labels(n_trials, schedule_mix)

    eval_steps = baseline_eval_steps(base, distances)
    # One recursion up to the latest evaluation step, snapshotted at each.
    laws = base.estimate_law(eval_steps)

    rows = []
    for i, (d, k) in enumerate(zip(distances, eval_steps)):
        cell = run_cell(base, is_pue, [base.attacker_pos], child_seed(master_seed, 2, i), laws[k])
        pos = laws[k].truth
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
    _validate_run_args(base, n_trials, 0.0, master_seed)
    check_fusion(fusion)
    cal = run_cell(base, np.zeros(n_trials, dtype=bool), [base.attacker_pos], child_seed(master_seed, 3))
    return calibrate_taus(cal.residuals(fusion), [target_pfa], fusion)[0]

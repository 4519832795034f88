"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical criteria run at fixed seeds with binomial +/-3 sigma tolerances;
the SNR -> noise calibration is 0.15 dB, the value at which the stock geometry
(anchor 500 m out, tau = 25 m) keeps the -10..10 dB grid informative.
"""

import math
import time

import numpy as np
import pytest

from puedet.cli import main
from puedet.config import default_scenario
from puedet.detection import ATTACKER, DetectorConfig, decide
from puedet.experiments import (
    compare_baseline,
    metrics,
    run_trials,
    sweep_distance,
    sweep_roc,
)
from puedet.propagation import LinkModel, NoiseModel, sigma_from_snr
from puedet.scenario import (
    AnchorNode,
    Scenario,
    Trajectory,
)
from puedet.tracking import (
    FilterEstimate,
    MeasurementModel,
    MotionModel,
    TargetState,
    predict,
    update,
)

MASTER_SEED = 20260810
SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0)
DISTANCES = (30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0)
CALIBRATION = 0.15
TAU = 25.0
TRIALS_PER_CELL = 20_000  # schedule mix 0.5 -> 10^4 attack + 10^4 legit trials


def symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def passed(num: int, text: str) -> None:
    print(f"\ncriterion {num}: PASS - {text}")


def binom_sigma(p: float, n: int) -> float:
    p = min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    return math.sqrt(p * (1.0 - p) / n)


@pytest.fixture(scope="module")
def distance_sweep():
    scen = default_scenario()
    return sweep_distance(
        scen, DISTANCES, SNR_GRID, DetectorConfig(TAU), TRIALS_PER_CELL,
        MASTER_SEED, snr_calibration=CALIBRATION,
    )


@pytest.fixture(scope="module")
def roc_reports():
    scen = default_scenario()
    return sweep_roc(
        scen, 30.0, SNR_GRID, (0.02, 0.1, 0.3), 10_000, MASTER_SEED,
        snr_calibration=CALIBRATION, n_calibration=90_000,
    )


@pytest.fixture(scope="module")
def null_roc_reports():
    scen = default_scenario()
    return sweep_roc(
        scen, 0.0, (0.0,), (0.1, 0.3), 10_000, MASTER_SEED + 1,
        snr_calibration=CALIBRATION, n_calibration=90_000,
    )


@pytest.fixture(scope="module")
def baseline_rows():
    scen = default_scenario(rss_noise=sigma_from_snr(-10.0, CALIBRATION))
    return compare_baseline(scen, DetectorConfig(TAU), TRIALS_PER_CELL, MASTER_SEED, DISTANCES)


def test_criterion_1_kf_correctness_oracle():
    start = time.perf_counter()
    # Hand-computed predict case: dt=0.5, P=I, accel-noise variance 0.04.
    out = predict(
        FilterEstimate(TargetState(1, 1, 0.5, -0.5), np.eye(4)),
        MotionModel(0.5, 0.04, 0.04),
    )
    expected = np.array(
        [
            [1.250625, 0.0, 0.5025, 0.0],
            [0.0, 1.250625, 0.0, 0.5025],
            [0.5025, 0.0, 1.01, 0.0],
            [0.0, 0.5025, 0.0, 1.01],
        ]
    )
    assert np.abs(out.covariance - expected).max() <= 1e-9
    assert np.abs(out.state.as_array() - [1.25, 0.75, 0.5, -0.5]).max() <= 1e-9

    # Hand-computed update case: decoupled axes, per-axis gain p/(p+r) = 0.8.
    upd = update(
        FilterEstimate(TargetState(0, 0, 0, 0), np.diag([4.0, 4.0, 1.0, 1.0])),
        MeasurementModel(np.eye(2)),
        (2.0, -2.0),
    )
    assert np.abs(upd.state.as_array() - [1.6, -1.6, 0.0, 0.0]).max() <= 1e-9
    assert np.abs(upd.covariance - np.diag([0.8, 0.8, 1.0, 1.0])).max() <= 1e-9

    # Covariance invariants over 1e6 randomized predict/update steps,
    # verified in vectorized batches against the stated tolerances.
    rng = np.random.default_rng(MASTER_SEED)
    cycles = 500_000
    batch = 50_000
    est = FilterEstimate(TargetState(0, 0, 0, 0), np.eye(4))
    checked = 0
    for lo in range(0, cycles, batch):
        m = min(batch, cycles - lo)
        dts = rng.uniform(0.0, 2.0, m)
        sws = rng.uniform(0.0, 1.0, m)
        accs = rng.uniform(-5.0, 5.0, (m, 2))
        rs = rng.uniform(0.1, 100.0, (m, 2))
        zs = rng.normal(0.0, 20.0, (m, 2))
        covs = np.empty((2 * m, 4, 4))
        for i in range(m):
            if (lo + i) % 100 == 0:
                w = rng.standard_normal((4, 4)) * 10.0
                est = FilterEstimate(
                    TargetState(*rng.uniform(-100, 100, 4)),
                    symmetrize(w @ w.T + 1e-6 * np.eye(4)),
                )
            est = predict(est, MotionModel(dts[i], sws[i], sws[i]), accs[i])
            covs[2 * i] = est.covariance
            est = update(est, MeasurementModel(np.diag(rs[i])), zs[i])
            covs[2 * i + 1] = est.covariance
        asym = np.abs(covs - covs.transpose(0, 2, 1))
        assert (asym <= 1e-9 * np.maximum(1.0, np.abs(covs))).all()
        traces = np.trace(covs, axis1=1, axis2=2)
        eig_min = np.linalg.eigvalsh(covs)[:, 0]
        assert (eig_min >= -1e-9 * traces).all()
        checked += 2 * m
    assert checked == 1_000_000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(1, f"hand oracles within 1e-9; PSD/symmetry held over 1e6 steps in {elapsed:.1f} s")


def test_criterion_2_tracking_fidelity():
    start = time.perf_counter()
    scen = default_scenario(meas_noise_std=5.0)
    truth = scen.truth_path(scen.n_steps - 1)

    filt_rmse, raw_rmse = [], []
    for run in range(120):
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 2, run)))
        zs = truth + scen.meas_noise_std * rng.standard_normal((scen.n_steps, 2))
        est_pos = scen.track(zs)[:, :2]
        filt_rmse.append(math.sqrt(np.mean(np.sum((est_pos - truth) ** 2, axis=1))))
        raw_rmse.append(math.sqrt(np.mean(np.sum((zs - truth) ** 2, axis=1))))

    mean_filt = float(np.mean(filt_rmse))
    mean_raw = float(np.mean(raw_rmse))
    assert mean_filt < mean_raw
    assert mean_filt < 5.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(2, f"filter RMSE {mean_filt:.2f} m < raw {mean_raw:.2f} m over 120 runs ({elapsed:.1f} s)")


def test_criterion_3_distance_trend(distance_sweep):
    by_snr = {snr: [] for snr in SNR_GRID}
    for r in distance_sweep:
        by_snr[r.sweep_coords.snr_db].append(r)
    for snr, cells in by_snr.items():
        cells.sort(key=lambda r: r.sweep_coords.d_pu_pue)
        for near, far in zip(cells, cells[1:]):
            pooled = 0.5 * (near.pd + far.pd)
            tol = 3.0 * binom_sigma(pooled, near.n_attack_trials) * math.sqrt(2.0)
            assert far.pd >= near.pd - tol, (
                f"pd not non-decreasing at SNR {snr}: "
                f"{near.sweep_coords.d_pu_pue} m -> {far.sweep_coords.d_pu_pue} m"
            )
    mid = sorted(SNR_GRID)[len(SNR_GRID) // 2]
    row = {r.sweep_coords.d_pu_pue: r.pd for r in by_snr[mid]}
    gain = row[150.0] - row[30.0]
    assert gain >= 0.15
    passed(3, f"pd non-decreasing in distance at every SNR; mid-SNR gain {gain:.2f} >= 0.15")


def test_criterion_4_snr_trend(distance_sweep):
    row = sorted(
        (r for r in distance_sweep if r.sweep_coords.d_pu_pue == 50.0),
        key=lambda r: r.sweep_coords.snr_db,
    )
    assert len(row) == len(SNR_GRID)
    for lo, hi in zip(row, row[1:]):
        pooled = 0.5 * (lo.pd + hi.pd)
        tol = 3.0 * binom_sigma(pooled, lo.n_attack_trials) * math.sqrt(2.0)
        assert hi.pd > lo.pd - tol, (
            f"pd not increasing from SNR {lo.sweep_coords.snr_db} to {hi.sweep_coords.snr_db}"
        )
    assert row[-1].pd > row[0].pd  # the grid-wide increase is real, not noise
    assert row[-1].pd >= 0.95
    pds = ", ".join(f"{r.pd:.3f}" for r in row)
    passed(4, f"pd strictly increasing over SNR grid at 50 m ({pds}); top cell >= 0.95")


def test_criterion_5_pm_identity(distance_sweep, roc_reports, null_roc_reports, baseline_rows):
    reports = list(distance_sweep) + list(roc_reports) + list(null_roc_reports)
    for row in baseline_rows:
        reports.extend([row.proposed, row.baseline])
    for r in reports:
        assert r.pd + r.pm == 1.0  # exact, zero tolerance
        assert 0.0 <= r.pd <= 1.0 and 0.0 <= r.pm <= 1.0 and 0.0 <= r.pfa <= 1.0
    passed(5, f"pd + pm == 1.0 exactly on all {len(reports)} reports")


def test_criterion_6_roc_behavior(roc_reports, null_roc_reports):
    targets = (0.02, 0.1, 0.3)
    for j, snr in enumerate(SNR_GRID):
        row = roc_reports[j * len(targets):(j + 1) * len(targets)]
        for target, r in zip(targets, row):
            assert r.sweep_coords.snr_db == snr
            tol = 3.0 * binom_sigma(target, r.n_legit_trials)
            assert abs(r.pfa - target) <= tol, (
                f"achieved pfa {r.pfa:.4f} off target {target} at SNR {snr}"
            )
        pfas = [r.pfa for r in row]
        pds = [r.pd for r in row]
        assert pfas == sorted(pfas)
        assert pds == sorted(pds), f"pd not non-decreasing in pfa at SNR {snr}"
    for target, r in zip((0.1, 0.3), null_roc_reports):
        sigma = math.sqrt(
            r.pd * (1 - r.pd) / r.n_attack_trials + r.pfa * (1 - r.pfa) / r.n_legit_trials
        )
        assert abs(r.pd - r.pfa) <= 3.0 * max(sigma, 1e-3), "null case off the pd = pfa diagonal"
    passed(6, "achieved pfa within 3 sigma of targets; pd monotone per row; null case on diagonal")


def test_criterion_7_baseline_comparison(baseline_rows):
    rows = sorted(baseline_rows, key=lambda r: r.distance)
    largest = rows[-1]
    gap = largest.proposed.pd - largest.baseline.pd
    assert gap >= 0.20, f"proposed-baseline pd gap {gap:.3f} < 0.20 at {largest.distance} m"
    assert largest.proposed.pm < largest.baseline.pm

    # Baseline flatness: the 99% CI of the OLS slope over distance contains 0.
    x = np.array([r.distance for r in rows])
    y = np.array([r.baseline.pd for r in rows])
    xc = x - x.mean()
    slope = float(np.sum(xc * (y - y.mean())) / np.sum(xc**2))
    fitted = y.mean() + slope * xc
    dof = len(rows) - 2
    se = math.sqrt(float(np.sum((y - fitted) ** 2)) / dof / float(np.sum(xc**2)))
    t_crit = 4.032  # t(0.995, 5 dof)
    assert abs(slope) <= t_crit * max(se, 1e-12), f"baseline pd slope {slope:.2e} not flat"
    passed(
        7,
        f"pd gap {gap:.2f} >= 0.20 at {largest.distance:.0f} m; baseline slope "
        f"{slope:.2e} within 99% CI of 0; proposed pm {largest.proposed.pm:.3f} < "
        f"baseline pm {largest.baseline.pm:.3f}",
    )


def test_criterion_8_noiseless_end_to_end():
    start = time.perf_counter()
    d_offset = 50.0
    n_steps = 40
    traj = Trajectory.from_segments((0.0, 0.0), (2.0, 0.0), [(float(n_steps), 0.0, 0.0)])
    pu_final_x = 2.0 * (n_steps - 1)
    scen = Scenario(
        trajectory=traj,
        attacker_pos=(pu_final_x + d_offset, 0.0),  # collinear, anchor beyond
        anchors=(AnchorNode("a1", 1000.0, 0.0),),
        dt=1.0,
        meas_noise_std=0.0,
        link=LinkModel(),
        rss_noise=NoiseModel(0.0),
        n_steps=n_steps,
    )
    outs = run_trials(scen, DetectorConfig(10.0), 64, 1.0, MASTER_SEED)
    residuals = [o.residual for o in outs]
    for res in residuals:
        assert abs(res - d_offset) / d_offset <= 1e-9
    res = residuals[0]
    assert all(r == res for r in residuals)  # deterministic without noise

    below = metrics(run_trials(scen, DetectorConfig(d_offset * (1 - 1e-9)), 64, 1.0, MASTER_SEED))
    above = metrics(run_trials(scen, DetectorConfig(d_offset * (1 + 1e-9)), 64, 1.0, MASTER_SEED))
    at = metrics(run_trials(scen, DetectorConfig(res), 64, 1.0, MASTER_SEED))
    assert below.pd == 1.0
    assert above.pd == 0.0
    assert at.pd == 1.0  # the >= rule fires on exact equality
    assert decide(100.0, 100.0 + res, DetectorConfig(res)).label == ATTACKER

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passed(8, f"noiseless residual == d_pu_pue within 1e-9; pd flips 1 -> 0 exactly at tau = d")


def test_criterion_9_reproducibility(tmp_path):
    config_text = """
[scenario]
steps = 50

[sweep]
distances = 30 90
snr_db = -5 5

[run]
trials = 400
seed = 31
"""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_text)
    outs = []
    for name in ("o1", "o2"):
        rc = main(["sweep-distance", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append((tmp_path / name / "sweep_distance.csv").read_bytes())
    assert outs[0] == outs[1]

    # the batch size does not change any trial: fewer trials are a prefix
    scen = default_scenario(n_steps=50, rss_noise=sigma_from_snr(-5.0, CALIBRATION))
    many = run_trials(scen, DetectorConfig(TAU), 400, 1.0, 31)
    assert run_trials(scen, DetectorConfig(TAU), 150, 1.0, 31) == many[:150]
    passed(9, "byte-identical CSV on rerun; a 150-trial run is the prefix of a 400-trial run")

import math
from dataclasses import replace

import numpy as np
import pytest

from puedet.detection import ATTACKER, LEGITIMATE, DetectorConfig
from puedet.errors import InvalidInputError
from puedet.experiments import (
    BLOCK,
    MetricsReport,
    SweepCoords,
    TrialOutcome,
    calibrated_config,
    compare_baseline,
    metrics,
    reference_trial,
    run_trials,
    sweep_distance,
    sweep_roc,
)
from puedet.propagation import LinkModel, NoiseModel, sigma_from_snr
from puedet.scenario import (
    PU,
    PUE,
    AnchorNode,
    Scenario,
    Trajectory,
    default_scenario,
    truth_at,
)


def collinear_scenario(n_steps=40, sigma_z=0.0, sigma_db=0.0, attacker_offset=50.0):
    """PU marches along +x; anchor ahead on the same axis; attacker between
    the PU's final position and the anchor, so the residual equals the offset."""
    traj = Trajectory.from_segments((0.0, 0.0), (2.0, 0.0), [(float(n_steps), 0.0, 0.0)])
    pu_final_x = 2.0 * (n_steps - 1)
    return Scenario(
        trajectory=traj,
        attacker_pos=(pu_final_x + attacker_offset, 0.0),
        anchors=(AnchorNode("a1", 1000.0, 0.0),),
        dt=1.0,
        meas_noise_std=sigma_z,
        link=LinkModel(),
        rss_noise=NoiseModel(sigma_db),
        transmitter_schedule=(PU,) * n_steps,
    )


class TestRunTrials:
    def test_single_noiseless_legit_trial(self):
        scen = collinear_scenario()
        outs = run_trials(scen, DetectorConfig(10.0), 1, 0.0, master_seed=1)
        assert len(outs) == 1
        assert outs[0].scheduled == PU and outs[0].verdict == LEGITIMATE
        assert outs[0].residual == pytest.approx(0.0, abs=1e-9)

    def test_same_seed_bit_identical(self):
        scen = collinear_scenario(sigma_z=5.0, sigma_db=2.0)
        a = run_trials(scen, DetectorConfig(10.0), 64, 0.5, master_seed=77)
        b = run_trials(scen, DetectorConfig(10.0), 64, 0.5, master_seed=77)
        assert a == b

    def test_chunking_does_not_change_results(self):
        scen = collinear_scenario(sigma_z=5.0, sigma_db=2.0)
        n = BLOCK + 50  # the last chunks cross a seeding-block boundary
        whole = run_trials(scen, DetectorConfig(10.0), n, 0.5, 5)
        for chunk_size in (3, 1000):  # neither divides the block
            pieces = run_trials(scen, DetectorConfig(10.0), n, 0.5, 5, chunk_size=chunk_size)
            assert pieces == whole, chunk_size

    def test_fewer_trials_are_a_prefix(self):
        # With one schedule label for all, a trial's outcome depends only on
        # its index, not on how many trials run after it.
        scen = collinear_scenario(sigma_z=5.0, sigma_db=2.0)
        many = run_trials(scen, DetectorConfig(10.0), BLOCK + 5, 1.0, 8)
        for n in (1, 37, BLOCK, BLOCK + 1):
            assert run_trials(scen, DetectorConfig(10.0), n, 1.0, 8) == many[:n], n

    def test_noiseless_collinear_attack_always_detected(self):
        scen = collinear_scenario(attacker_offset=50.0)
        outs = run_trials(scen, DetectorConfig(10.0), 10_000, 1.0, master_seed=9)
        report = metrics(outs)
        assert report.pd == 1.0
        for o in outs[:100]:
            assert o.residual == pytest.approx(50.0, rel=1e-9)

    def test_schedule_mix_counts(self):
        scen = collinear_scenario()
        outs = run_trials(scen, DetectorConfig(10.0), 100, 0.25, master_seed=2)
        assert sum(o.scheduled == PUE for o in outs) == 25

    def test_invalid_arguments(self):
        scen = collinear_scenario()
        cfg = DetectorConfig(10.0)
        with pytest.raises(InvalidInputError):
            run_trials(scen, cfg, 0, 0.5, 1)
        with pytest.raises(InvalidInputError):
            run_trials(scen, cfg, 10, 1.5, 1)
        with pytest.raises(InvalidInputError):
            run_trials(scen, cfg, 10, 0.5, -3)


class TestBatchedEngineMatchesReference:
    def test_dual_route_agreement(self):
        scen = default_scenario(n_steps=50, rss_noise=NoiseModel(2.0))
        cfg = DetectorConfig(25.0)
        # The first 30 trials, then both sides of the first block boundary.
        for n, indices in ((30, range(30)), (BLOCK + 2, range(BLOCK - 2, BLOCK + 2))):
            batched = run_trials(scen, cfg, n, 0.5, master_seed=123)
            n_pue = round(0.5 * n)
            for i in indices:
                out = batched[i]
                ref = reference_trial(scen, cfg, 123, i, PUE if i < n_pue else PU)
                assert out.scheduled == ref.scheduled
                assert out.verdict == ref.verdict
                assert out.seed == ref.seed
                assert out.residual == pytest.approx(ref.residual, rel=1e-10, abs=1e-10)

    def test_dual_route_multi_anchor_or_fusion(self):
        base = default_scenario(n_steps=30, rss_noise=NoiseModel(3.0))
        square = (
            AnchorNode("a1", 500.0, 0.0),
            AnchorNode("a2", 0.0, 500.0),
            AnchorNode("a3", 500.0, 500.0),
            AnchorNode("a4", -200.0, -200.0),
        )
        cfg = DetectorConfig(25.0, fusion="or")
        for anchors in (square[:2], square):
            scen = replace(base, attacker_pos=(300.0, 300.0), anchors=anchors)
            batched = run_trials(scen, cfg, 20, 0.5, master_seed=55)
            for i, out in enumerate(batched):
                ref = reference_trial(scen, cfg, 55, i, PUE if i < 10 else PU)
                assert out.verdict == ref.verdict
                assert out.seed == ref.seed
                assert out.residual == pytest.approx(ref.residual, rel=1e-10, abs=1e-10)


class TestMetrics:
    def test_ratio_arithmetic(self):
        outs = [TrialOutcome(PUE, ATTACKER, 1.0, 0)] * 37 + [
            TrialOutcome(PUE, LEGITIMATE, 0.0, 0)
        ] * 63
        r = metrics(outs)
        assert r.pd == 0.37 and r.pm == 0.63 and r.pfa is None
        assert r.n_attack_trials == 100 and r.n_legit_trials == 0

    def test_all_legit_fields(self):
        outs = [TrialOutcome(PU, LEGITIMATE, 0.0, 0)] * 10
        r = metrics(outs)
        assert r.pfa == 0.0 and r.pd is None and r.pm is None

    def test_recount_oracle(self):
        rng = np.random.default_rng(0)
        outs = [
            TrialOutcome(
                PUE if rng.random() < 0.5 else PU,
                ATTACKER if rng.random() < 0.3 else LEGITIMATE,
                float(rng.random()),
                0,
            )
            for _ in range(5000)
        ]
        r = metrics(outs)
        # independent tally
        det = sum(1 for o in outs if o.scheduled == PUE and o.verdict == ATTACKER)
        fa = sum(1 for o in outs if o.scheduled == PU and o.verdict == ATTACKER)
        na = sum(1 for o in outs if o.scheduled == PUE)
        nl = len(outs) - na
        assert r.pd == det / na
        assert r.pfa == fa / nl
        assert r.pm == (na - det) / na

    def test_pd_plus_pm_exact_for_used_counts(self):
        for n in (100, 5000, 10_000, 20_000):
            for det in range(0, n + 1, max(1, n // 997)):
                assert det / n + (n - det) / n == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics([])

    def test_outcome_buckets_are_exclusive(self):
        for sched in (PU, PUE):
            for verdict in (LEGITIMATE, ATTACKER):
                o = TrialOutcome(sched, verdict, 0.0, 0)
                assert sum([o.is_detection, o.is_miss, o.is_false_alarm]) <= 1


class TestSweepDistance:
    def test_noiseless_collinear_cell(self):
        scen = collinear_scenario(attacker_offset=0.0)  # attacker pos overridden by sweep
        reports = sweep_distance(
            scen, [50.0], [100.0], DetectorConfig(10.0), 400, 21,
            snr_calibration=1e-9,
        )
        assert len(reports) == 1
        assert reports[0].pd == 1.0
        assert reports[0].sweep_coords == SweepCoords(50.0, 100.0, 10.0)

    def test_pm_is_complement_of_pd(self):
        scen = default_scenario(n_steps=40)
        reports = sweep_distance(
            scen, [30.0, 90.0], [-5.0, 5.0], DetectorConfig(25.0), 400, 3,
            snr_calibration=0.15,
        )
        assert len(reports) == 4
        for r in reports:
            assert r.pd + r.pm == 1.0

    def test_distance_trend(self):
        scen = default_scenario(n_steps=60)
        reports = sweep_distance(
            scen, [30.0, 150.0], [0.0], DetectorConfig(25.0), 3000, 11,
            snr_calibration=0.15,
        )
        near, far = reports[0], reports[1]
        sigma = math.sqrt(0.25 / near.n_attack_trials) * 2  # conservative
        assert far.pd >= near.pd - 3 * sigma
        assert far.pd > near.pd  # at these sizes the gap is far beyond noise

    def test_rejects_empty_axes(self):
        scen = default_scenario(n_steps=10)
        with pytest.raises(InvalidInputError):
            sweep_distance(scen, [], [0.0], DetectorConfig(1.0), 10, 1)


class TestSweepRoc:
    def test_rows_and_monotonicity(self):
        scen = default_scenario(n_steps=60)
        targets = [0.05, 0.2, 0.4]
        reports = sweep_roc(
            scen, 30.0, [0.0, 10.0], targets, 2000, 31,
            snr_calibration=0.15, n_calibration=8000,
        )
        assert len(reports) == 6
        for row in (reports[:3], reports[3:]):
            # tau decreases with the target; sharing the eval set makes the
            # detection sets nested, so pd is non-decreasing sample-exactly
            taus = [r.sweep_coords.tau for r in row]
            assert taus == sorted(taus, reverse=True)
            pds = [r.pd for r in row]
            assert pds == sorted(pds)
            pfas = [r.pfa for r in row]
            assert pfas == sorted(pfas)

    def test_achieved_pfa_near_target(self):
        scen = default_scenario(n_steps=60)
        target = 0.2
        reports = sweep_roc(
            scen, 30.0, [0.0], [target], 4000, 17,
            snr_calibration=0.15, n_calibration=36_000,
        )
        r = reports[0]
        sigma = math.sqrt(target * (1 - target) / r.n_legit_trials)
        assert abs(r.pfa - target) <= 3 * sigma

    def test_null_case_on_diagonal(self):
        scen = default_scenario(n_steps=60)
        reports = sweep_roc(
            scen, 0.0, [0.0], [0.3], 4000, 23,
            snr_calibration=0.15, n_calibration=36_000,
        )
        r = reports[0]
        sigma = math.sqrt(
            r.pd * (1 - r.pd) / r.n_attack_trials + r.pfa * (1 - r.pfa) / r.n_legit_trials
        )
        assert abs(r.pd - r.pfa) <= 3 * max(sigma, 1e-3)

    def test_rejects_bad_targets(self):
        scen = default_scenario(n_steps=10)
        with pytest.raises(InvalidInputError):
            sweep_roc(scen, 30.0, [0.0], [1.5], 10, 1)


class TestCompareBaseline:
    def test_paired_structure_and_trends(self):
        scen = default_scenario(n_steps=60, rss_noise=sigma_from_snr(-10.0, 0.15))
        rows = compare_baseline(scen, DetectorConfig(25.0), 2000, 41, distances=(30.0, 150.0))
        assert len(rows) == 2
        for row in rows:
            assert row.proposed.n_attack_trials == row.baseline.n_attack_trials
            assert row.proposed.pd + row.proposed.pm == 1.0
            assert row.baseline.pd + row.baseline.pm == 1.0
        # proposed improves with distance, baseline cannot tell the attacker
        # from its own reference position
        assert rows[1].proposed.pd > rows[0].proposed.pd
        assert rows[1].proposed.pd > rows[1].baseline.pd

    def test_baseline_blind_to_trajectory(self):
        # Same start, same attacker, different motion after t=0: attack-trial
        # baseline outcomes are identical because the baseline consults only
        # its fixed reference and the RSS stream.
        link = LinkModel()
        common = dict(
            attacker_pos=(100.0, 100.0),
            anchors=(AnchorNode("a1", 500.0, 0.0),),
            dt=1.0,
            meas_noise_std=5.0,
            link=link,
            rss_noise=NoiseModel(3.0),
            transmitter_schedule=(PU,) * 40,
        )
        # equal speeds so both runs hit the 50 m bin at the same step and
        # therefore consume identical trial streams
        traj_a = Trajectory.from_segments((100.0, 100.0), (5.0, 0.0), [(40.0, 0.0, 0.0)])
        traj_b = Trajectory.from_segments((100.0, 100.0), (0.0, 5.0), [(40.0, 0.0, 0.0)])
        scen_a = Scenario(trajectory=traj_a, **common)
        scen_b = Scenario(trajectory=traj_b, **common)
        rows_a = compare_baseline(scen_a, DetectorConfig(25.0), 600, 13, distances=(50.0,), schedule_mix=1.0)
        rows_b = compare_baseline(scen_b, DetectorConfig(25.0), 600, 13, distances=(50.0,), schedule_mix=1.0)
        assert rows_a[0].baseline == rows_b[0].baseline
        assert rows_a[0].proposed != rows_b[0].proposed

    def test_unreachable_distance_rejected(self):
        scen = default_scenario(n_steps=10)
        with pytest.raises(InvalidInputError, match="never reaches"):
            compare_baseline(scen, DetectorConfig(25.0), 10, 1, distances=(5000.0,))


def test_calibrated_config_hits_target_roughly():
    scen = default_scenario(n_steps=40, rss_noise=sigma_from_snr(0.0, 0.15))
    cfg = calibrated_config(scen, 0.1, 5000, 3)
    outs = run_trials(scen, cfg, 4000, 0.0, master_seed=4)
    pfa = metrics(outs).pfa
    assert abs(pfa - 0.1) <= 3 * math.sqrt(0.1 * 0.9 / 4000) + 3 * math.sqrt(0.1 * 0.9 / 5000)

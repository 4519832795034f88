import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puedet import experiments
from puedet import scenario as scenario_module
from puedet.config import default_scenario
from puedet.detection import ATTACKER, LEGITIMATE, DetectorConfig, calibrate_taus, rss_baseline_decide
from puedet.errors import InvalidInputError, NumericalDegeneracyError
from puedet.experiments import (
    MetricsReport,
    SweepCoords,
    TrialOutcome,
    attacker_positions,
    calibrated_config,
    cell_streams,
    child_seed,
    compare_baseline,
    metrics,
    reference_trial,
    run_cell,
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
    emit_rss,
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
        n_steps=n_steps,
    )


SQUARE_ANCHORS = (
    AnchorNode("a1", 500.0, 0.0),
    AnchorNode("a2", 0.0, 500.0),
    AnchorNode("a3", 500.0, 500.0),
    AnchorNode("a4", -200.0, -200.0),
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

    def test_every_reading_is_checked_before_any_inversion(self):
        # Trial 0 overflows anchor a1's inversion; trial 150's attacker sits
        # on anchor a2.  Every reading is checked before any inversion, over
        # the whole cell, so the coincidence is reported.
        scen = default_scenario(
            anchors=SQUARE_ANCHORS[:2], link=LinkModel(alpha=0.01), rss_noise=NoiseModel(40.0)
        )
        n = 200
        is_pue = np.arange(n) == 150
        xy = np.zeros((n, 2))
        xy[150] = (SQUARE_ANCHORS[1].x, SQUARE_ANCHORS[1].y)
        with pytest.raises(InvalidInputError, match="transmitter coincides with anchor 'a2'"):
            run_cell(scen, is_pue, xy, 1)

    def test_chunking_does_not_change_results(self):
        # A cell cut to fewer trials returns, row for row, what the whole cell
        # returns for them: mixed schedule labels, on one anchor and on four
        # under or-fusion.
        one = collinear_scenario(sigma_z=5.0, sigma_db=2.0)
        four = replace(one, anchors=SQUARE_ANCHORS)
        n = 4146
        is_pue = np.arange(n) % 3 == 0
        for scen, cfg in ((one, DetectorConfig(10.0)), (four, DetectorConfig(10.0, "or"))):
            xy = np.tile(np.asarray(scen.attacker_pos, float), (n, 1))
            whole = run_cell(scen, is_pue, xy, 5).outcomes(cfg)
            for m in (3, 1000, 4097):
                assert run_cell(scen, is_pue[:m], xy[:m], 5).outcomes(cfg) == whole[:m], (len(scen.anchors), m)

    def test_fewer_trials_are_a_prefix(self):
        # With one schedule label for all, a trial's outcome depends only on
        # its index, not on how many trials run after it.
        scen = collinear_scenario(sigma_z=5.0, sigma_db=2.0)
        many = run_trials(scen, DetectorConfig(10.0), 4101, 1.0, 8)
        for n in (1, 37, 4096, 4097):
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
        with pytest.raises(InvalidInputError):
            reference_trial(scen, cfg, 1, 0, "bogus")

    @pytest.mark.parametrize("seed", [-1, 2.5, "7", None])
    def test_seeds_and_trial_indices_are_typed_on_every_route(self, seed):
        scen = collinear_scenario(sigma_z=5.0, sigma_db=2.0)
        cfg = DetectorConfig(10.0)
        routes = [
            lambda: cell_streams(seed),
            lambda: run_cell(scen, np.zeros(3, dtype=bool), np.zeros((3, 2)), seed),
            lambda: run_trials(scen, cfg, 3, 0.5, seed),
            lambda: reference_trial(scen, cfg, seed, 0),
            lambda: sweep_distance(scen, [30.0], [0.0], cfg, 3, seed, snr_calibration=0.15),
        ]
        for route in routes:
            with pytest.raises(InvalidInputError, match="master_seed must be a non-negative integer"):
                route()
        with pytest.raises(InvalidInputError, match="trial_index must be a non-negative integer"):
            reference_trial(scen, cfg, 1, seed)

    def test_trial_counts_must_be_integers(self):
        scen = collinear_scenario()
        with pytest.raises(InvalidInputError, match="n_trials"):
            run_trials(scen, DetectorConfig(10.0), 2.5, 0.5, 1)
        with pytest.raises(InvalidInputError, match="n_calibration"):
            sweep_roc(scen, 30.0, [0.0], [0.1], 10, 1, snr_calibration=0.15, n_calibration=2.5)

    @pytest.mark.parametrize("n_anchors", [1, 4])
    def test_trial_counts_numpy_cannot_size_are_refused(self, n_anchors):
        # A cell draws n rows of max(2, anchors) float64 values; the smallest
        # count whose bytes pass the largest intp is refused on every route
        # before any array is built, as is 10**20.
        scen = default_scenario(n_steps=30, anchors=SQUARE_ANCHORS[:n_anchors])
        cfg = DetectorConfig(25.0)
        for n in (np.iinfo(np.intp).max // (8 * max(2, n_anchors)) + 1, 10**20):
            routes = {
                "n_trials": [
                    lambda: run_trials(scen, cfg, n, 0.5, 1),
                    lambda: sweep_distance(scen, [30.0], [0.0], cfg, n, 1, snr_calibration=0.15),
                    lambda: sweep_roc(scen, 30.0, [0.0], [0.1], n, 1, snr_calibration=0.15),
                    lambda: compare_baseline(scen, cfg, n, 1, [20.0]),
                    lambda: calibrated_config(scen, 0.1, n, 1),
                ],
                "n_calibration": [lambda: sweep_roc(scen, 30.0, [0.0], [0.1], 10, 1, 0.15, n_calibration=n)],
            }
            for name, calls in routes.items():
                for call in calls:
                    with pytest.raises(InvalidInputError, match=f"{name} must be at most .*, got {n}"):
                        call()

    def test_numpy_arrays_serve_as_sequences(self):
        # An array argument gives what the same values as a tuple give, and
        # an empty array is refused as an empty tuple is.
        scen = default_scenario(n_steps=60, anchors=SQUARE_ANCHORS[:2], rss_noise=NoiseModel(3.0))
        cfg = DetectorConfig(25.0)
        assert np.array_equal(
            attacker_positions(scen, 30.0, np.array([0.1, 0.2])), attacker_positions(scen, 30.0, (0.1, 0.2))
        )
        assert np.array_equal(attacker_positions(scen, 30.0, np.array([])), attacker_positions(scen, 30.0))
        distances, snrs, bearings, targets = (30.0, 50.0), (-5.0, 5.0), (0.3, 2.0), (0.05, 0.2)
        tuples = [
            sweep_distance(scen, distances, snrs, cfg, 60, 5, 0.15, bearings),
            sweep_roc(scen, 40.0, snrs, targets, 60, 5, 0.15, bearings=bearings),
            compare_baseline(scen, cfg, 60, 5, distances),
        ]
        d, snr, b, t = (np.array(values) for values in (distances, snrs, bearings, targets))
        arrays = [
            sweep_distance(scen, d, snr, cfg, 60, 5, 0.15, b),
            sweep_roc(scen, 40.0, snr, t, 60, 5, 0.15, bearings=b),
            compare_baseline(scen, cfg, 60, 5, d),
        ]
        assert arrays == tuples
        empty = np.array([])
        for call in (
            lambda: sweep_distance(scen, empty, snr, cfg, 60, 5, 0.15),
            lambda: sweep_roc(scen, 40.0, snr, empty, 60, 5, 0.15),
            lambda: compare_baseline(scen, cfg, 60, 5, empty),
        ):
            with pytest.raises(InvalidInputError, match="non-empty"):
                call()


class TestBatchedEngineMatchesReference:
    def test_dual_route_agreement(self):
        scen = default_scenario(n_steps=50, rss_noise=NoiseModel(2.0))
        cfg = DetectorConfig(25.0)
        # The first 30 trials, then trials 4094-4097 of a longer cell.
        for n, indices in ((30, range(30)), (4098, range(4094, 4098))):
            batched = run_trials(scen, cfg, n, 0.5, master_seed=123)
            n_pue = round(0.5 * n)
            for i in indices:
                out = batched[i]
                ref = reference_trial(scen, cfg, 123, i, PUE if i < n_pue else PU)
                assert out.scheduled == ref.scheduled
                assert out.verdict == ref.verdict
                assert out.seed == ref.seed
                assert out.seed == 123
                assert out.residual == pytest.approx(ref.residual, rel=1e-10, abs=1e-10)

    def test_dual_route_multi_anchor_or_fusion(self):
        base = default_scenario(n_steps=30, rss_noise=NoiseModel(3.0))
        cfg = DetectorConfig(25.0, fusion="or")
        n = 20
        fixed = np.tile((300.0, 300.0), (n, 1))
        # The last case places each trial's attacker apart, as the sweeps do.
        per_trial = attacker_positions(base, 40.0, bearings=(0.3, 2.2, 4.1))[np.arange(n) % 3]
        for anchors, xy in ((SQUARE_ANCHORS[:2], fixed), (SQUARE_ANCHORS, fixed), (SQUARE_ANCHORS, per_trial)):
            scen = replace(base, anchors=anchors)
            batched = run_cell(scen, np.arange(n) < 10, xy, 55).outcomes(cfg)
            for i, out in enumerate(batched):
                ref = reference_trial(replace(scen, attacker_pos=tuple(xy[i])), cfg, 55, i, PUE if i < 10 else PU)
                assert out.verdict == ref.verdict
                assert out.seed == ref.seed
                assert out.seed == 55
                assert out.residual == pytest.approx(ref.residual, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize(
        "overrides, fusion",
        [
            (dict(eval_step=23), "single"),
            (dict(dt=0.5), "single"),
            (dict(dt=2.0), "single"),
            (dict(process_noise_std=0.0), "single"),
            (dict(process_noise_std=1.0), "single"),
            (dict(meas_noise_std=0.0, process_noise_std=0.5), "single"),
            (dict(anchors=SQUARE_ANCHORS), "or"),
            # Velocity gains near 1/dt = 1e155: an error covariance kept in
            # m/s would square them past the float range; W squares none.
            (dict(dt=1e-155, v_max=1e100, meas_noise_std=1e-60), "single"),
            # The same step at the stock noise, where a wrong map shows
            # above the tolerance: dt * v_max = 0.1 m a step gives the
            # velocity terms weight.
            (dict(dt=1e-155, v_max=1e154), "single"),
        ],
        ids=["eval_step", "dt_0.5", "dt_2", "no_process_noise", "process_noise_1",
             "no_meas_noise", "or4", "tiny_dt", "tiny_dt_visible_noise"],
    )
    def test_dual_route_off_the_stock_path(self, overrides, fusion):
        scen = default_scenario(n_steps=50, rss_noise=NoiseModel(2.0), **overrides)
        cfg = DetectorConfig(25.0, fusion=fusion)
        n = 16
        batched = run_trials(scen, cfg, n, 0.5, master_seed=31)
        for i, out in enumerate(batched):
            ref = reference_trial(scen, cfg, 31, i, PUE if i < n // 2 else PU)
            assert out.scheduled == ref.scheduled
            assert out.verdict == ref.verdict
            assert out.seed == ref.seed
            assert out.seed == 31
            assert out.residual == pytest.approx(ref.residual, rel=1e-10, abs=1e-10)

    def test_reference_memory_does_not_grow_with_index_times_steps(self):
        # Trial 4095 at K = 1999 skips 4095 rows of its cell's position and
        # RSS draws but draws only its own 2(K + 1) null-space normals; a
        # reference that drew the skipped trials' 4000 normals each would
        # peak near 126 MB here.
        scen = default_scenario(n_steps=2000, dt=0.1)
        bound_mb = 16.0
        tracemalloc.start()
        try:
            reference_trial(scen, DetectorConfig(25.0), 3, 4095)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, peak

    def test_overflowing_rss_inversion_is_typed_on_both_routes(self):
        # A tiny path-loss exponent and a wide dB spread push the inverted
        # distance of some trials past the float range (trial 6 is one).
        scen = default_scenario(link=LinkModel(alpha=0.01), rss_noise=NoiseModel(40.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDegeneracyError, match="anchor 'a1'"):
                run_cell(scen, np.zeros(50, dtype=bool), np.zeros((50, 2)), 7)
            with pytest.raises(NumericalDegeneracyError, match="anchor 'a1'"):
                reference_trial(scen, DetectorConfig(25.0), 7, 6)
            # Under single fusion the second anchor still ranges every trial
            # on the engine, so its overflow must fail the reference too.
            two = default_scenario(
                n_steps=20, anchors=SQUARE_ANCHORS[:2],
                link=LinkModel(alpha=0.01), rss_noise=NoiseModel(40.0),
            )
            cfg = DetectorConfig(25.0, "single")
            with pytest.raises(NumericalDegeneracyError, match="anchor 'a2'"):
                run_trials(two, cfg, 1, 0.0, 0)
            with pytest.raises(NumericalDegeneracyError, match="anchor 'a2'"):
                reference_trial(two, cfg, 0, 0)

    def test_infinite_rss_reading_is_typed_on_both_routes(self):
        # Trial 0's dB noise overflows the reading to +inf.  The engine once
        # inverted it to d_rss = 0 and called the trial an attack.
        scen = default_scenario(n_steps=5, rss_noise=NoiseModel(1e308))
        cfg = DetectorConfig(25.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="pr_db must be finite, got inf"):
                run_trials(scen, cfg, 1, 0.0, 1)
            with pytest.raises(InvalidInputError, match="pr_db must be finite, got inf"):
                reference_trial(scen, cfg, 1, 0)

    @given(
        n_steps=st.integers(1, 40),
        eval_step=st.integers(0, 39),
        dt=st.sampled_from((0.1, 0.3, 0.5, 1.0, 2.0)),
        n_anchors=st.integers(1, 4),
        fusion=st.sampled_from(("single", "or")),
        meas_noise_std=st.sampled_from((0.0, 0.5, 5.0, 10.0)),
        process_noise_std=st.sampled_from((0.0, 0.2, 1.0)),
        alpha=st.sampled_from((0.01, 0.5, 2.0, 4.0)),
        sigma_db=st.sampled_from((0.0, 1.0, 10.0, 40.0, 1e308)),
        seed=st.integers(0, 2**32 - 1),
        is_pue=st.lists(st.booleans(), min_size=12, max_size=12),
        distance=st.floats(0.0, 200.0),
    )
    # A second anchor overflowing under single fusion, which the engine
    # ranged and the reference route once skipped.
    @example(
        n_steps=1, eval_step=0, dt=0.1, n_anchors=2, fusion="single",
        meas_noise_std=0.0, process_noise_std=0.0, alpha=0.01, sigma_db=40.0,
        seed=0, is_pue=[False] * 12, distance=0.0,
    )
    # An RSS reading that overflows to +inf, which the engine once inverted
    # where the reference route rejected it.
    @example(
        n_steps=5, eval_step=4, dt=1.0, n_anchors=1, fusion="single",
        meas_noise_std=5.0, process_noise_std=0.2, alpha=2.0, sigma_db=1e308,
        seed=1, is_pue=[False] * 12, distance=0.0,
    )
    @settings(max_examples=80, deadline=None)
    def test_differential_engine_vs_reference(
        self, n_steps, eval_step, dt, n_anchors, fusion, meas_noise_std,
        process_noise_std, alpha, sigma_db, seed, is_pue, distance,
    ):
        # Random valid scenarios, including zero noise and link parameters
        # that push the RSS inversion out of the float range.
        scen = default_scenario(
            n_steps=n_steps,
            eval_step=eval_step % n_steps,
            dt=dt,
            anchors=SQUARE_ANCHORS[:n_anchors],
            meas_noise_std=meas_noise_std,
            process_noise_std=process_noise_std,
            link=LinkModel(alpha=alpha),
            rss_noise=NoiseModel(sigma_db),
        )
        cfg = DetectorConfig(25.0, fusion)
        n = len(is_pue)
        is_pue = np.array(is_pue)
        xy = attacker_positions(scen, distance, bearings=(0.3, 2.2, 4.1))[np.arange(n) % 3]

        def engine(m):
            return run_cell(scen, is_pue[:m], xy[:m], seed).outcomes(cfg)

        def reference(i):
            trial = replace(scen, attacker_pos=tuple(xy[i]))
            return reference_trial(trial, cfg, seed, i, PUE if is_pue[i] else PU)

        # A trial's outcome depends only on its index, so trial i is the
        # first to fail iff the (i + 1)-trial prefix raises and the i-trial
        # prefix does not.
        n_ok = n
        for m in range(1, n + 1):
            try:
                engine(m)
            except (InvalidInputError, NumericalDegeneracyError) as exc:
                n_ok = m - 1
                with pytest.raises(type(exc)) as ref_exc:
                    reference(n_ok)
                named = re.match(r"anchor '[^']*'", str(exc))
                if named:
                    assert str(ref_exc.value).startswith(named.group())
                break
        for i, out in enumerate(engine(n_ok) if n_ok else []):
            ref = reference(i)
            assert out.scheduled == ref.scheduled
            assert out.verdict == ref.verdict
            assert out.seed == ref.seed
            assert out.seed == seed
            assert out.residual == pytest.approx(ref.residual, rel=1e-10, abs=1e-10)


def trilaterate(d_kf, anchors):
    """The estimates whose distances to `anchors` are the rows of `d_kf`:
    differences of squared distances are linear in the position."""
    a = np.array([(n.x, n.y) for n in anchors])
    lhs = 2.0 * (a[1:] - a[0])
    rhs = (a[1:] ** 2).sum(axis=1) - (a[0] ** 2).sum() - d_kf[:, 1:] ** 2 + d_kf[:, :1] ** 2
    return np.linalg.lstsq(lhs, rhs.T, rcond=None)[0].T


class TestExactLaw:
    def test_estimate_has_the_law_of_the_full_noise_contraction(self):
        # The engine's two normals per trial against offset + sigma_z * W @
        # noise over all 2(K + 1) measurement normals, at a non-final step.
        # Bounds, fixed before the run: 5 standard errors of each difference.
        scen = default_scenario(n_steps=30, eval_step=5, meas_noise_std=5.0, anchors=SQUARE_ANCHORS)
        n = 20_000
        law = scen.estimate_law((5,))[5]
        cell = run_cell(scen, np.zeros(n, dtype=bool), np.zeros((n, 2)), 3)
        est = trilaterate(cell.d_kf, SQUARE_ANCHORS)
        noise = np.random.default_rng(2024).standard_normal((n, law.weights.shape[1]))
        full = law.offset + 5.0 * noise @ law.weights.T
        cov = 25.0 * law.weights @ law.weights.T
        var = np.diag(cov)
        assert (np.abs(est.mean(axis=0) - full.mean(axis=0)) <= 5.0 * np.sqrt(2.0 * var / n)).all()
        var_se = np.sqrt(2.0 * 2.0 * var**2 / (n - 1))
        assert (np.abs(est.var(axis=0, ddof=1) - full.var(axis=0, ddof=1)) <= 5.0 * var_se).all()
        cov_se = math.sqrt(2.0 * (var[0] * var[1] + cov[0, 1] ** 2) / (n - 1))
        assert abs(np.cov(est.T)[0, 1] - np.cov(full.T)[0, 1]) <= 5.0 * cov_se

    def test_zero_measurement_noise_puts_every_estimate_at_the_offset(self):
        scen = default_scenario(n_steps=30, eval_step=5, meas_noise_std=0.0, anchors=SQUARE_ANCHORS)
        offset = scen.estimate_law((5,))[5].offset
        cell = run_cell(scen, np.zeros(300, dtype=bool), np.zeros((300, 2)), 3)
        ax, ay = np.array([(a.x, a.y) for a in SQUARE_ANCHORS]).T
        assert np.array_equal(cell.d_kf, np.broadcast_to(np.hypot(offset[0] - ax, offset[1] - ay), (300, 4)))

    def test_cell_columns_keep_the_broadcast_values(self):
        # Four anchors, or-fusion, off-axis bearings and mixed labels: a short
        # cell is a bitwise prefix of a long one, and d_kf is, row for row,
        # the hypot of the (n, 2) broadcast form of offset + sigma_z * L eta.
        scen = default_scenario(n_steps=60, eval_step=41, anchors=SQUARE_ANCHORS, rss_noise=NoiseModel(3.0))
        n = 1500
        is_pue = np.arange(n) % 3 == 1
        xy = attacker_positions(scen, 35.0, bearings=(0.3, 2.2, 4.1))[np.arange(n) % 3]
        long = run_cell(scen, is_pue, xy, 21)
        short = run_cell(scen, is_pue[:37], xy[:37], 21)
        for name in ("is_pue", "d_kf", "d_rss"):
            assert getattr(short, name).tobytes() == getattr(long, name)[:37].tobytes(), name
        law = scen.estimate_law((41,))[41]
        eta = cell_streams(21)[1].standard_normal((n, 2))
        est = eta[:, :1] * law.factor[:, 0] + eta[:, 1:] * law.factor[:, 1]
        est *= scen.meas_noise_std
        est += law.offset
        ax, ay = np.array([(a.x, a.y) for a in SQUARE_ANCHORS]).T
        assert np.array_equal(long.d_kf, np.hypot(est[:, :1] - ax, est[:, 1:] - ay))
        residual = long.residuals("or")
        assert 0 < np.count_nonzero(residual >= 25.0) < n

    def test_singular_laws(self, monkeypatch):
        # A zero map is a point mass at the offset; a map of rank one is a
        # typed error on both routes, never a LinAlgError.  Both routes read
        # the law from Scenario.estimate_law, which builds the map with
        # track_weights, so it is patched there.
        scen = default_scenario(n_steps=20, anchors=SQUARE_ANCHORS, rss_noise=NoiseModel(2.0))
        stock = scen.estimate_law((19,))[19]
        weights, offset = stock.weights, stock.offset
        state = np.array([*offset, 0.0, 0.0])
        n = 50
        ax, ay = np.array([(a.x, a.y) for a in SQUARE_ANCHORS]).T
        cfg = DetectorConfig(25.0, "or")
        rank_one = np.zeros_like(weights)
        rank_one[:, 0] = (1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(scenario_module, "track_weights", lambda steps, *args: {19: (state, 0.0 * weights)})
            cell = run_cell(scen, np.zeros(n, dtype=bool), np.zeros((n, 2)), 4)
            assert np.array_equal(cell.d_kf, np.broadcast_to(np.hypot(offset[0] - ax, offset[1] - ay), (n, 4)))
            assert reference_trial(scen, cfg, 4, 3).scheduled == PU
            monkeypatch.setattr(scenario_module, "track_weights", lambda steps, *args: {19: (state, rank_one)})
            with pytest.raises(NumericalDegeneracyError, match="step 19 is singular"):
                run_cell(scen, np.zeros(n, dtype=bool), np.zeros((n, 2)), 4)
            with pytest.raises(NumericalDegeneracyError, match="step 19 is singular"):
                reference_trial(scen, cfg, 4, 3)

    def test_law_that_is_not_finite_is_typed_on_both_routes(self, monkeypatch):
        # No valid config was found whose law leaves the float range (the
        # nearest, the tiny_dt case of test_dual_route_off_the_stock_path,
        # keeps both routes finite), so the map is patched: one whose W W^T
        # overflows or is NaN, and an offset that is not finite.
        scen = default_scenario(n_steps=20, rss_noise=NoiseModel(2.0))
        stock = scen.estimate_law((19,))[19]
        weights, offset = stock.weights, stock.offset
        cfg = DetectorConfig(25.0)
        state = np.array([*offset, 0.0, 0.0])
        cases = [
            ((state, weights * 1e200), "estimate covariance at step 19 left the finite range"),
            ((state, np.full_like(weights, np.nan)), "estimate covariance at step 19 left the finite range"),
            ((np.array([np.inf, 0.0, 0.0, 0.0]), weights), "estimate law at step 19 left the finite range"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law, message in cases:
                monkeypatch.setattr(scenario_module, "track_weights", lambda steps, *args: {19: law})
                with pytest.raises(InvalidInputError, match=message):
                    run_trials(scen, cfg, 10, 0.5, 1)
                with pytest.raises(InvalidInputError, match=message):
                    reference_trial(scen, cfg, 1, 0)


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


class TestCell:
    @pytest.mark.parametrize("n_anchors", [1, 2, 4])
    @pytest.mark.parametrize("fusion", ["single", "or"])
    def test_score_matches_metrics_of_outcomes(self, n_anchors, fusion):
        base = default_scenario(n_steps=30, rss_noise=NoiseModel(3.0))
        scen = replace(base, anchors=SQUARE_ANCHORS[:n_anchors])
        n = 300
        cell = run_cell(scen, np.arange(n) < 120, attacker_positions(scen, 40.0), 19)
        residuals = cell.residuals(fusion)
        assert residuals.shape == (n,)
        i_tie = int(np.argsort(residuals)[n // 2])
        tie = float(residuals[i_tie])
        coords = SweepCoords(40.0, None, tie)
        for tau in (0.0, 10.0, 25.0, tie, float(residuals.max()) + 1.0):
            cfg = DetectorConfig(tau, fusion)
            report = cell.score(cfg)
            assert report == metrics(cell.outcomes(cfg))
            assert type(report.n_attack_trials) is int and type(report.pd) is float
            assert cell.score(cfg, coords) == metrics(cell.outcomes(cfg), coords)
        # A residual equal to tau is an attack; just above it, it is not.
        assert cell.outcomes(DetectorConfig(tie, fusion))[i_tie].verdict == ATTACKER
        assert cell.outcomes(DetectorConfig(float(np.nextafter(tie, np.inf)), fusion))[i_tie].verdict == LEGITIMATE

    @given(
        data=st.data(),
        n=st.integers(1, 40),
        n_anchors=st.integers(1, 4),
        fusion=st.sampled_from(["single", "or"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scores_count_each_tau(self, data, n, n_anchors, fusion):
        # Distances from a short list, so residuals tie and taus hit them.
        dists = st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0, 30.0]), min_size=n * n_anchors, max_size=n * n_anchors)
        d_kf = np.reshape(data.draw(dists), (n, n_anchors))
        d_rss = np.reshape(data.draw(dists), (n, n_anchors))
        is_pue = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        cell = experiments.Cell(is_pue, d_kf, d_rss, 0)
        res = cell.residuals(fusion)
        taus = data.draw(st.lists(st.sampled_from(res.tolist()) | st.floats(0, 40), min_size=1, max_size=8))
        coords = [SweepCoords(None, None, tau) for tau in taus]
        reports = cell.scores([DetectorConfig(tau, fusion) for tau in taus], coords)
        n_attack = int(is_pue.sum())
        for tau, c, r in zip(taus, coords, reports, strict=True):
            det = np.count_nonzero((res >= tau) & is_pue)
            fa = np.count_nonzero((res >= tau) & ~is_pue)
            assert (r.n_attack_trials, r.n_legit_trials, r.sweep_coords) == (n_attack, n - n_attack, c)
            assert r.pd == (det / n_attack if n_attack else None)
            assert r.pm == ((n_attack - det) / n_attack if n_attack else None)
            assert r.pfa == (fa / (n - n_attack) if n > n_attack else None)
            assert r == cell.score(DetectorConfig(tau, fusion), c)

    def test_scores_refuse_configs_of_mixed_fusion(self):
        cell = experiments.Cell(np.array([True, False]), np.ones((2, 2)), np.zeros((2, 2)), 0)
        with pytest.raises(InvalidInputError, match="share one fusion mode"):
            cell.scores([DetectorConfig(1.0, "single"), DetectorConfig(1.0, "or")])
        with pytest.raises(InvalidInputError, match="share one fusion mode"):
            cell.scores([])

    def test_scores_of_one_sided_cells(self):
        # A cell without attack trials has no P_d or P_m, one without
        # legitimate trials no P_fa; each config is still counted on its own.
        d_kf = np.array([[1.0, 9.0], [4.0, 0.0], [2.5, 2.5], [30.0, 1.0]])
        d_rss = np.array([[0.0, 4.0], [4.0, 2.5], [0.0, 30.0], [1.0, 1.0]])
        taus = (0.0, 2.5, 5.0, 100.0)
        for is_pue in (np.zeros(4, dtype=bool), np.ones(4, dtype=bool), np.array([True, False, False, True])):
            cell = experiments.Cell(is_pue, d_kf, d_rss, 0)
            for fusion in ("single", "or"):
                configs = [DetectorConfig(tau, fusion) for tau in taus]
                res = cell.residuals(fusion)
                expected = [
                    metrics([
                        TrialOutcome(PUE if p else PU, ATTACKER if r >= tau else LEGITIMATE, r, 0)
                        for p, r in zip(is_pue.tolist(), res.tolist())
                    ])
                    for tau in taus
                ]
                assert cell.scores(configs) == expected
                assert [cell.score(c) for c in configs] == expected

    def test_scores_refuse_coords_that_do_not_match_the_configs(self):
        cell = experiments.Cell(np.array([True, False]), np.ones((2, 1)), np.zeros((2, 1)), 0)
        configs = [DetectorConfig(1.0), DetectorConfig(2.0)]
        for coords in ([], [SweepCoords(None, None, 1.0)], [None] * 3):
            with pytest.raises(InvalidInputError, match="one sweep coordinate per config"):
                cell.scores(configs, coords)
        assert cell.scores(configs, [None, None]) == cell.scores(configs)

    @pytest.mark.parametrize("n_anchors", [1, 2, 3, 4, 5])
    def test_or_residual_is_the_largest_across_anchors(self, n_anchors):
        # Column maxima against the row maximum, with ties and equal rows.
        rng = np.random.default_rng(n_anchors)
        d_kf = rng.choice([0.0, 1.0, 2.5, 1e300], size=(200, n_anchors)) + rng.random((200, n_anchors))
        d_rss = rng.choice([0.0, 1.0, 2.5], size=(200, n_anchors)) * rng.integers(0, 2, (200, n_anchors))
        cell = experiments.Cell(np.arange(200) < 100, d_kf, d_rss, 0)
        expected = np.abs(d_kf - d_rss).max(axis=1)
        assert cell.residuals("or").tobytes() == expected.tobytes()

    def test_rejects_mismatched_inputs(self):
        # No schedule label, no attacker site, or sites that are not points.
        # Any k >= 1 sites fit any n trials: trial i uses site i % k.
        scen = collinear_scenario()
        for labels, sites in (
            (np.zeros(0, dtype=bool), np.zeros((0, 2))),
            (np.zeros(3, dtype=bool), np.zeros((0, 2))),
            (np.zeros(3, dtype=bool), np.zeros((3, 3))),
            (np.zeros(3, dtype=bool), np.zeros((3, 1))),
            (np.zeros(3, dtype=bool), np.zeros(2)),
            (np.zeros(3, dtype=bool), np.zeros((3, 2, 1))),
        ):
            with pytest.raises(InvalidInputError, match="attacker sites"):
                run_cell(scen, labels, sites, 1)


class TestAttackerSites:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n_anchors", [1, 4])
    def test_cycled_sites_equal_the_tiled_array(self, k, n_anchors):
        # n = 301 is a multiple of none of k = 2, 3; labels mixed.
        scen = default_scenario(n_steps=30, anchors=SQUARE_ANCHORS[:n_anchors], rss_noise=NoiseModel(3.0))
        n = 301
        is_pue = np.arange(n) % 5 < 3
        sites = attacker_positions(scen, 40.0, bearings=(0.3, 2.2, 4.1)[:k])
        assert sites.shape == (k, 2)
        cycled = run_cell(scen, is_pue, sites, 31)
        tiled = run_cell(scen, is_pue, sites[np.arange(n) % k], 31)
        for name in ("is_pue", "d_kf", "d_rss"):
            assert getattr(cycled, name).tobytes() == getattr(tiled, name).tobytes(), name
        for fusion in ("single", "or"):
            assert cycled.residuals(fusion).tobytes() == tiled.residuals(fusion).tobytes(), fusion

    def test_default_sites_face_the_designated_anchor_and_away(self):
        scen = collinear_scenario(n_steps=40)
        pu = truth_at(scen, scen.evaluation_step).position
        sites = attacker_positions(scen, 30.0)
        assert np.allclose(sites, [(pu[0] + 30.0, 0.0), (pu[0] - 30.0, 0.0)], rtol=0.0, atol=1e-12)

    def test_only_a_used_site_can_coincide_with_an_anchor(self):
        scen = replace(default_scenario(n_steps=30, anchors=SQUARE_ANCHORS), rss_noise=NoiseModel(2.0))
        on_anchor = (SQUARE_ANCHORS[2].x, SQUARE_ANCHORS[2].y)
        sites = np.array([(300.0, 300.0), (320.0, 280.0), on_anchor])
        n = 10
        # A legitimate-only cell whose placeholder site sits on an anchor.
        legit = run_cell(scen, np.zeros(n, dtype=bool), [on_anchor], 2)
        assert np.isfinite(legit.d_rss).all()
        # Site 2 serves trials 2, 5 and 8; none of them is an attack trial.
        unused = run_cell(scen, np.arange(n) % 3 != 2, sites, 2)
        assert np.isfinite(unused.d_rss).all()
        with pytest.raises(InvalidInputError, match="transmitter coincides with anchor 'a3'"):
            run_cell(scen, np.arange(n) == 5, sites, 2)
        # An unused site on a1 does not take the error from the used one on a3.
        with pytest.raises(InvalidInputError, match="transmitter coincides with anchor 'a3'"):
            run_cell(scen, np.arange(n) == 1, [(SQUARE_ANCHORS[0].x, SQUARE_ANCHORS[0].y), on_anchor], 2)


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
            sweep_distance(scen, [], [0.0], DetectorConfig(1.0), 10, 1, snr_calibration=10.0)


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
            sweep_roc(scen, 30.0, [0.0], [1.5], 10, 1, snr_calibration=10.0)


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
            n_steps=40,
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

    def test_baseline_matches_per_trial_reference(self):
        # Each trial's RSS sample is rebuilt from the cell's stream, as
        # reference_trial does, and decided by the per-trial baseline.
        scen = default_scenario(n_steps=60, rss_noise=sigma_from_snr(-10.0, 0.15))
        cfg = DetectorConfig(25.0)
        n, seed, d = 40, 41, 50.0
        (row,) = compare_baseline(scen, cfg, n, seed, distances=(d,), schedule_mix=0.5)
        start = truth_at(scen, 0).position
        k = next(k for k in range(scen.n_steps) if math.dist(truth_at(scen, k).position, start) >= d)
        anchor = scen.anchors[0]
        outcomes = []
        for i in range(n):
            _, _, rss_gen = cell_streams(child_seed(seed, 2, 0))
            rss_gen.standard_normal((i, len(scen.anchors)))
            scheduled = PUE if i < n // 2 else PU
            tx = scen.attacker_pos if scheduled == PUE else truth_at(scen, k).position
            v = rss_baseline_decide(start, anchor, emit_rss(scen, tx, anchor, rss_gen), scen.link, cfg)
            outcomes.append(TrialOutcome(scheduled, v.label, v.residual, 0))
        assert metrics(outcomes, row.baseline.sweep_coords) == row.baseline

    def test_each_row_equals_a_fresh_cell_at_its_step(self):
        # compare_baseline snapshots one filter recursion at every evaluation
        # step; each snapshot must equal the weights a cell builds alone.
        scen = default_scenario(n_steps=60, rss_noise=sigma_from_snr(-10.0, 0.15))
        cfg = DetectorConfig(25.0)
        n, seed = 300, 17
        rows = compare_baseline(scen, cfg, n, seed, distances=(30.0, 150.0))
        start = truth_at(scen, 0).position
        is_pue = np.arange(n) < n // 2
        attacker_xy = np.tile(scen.attacker_pos, (n, 1))
        for i, row in enumerate(rows):
            k = next(
                k for k in range(scen.n_steps)
                if math.dist(truth_at(scen, k).position, start) >= row.distance
            )
            cell = run_cell(replace(scen, eval_step=k), is_pue, attacker_xy, child_seed(seed, 2, i))
            assert cell.score(cfg, row.proposed.sweep_coords) == row.proposed

    def test_unreachable_distance_rejected(self):
        scen = default_scenario(n_steps=10)
        with pytest.raises(InvalidInputError, match="never reaches"):
            compare_baseline(scen, DetectorConfig(25.0), 10, 1, distances=(5000.0,))


class TestSweepsMatchSerialCells:
    """Each sweep must equal a loop of run_cell over the same child seeds, in
    cell order."""

    def test_sweep_distance(self):
        n, seed, cal = 300, 5, 0.15
        distances, snrs = (20.0, 60.0), (-10.0, 0.0, 10.0)
        is_pue = np.arange(n) < n // 2
        cases = [
            ({}, "single", None),
            # Or-fusion over four anchors, three bearings and a non-final
            # evaluation step: the sweep's one count holds under every fusion.
            (dict(anchors=SQUARE_ANCHORS, eval_step=17), "or", (0.3, 2.0, 4.1)),
        ]
        for overrides, fusion, bearings in cases:
            scen = default_scenario(n_steps=30, **overrides)
            cfg = DetectorConfig(25.0, fusion)
            reports = sweep_distance(scen, distances, snrs, cfg, n, seed, cal, bearings=bearings, schedule_mix=0.5)
            serial = [
                run_cell(
                    replace(scen, rss_noise=sigma_from_snr(snr, cal)), is_pue,
                    attacker_positions(scen, d, bearings), child_seed(seed, 0, i, j),
                ).score(cfg, SweepCoords(d, snr, cfg.tau))
                for i, d in enumerate(distances)
                for j, snr in enumerate(snrs)
            ]
            assert reports == serial

    def test_sweep_roc(self):
        scen = default_scenario(n_steps=30, anchors=SQUARE_ANCHORS[:2])
        n, n_cal, seed, cal, d = 300, 200, 9, 0.15, 40.0
        snrs, targets = (-10.0, 0.0, 10.0), (0.05, 0.2)
        reports = sweep_roc(
            scen, d, snrs, targets, n, seed, cal, n_calibration=n_cal, schedule_mix=0.5, fusion="or",
        )
        is_pue = np.arange(n) < n // 2
        serial = []
        for j, snr in enumerate(snrs):
            cell_scen = replace(scen, rss_noise=sigma_from_snr(snr, cal))
            legit = run_cell(
                cell_scen, np.zeros(n_cal, bool), np.zeros((n_cal, 2)), child_seed(seed, 1, j, 0)
            )
            cell = run_cell(cell_scen, is_pue, attacker_positions(scen, d), child_seed(seed, 1, j, 1))
            for target in targets:
                (tuned,) = calibrate_taus(legit.residuals("or"), [target], "or")
                serial.append(cell.score(tuned, SweepCoords(d, snr, tuned.tau)))
        assert reports == serial

    @pytest.mark.parametrize("fusion", ["single", "or"])
    @pytest.mark.parametrize("seed", [0, 9, 2024])
    def test_sweep_roc_equals_a_loop_over_targets(self, seed, fusion):
        # Unsorted, repeated targets, one below 1 / n_cal, which warns.
        scen = default_scenario(n_steps=30, anchors=SQUARE_ANCHORS[:3])
        n, n_cal, cal, d = 200, 150, 0.15, 40.0
        snrs, targets = (-10.0, 5.0), (0.2, 0.05, 0.2, 0.001, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reports = sweep_roc(
                scen, d, snrs, targets, n, seed, cal, n_calibration=n_cal, schedule_mix=0.5, fusion=fusion
            )
            serial = []
            for j, snr in enumerate(snrs):
                cell_scen = replace(scen, rss_noise=sigma_from_snr(snr, cal))
                legit = run_cell(cell_scen, np.zeros(n_cal, bool), np.zeros((n_cal, 2)), child_seed(seed, 1, j, 0))
                cell = run_cell(
                    cell_scen, np.arange(n) < n // 2, attacker_positions(scen, d), child_seed(seed, 1, j, 1)
                )
                for target in targets:
                    (tuned,) = calibrate_taus(legit.residuals(fusion), [target], fusion)
                    serial.append(cell.score(tuned, SweepCoords(d, snr, tuned.tau)))
        assert reports == serial

    def test_compare_baseline(self):
        scen = default_scenario(n_steps=60, rss_noise=sigma_from_snr(-10.0, 0.15))
        cfg = DetectorConfig(25.0)
        n, seed, distances = 300, 23, (20.0, 60.0, 150.0)
        rows = compare_baseline(scen, cfg, n, seed, distances, schedule_mix=0.5)
        start = truth_at(scen, 0).position
        anchor = scen.anchors[0]
        d_ref = math.dist(start, (anchor.x, anchor.y))
        is_pue = np.arange(n) < n // 2
        attacker_xy = np.tile(scen.attacker_pos, (n, 1))
        for i, (d, row) in enumerate(zip(distances, rows, strict=True)):
            k = next(k for k in range(scen.n_steps) if math.dist(truth_at(scen, k).position, start) >= d)
            cell = run_cell(replace(scen, eval_step=k), is_pue, attacker_xy, child_seed(seed, 2, i))
            coords = SweepCoords(d, None, cfg.tau)
            assert row.proposed == cell.score(cfg, coords)
            assert row.baseline == replace(cell, d_kf=np.full_like(cell.d_kf, d_ref)).score(cfg, coords)

    def test_first_failing_cell_in_cell_order_decides_the_error(self):
        # Cells run as (calibration, evaluation) per SNR.  SNR 0's evaluation
        # cell fails only at its last trial, whose attacker sits on the anchor;
        # both cells of SNR -40 fail at once, on an RSS inversion that
        # overflows.  The evaluation cell of SNR 0 comes first in cell order.
        scen = replace(collinear_scenario(n_steps=40), link=LinkModel(alpha=0.01))
        pu = truth_at(scen, scen.evaluation_step).position
        anchor = scen.anchors[0]
        n = 3000
        bearings = (math.pi,) * (n - 1) + (0.0,)
        d = anchor.x - pu[0]
        assert attacker_positions(scen, d, bearings)[-1].tolist() == [anchor.x, anchor.y]
        kwargs = dict(n_calibration=10, bearings=bearings, schedule_mix=1.0)
        with pytest.raises(InvalidInputError, match="coincides with anchor 'a1'"):
            sweep_roc(scen, d, (0.0, -40.0), (0.1,), n, 3, 1.0, **kwargs)
        # The cells of SNR -40 alone raise their own error.
        with pytest.raises(NumericalDegeneracyError, match="anchor 'a1'"):
            sweep_roc(scen, d, (-40.0,), (0.1,), n, 3, 1.0, **kwargs)
        # With SNR -40 first, its calibration cell fails before any cell
        # reads the evaluation site on the anchor: a site is checked by the
        # first cell that reads it, not when the sweep starts.
        with pytest.raises(NumericalDegeneracyError, match="anchor 'a1'"):
            sweep_roc(scen, d, (-40.0, 0.0), (0.1,), n, 3, 1.0, **kwargs)
        # So too across distances: cell (10 m, -40 dB) fails before any cell
        # at distance d runs.
        with pytest.raises(NumericalDegeneracyError, match="anchor 'a1'"):
            sweep_distance(
                scen, (10.0, d), (0.0, -40.0), DetectorConfig(10.0), n, 3, 1.0, bearings=bearings, schedule_mix=1.0
            )


def test_calibrated_config_hits_target_roughly():
    scen = default_scenario(n_steps=40, rss_noise=sigma_from_snr(0.0, 0.15))
    cfg = calibrated_config(scen, 0.1, 5000, 3)
    outs = run_trials(scen, cfg, 4000, 0.0, master_seed=4)
    pfa = metrics(outs).pfa
    assert abs(pfa - 0.1) <= 3 * math.sqrt(0.1 * 0.9 / 4000) + 3 * math.sqrt(0.1 * 0.9 / 5000)


@pytest.mark.parametrize("bearing", [math.inf, -math.inf, math.nan])
def test_attacker_positions_reject_non_finite_bearings(bearing):
    scen = collinear_scenario()
    with pytest.raises(InvalidInputError, match="bearings must be finite"):
        attacker_positions(scen, 30.0, bearings=(0.0, bearing))
    with pytest.raises(InvalidInputError, match="bearings must be finite"):
        sweep_distance(scen, [30.0], [0.0], DetectorConfig(10.0), 4, 1, 0.15, bearings=(bearing,))


def test_unknown_fusion_is_refused_before_any_cell_runs(monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the fusion mode was checked")

    monkeypatch.setattr(experiments, "run_cell", no_cell)
    scen = collinear_scenario()
    cell = experiments.Cell(np.zeros(2, dtype=bool), np.ones((2, 1)), np.ones((2, 1)), 0)
    with pytest.raises(InvalidInputError, match="unknown fusion mode 'vote'"):
        cell.residuals("vote")
    with pytest.raises(InvalidInputError, match="unknown fusion mode 'vote'"):
        sweep_roc(scen, 30.0, [0.0, 5.0], [0.1], 10, 1, 0.15, fusion="vote")
    with pytest.raises(InvalidInputError, match="unknown fusion mode 'vote'"):
        calibrated_config(scen, 0.1, 10, 1, fusion="vote")

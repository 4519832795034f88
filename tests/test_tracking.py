import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puedet.config import default_scenario
from puedet.errors import InvalidInputError, NumericalDegeneracyError
from puedet.tracking import (
    FilterEstimate,
    MeasurementModel,
    MotionModel,
    TargetState,
    gains,
    initial_estimate,
    predict,
    predict_covariance,
    track,
    track_weights,
    update,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def est(state, cov):
    return FilterEstimate(TargetState(*state), np.asarray(cov, dtype=float))


def random_psd(rng, scale=10.0):
    m = rng.standard_normal((4, 4)) * scale
    return m @ m.T + 1e-6 * np.eye(4)


def symmetrize(p):
    return 0.5 * (p + p.T)


def is_valid_covariance(p, scale_tol=1e-9):
    """Symmetric within tolerance and PSD up to -scale_tol * trace."""
    if not np.isfinite(p).all():
        return False
    if (np.abs(p - p.T) > scale_tol * np.maximum(1.0, np.abs(p))).any():
        return False
    return np.linalg.eigvalsh(symmetrize(p)).min() >= -scale_tol * max(np.trace(p), 0.0)


def start_gains(model, mm, n, v_max=10.0):
    """The gains of steps 1..n from the covariance of initial_estimate, which
    does not depend on the start's position: the list track and track_weights
    take."""
    return gains(initial_estimate((0.0, 0.0), mm, v_max).covariance, model, mm, n)


def gain(p, mm):
    """The Kalman gain at covariance p, column by column: from a zero state,
    update moves the state by the gain times a unit innovation."""
    cols = [update(est([0, 0, 0, 0], p), mm, z).state.as_array() for z in ((1.0, 0.0), (0.0, 1.0))]
    return np.stack(cols, axis=1)


class TestModels:
    def test_transition_matrix_layout(self):
        a = MotionModel(2.5).transition_matrix()
        expected = np.eye(4)
        expected[0, 2] = expected[1, 3] = 2.5
        assert np.array_equal(a, expected)

    def test_process_noise_equals_lifted_form(self):
        m = MotionModel(0.7, 0.04, 0.09)
        h = 0.5 * 0.7 * 0.7
        b = np.array([[h, 0.0], [0.0, h], [0.7, 0.0], [0.0, 0.7]])
        assert np.allclose(m.process_noise(), b @ np.diag([0.04, 0.09]) @ b.T, atol=1e-15)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            TargetState(np.nan, 0, 0, 0)
        with pytest.raises(InvalidInputError):
            MotionModel(-1.0)
        with pytest.raises(InvalidInputError):
            MotionModel(1.0, sigma_wx2=-0.1)
        with pytest.raises(InvalidInputError):
            MeasurementModel(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            MeasurementModel(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        for sx, sy in ((np.inf, np.inf), (0.04, np.inf), (np.nan, 0.04)):
            with pytest.raises(InvalidInputError, match="invalid motion model"):
                MotionModel(1.0, sx, sy)


class TestPredict:
    def test_linear_motion(self):
        out = predict(est([0, 0, 1, 2], np.eye(4)), MotionModel(1.0))
        assert out.state == TargetState(1, 2, 1, 2)

    def test_zero_dt_is_identity(self):
        start = est([3, -4, 0.5, 2], random_psd(np.random.default_rng(0)))
        out = predict(start, MotionModel(0.0, 5.0, 5.0), accel=(7.0, -7.0))
        assert out.state == start.state
        assert np.array_equal(out.covariance, start.covariance)

    def test_acceleration_kinematics(self):
        out = predict(est([0, 0, 0, 0], np.eye(4)), MotionModel(1.0), accel=(2.0, 0.0))
        assert out.state == TargetState(1, 0, 2, 0)

    def test_covariance_against_hand_oracle(self):
        # A P A^T + Q expanded by hand for dt=0.5, P=I, sigma^2=0.04 per axis.
        out = predict(
            est([1, 1, 0.5, -0.5], np.eye(4)), MotionModel(0.5, 0.04, 0.04)
        )
        expected = np.array(
            [
                [1.250625, 0.0, 0.5025, 0.0],
                [0.0, 1.250625, 0.0, 0.5025],
                [0.5025, 0.0, 1.01, 0.0],
                [0.0, 0.5025, 0.0, 1.01],
            ]
        )
        assert np.allclose(out.covariance, expected, atol=1e-9)
        assert out.state == TargetState(1.25, 0.75, 0.5, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            predict(est([0, 0, 0, 0], np.eye(4)), MotionModel(1.0), accel=(np.nan, 0.0))
        # Finite inputs whose result overflows are refused, never returned as
        # inf/NaN, and with no numpy warning ahead of the typed error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                predict(est([0, 0, 0, 0], np.eye(4)), MotionModel(1e200))
            with pytest.raises(InvalidInputError):
                predict(est([0, 0, 0, 0], 1e308 * np.eye(4)), MotionModel(1.0))
        with pytest.raises(InvalidInputError):
            predict(est([0, 0, 1e300, 0], np.eye(4)), MotionModel(1e10))
        with pytest.raises(InvalidInputError):
            update(est([0, 0, 0, 0], 1e200 * np.eye(4)), MeasurementModel(np.eye(2)), (1.0, 1.0))
        with pytest.raises(InvalidInputError):
            update(est([0, 0, 0, 0], np.eye(4)), MeasurementModel(1e200 * np.eye(2)), (1.0, 1.0))
        with pytest.raises(InvalidInputError):
            update(est([1e308, 0, 0, 0], np.eye(4)), MeasurementModel(np.eye(2)), (-1e308, 0.0))

    @given(
        state=st.tuples(finite, finite, finite, finite),
        dt=st.floats(0, 100, allow_nan=False),
        sw=st.floats(0, 100, allow_nan=False),
        ax=st.floats(-50, 50, allow_nan=False),
        ay=st.floats(-50, 50, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_covariance_stays_valid_and_grows(self, state, dt, sw, ax, ay, seed):
        p = random_psd(np.random.default_rng(seed))
        model = MotionModel(dt, sw, sw)
        out = predict(est(state, p), model, accel=(ax, ay))
        assert is_valid_covariance(out.covariance)
        a = model.transition_matrix()
        assert np.trace(out.covariance) >= np.trace(a @ p @ a.T) - 1e-9
        expected = symmetrize(a @ p @ a.T + model.process_noise())
        assert np.abs(out.covariance - expected).max() <= 1e-12 * np.abs(expected).max()


class TestUpdate:
    def test_uninformative_measurement_keeps_state(self):
        start = est([10, -10, 2, 3], np.eye(4))
        mm = MeasurementModel(1e12 * np.eye(2))
        out = update(start, mm, (500.0, 500.0))
        delta = np.linalg.norm(out.state.as_array() - start.state.as_array())
        assert delta <= 1e-6 * np.linalg.norm(start.state.as_array())
        assert np.abs(gain(start.covariance, mm)).max() <= 1e-10

    def test_exact_measurement_limit(self):
        out = update(est([5, 5, 1, 1], np.eye(4)), MeasurementModel(np.zeros((2, 2))), (9.0, 2.0))
        assert out.state.x == pytest.approx(9.0, abs=1e-12)
        assert out.state.y == pytest.approx(2.0, abs=1e-12)
        # P = I decouples velocity from position, so velocity gain is zero.
        assert out.state.vx == pytest.approx(1.0, abs=1e-12)
        assert out.state.vy == pytest.approx(1.0, abs=1e-12)

    def test_decoupled_axes_scalar_oracle(self):
        # Per axis g = p / (p + r) = 4/5, so state moves 0.8 of the innovation.
        out = update(
            est([0, 0, 0, 0], np.diag([4.0, 4.0, 1.0, 1.0])),
            MeasurementModel(np.eye(2)),
            (2.0, -2.0),
        )
        assert np.allclose(out.state.as_array(), [1.6, -1.6, 0.0, 0.0], atol=1e-12)
        assert np.allclose(out.covariance, np.diag([0.8, 0.8, 1.0, 1.0]), atol=1e-12)

    def test_singular_innovation_raises(self):
        with pytest.raises(NumericalDegeneracyError, match="innovation"):
            update(est([0, 0, 0, 0], np.zeros((4, 4))), MeasurementModel(np.zeros((2, 2))), (1.0, 1.0))

    def test_trace_never_grows(self):
        rng = np.random.default_rng(7)
        c = np.eye(2, 4)
        for _ in range(50):
            p = random_psd(rng)
            mm = MeasurementModel.isotropic(rng.uniform(0.1, 10))
            out = update(est([0, 0, 0, 0], p), mm, rng.standard_normal(2))
            assert np.trace(out.covariance) <= np.trace(p) + 1e-9
            assert is_valid_covariance(out.covariance)
            g = p @ c.T @ np.linalg.inv(c @ p @ c.T + mm.r)
            expected = symmetrize((np.eye(4) - g @ c) @ p)
            assert np.abs(out.covariance - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_near_exact_limit_update_is_idempotent(self):
        # In the R -> 0 limit the second update with the same z leaves the
        # position untouched; at exactly R = 0 the collapsed covariance makes
        # the second innovation covariance singular (tested below).
        mm = MeasurementModel(1e-12 * np.eye(2))
        z = (42.0, -17.0)
        once = update(est([0, 0, 3, 3], np.eye(4)), mm, z)
        twice = update(once, mm, z)
        assert twice.state.x == pytest.approx(once.state.x, abs=1e-9)
        assert twice.state.y == pytest.approx(once.state.y, abs=1e-9)

    def test_exact_limit_second_update_degenerates(self):
        mm = MeasurementModel(np.zeros((2, 2)))
        once = update(est([0, 0, 3, 3], np.eye(4)), mm, (42.0, -17.0))
        with pytest.raises(NumericalDegeneracyError):
            update(once, mm, (42.0, -17.0))

    @given(
        p1=st.floats(0.01, 1e4), p2=st.floats(0.01, 1e4),
        r1=st.floats(0.01, 1e4), r2=st.floats(0.01, 1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_gain_monotone_in_measurement_noise(self, p1, p2, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        p = np.diag([p1, p2, 1.0, 1.0])
        g_lo = gain(p, MeasurementModel(np.diag([lo, lo])))
        g_hi = gain(p, MeasurementModel(np.diag([hi, hi])))
        assert g_lo[0, 0] >= g_hi[0, 0] - 1e-12
        assert g_lo[1, 1] >= g_hi[1, 1] - 1e-12


class TestTrack:
    def test_single_measurement_exact_init(self):
        # Row 0 is initial_estimate's start: the first measurement, at rest.
        out = track([np.array([4.0, 5.0])], 1.0, [])
        assert out.shape == (1, 4)
        start = initial_estimate((4.0, 5.0), MeasurementModel.isotropic(1.0), 10.0)
        assert np.array_equal(out[0], start.state.as_array())

    def test_noiseless_constant_velocity_is_exact(self):
        # The target starts at rest, where track starts, and a known push
        # over step 1 sets it moving at (2, -1) m/s.  With exact measurement
        # values the innovation is zero at every step, so the estimates sit
        # on the truth for any R.
        mm = MeasurementModel.isotropic(1.0)
        times = np.arange(30.0)
        accels = np.zeros((30, 2))
        accels[1] = (2.0, -1.0)
        xs = np.maximum(2.0 * times - 1.0, 0.0)
        zs = [np.array([x, -0.5 * x]) for x in xs]
        out = track(zs, 1.0, start_gains(MotionModel(1.0), mm, 29), accels)
        assert np.array_equal(out[0], [0.0, 0.0, 0.0, 0.0])
        for t, (x, y, vx, vy) in zip(times[1:], out[1:]):
            assert abs(x - (2.0 * t - 1.0)) <= 1e-9
            assert abs(y + (t - 0.5)) <= 1e-9
            assert abs(vx - 2.0) <= 1e-9
            assert abs(vy + 1.0) <= 1e-9

    def test_filter_beats_raw_measurements(self):
        # Monte Carlo RMSE comparison over 100 seeded straight-line runs.
        mm = MeasurementModel.isotropic(5.0)
        model = MotionModel(1.0, 0.04, 0.04)
        times = np.arange(50.0)
        g = start_gains(model, mm, 49)
        filt_se, raw_se = 0.0, 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            truth = np.stack([3.0 * times, 100.0 - 2.0 * times], axis=1)
            zs = truth + 5.0 * rng.standard_normal(truth.shape)
            out = track(list(zs), model.dt, g)
            estpos = out[:, :2]
            filt_se += np.sum((estpos - truth) ** 2)
            raw_se += np.sum((zs - truth) ** 2)
        assert filt_se < raw_se

    @pytest.mark.parametrize(
        "model, n, steady",
        [
            # Stock tracker: the covariance repeats bit for bit at step 132.
            (MotionModel(1.0, 0.04, 0.04), 200, True),
            # Zero process noise: P shrinks at every step and never repeats.
            (MotionModel(1.0), 200, False),
            (MotionModel(0.1, 0.04, 0.04), 2000, True),
        ],
    )
    def test_equals_per_step_loop(self, model, n, steady):
        rng = np.random.default_rng(11)
        mm = MeasurementModel.isotropic(5.0)
        zs = 100.0 * rng.standard_normal((n, 2))
        accels = rng.standard_normal((n, 2))
        init = initial_estimate(zs[0], mm, 10.0)
        e = init
        expected = [e]
        for k in range(1, n):
            e = update(predict(e, model, accels[k]), mm, zs[k])
            expected.append(e)
        got = track(zs, model.dt, start_gains(model, mm, n - 1), accels)
        assert got.shape == (n, 4)
        assert np.array_equal(got, [e.state.as_array() for e in expected])
        # The case reaches the covariance's fixed point, or never does.
        assert (expected[-1].covariance.tobytes() == expected[-2].covariance.tobytes()) is steady

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_states_are_one_c_contiguous_float_array(self, n):
        # With no accelerations the predict uses zero input.
        mm = MeasurementModel.isotropic(5.0)
        zs = np.arange(2.0 * n).reshape(n, 2)
        g = start_gains(MotionModel(1.0, 0.04, 0.04), mm, n - 1)
        for accels in (None, np.zeros((n, 2))):
            out = track(zs, 1.0, g, accels)
            assert out.shape == (n, 4) and out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(track(zs, 1.0, g), out)

    def test_rejects_bad_sequences(self):
        g = start_gains(MotionModel(1.0), MeasurementModel.isotropic(1.0), 2)
        with pytest.raises(InvalidInputError):
            track([], 1.0, g)
        with pytest.raises(InvalidInputError):
            track([np.zeros(2), np.zeros(2)], 1.0, g, accels=[(0, 0)])
        with pytest.raises(InvalidInputError, match="measurement 0"):
            track(np.zeros((3, 3)), 1.0, g)
        # Too few gains is refused before any step, not cut short by the loop.
        for few in ([], g[:1]):
            with pytest.raises(InvalidInputError, match=f"3 measurements need 2 gains, got {len(few)}$"):
                track(np.zeros((3, 2)), 1.0, few)

    @pytest.mark.parametrize(
        "what, k, bad",
        [
            # Past the stock model's fixed point, where no covariance is computed.
            ("measurement", 150, (np.nan, 0.0)),
            ("measurement", 150, (0.0, np.inf)),
            # Ragged lists.
            ("measurement", 7, (1.0,)),
            ("measurement", 9, (1.0, 2.0, 3.0)),
            ("acceleration", 1, (np.inf, 0.0)),
            ("acceleration", 160, (0.0, np.nan)),
        ],
    )
    def test_rejects_bad_entry_naming_its_step(self, what, k, bad):
        mm = MeasurementModel.isotropic(5.0)
        rows = {"measurement": [(float(j), 0.0) for j in range(200)], "acceleration": [(0.0, 0.0)] * 200}
        rows[what][k] = bad
        zs, accels = rows["measurement"], rows["acceleration"]
        with pytest.raises(InvalidInputError, match=f"{what} {k}"):
            track(zs, 1.0, start_gains(MotionModel(1.0, 0.04, 0.04), mm, 199), accels)

    def test_state_overflow_names_its_step(self):
        # Finite measurements whose innovation at step 5 overflows the state.
        mm = MeasurementModel.isotropic(5.0)
        zs = np.zeros((10, 2))
        zs[4], zs[5] = (1.7e308, 0.0), (-1.7e308, 0.0)
        with pytest.raises(InvalidInputError, match="target state at step 5 must be finite"):
            track(zs, 1.0, start_gains(MotionModel(1.0, 0.04, 0.04), mm, 9))

    def test_first_acceleration_is_unused(self):
        mm = MeasurementModel.isotropic(5.0)
        zs = np.arange(20.0).reshape(10, 2)
        g = start_gains(MotionModel(1.0, 0.04, 0.04), mm, 9)
        accels = np.ones((10, 2))
        base = track(zs, 1.0, g, accels)
        accels[0] = (np.nan, np.inf)
        out = track(zs, 1.0, g, accels)
        assert np.array_equal(out, base)

    @pytest.mark.parametrize(
        "model", [MotionModel(1.0, 0.04, 0.04), MotionModel(1.0), MotionModel(0.1, 0.04, 0.04)]
    )
    def test_weights_are_track_in_linear_form(self, model):
        # The state is track's row bit for bit; track over the measurements
        # plus noise moves it by the map times the noise.
        rng = np.random.default_rng(12)
        mm = MeasurementModel.isotropic(5.0)
        n = 300
        zs = 100.0 * rng.standard_normal((n, 2))
        noise = 10.0 * rng.standard_normal((n, 2))
        accels = rng.standard_normal((n, 2))
        g = start_gains(model, mm, n - 1)
        expected = track(zs, model.dt, g, accels)
        moved = track(zs + noise, model.dt, g, accels)
        maps = track_weights((n - 1, 140, 1, 0), model.dt, g, zs, accels)
        assert list(maps) == [0, 1, 140, n - 1]
        for k, (state, w) in maps.items():
            assert np.array_equal(state, expected[k]), k
            assert w.shape == (2, 2 * (k + 1))
            got = state[:2] + w @ noise[: k + 1].ravel()
            assert np.abs(got - moved[k, :2]).max() <= 1e-9, k

    def test_weights_reject_bad_accelerations(self):
        g = start_gains(MotionModel(1.0, 0.04, 0.04), MeasurementModel.isotropic(5.0), 9)
        zs = np.zeros((10, 2))
        accels = np.zeros((10, 2))
        accels[4] = (np.nan, 0.0)
        with pytest.raises(InvalidInputError, match="acceleration 4"):
            track_weights((9,), 1.0, g, zs, accels)
        with pytest.raises(InvalidInputError, match="one entry per measurement"):
            track_weights((5,), 1.0, g, zs, accels[:9])



def per_step_gains(p, model, mm, n):
    """The gains (8 row-major floats each) of steps 1..n by the per-step
    API, every step recomputed: no fixed point is looked for."""
    gains = []
    for _ in range(n):
        p = predict_covariance(p, model)
        gains.append(tuple(gain(p, mm).ravel().tolist()))
        p = update(est([0, 0, 0, 0], p), mm, (0.0, 0.0)).covariance
    return gains


class TestGainSequence:
    """track and track_weights consume one list of gains, computed by gains
    in one loop that reuses the gain once the covariance is at its fixed
    point (step 132 for the stock tracker) and enters np.errstate once."""

    stock = MotionModel(1.0, 0.04, 0.04)

    @pytest.mark.parametrize("n", [1, 2, 132, 133, 134])
    def test_track_equals_per_step_loop_at_the_edges(self, n):
        rng = np.random.default_rng(21)
        mm = MeasurementModel.isotropic(5.0)
        zs = 100.0 * rng.standard_normal((n, 2))
        accels = rng.standard_normal((n, 2))
        e = initial_estimate(zs[0], mm, 10.0)
        expected = [e.state.as_array()]
        for k in range(1, n):
            e = update(predict(e, self.stock, accels[k]), mm, zs[k])
            expected.append(e.state.as_array())
        assert np.array_equal(track(zs, 1.0, start_gains(self.stock, mm, n - 1), accels), expected)

    def test_weights_equal_those_of_per_step_gains(self):
        # The stock gains have no signed zero, so update gives them bit for bit.
        rng = np.random.default_rng(22)
        mm = MeasurementModel.isotropic(5.0)
        zs = 100.0 * rng.standard_normal((200, 2))
        accels = rng.standard_normal((200, 2))
        p0 = initial_estimate(zs[0], mm, 10.0).covariance
        steps = (0, 1, 131, 132, 133)
        got = track_weights(steps, 1.0, gains(p0, self.stock, mm, 199), zs, accels)
        want = track_weights(steps, 1.0, per_step_gains(p0, self.stock, mm, 199), zs, accels)
        assert list(got) == list(want) == list(steps)
        for k in steps:
            for a, b in zip(got[k], want[k]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), k

    def test_one_measurement_computes_no_gain(self):
        # The first gain would be singular: no covariance and no noise.
        model, mm = MotionModel(1.0), MeasurementModel(np.zeros((2, 2)))
        assert gains(np.zeros((4, 4)), model, mm, 0) == []
        with pytest.raises(NumericalDegeneracyError, match="innovation covariance is singular"):
            gains(np.zeros((4, 4)), model, mm, 1)
        assert np.array_equal(track([(3.0, 4.0)], 1.0, []), [[3.0, 4.0, 0.0, 0.0]])
        maps = track_weights((0,), 1.0, [], np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(maps[0][0], np.zeros(4))
        # A one-step world with no noise at all: its recursion has no step.
        scenario = default_scenario(n_steps=1, meas_noise_std=0.0, process_noise_std=0.0)
        assert scenario.filter_gains == []
        assert np.array_equal(scenario.track([(3.0, 4.0)]), [[3.0, 4.0, 0.0, 0.0]])

    def test_error_state_is_restored_and_no_warning_escapes(self):
        # v_max = 1e154 puts 1e308 on the velocity variances, so at dt = 2
        # step 1's product A P A^T overflows inside BLAS; at the scenario's
        # dt = 1 a position variance of 1e308 does it (p00 + p22).
        mm = MeasurementModel.isotropic(5.0)
        model = MotionModel(2.0, 0.04, 0.04)
        zs = np.zeros((20, 2))
        scenario = default_scenario(v_max=1e154, meas_noise_std=1e154)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (
                lambda: start_gains(model, mm, 19, v_max=1e154),
                lambda: scenario.estimate_law((scenario.n_steps - 1,)),
                lambda: scenario.track(zs),
            ):
                with pytest.raises(InvalidInputError, match="^covariance recursion left the finite range$"):
                    run()
                assert np.geterr() == before
            track(zs, 2.0, start_gains(model, mm, 19))
            assert np.geterr() == before
            default_scenario().estimate_law((0, 199))
            assert np.geterr() == before


class TestTrackMoments:
    """The mean and covariance of track's position estimate under unit
    measurement noise, as read from track_weights: the state and W W^T."""

    @pytest.mark.parametrize(
        "model", [MotionModel(1.0, 0.04, 0.04), MotionModel(1.0), MotionModel(0.1, 0.04, 0.04)]
    )
    def test_moments_are_the_weight_map_contracted(self, model):
        # The mean is track's row bit for bit; W W^T is the position block of
        # the error covariance S of a forward recursion over the gains of
        # predict and update: S_0 = diag(1, 1, 0, 0), and with M = (I - G C) A
        # S <- M S M^T + G G^T, within 1e-12 relative.
        rng = np.random.default_rng(12)
        mm = MeasurementModel.isotropic(5.0)
        n = 300
        zs = 100.0 * rng.standard_normal((n, 2))
        accels = rng.standard_normal((n, 2))
        g = start_gains(model, mm, n - 1)
        expected = track(zs, model.dt, g, accels)
        steps = (n - 1, 140, 1, 0)
        maps = track_weights(steps, model.dt, g, zs, accels)
        assert list(maps) == [0, 1, 140, n - 1]
        a, c = model.transition_matrix(), np.eye(2, 4)
        s, p = np.diag([1.0, 1.0, 0.0, 0.0]), initial_estimate(zs[0], mm, 10.0).covariance
        want = {0: s[:2, :2]}
        for k in range(1, n):
            p = predict(est([0, 0, 0, 0], p), model).covariance
            g = gain(p, mm)
            p = update(est([0, 0, 0, 0], p), mm, (0.0, 0.0)).covariance
            m = (np.eye(4) - g @ c) @ a
            s = m @ s @ m.T + g @ g.T
            want[k] = s[:2, :2]
        for k, (state, w) in maps.items():
            assert np.array_equal(state, expected[k]), k
            ww = w @ w.T
            assert np.abs(ww - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k

    def test_rejects_bad_input(self):
        g = start_gains(MotionModel(1.0, 0.04, 0.04), MeasurementModel.isotropic(5.0), 9)
        zs = np.zeros((10, 2))
        for steps in ((), (-1,), (10,), (3.0,)):
            with pytest.raises(InvalidInputError, match="steps"):
                track_weights(steps, 1.0, g, zs, zs)
        with pytest.raises(InvalidInputError, match="one entry per measurement"):
            track_weights((5,), 1.0, g, zs, zs[:9])
        bad = zs.copy()
        bad[4] = (np.nan, 0.0)
        with pytest.raises(InvalidInputError, match="acceleration 4"):
            track_weights((9,), 1.0, g, zs, bad)
        with pytest.raises(InvalidInputError, match="measurement 4"):
            track_weights((9,), 1.0, g, bad, zs)
        # A step past the gains is refused, not read from a short list.
        with pytest.raises(InvalidInputError, match="^step 9 needs 9 gains, got 8$"):
            track_weights((3, 9), 1.0, g[:8], zs, zs)
        assert list(track_weights((8,), 1.0, g[:8], zs, zs)) == [8]

def test_initial_estimate_covariance():
    mm = MeasurementModel.isotropic(2.0)
    e = initial_estimate((1.0, 2.0), mm, v_max=4.0)
    assert np.array_equal(e.covariance, np.diag([4.0, 4.0, 16.0, 16.0]))
    with pytest.raises(InvalidInputError):
        initial_estimate((np.inf, 0.0), mm, 10.0)

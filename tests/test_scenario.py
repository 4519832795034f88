import bisect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puedet.config import ScenarioConfig, default_scenario
from puedet.errors import InvalidInputError
from puedet.experiments import attacker_positions
from puedet.propagation import LinkModel, NoiseModel, distance_from_rss, received_power_db
from puedet.tracking import initial_estimate, predict, update
from puedet.scenario import (
    AnchorNode,
    Scenario,
    Trajectory,
    emit_position_measurement,
    emit_rss,
    truth_at,
)


def line_trajectory(vx=1.0, vy=0.0, duration=100.0, start=(0.0, 0.0)):
    return Trajectory.from_segments(start, (vx, vy), [(duration, 0.0, 0.0)])


def simple_scenario(traj, n_steps, dt=1.0, sigma_z=0.0, sigma_db=0.0, attacker=(50.0, 0.0)):
    return Scenario(
        trajectory=traj,
        attacker_pos=attacker,
        anchors=(AnchorNode("a1", 100.0, 0.0),),
        dt=dt,
        meas_noise_std=sigma_z,
        link=LinkModel(),
        rss_noise=NoiseModel(sigma_db),
        n_steps=n_steps,
    )


def verlet_states(start, velocity, segs, times, h=0.01):
    """Independent oracle: the state at each of the increasing `times` by
    velocity-Verlet integration in substeps of at most `h`, none straddling a
    segment boundary (exact per substep for piecewise-constant acceleration,
    so h only bounds float accumulation error).  A boundary time belongs to
    the next segment; times past the last boundary stay in the last one."""
    (x, y), (vx, vy) = start, velocity
    ends = list(itertools.accumulate(dur for dur, _, _ in segs))
    clock, seg, out = 0.0, 0, []
    for t in times:
        while clock < t - 1e-12:
            while seg + 1 < len(segs) and clock >= ends[seg] - 1e-12:
                seg += 1
            _, ax, ay = segs[seg]
            step = min(h, (t if seg + 1 == len(segs) else min(t, ends[seg])) - clock)
            x, y = x + vx * step + 0.5 * ax * step * step, y + vy * step + 0.5 * ay * step * step
            vx, vy = vx + ax * step, vy + ay * step
            clock += step
        out.append((x, y, vx, vy))
    return np.array(out)


def segment_accels(segs, times):
    """Independent lookup of the acceleration at each time: bisect over the
    cumulative durations, a boundary time in the next segment and the end time
    in the last."""
    ends = list(itertools.accumulate(dur for dur, _, _ in segs))
    return np.array([segs[min(bisect.bisect_right(ends, t), len(segs) - 1)][1:] for t in times], float).reshape(-1, 2)


def step_count(traj, dt):
    """The most steps of size dt that fit in the trajectory's span."""
    n = int(traj.times[-1] / dt) + 1
    return n - 1 if (n - 1) * dt > traj.times[-1] else n


class TestTrajectory:
    def test_waypoints_derived_from_segments(self):
        traj = Trajectory.from_segments((0, 0), (1, 2), [(10, 0, 0), (5, 1, 0)])
        assert traj.times.tolist() == [0.0, 10.0, 15.0]
        assert traj.positions[1].tolist() == [10.0, 20.0]
        # second segment: x = 10 + 1*5 + 0.5*1*25 = 27.5
        assert traj.positions[2].tolist() == [27.5, 30.0]
        assert traj.velocities[2].tolist() == [6.0, 2.0]
        assert traj.accels.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert not any(a.flags.writeable for a in (traj.times, traj.positions, traj.velocities, traj.accels))
        # A value of its segments: equal segments, equal trajectories.
        assert traj == Trajectory((0.0, 0.0), (1.0, 2.0), ((10.0, 0.0, 0.0), (5.0, 1.0, 0.0)))
        assert hash(traj) == hash(Trajectory.from_segments((0, 0), (1, 2), [(10, 0, 0), (5, 1, 0)]))

    def test_non_increasing_times_rejected(self):
        # The second duration is lost in the sum, so the waypoint times repeat.
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            Trajectory.from_segments((0, 0), (0, 0), [(1e20, 0, 0), (1.0, 0, 0)])

    @pytest.mark.parametrize(
        "start, velocity, segs, match",
        [
            ((0, 0), (0, 0), [], "at least one segment"),
            ((0, 0), (0, 0), [(0.0, 0, 0)], "duration"),
            ((0, 0), (0, 0), [(np.inf, 0, 0)], "duration"),
            ((np.nan, 0), (0, 0), [(1.0, 0, 0)], "finite"),
            ((0, 0), (np.inf, 0), [(1.0, 0, 0)], "finite"),
            ((0, 0), (0, 0), [(1.0, 0, np.nan)], "finite"),
            # Finite inputs whose derived waypoint overflows.
            ((0, 0), (0, 0), [(1e200, 1e200, 0)], "finite"),
            ((0, 0), (1e300, 0), [(1e10, 0, 0)], "finite"),
        ],
    )
    def test_rejects_bad_segments(self, start, velocity, segs, match):
        with pytest.raises(InvalidInputError, match=match):
            Trajectory.from_segments(start, velocity, segs)

    def test_segment_boundary_belongs_to_next_segment(self):
        # Steps 10 and 20 land on the waypoints: step 10 is the first of the
        # second segment, and step 20, the end time, is in the last.
        traj = Trajectory.from_segments((0, 0), (0, 0), [(10, 1, 0), (10, -1, 0)])
        scen = simple_scenario(traj, n_steps=21)
        assert scen.step_accels(20)[[10, 11, 20]].tolist() == [[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]
        s10, s20 = truth_at(scen, 10), truth_at(scen, 20)
        assert (s10.x, s10.vx) == (50.0, 10.0)
        assert (s20.x, s20.vx) == (100.0, 0.0)

    @given(
        segs=st.lists(
            st.tuples(st.floats(0.5, 20), st.floats(-2, 2), st.floats(-2, 2)),
            min_size=1,
            max_size=5,
        ),
        dt=st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_state_matches_fine_step_integration_oracle(self, segs, dt):
        traj = Trajectory.from_segments((3.0, -4.0), (1.5, 0.5), segs)
        scen = simple_scenario(traj, n_steps=step_count(traj, dt), dt=dt)
        n = scen.n_steps
        ref = verlet_states((3.0, -4.0), (1.5, 0.5), segs, [k * dt for k in range(n)])
        states = np.array([truth_at(scen, k).as_array() for k in range(n)])
        assert np.abs(states - ref).max() <= 1e-6
        assert np.abs(scen.truth_path(n - 1) - ref[:, :2]).max() <= 1e-6


class TestTruthAt:
    def test_straight_line(self):
        scen = simple_scenario(line_trajectory(1.0, 0.0), n_steps=20)
        s = truth_at(scen, 10)
        assert (s.x, s.y, s.vx, s.vy) == (10.0, 0.0, 1.0, 0.0)

    def test_step_zero_is_first_waypoint(self):
        scen = simple_scenario(line_trajectory(2.0, -1.0, start=(7.0, 8.0)), n_steps=5)
        s = truth_at(scen, 0)
        assert (s.x, s.y) == (7.0, 8.0)

    def test_parabolic_segment(self):
        traj = Trajectory.from_segments((0, 0), (0, 0), [(10, 0.0, 1.0)])
        scen = simple_scenario(traj, n_steps=10)
        s = truth_at(scen, 4)
        assert (s.x, s.y) == (0.0, 8.0)
        assert (s.vx, s.vy) == (0.0, 4.0)

    def test_out_of_range_step(self):
        scen = simple_scenario(line_trajectory(), n_steps=10)
        for bad in (10, -1, 2.0):
            with pytest.raises(InvalidInputError):
                truth_at(scen, bad)


def stretched_stock_scenario(scale):
    """The stock scenario with every segment `scale` times longer and its
    acceleration `scale` times weaker (scale 100 is the track_long
    benchmark's path), sampled once per second up to and including the end
    time, so steps fall exactly on every waypoint."""
    base = default_scenario()
    segs = [(dur * scale, ax / scale, ay / scale) for dur, ax, ay in ScenarioConfig().segments]
    traj = Trajectory.from_segments(base.trajectory.start, base.trajectory.velocity, segs)
    return replace(base, trajectory=traj, dt=1.0, n_steps=int(traj.times[-1]) + 1), segs


class TestTruthPath:
    @pytest.mark.parametrize("scale", [1, 100])
    def test_equals_truth_at_bit_for_bit(self, scale):
        scen, segs = stretched_stock_scenario(scale)
        n = scen.n_steps
        assert set(scen.trajectory.times.tolist()) <= set(range(n))
        ref = np.array([truth_at(scen, k).position for k in range(n)])
        assert np.array_equal(scen.truth_path(n - 1), ref)
        assert np.array_equal(scen.truth_path(0), ref[:1])
        assert np.array_equal(scen.truth_path(137), ref[:138])
        oracle = verlet_states(scen.trajectory.start, scen.trajectory.velocity, segs, range(n), h=1.0)
        assert np.abs(ref - oracle[:, :2]).max() <= 1e-6

    @pytest.mark.parametrize("scale", [1, 100])
    def test_step_times_are_k_times_dt(self, scale):
        scen = replace(stretched_stock_scenario(scale)[0], dt=0.1)
        ref = np.array([k * 0.1 for k in range(scen.n_steps)])
        for upto in (0, 1, 137, scen.n_steps - 1):
            assert np.array_equal(scen.step_times(upto), ref[: upto + 1])

    @pytest.mark.parametrize("scale", [1, 100])
    def test_step_accels_equal_per_step_lookup(self, scale):
        scen, segs = stretched_stock_scenario(scale)
        ref = segment_accels(segs, range(scen.n_steps))
        for upto in (0, 1, 137, scen.n_steps - 1):
            acc = scen.step_accels(upto)
            assert not acc[0].any()
            assert np.array_equal(acc[1:], ref[:upto])

    @given(
        segs=st.lists(
            st.tuples(st.floats(0.5, 20), st.floats(-2, 2), st.floats(-2, 2)),
            min_size=1,
            max_size=5,
        ),
        dt=st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_trajectories_match_per_step_route(self, segs, dt):
        traj = Trajectory.from_segments((3.0, -4.0), (1.5, 0.5), segs)
        n = step_count(traj, dt)
        scen = simple_scenario(traj, n_steps=n, dt=dt)
        ref = np.array([truth_at(scen, k).position for k in range(n)])
        assert np.array_equal(scen.truth_path(n - 1), ref)
        assert np.array_equal(scen.step_accels(n - 1)[1:], segment_accels(segs, [k * dt for k in range(n - 1)]))
        assert np.array_equal(scen.step_times(n - 1), [k * dt for k in range(n)])

    def test_out_of_range_upto(self):
        scen = simple_scenario(line_trajectory(), n_steps=10)
        for bad in (-1, 10, 2.0):
            with pytest.raises(InvalidInputError):
                scen.truth_path(bad)
            with pytest.raises(InvalidInputError):
                scen.step_accels(bad)
            with pytest.raises(InvalidInputError):
                scen.step_times(bad)


class TestEmissions:
    def test_zero_noise_measurement_equals_truth(self):
        scen = simple_scenario(line_trajectory(), n_steps=10, sigma_z=0.0)
        z = emit_position_measurement(scen, 3, np.random.default_rng(0))
        assert np.array_equal(z, truth_at(scen, 3).position)

    def test_measurement_reproducible(self):
        scen = simple_scenario(line_trajectory(), n_steps=10, sigma_z=5.0)
        a = emit_position_measurement(scen, 3, np.random.default_rng(11))
        b = emit_position_measurement(scen, 3, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_measurement_noise_statistics(self):
        scen = simple_scenario(line_trajectory(), n_steps=10, sigma_z=5.0)
        rng = np.random.default_rng(1)
        truth = truth_at(scen, 0).position
        zs = np.array([emit_position_measurement(scen, 0, rng) for _ in range(100_000)])
        err = zs - truth
        assert abs(err[:, 0].std() - 5.0) <= 0.15
        assert abs(err[:, 1].std() - 5.0) <= 0.15

    def test_rss_from_pu_position(self):
        scen = simple_scenario(line_trajectory(0.0, 0.0), n_steps=5)
        s = emit_rss(scen, truth_at(scen, 0).position, scen.anchors[0], np.random.default_rng(0))
        assert s.pr_db == received_power_db(scen.link, 100.0)

    def test_rss_from_attacker_position(self):
        scen = simple_scenario(line_trajectory(0.0, 0.0), n_steps=5, attacker=(50.0, 0.0))
        anchor = AnchorNode("b", 50.0, 40.0)
        s = emit_rss(scen, scen.attacker_pos, anchor, np.random.default_rng(0))
        assert s.pr_db == received_power_db(scen.link, 40.0)

    def test_noiseless_rss_inverts_to_true_distance(self):
        scen = simple_scenario(line_trajectory(3.0, 1.0), n_steps=20)
        for step in (0, 7, 19):
            truth = truth_at(scen, step)
            s = emit_rss(scen, truth.position, scen.anchors[0], np.random.default_rng(0))
            d_true = math.hypot(truth.x - 100.0, truth.y - 0.0)
            assert distance_from_rss(scen.link, s.pr_db) == pytest.approx(d_true, rel=1e-9)

    def test_zero_distance_rejected(self):
        scen = simple_scenario(line_trajectory(0.0, 0.0, start=(100.0, 0.0)), n_steps=5)
        with pytest.raises(InvalidInputError):
            emit_rss(scen, truth_at(scen, 0).position, scen.anchors[0], np.random.default_rng(0))


def place_attacker(traj, eval_step, d, bearing):
    """The attacker position `attacker_positions` gives one trial whose
    evaluation step is `eval_step`."""
    scen = replace(simple_scenario(traj, n_steps=51), eval_step=eval_step)
    return tuple(attacker_positions(scen, d, 1, bearings=(bearing,))[0].tolist())


class TestAttackerPlacement:
    def test_zero_offset_coincides_with_pu(self):
        traj = line_trajectory(1.0, 0.0)
        assert place_attacker(traj, 5, 0.0, 1.234) == (5.0, 0.0)

    def test_offset_east(self):
        traj = line_trajectory(0.0, 0.0, start=(10.0, 10.0))
        assert place_attacker(traj, 0, 50.0, 0.0) == (60.0, 10.0)

    def test_offset_north(self):
        traj = line_trajectory(0.0, 0.0)
        x, y = place_attacker(traj, 0, 100.0, math.pi / 2)
        assert (x, y) == pytest.approx((0.0, 100.0), abs=1e-9)

    @given(
        d=st.floats(0, 1e4),
        bearing=st.floats(-10, 10),
        step=st.integers(0, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_offset_distance_is_exact(self, d, bearing, step):
        x, y = place_attacker(line_trajectory(1.0, -0.5), step, d, bearing)
        assert math.hypot(x - step, y + 0.5 * step) == pytest.approx(d, rel=1e-9, abs=1e-9)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInputError):
            place_attacker(line_trajectory(), 0, -1.0, 0.0)


def per_step_track(scen, zs):
    """Scenario.track stated as a plain update(predict(...)) loop."""
    motion, meas_model = scen.filter_models()
    acc = scen.step_accels(len(zs) - 1)
    est = initial_estimate(zs[0], meas_model, scen.v_max)
    out = [est]
    for k in range(1, len(zs)):
        est = update(predict(est, motion, acc[k]), meas_model, zs[k])
        out.append(est)
    return out


def assert_tracks_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.state == e.state
        assert np.array_equal(g.covariance, e.covariance)


class TestScenarioTrack:
    def test_steps_at_the_model_dt(self):
        # At dt = 0.1 the step times are not evenly spaced in floating point;
        # the tracker must still predict over dt itself at every step.  2000
        # steps run past the covariance's fixed point (step 1275 at dt = 0.1).
        scen = default_scenario(dt=0.1, meas_noise_std=5.0, n_steps=2000)
        n = scen.n_steps
        truth = scen.truth_path(n - 1)
        zs = truth + 5.0 * np.random.default_rng(4).standard_normal((n, 2))
        assert_tracks_equal(scen.track(zs), per_step_track(scen, zs))

    @pytest.mark.parametrize("process_noise_std", [0.2, 0.0])
    def test_fixed_point_reuse_is_bit_exact(self, process_noise_std):
        # The stock tracker's covariance repeats bit for bit at step 132 and
        # is reused from there; with zero process noise it never repeats.
        scen = default_scenario(process_noise_std=process_noise_std)
        n = scen.n_steps
        zs = scen.truth_path(n - 1) + 5.0 * np.random.default_rng(5).standard_normal((n, 2))
        got = scen.track(zs)
        assert_tracks_equal(got, per_step_track(scen, zs))
        steady = process_noise_std > 0.0
        assert got[150].covariance.flags.writeable is not steady
        assert (got[150].covariance is got[-1].covariance) is steady
        assert got[0].covariance.flags.writeable

    def test_rejects_empty_or_overlong_sequences(self):
        scen = default_scenario(n_steps=5)
        for zs in ([], [(0.0, 0.0)] * 6):
            with pytest.raises(InvalidInputError):
                scen.track(zs)


class TestEstimateWeights:
    @pytest.mark.parametrize("process_noise_std", [0.2, 0.0])
    def test_weight_form_equals_track(self, process_noise_std):
        # At steps 0, 1 and 5 the filter is still converging from its
        # zero-velocity start, so the offset is not the truth there.
        scen = default_scenario(process_noise_std=process_noise_std)
        k_last = scen.n_steps - 1
        sigma_z = scen.meas_noise_std
        truth = scen.truth_path(k_last)
        noise = np.random.default_rng(6).standard_normal((k_last + 1, 2))
        estimates = scen.track(truth + sigma_z * noise)
        maps = scen.estimate_weights((0, 1, 5, k_last))
        assert list(maps) == [0, 1, 5, k_last]
        for k, (truth_k, weights, offset) in maps.items():
            assert np.array_equal(truth_k, truth[k])
            assert weights.shape == (2, 2 * (k + 1)) and weights.flags.c_contiguous
            got = sigma_z * weights @ noise[: k + 1].ravel() + offset
            assert np.abs(got - estimates[k].state.position).max() <= 1e-9, k
        assert np.abs(maps[1][2] - maps[1][0]).max() > 0.1

    def test_one_recursion_equals_single_steps_bit_for_bit(self):
        scen = default_scenario()
        steps = (7, 0, 150, 1, 199)
        maps = scen.estimate_weights(steps)
        assert list(maps) == sorted(steps)
        for k in steps:
            (single,) = scen.estimate_weights((k,)).values()
            for a, b in zip(maps[k], single):
                assert a.tobytes() == b.tobytes(), k

    @pytest.mark.parametrize("steps", [(), (-1,), (200,), (3.0,), (5, 2.5)])
    def test_rejects_bad_steps(self, steps):
        with pytest.raises(InvalidInputError, match="steps"):
            default_scenario().estimate_weights(steps)


class TestScenarioValidation:
    def test_eval_step_must_be_an_integer_in_range(self):
        for eval_step in (3.0, -1, 200):
            with pytest.raises(InvalidInputError, match="eval_step"):
                default_scenario(eval_step=eval_step)
        assert default_scenario(eval_step=np.int64(3)).evaluation_step == 3

    def test_attacker_position_must_be_a_finite_pair(self):
        for pos in ((100.0, 100.0, 7.0), (100.0,), (np.nan, 0.0)):
            with pytest.raises(InvalidInputError, match="attacker position"):
                default_scenario(attacker_pos=pos)

    def test_bad_step_count(self):
        for n_steps in (0, -1, 2.0):
            with pytest.raises(InvalidInputError, match="n_steps"):
                Scenario(
                    trajectory=line_trajectory(),
                    attacker_pos=(0.0, 0.0),
                    anchors=(AnchorNode("a", 1.0, 1.0),),
                    dt=1.0,
                    meas_noise_std=0.0,
                    link=LinkModel(),
                    rss_noise=NoiseModel(0.0),
                    n_steps=n_steps,
                )

    def test_needs_anchor_and_positive_dt(self):
        kwargs = dict(
            trajectory=line_trajectory(),
            attacker_pos=(0.0, 0.0),
            anchors=(AnchorNode("a", 1.0, 1.0),),
            dt=1.0,
            meas_noise_std=0.0,
            link=LinkModel(),
            rss_noise=NoiseModel(0.0),
            n_steps=5,
        )
        with pytest.raises(InvalidInputError):
            Scenario(**{**kwargs, "anchors": ()})
        with pytest.raises(InvalidInputError):
            Scenario(**{**kwargs, "dt": 0.0})

    def test_schedule_longer_than_trajectory_rejected(self):
        with pytest.raises(InvalidInputError, match="trajectory ends"):
            simple_scenario(line_trajectory(duration=10.0), n_steps=12)

    def test_default_scenario_shape(self):
        scen = default_scenario()
        assert scen.n_steps == 200
        assert scen.evaluation_step == 199
        assert scen.anchors[0].position.tolist() == [500.0, 0.0]
        # stays within the nominal 1000 m x 1000 m field
        for k in (0, 50, 100, 150, 199):
            s = truth_at(scen, k)
            assert 0.0 <= s.x <= 1000.0 and 0.0 <= s.y <= 1000.0

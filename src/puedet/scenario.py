"""World model: ground-truth trajectory, anchors, the tracker run in that
world, and the synthetic measurements (positions and RSS) fed to the tracker
and detector.

:meth:`Scenario.track` runs the world's tracker, with the gains of
:attr:`Scenario.filter_gains`, computed once per scenario.
:meth:`Scenario.estimate_law` states its estimate at a step as an
:class:`EstimateLaw`: a weight map W over the measurements about the
noiseless run, and the Cholesky factor of W W^T.  The Monte Carlo engine
samples the estimate through the factor; the per-trial reference route reads
the map and the factor to condition its measurement noise.

A :class:`Trajectory` is its segments of constant acceleration; one step
evaluator of :class:`Scenario` answers :func:`truth_at` and the array queries
``truth_path``, ``step_times`` and ``step_accels``.  All emissions are pure
functions of (scenario, step, anchor, rng stream); all values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError
from .propagation import LinkModel, NoiseModel, RssSample, sample_rss
from .tracking import (
    MeasurementModel,
    MotionModel,
    TargetState,
    gains,
    initial_estimate,
    track,
    track_weights,
)

PU = "PU"
PUE = "PUE"


@dataclass(frozen=True)
class AnchorNode:
    """A fixed receiver with known coordinates that measures RSS."""

    id: str
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInputError(f"anchor coordinates must be finite, got {self}")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def _advance(p, v, a, d):
    """Position and velocity a time d after passing p at velocity v, under
    constant acceleration a: the closed form of one segment."""
    return p + v * d + 0.5 * a * d * d, v + a * d


@dataclass(frozen=True)
class Trajectory:
    """Motion from `start` at `velocity` at time 0 through (duration, ax, ay)
    `segments` of constant acceleration.

    Construction derives the waypoints as read-only arrays that are not
    fields, so equality and hashing stay on the segments: ``times``, the
    ``positions`` and ``velocities`` at those times, and ``accels``, whose row
    i applies on [times[i], times[i + 1]), the last row also at the end time.
    """

    start: tuple[float, float]
    velocity: tuple[float, float]
    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidInputError("need at least one segment")
        times, states = [0.0], [(np.array(self.start), np.array(self.velocity))]
        for dur, ax, ay in self.segments:
            if not (math.isfinite(dur) and dur > 0.0):
                raise InvalidInputError(f"segment duration must be > 0, got {dur}")
            # An overflow is refused below, as a waypoint that is not finite.
            with np.errstate(over="ignore", invalid="ignore"):
                states.append(_advance(*states[-1], np.array([ax, ay]), dur))
            times.append(times[-1] + dur)
        waypoints = (np.array(times), *np.array(states).swapaxes(0, 1), np.array(self.segments)[:, 1:])
        for name, values in zip(("times", "positions", "velocities", "accels"), waypoints):
            # Contiguous copies, not views: each step query fancy-indexes them.
            values = np.ascontiguousarray(values)
            if not np.isfinite(values).all():
                raise InvalidInputError("trajectory values must be finite")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not (np.diff(self.times) > 0.0).all():
            raise InvalidInputError("waypoint times must be strictly increasing")

    @classmethod
    def from_segments(
        cls,
        start: tuple[float, float],
        velocity: tuple[float, float],
        segments: Sequence[tuple[float, float, float]],
    ) -> "Trajectory":
        """The trajectory of (duration, ax, ay) `segments` from `start` at
        `velocity`, every value taken as a float."""
        return cls(tuple(map(float, start)), tuple(map(float, velocity)), tuple(tuple(map(float, s)) for s in segments))


@dataclass(frozen=True, eq=False)
class EstimateLaw:
    """The law of the position estimate of :meth:`Scenario.track` at one step
    k, over the measurements ``truth + meas_noise_std * noise`` of steps
    0..k with standard normal noise.

    The estimate is ``meas_noise_std * weights @ noise.ravel() + offset``,
    with ``weights`` C-contiguous of shape (2, 2(k + 1)).  So it is
    distributed as ``offset + meas_noise_std * factor @ eta`` for eta ~
    N(0, I_2), with ``factor`` the (2, 2) lower Cholesky factor of ``weights
    @ weights.T``, zero for a point mass.  ``truth`` is the PU's true
    position at step k, and ``offset`` the noiseless estimate, row k of
    ``track(truth)`` bit for bit, which differs from ``truth`` while the
    filter converges.
    """

    truth: np.ndarray
    weights: np.ndarray
    factor: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """One experiment world: who moves where, who listens, and how noisy it is.

    The PU is tracked over n_steps sampling steps; at the designated decision
    step eval_step (None = final step) either the PU, at its true position, or
    the attacker, at attacker_pos, transmits, as each trial decides.
    process_noise_std / v_max tune the tracker of this world, which
    :meth:`track` runs over a measurement sequence.
    """

    trajectory: Trajectory
    attacker_pos: tuple[float, float]
    anchors: tuple[AnchorNode, ...]
    dt: float
    meas_noise_std: float
    link: LinkModel
    rss_noise: NoiseModel
    n_steps: int
    process_noise_std: float = 0.2
    v_max: float = 10.0
    eval_step: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidInputError(f"dt must be > 0, got {self.dt}")
        if not self.anchors:
            raise InvalidInputError("scenario needs at least one anchor")
        if not (math.isfinite(self.meas_noise_std) and self.meas_noise_std >= 0.0):
            raise InvalidInputError("meas_noise_std must be >= 0")
        if len(self.attacker_pos) != 2 or not all(math.isfinite(c) for c in self.attacker_pos):
            raise InvalidInputError(f"attacker position must be a finite (x, y) pair, got {self.attacker_pos!r}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise InvalidInputError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        t_last, t_end = (self.n_steps - 1) * self.dt, float(self.trajectory.times[-1])
        if t_last > t_end + 1e-9:
            raise InvalidInputError(f"{self.n_steps} steps span {t_last} s but trajectory ends at {t_end} s")
        if self.eval_step is not None and not (
            isinstance(self.eval_step, (int, np.integer)) and 0 <= self.eval_step < self.n_steps
        ):
            raise InvalidInputError(f"eval_step must be an integer in [0, {self.n_steps}), got {self.eval_step!r}")
        if not (math.isfinite(self.process_noise_std) and self.process_noise_std >= 0.0):
            raise InvalidInputError("process_noise_std must be >= 0")
        if not (math.isfinite(self.v_max) and self.v_max > 0.0):
            raise InvalidInputError("v_max must be > 0")
        # The tracker squares each of these; as floats, so numpy scalars do not warn.
        for name in ("meas_noise_std", "process_noise_std", "v_max"):
            v = float(getattr(self, name))
            if not math.isfinite(v * v):
                raise InvalidInputError(f"{name} must have a finite square, got {v}")

    @property
    def evaluation_step(self) -> int:
        return self.n_steps - 1 if self.eval_step is None else self.eval_step

    def filter_models(self) -> tuple[MotionModel, MeasurementModel]:
        """The motion and measurement models of the tracker run in this world."""
        v = self.process_noise_std
        return MotionModel(self.dt, v * v, v * v), MeasurementModel.isotropic(self.meas_noise_std)

    @cached_property
    def filter_gains(self) -> list[tuple]:
        """The gains of steps 1..n_steps - 1 of the tracker of this world:
        :func:`~puedet.tracking.gains` of :meth:`filter_models` from the
        covariance of :func:`~puedet.tracking.initial_estimate` (velocity
        spread v_max), which does not depend on where the track starts.

        No measurement enters the recursion, so it runs once per scenario,
        on first read; its error, if any, is raised by every read.  The
        list is kept in the instance ``__dict__``, not in a field, so
        equality and hashing ignore it, and :func:`dataclasses.replace`
        builds a scenario that computes its own.  Callers only read it."""
        motion, meas_model = self.filter_models()
        p0 = initial_estimate(self.trajectory.start, meas_model, self.v_max).covariance
        return gains(p0, motion, meas_model, self.n_steps - 1)

    def track(self, measurements: Sequence) -> np.ndarray:
        """The tracker of this world run over the measurements of steps
        0..len - 1: :attr:`filter_gains`, a start at the first measurement
        at zero velocity and each step's trajectory acceleration as the
        known input.  Row k of the (len, 4) result is the state estimate
        ``[x, y, vx, vy]`` at step k."""
        accels = self.step_accels(len(measurements) - 1)
        return track(measurements, self.dt, self.filter_gains, accels)

    def estimate_law(self, steps: Sequence[int]) -> dict[int, EstimateLaw]:
        """The :class:`EstimateLaw` of :meth:`track` at each of `steps`, from
        one pass of :func:`~puedet.tracking.track_weights` to the latest step,
        which builds each map in O(k).  Raises InvalidInputError naming the
        step whose offset or covariance is not finite, and
        NumericalDegeneracyError naming one whose covariance is singular but
        not zero."""
        truth = self.truth_path(self.n_steps - 1)
        maps = track_weights(steps, self.dt, self.filter_gains, truth, self.step_accels(self.n_steps - 1))
        laws = {}
        for k, (state, weights) in maps.items():
            offset = state[:2]
            if not np.isfinite(offset).all():
                raise InvalidInputError(f"estimate law at step {k} left the finite range")
            # An overflowing product is reported by the finiteness check below.
            with np.errstate(over="ignore", invalid="ignore"):
                covariance = weights @ weights.T
            if not np.isfinite(covariance).all():
                raise InvalidInputError(f"estimate covariance at step {k} left the finite range")
            try:
                # A zero covariance is a point mass.
                factor = np.linalg.cholesky(covariance) if covariance.any() else np.zeros((2, 2))
            except np.linalg.LinAlgError:
                raise NumericalDegeneracyError(f"estimate covariance at step {k} is singular") from None
            laws[k] = EstimateLaw(truth[k], weights, factor, offset)
        return laws

    def _check_step(self, step: int) -> int:
        if not (isinstance(step, (int, np.integer)) and 0 <= step < self.n_steps):
            raise InvalidInputError(f"step {step!r} out of range [0, {self.n_steps})")
        return step

    def _states(self, steps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Time, position, velocity and segment acceleration at `steps`, an
        int or an integer array (the vectors gain a last axis of 2), by the
        closed form of the segment that each step's time falls in."""
        traj = self.trajectory
        t = steps * self.dt
        # The interior waypoints at or before t are the segments passed: a
        # waypoint's time opens the next segment, and the end time stays in the last.
        i = traj.times[1:-1].searchsorted(t, side="right")
        a = traj.accels[i]
        p, v = _advance(traj.positions[i], traj.velocities[i], a, (t - traj.times[i])[..., None])
        return t, p, v, a

    def step_times(self, upto: int) -> np.ndarray:
        """Time of every step 0..upto."""
        return np.arange(self._check_step(upto) + 1) * self.dt

    def truth_path(self, upto: int) -> np.ndarray:
        """True PU position at every step 0..upto, shape (upto + 1, 2); row k
        is ``truth_at(self, k).position``."""
        return self._states(np.arange(self._check_step(upto) + 1))[1]

    def step_accels(self, eval_step: int) -> np.ndarray:
        """Acceleration input for the predict into each step up to `eval_step`
        (row 0 unused): the acceleration of step k - 1's segment."""
        acc = np.zeros((self._check_step(eval_step) + 1, 2))
        acc[1:] = self._states(np.arange(eval_step))[3]
        return acc


def truth_at(scenario: Scenario, step: int) -> TargetState:
    """Exact ground-truth state of the primary user at a sampling step."""
    _, p, v, _ = scenario._states(scenario._check_step(step))
    return TargetState(*p.tolist(), *v.tolist())


def emit_position_measurement(
    scenario: Scenario, step: int, rng: np.random.Generator
) -> np.ndarray:
    """True PU position plus per-axis Gaussian noise of std meas_noise_std.

    Always consumes exactly two draws from the stream, even at zero noise.
    """
    position = scenario._states(scenario._check_step(step))[1]
    return position + scenario.meas_noise_std * rng.standard_normal(2)


def emit_rss(
    scenario: Scenario, tx, anchor: AnchorNode, rng: np.random.Generator
) -> RssSample:
    """RSS sample at `anchor` from a transmitter at position `tx` (m)."""
    dist = float(np.hypot(tx[0] - anchor.x, tx[1] - anchor.y))
    if dist <= 0.0:
        raise InvalidInputError(f"transmitter coincides with anchor {anchor.id!r}")
    return sample_rss(scenario.link, dist, scenario.rss_noise, rng)


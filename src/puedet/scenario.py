"""World model: ground-truth trajectory, anchors, the tracker run in that
world, and the synthetic measurements (positions and RSS) fed to the tracker
and detector.

:meth:`Scenario.track` runs the world's tracker; :meth:`Scenario.estimate_weights`
states its estimate in the linear form that the Monte Carlo engine applies.

The ground truth is evaluated one step at a time by :func:`truth_at` and for
every step at once, as an array, by :meth:`Scenario.truth_path`; the two agree
bit for bit.  All emissions are pure functions of (scenario, step, anchor, rng
stream); scenarios and trajectories are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .propagation import LinkModel, NoiseModel, RssSample, sample_rss
from .tracking import (
    FilterEstimate,
    MeasurementModel,
    MotionModel,
    TargetState,
    initial_estimate,
    track,
    track_weights,
)

PU = "PU"
PUE = "PUE"

_WAYPOINT_TOL = 1e-6


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


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant-acceleration motion, closed form within each segment.

    times[i] are waypoint times (strictly increasing); positions/velocities are
    the exact kinematic state at each waypoint; accels[i] applies on the
    half-open segment [times[i], times[i+1]).  Waypoint consistency with the
    acceleration profile is validated on construction.
    """

    times: tuple[float, ...]
    positions: tuple[tuple[float, float], ...]
    velocities: tuple[tuple[float, float], ...]
    accels: tuple[tuple[float, float], ...]

    def __post_init__(self):
        n = len(self.times)
        if n < 2 or len(self.positions) != n or len(self.velocities) != n:
            raise InvalidInputError("trajectory needs >= 2 consistent waypoints")
        if len(self.accels) != n - 1:
            raise InvalidInputError("need one acceleration per segment")
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise InvalidInputError("waypoint times must be strictly increasing")
        flat = [v for wp in self.positions + self.velocities + self.accels for v in wp]
        if not all(math.isfinite(v) for v in list(self.times) + flat):
            raise InvalidInputError("trajectory values must be finite")
        for i, (ax, ay) in enumerate(self.accels):
            dt = self.times[i + 1] - self.times[i]
            px, py = self.positions[i]
            vx, vy = self.velocities[i]
            ex = px + vx * dt + 0.5 * ax * dt * dt
            ey = py + vy * dt + 0.5 * ay * dt * dt
            if math.hypot(ex - self.positions[i + 1][0], ey - self.positions[i + 1][1]) > _WAYPOINT_TOL:
                raise InvalidInputError(f"waypoint {i + 1} inconsistent with acceleration profile")
            if math.hypot(vx + ax * dt - self.velocities[i + 1][0], vy + ay * dt - self.velocities[i + 1][1]) > _WAYPOINT_TOL:
                raise InvalidInputError(f"waypoint {i + 1} velocity inconsistent with profile")

    @classmethod
    def from_segments(
        cls,
        start: tuple[float, float],
        velocity: tuple[float, float],
        segments: Sequence[tuple[float, float, float]],
    ) -> "Trajectory":
        """Build from (duration, ax, ay) segments starting at time 0; waypoints
        are derived exactly."""
        if not segments:
            raise InvalidInputError("need at least one segment")
        times = [0.0]
        positions = [tuple(float(c) for c in start)]
        velocities = [tuple(float(c) for c in velocity)]
        accels = []
        for dur, ax, ay in segments:
            if not (math.isfinite(dur) and dur > 0.0):
                raise InvalidInputError(f"segment duration must be > 0, got {dur}")
            px, py = positions[-1]
            vx, vy = velocities[-1]
            times.append(times[-1] + dur)
            positions.append((px + vx * dur + 0.5 * ax * dur * dur, py + vy * dur + 0.5 * ay * dur * dur))
            velocities.append((vx + ax * dur, vy + ay * dur))
            accels.append((float(ax), float(ay)))
        return cls(tuple(times), tuple(positions), tuple(velocities), tuple(accels))

    @property
    def start_time(self) -> float:
        return self.times[0]

    @property
    def end_time(self) -> float:
        return self.times[-1]

    def _segment_index(self, t: float) -> int:
        if not (self.start_time - 1e-9 <= t <= self.end_time + 1e-9):
            raise InvalidInputError(
                f"time {t} outside trajectory span [{self.start_time}, {self.end_time}]"
            )
        # Half-open segments; the end time belongs to the last segment.
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), len(self.accels) - 1)

    def state_at(self, t: float) -> TargetState:
        i = self._segment_index(t)
        dt = t - self.times[i]
        px, py = self.positions[i]
        vx, vy = self.velocities[i]
        ax, ay = self.accels[i]
        return TargetState(
            px + vx * dt + 0.5 * ax * dt * dt,
            py + vy * dt + 0.5 * ay * dt * dt,
            vx + ax * dt,
            vy + ay * dt,
        )

    def accel_at(self, t: float) -> tuple[float, float]:
        return self.accels[self._segment_index(t)]


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
        t_last = self.trajectory.start_time + (self.n_steps - 1) * self.dt
        if t_last > self.trajectory.end_time + 1e-9:
            raise InvalidInputError(
                f"{self.n_steps} steps span {t_last} s but trajectory ends at {self.trajectory.end_time} s"
            )
        if self.eval_step is not None and not (
            isinstance(self.eval_step, (int, np.integer)) and 0 <= self.eval_step < self.n_steps
        ):
            raise InvalidInputError(f"eval_step must be an integer in [0, {self.n_steps}), got {self.eval_step!r}")
        if not (math.isfinite(self.process_noise_std) and self.process_noise_std >= 0.0):
            raise InvalidInputError("process_noise_std must be >= 0")
        if not (math.isfinite(self.v_max) and self.v_max > 0.0):
            raise InvalidInputError("v_max must be > 0")

    @property
    def evaluation_step(self) -> int:
        return self.n_steps - 1 if self.eval_step is None else self.eval_step

    def step_time(self, step: int) -> float:
        if not (isinstance(step, (int, np.integer)) and 0 <= step < self.n_steps):
            raise InvalidInputError(f"step {step!r} out of range [0, {self.n_steps})")
        return self.trajectory.start_time + step * self.dt

    def filter_models(self) -> tuple[MotionModel, MeasurementModel]:
        """The motion and measurement models of the tracker run in this world."""
        v = self.process_noise_std
        return MotionModel(self.dt, v * v, v * v), MeasurementModel.isotropic(self.meas_noise_std)

    def track(self, measurements: Sequence) -> list[FilterEstimate]:
        """The tracker of this world run over the measurements of steps
        0..len - 1: :meth:`filter_models`, a start at the first measurement
        (velocity spread v_max) and each step's trajectory acceleration as the
        known input."""
        accels = self.step_accels(len(measurements) - 1)
        motion, meas_model = self.filter_models()
        init = initial_estimate(measurements[0], meas_model, self.v_max)
        return track(measurements, motion, meas_model, init, accels)

    def estimate_weights(self, steps: Sequence[int]) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The position estimate of :meth:`track` at each of `steps` in weight
        form, ``{k: (truth_k, weights, offset)}``: over the measurements
        ``truth + meas_noise_std * noise`` of steps 0..k it is
        ``meas_noise_std * weights @ noise.ravel() + offset``, with ``weights``
        C-contiguous of shape (2, 2(k + 1)).  ``offset`` is the noiseless
        estimate, not yet ``truth_k`` while the filter converges."""
        truth = self.truth_path(self.n_steps - 1)
        motion, meas_model = self.filter_models()
        init = initial_estimate(truth[0], meas_model, self.v_max)
        maps = track_weights(steps, motion, meas_model, init.covariance, self.step_accels(self.n_steps - 1))
        out = {}
        for k, (m, c) in maps.items():
            weights = m[:2].copy()
            offset = weights @ truth[: k + 1].ravel() + c[:2]
            if not (np.isfinite(weights).all() and np.isfinite(offset).all()):
                raise InvalidInputError(f"filter weights at step {k} left the finite range")
            out[k] = (truth[k], weights, offset)
        return out

    def _step_segments(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Times of steps 0..upto and the trajectory segment of each, found as
        :meth:`Trajectory.state_at` finds them, in one vectorised lookup."""
        if not (isinstance(upto, (int, np.integer)) and 0 <= upto < self.n_steps):
            raise InvalidInputError(f"step {upto!r} out of range [0, {self.n_steps})")
        traj = self.trajectory
        t = traj.start_time + np.arange(upto + 1) * self.dt
        i = np.searchsorted(np.array(traj.times), t, side="right") - 1
        return t, np.clip(i, 0, len(traj.accels) - 1)

    def step_times(self, upto: int) -> np.ndarray:
        """Time of every step 0..upto; entry k equals ``step_time(k)`` bit for bit."""
        return self._step_segments(upto)[0]

    def truth_path(self, upto: int) -> np.ndarray:
        """True PU position at every step 0..upto, shape (upto + 1, 2).

        Closed form per segment with the operations of
        :meth:`Trajectory.state_at` in the same order, so row k equals
        ``truth_at(self, k).position`` bit for bit.
        """
        t, i = self._step_segments(upto)
        traj = self.trajectory
        dt = (t - np.array(traj.times)[i])[:, None]
        p = np.array(traj.positions)[i]
        v = np.array(traj.velocities)[i]
        a = np.array(traj.accels)[i]
        return p + v * dt + 0.5 * a * dt * dt

    def step_accels(self, eval_step: int) -> np.ndarray:
        """Acceleration input for the predict into each step up to `eval_step`
        (row 0 unused): the acceleration of step k - 1's segment."""
        _, i = self._step_segments(eval_step)
        acc = np.zeros((eval_step + 1, 2))
        acc[1:] = np.array(self.trajectory.accels)[i[:-1]]
        return acc


def truth_at(scenario: Scenario, step: int) -> TargetState:
    """Exact ground-truth state of the primary user at a sampling step."""
    return scenario.trajectory.state_at(scenario.step_time(step))


def emit_position_measurement(
    scenario: Scenario, step: int, rng: np.random.Generator
) -> np.ndarray:
    """True PU position plus per-axis Gaussian noise of std meas_noise_std.

    Always consumes exactly two draws from the stream, even at zero noise.
    """
    state = truth_at(scenario, step)
    return state.position + scenario.meas_noise_std * rng.standard_normal(2)


def emit_rss(
    scenario: Scenario, tx, anchor: AnchorNode, rng: np.random.Generator
) -> RssSample:
    """RSS sample at `anchor` from a transmitter at position `tx` (m)."""
    dist = float(np.hypot(tx[0] - anchor.x, tx[1] - anchor.y))
    if dist <= 0.0:
        raise InvalidInputError(f"transmitter coincides with anchor {anchor.id!r}")
    return sample_rss(scenario.link, dist, scenario.rss_noise, rng)


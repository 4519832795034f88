"""Linear Kalman filter for a 2-D constant-velocity target with acceleration input.

State vector order is [x, y, vx, vy].  The filter is written as pure
functions over small immutable values; nothing here holds mutable state,
so concurrent use is safe.

:func:`predict` and :func:`update` take one step.  :func:`track` runs a whole
sequence through the same state formulas and returns the states as one
(n, 4) array, and :func:`track_weights` states the same filter in linear
form: the estimate at step k as a fixed map W of the measurements about the
noiseless run, built in O(k) by one backward pass over the gains, so its
law under white measurement noise is ``N(state[:2], sigma**2 W W^T)``
(Bar-Shalom, Li & Kirubarajan 2001, sec. 5.2).  The covariance recursion
does not depend on the data, so both take the list of gains that
:func:`gains` computes once, in which the gain is reused, not recomputed,
once the covariance reaches its exact floating-point fixed point (it returns
itself bit for bit; step 132 for the stock tracker).  This is not an
approximation: every state equals the per-step route's bit for bit.  A model
with no fixed point, such as one with zero process noise, runs the full
recursion at every step.

The per-step covariance functions and the gain loop share one copy of each
formula, on plain floats: :func:`_predicted_upper` for the prediction and
:func:`_gain_and_upper` for the gain and posterior.  A per-step call enters
``np.errstate`` around its one BLAS product; :func:`gains` enters it once
around all its steps, and returns a list, not a generator, so the error
state is back as it was before any caller sees a gain or an error.
"""

from __future__ import annotations

import math
import struct
from math import isfinite
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError

# Read-only template that MotionModel.transition_matrix copies.
_IDENTITY4 = np.eye(4)
_IDENTITY4.flags.writeable = False

# 16 native doubles: the buffer of a C-ordered 4x4 float64 array.
_PACK16 = struct.Struct("16d")

# Innovation covariance S is declared singular when |det S| < DEGENERACY_TOL * trace(S)^2.
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class TargetState:
    """Kinematic state of the tracked transmitter: position (m) and velocity (m/s), iterated as (x, y, vx, vy)."""

    x: float
    y: float
    vx: float
    vy: float

    def __post_init__(self):
        if not (isfinite(self.x) and isfinite(self.y) and isfinite(self.vx) and isfinite(self.vy)):
            raise InvalidInputError(f"target state must be finite, got {self}")
        # Plain floats keep the filter arithmetic off numpy scalars.
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "vx", float(self.vx))
        object.__setattr__(self, "vy", float(self.vy))

    def __iter__(self):
        return iter((self.x, self.y, self.vx, self.vy))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.vx, self.vy])

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity transition over a sampling interval dt, with white
    acceleration noise of variance (sigma_wx2, sigma_wy2) per axis."""

    dt: float
    sigma_wx2: float = 0.0
    sigma_wy2: float = 0.0

    def __post_init__(self):
        if not all(isfinite(v) and v >= 0.0 for v in (self.dt, self.sigma_wx2, self.sigma_wy2)):
            raise InvalidInputError(f"invalid motion model {self}")
        # Plain floats keep the filter arithmetic off numpy scalars.
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "sigma_wx2", float(self.sigma_wx2))
        object.__setattr__(self, "sigma_wy2", float(self.sigma_wy2))

    def transition_matrix(self) -> np.ndarray:
        a = _IDENTITY4.copy()
        a[0, 2] = a[1, 3] = self.dt
        return a

    def process_noise(self) -> np.ndarray:
        """Acceleration noise lifted to state space: B diag(s_wx2, s_wy2) B^T,
        with B = [[h, 0], [0, h], [dt, 0], [0, dt]] and h = dt^2 / 2 the map
        from a planar acceleration to state increments."""
        dt = self.dt
        h = 0.5 * dt * dt
        sx, sy = self.sigma_wx2, self.sigma_wy2
        return np.array(
            [
                [h * h * sx, 0.0, h * dt * sx, 0.0],
                [0.0, h * h * sy, 0.0, h * dt * sy],
                [h * dt * sx, 0.0, dt * dt * sx, 0.0],
                [0.0, h * dt * sy, 0.0, dt * dt * sy],
            ]
        )


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Position measurement with 2x2 noise covariance r (m^2)."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (2, 2):
            raise InvalidInputError("measurement covariance must be a finite 2x2 matrix")
        (a, b), (b2, c) = r.tolist()
        if not (isfinite(a) and isfinite(b) and isfinite(b2) and isfinite(c)):
            raise InvalidInputError("measurement covariance must be a finite 2x2 matrix")
        if abs(b - b2) > 1e-9 * max(1.0, abs(b)):
            raise InvalidInputError("measurement covariance must be symmetric")
        eig_min = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
        if eig_min < -1e-9 * max(1.0, a + c):
            raise InvalidInputError("measurement covariance must be PSD")
        object.__setattr__(self, "r", r)

    @classmethod
    def isotropic(cls, std: float) -> "MeasurementModel":
        return cls(np.diag([std * std, std * std]))


@dataclass
class FilterEstimate:
    """A state estimate together with its 4x4 error covariance."""

    state: TargetState
    covariance: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.covariance, dtype=float)
        if p.shape != (4, 4) or not np.isfinite(p).all():
            raise InvalidInputError("covariance must be a finite 4x4 matrix")
        self.covariance = p


def _state(x: float, y: float, vx: float, vy: float) -> TargetState:
    """TargetState(x, y, vx, vy) for the filter's own float results: the same
    finiteness check, without the constructor's float conversion."""
    if not (isfinite(x) and isfinite(y) and isfinite(vx) and isfinite(vy)):
        raise InvalidInputError(f"target state must be finite, got {(x, y, vx, vy)}")
    state = object.__new__(TargetState)
    object.__setattr__(state, "x", x)
    object.__setattr__(state, "y", y)
    object.__setattr__(state, "vx", vx)
    object.__setattr__(state, "vy", vy)
    return state


def _estimate(state: TargetState, covariance: np.ndarray) -> FilterEstimate:
    """A FilterEstimate from parts already known to be valid: a validated
    state and a finite 4x4 float covariance, so the constructor's checks are
    not repeated on every filter step."""
    est = object.__new__(FilterEstimate)
    est.state = state
    est.covariance = covariance
    return est


def _check_upper(u: tuple) -> None:
    """Raise InvalidInputError when an entry of the covariance triangle `u`
    is not finite (the recursion overflowed), so no non-finite covariance
    leaves this module."""
    u00, u01, u02, u03, u11, u12, u13, u22, u23, u33 = u
    if not (
        isfinite(u00) and isfinite(u01) and isfinite(u02) and isfinite(u03) and isfinite(u11)
        and isfinite(u12) and isfinite(u13) and isfinite(u22) and isfinite(u23) and isfinite(u33)
    ):
        raise InvalidInputError("covariance recursion left the finite range")


def _symmetric(u: tuple) -> np.ndarray:
    """The symmetric 4x4 array with upper triangle `u` (10 row-major
    floats), checked by :func:`_check_upper`."""
    _check_upper(u)
    u00, u01, u02, u03, u11, u12, u13, u22, u23, u33 = u
    # Packed into the array's own buffer, several times cheaper than
    # assigning .flat; a reshaped view would keep a second array object alive
    # with every stored covariance.
    out = np.empty((4, 4))
    _PACK16.pack_into(out, 0, u00, u01, u02, u03, u01, u11, u12, u13, u02, u12, u22, u23, u03, u13, u23, u33)
    return out


def _predicted_upper(apa: list, model: MotionModel) -> tuple:
    """The upper triangle (10 row-major floats) of symmetrize(A P A^T + Q),
    from the rows of the product A P A^T: Q and the symmetrization entry by
    entry.  Nothing is checked for finiteness."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = apa
    dt = model.dt
    h = 0.5 * dt * dt
    sx, sy = model.sigma_wx2, model.sigma_wy2
    qx, qy = h * dt * sx, h * dt * sy
    return (
        m00 + h * h * sx,
        0.5 * (m01 + m10),
        0.5 * ((m02 + qx) + (m20 + qx)),
        0.5 * (m03 + m30),
        m11 + h * h * sy,
        0.5 * (m12 + m21),
        0.5 * ((m13 + qy) + (m31 + qy)),
        m22 + dt * dt * sx,
        0.5 * (m23 + m32),
        m33 + dt * dt * sy,
    )


def predict_covariance(p: np.ndarray, model: MotionModel) -> np.ndarray:
    """Predicted covariance symmetrize(A P A^T + Q), with A and Q as given by
    :meth:`MotionModel.transition_matrix` and :meth:`MotionModel.process_noise`.

    A P A^T is left to the BLAS matrix product, as in ``a @ p @ a.T``: the
    kernel may fuse multiply-adds, which float arithmetic in Python cannot
    reproduce, and the product must round as the matrix definition does.
    (``ndarray.dot`` reaches the same kernel with less call overhead than
    ``@``.)  Q and the symmetrization are applied entry by entry, by
    :func:`_predicted_upper`.  This is the per-step form, used by
    :func:`predict`, and it enters ``np.errstate`` for its one product; the
    gain loop (:func:`gains`) runs the same product and the same helper with
    ``np.errstate`` entered once around all its steps.  Raises
    InvalidInputError if the result is not finite.
    """
    a = model.transition_matrix()
    # An overflowing product is reported by the finiteness check of _symmetric.
    with np.errstate(over="ignore", invalid="ignore"):
        apa = a.dot(p).dot(a.T).tolist()
    return _symmetric(_predicted_upper(apa, model))


def _finite_pair(v, what: str) -> tuple[float, float]:
    """The two entries of a finite 2-vector as floats; InvalidInputError otherwise."""
    a = np.asarray(v, dtype=float)
    if a.shape == (2,):
        x, y = a.tolist()
        if isfinite(x) and isfinite(y):
            return x, y
    raise InvalidInputError(f"{what} must be a finite 2-vector, got {v!r}")


def _finite_rows(values, what: str, first: int = 0) -> np.ndarray:
    """``values`` as an (n, 2) float array with every entry finite.

    One array pass on valid input.  Otherwise raises InvalidInputError naming
    the first bad row, counted from ``first``; ragged or wrongly shaped input
    is reported the same way, never as numpy's ValueError.
    """
    try:
        a = np.asarray(values, dtype=float) if len(values) else np.empty((0, 2))
    except (TypeError, ValueError):
        a = None
    if a is not None and a.ndim == 2 and a.shape[1] == 2 and np.isfinite(a).all():
        return a
    for k, v in enumerate(values, first):
        _finite_pair(v, f"{what} {k}")
    raise InvalidInputError(f"{what}s must form an (n, 2) array")


def _predicted_state(s, dt: float, ux: float, uy: float) -> tuple:
    """The state (x, y, vx, vy), as floats, carried over dt by the
    constant-velocity model under a known acceleration (ux, uy)."""
    x, y, vx, vy = s
    half = 0.5 * dt * dt
    return x + dt * vx + half * ux, y + dt * vy + half * uy, vx + dt * ux, vy + dt * uy


def _corrected_state(s, g: tuple, zx: float, zy: float) -> tuple:
    """The state (x, y, vx, vy), as floats, moved by gain ``g`` (8 row-major
    floats) times the innovation of the measurement (zx, zy)."""
    x, y, vx, vy = s
    g00, g01, g10, g11, g20, g21, g30, g31 = g
    ix, iy = zx - x, zy - y
    return x + (g00 * ix + g01 * iy), y + (g10 * ix + g11 * iy), vx + (g20 * ix + g21 * iy), vy + (g30 * ix + g31 * iy)


def predict(est: FilterEstimate, model: MotionModel, accel=(0.0, 0.0)) -> FilterEstimate:
    """Propagate the estimate through the motion model with a known acceleration input."""
    ux, uy = _finite_pair(accel, "acceleration")
    state = _state(*_predicted_state(est.state, model.dt, ux, uy))
    return _estimate(state, predict_covariance(est.covariance, model))


def _gain_and_upper(p: Sequence, r: list) -> tuple[tuple, tuple]:
    """Kalman gain G = P C^T S^-1, as 8 row-major floats, and the upper
    triangle (10 row-major floats) of the posterior covariance (I - G C) P,
    with S = P[:2, :2] + R for the position selector C, from the four rows of
    P and the two rows of R.  Every row of P is read in full, so an
    asymmetric P gives the same floats as the matrix formula's upper
    triangle.  Raises NumericalDegeneracyError when S is singular and
    InvalidInputError when its determinant is not finite; nothing else is
    checked: the gain's consumers check what it is multiplied into (inf * 0
    is NaN), and the posterior's check its triangle.
    """
    (p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23), (p30, p31, p32, p33) = p
    (r00, r01), (r10, r11) = r
    s00, s01, s10, s11 = p00 + r00, p01 + r01, p10 + r10, p11 + r11
    det = s00 * s11 - s01 * s10
    tr = s00 + s11
    if not isfinite(det):
        raise InvalidInputError(f"innovation covariance left the finite range (det={det:.3e})")
    if det == 0.0 or abs(det) < DEGENERACY_TOL * tr * tr:
        raise NumericalDegeneracyError(
            f"innovation covariance is singular (det={det:.3e}, trace={tr:.3e})"
        )
    i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det
    # G = P[:, :2] S^-1, one row per state component.
    g00, g01 = p00 * i00 + p01 * i10, p00 * i01 + p01 * i11
    g10, g11 = p10 * i00 + p11 * i10, p10 * i01 + p11 * i11
    g20, g21 = p20 * i00 + p21 * i10, p20 * i01 + p21 * i11
    g30, g31 = p30 * i00 + p31 * i10, p30 * i01 + p31 * i11
    # Upper triangle of P - G P[:2, :]: entry (i, j) = p_ij - (g_i0 p_0j + g_i1 p_1j).
    return (g00, g01, g10, g11, g20, g21, g30, g31), (
        p00 - (g00 * p00 + g01 * p10),
        p01 - (g00 * p01 + g01 * p11),
        p02 - (g00 * p02 + g01 * p12),
        p03 - (g00 * p03 + g01 * p13),
        p11 - (g10 * p01 + g11 * p11),
        p12 - (g10 * p02 + g11 * p12),
        p13 - (g10 * p03 + g11 * p13),
        p22 - (g20 * p02 + g21 * p12),
        p23 - (g20 * p03 + g21 * p13),
        p33 - (g30 * p03 + g31 * p13),
    )


def _gain_and_posterior(p: np.ndarray, meas_model: MeasurementModel) -> tuple[tuple, np.ndarray]:
    """The gain of :func:`_gain_and_upper` at covariance `p`, and the
    posterior covariance mirrored from its upper triangle, so exactly
    symmetric.  Raises InvalidInputError when the posterior is not finite."""
    g, upper = _gain_and_upper(p.tolist(), meas_model.r.tolist())
    return g, _symmetric(upper)


def update(est: FilterEstimate, meas_model: MeasurementModel, z) -> FilterEstimate:
    """Correct the estimate with a position measurement z (m)."""
    zx, zy = _finite_pair(z, "measurement")
    g, p_new = _gain_and_posterior(est.covariance, meas_model)
    return _estimate(_state(*_corrected_state(est.state, g, zx, zy)), p_new)


def initial_estimate(z, meas_model: MeasurementModel, v_max: float) -> FilterEstimate:
    """Measurement-consistent start: position from z, zero velocity, covariance
    diag(R11, R22, v_max^2, v_max^2)."""
    zx, zy = _finite_pair(z, "measurement")
    p0 = np.diag([meas_model.r[0, 0], meas_model.r[1, 1], v_max * v_max, v_max * v_max])
    return FilterEstimate(TargetState(zx, zy, 0.0, 0.0), p0)


def track(measurements: Sequence, dt: float, gains: Sequence[tuple], accels: Sequence | None = None) -> np.ndarray:
    """Filter a measurement sequence sampled every `dt`: the state estimate
    ``[x, y, vx, vy]`` of every measurement's step, shape (n, 4).

    Row 0 is the start of :func:`initial_estimate`: the first measurement,
    at zero velocity.  Every later step k predicts over `dt` with that step's
    acceleration input (``accels[k]``, zero when absent; ``accels[0]`` is not
    used) and then updates with ``gains[k - 1]``.  With the :func:`gains` of
    the start's covariance, that is bit for bit what
    ``update(predict(est, model, accels[k]), meas_model, measurements[k])``
    gives.  Raises InvalidInputError when there are fewer than n - 1 gains.

    The inputs are checked up front, each as one (n, 2) array, and the states
    once at the end, naming the first step that left the finite range.
    """
    n = len(measurements)
    if n == 0:
        raise InvalidInputError("measurement sequence must be non-empty")
    if accels is not None and len(accels) != n:
        raise InvalidInputError("accels must have one entry per measurement")
    if len(gains) < n - 1:
        raise InvalidInputError(f"{n} measurements need {n - 1} gains, got {len(gains)}")
    # Column lists: the loop unpacks no row tuples.
    zx, zy = _finite_rows(measurements, "measurement").T.tolist()
    if accels is None:
        ux = uy = [0.0] * (n - 1)
    else:
        ux, uy = _finite_rows(accels[1:], "acceleration", first=1).T.tolist()

    s = (zx[0], zy[0], 0.0, 0.0)
    out = [s]
    for ux_k, uy_k, zx_k, zy_k, g in zip(ux, uy, zx[1:], zy[1:], gains):
        s = _corrected_state(_predicted_state(s, dt, ux_k, uy_k), g, zx_k, zy_k)
        out.append(s)
    states = np.fromiter(chain.from_iterable(out), float, 4 * n).reshape(n, 4)
    if not np.isfinite(states).all():
        k = int(np.isfinite(states).all(axis=1).argmin())
        raise InvalidInputError(f"target state at step {k} must be finite, got {out[k]}")
    return states


def track_weights(
    steps: Sequence[int], dt: float, gains: Sequence[tuple], measurements: Sequence, accels: Sequence
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """:func:`track` in linear form, ``{k: (state, w)}`` in step order: for
    the measurements ``measurements + e`` of steps 0..k, the position
    estimate at step k is ``state[:2] + w @ e.ravel()``.

    ``state`` (4,) is row k of :func:`track` over `measurements` with the
    same `dt` and `gains`, bit for bit, as it is advanced by the same state
    formulas.  ``w`` (2, 2(k + 1)) is built in O(k) by one backward pass in
    plain floats from ``R = C``: the weight of z_j is ``R G_j``, then
    ``R <- R (I - G_j C) A``; z_0, the start's position (see
    :func:`initial_estimate`), weighs what R keeps of the position.  Nothing
    is checked for finiteness.  `measurements` and `accels` have one row per
    step, each of `steps` must index one, and step k reads the first k gains.
    """
    if len(accels) != len(measurements):
        raise InvalidInputError("accels must have one entry per measurement")
    wanted = set(steps)
    if not wanted or not all(isinstance(k, (int, np.integer)) and 0 <= k < len(measurements) for k in wanted):
        raise InvalidInputError(f"steps must be integers in [0, {len(measurements)}), got {steps!r}")
    last = max(wanted)
    if len(gains) < last:
        raise InvalidInputError(f"step {last} needs {last} gains, got {len(gains)}")
    zx, zy = _finite_rows(measurements[: last + 1], "measurement").T.tolist()
    ux, uy = _finite_rows(accels[1 : last + 1], "acceleration", first=1).T.tolist()
    x = (zx[0], zy[0], 0.0, 0.0)
    states = [x]
    for ux_k, uy_k, zx_k, zy_k, g in zip(ux, uy, zx[1:], zy[1:], gains):
        x = _corrected_state(_predicted_state(x, dt, ux_k, uy_k), g, zx_k, zy_k)
        states.append(x)
    out = {}
    for k in sorted(wanted):
        # The rows (a, b) of R, and each row's weights from step k back to 0.
        a0, a1, a2, a3, b0, b1, b2, b3 = 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0
        wa, wb = [], []
        for g00, g01, g10, g11, g20, g21, g30, g31 in reversed(gains[:k]):
            ga0, ga1 = a0 * g00 + a1 * g10 + a2 * g20 + a3 * g30, a0 * g01 + a1 * g11 + a2 * g21 + a3 * g31
            gb0, gb1 = b0 * g00 + b1 * g10 + b2 * g20 + b3 * g30, b0 * g01 + b1 * g11 + b2 * g21 + b3 * g31
            wa += (ga1, ga0)
            wb += (gb1, gb0)
            a0, a1, b0, b1 = a0 - ga0, a1 - ga1, b0 - gb0, b1 - gb1
            a2, a3, b2, b3 = a2 + dt * a0, a3 + dt * a1, b2 + dt * b0, b3 + dt * b1
        wa += (a1, a0)
        wb += (b1, b0)
        out[k] = (np.array(states[k]), np.array([wa[::-1], wb[::-1]]))
    return out


def gains(p: np.ndarray, model: MotionModel, meas_model: MeasurementModel, n: int) -> list[tuple]:
    """The gains (8 row-major floats each) of steps 1..n, from the covariance
    `p` of step 0; none is computed when `n` is 0.

    Each step is :func:`predict_covariance` and then :func:`_gain_and_posterior`,
    by the same helpers and with the same checks, in one loop: A and A^T are
    built once, ``np.errstate`` is entered once around every step, and the
    predicted covariance stays a tuple of floats.  Once a step returns the
    covariance it was given, bit for bit, every later step would too, so its
    gain fills the rest of the list.  Only two outputs of the recursion are
    compared, never `p`, whose layout the caller chose; as bytes, since ==
    equates -0.0 and 0.0.
    """
    out = []
    a = model.transition_matrix()
    at = a.T
    r = meas_model.r.tolist()
    previous = None
    # An overflowing product is reported by the finiteness checks of the
    # triangles; the error state is restored however the loop ends.
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) < n:
            u = _predicted_upper(a.dot(p).dot(at).tolist(), model)
            _check_upper(u)
            u00, u01, u02, u03, u11, u12, u13, u22, u23, u33 = u
            rows = (u00, u01, u02, u03), (u01, u11, u12, u13), (u02, u12, u22, u23), (u03, u13, u23, u33)
            g, upper = _gain_and_upper(rows, r)
            p = _symmetric(upper)
            out.append(g)
            current = p.tobytes()
            if current == previous:
                out += [g] * (n - len(out))
            previous = current
    return out

"""Linear Kalman filter for a 2-D constant-velocity target with acceleration input.

State vector order is [x, y, vx, vy].  The filter is written as pure
functions over small immutable values; nothing here holds mutable state,
so concurrent use is safe.
"""

from __future__ import annotations

import math
from math import isfinite
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError

# Fixed 2x4 position selector: measurements observe (x, y) only.
MEASUREMENT_MATRIX = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

# Read-only template that MotionModel.transition_matrix copies.
_IDENTITY4 = np.eye(4)
_IDENTITY4.flags.writeable = False

# Innovation covariance S is declared singular when |det S| < DEGENERACY_TOL * trace(S)^2.
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class TargetState:
    """Kinematic state of the tracked transmitter: position (m) and velocity (m/s)."""

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
        ok = (
            isfinite(self.dt)
            and self.dt >= 0.0
            and self.sigma_wx2 >= 0.0
            and self.sigma_wy2 >= 0.0
        )
        if not ok:
            raise InvalidInputError(f"invalid motion model {self}")
        # Plain floats keep the filter arithmetic off numpy scalars.
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "sigma_wx2", float(self.sigma_wx2))
        object.__setattr__(self, "sigma_wy2", float(self.sigma_wy2))

    def transition_matrix(self) -> np.ndarray:
        a = _IDENTITY4.copy()
        a[0, 2] = a[1, 3] = self.dt
        return a

    def control_matrix(self) -> np.ndarray:
        """4x2 map from a planar acceleration to state increments."""
        dt = self.dt
        h = 0.5 * dt * dt
        return np.array([[h, 0.0], [0.0, h], [dt, 0.0], [0.0, dt]])

    def process_noise(self) -> np.ndarray:
        """Acceleration noise lifted to state space: B diag(s_wx2, s_wy2) B^T."""
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


def symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def is_valid_covariance(p: np.ndarray, scale_tol: float = 1e-9) -> bool:
    """Symmetric within tolerance and PSD up to -scale_tol * trace."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        return False
    asym = np.abs(p - p.T)
    bound = scale_tol * np.maximum(1.0, np.abs(p))
    if (asym > bound).any():
        return False
    return np.linalg.eigvalsh(symmetrize(p)).min() >= -scale_tol * max(np.trace(p), 0.0)


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


def _symmetric(u00, u01, u02, u03, u11, u12, u13, u22, u23, u33) -> np.ndarray:
    """The symmetric 4x4 array with the given upper triangle.

    Raises InvalidInputError when an entry is not finite (the recursion
    overflowed), so no non-finite covariance leaves this module.
    """
    if not (
        isfinite(u00) and isfinite(u01) and isfinite(u02) and isfinite(u03) and isfinite(u11)
        and isfinite(u12) and isfinite(u13) and isfinite(u22) and isfinite(u23) and isfinite(u33)
    ):
        raise InvalidInputError("covariance recursion left the finite range")
    # Filled in place: a reshaped view would keep a second array object alive
    # with every stored covariance.
    out = np.empty((4, 4))
    out.flat = (u00, u01, u02, u03, u01, u11, u12, u13, u02, u12, u22, u23, u03, u13, u23, u33)
    return out


def predict_covariance(p: np.ndarray, model: MotionModel) -> np.ndarray:
    """Predicted covariance symmetrize(A P A^T + Q), with A and Q as given by
    :meth:`MotionModel.transition_matrix` and :meth:`MotionModel.process_noise`.

    A P A^T is left to the BLAS matrix product, as in ``a @ p @ a.T``: the
    kernel may fuse multiply-adds, which float arithmetic in Python cannot
    reproduce, and the product must round as the matrix definition does.
    (``ndarray.dot`` reaches the same kernel with less call overhead than
    ``@``.)  Q and the symmetrization are applied entry by entry.  Shared by
    :func:`predict` and the batched Monte Carlo engine.  Raises
    InvalidInputError if the result is not finite.
    """
    a = model.transition_matrix()
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = (
        a.dot(p).dot(a.T).tolist()
    )
    dt = model.dt
    h = 0.5 * dt * dt
    sx, sy = model.sigma_wx2, model.sigma_wy2
    qx, qy = h * dt * sx, h * dt * sy
    return _symmetric(
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


def _finite_pair(v, what: str) -> tuple[float, float]:
    """The two entries of a finite 2-vector as floats; InvalidInputError otherwise."""
    a = np.asarray(v, dtype=float)
    if a.shape == (2,):
        x, y = a.tolist()
        if isfinite(x) and isfinite(y):
            return x, y
    raise InvalidInputError(f"{what} must be a finite 2-vector, got {v!r}")


def predict(est: FilterEstimate, model: MotionModel, accel=(0.0, 0.0)) -> FilterEstimate:
    """Propagate the estimate through the motion model with a known acceleration input."""
    ux, uy = _finite_pair(accel, "acceleration")
    s = est.state
    dt = model.dt
    half = 0.5 * dt * dt
    state = _state(
        s.x + dt * s.vx + half * ux,
        s.y + dt * s.vy + half * uy,
        s.vx + dt * ux,
        s.vy + dt * uy,
    )
    return _estimate(state, predict_covariance(est.covariance, model))


def _gain_and_posterior(p: np.ndarray, meas_model: MeasurementModel) -> tuple[tuple, np.ndarray]:
    """:func:`gain_and_updated_covariance` with the gain as 8 row-major floats.

    The gain itself is not checked here: :func:`update` multiplies every gain
    entry into its checked state (inf * 0 is NaN), and
    :func:`gain_and_updated_covariance` checks it before returning it.
    """
    (p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23), (p30, p31, p32, p33) = (
        p.tolist()
    )
    (r00, r01), (r10, r11) = meas_model.r.tolist()
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
    p_new = _symmetric(
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
    return (g00, g01, g10, g11, g20, g21, g30, g31), p_new


def gain_and_updated_covariance(
    p: np.ndarray, meas_model: MeasurementModel
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gain G = P C^T S^-1 and the posterior covariance (I - G C) P,
    with innovation covariance S = C P C^T + R = P[:2, :2] + R.

    Expanded on the position-selector C, so no matrix is built; the
    posterior is computed on its upper triangle and mirrored, so it is
    exactly symmetric.  Shared by :func:`update` and the batched Monte Carlo
    engine so both consume identical gain values.  Raises
    NumericalDegeneracyError when S is singular and InvalidInputError when
    the result is not finite.
    """
    g, p_new = _gain_and_posterior(p, meas_model)
    if not all(map(isfinite, g)):
        raise InvalidInputError("Kalman gain left the finite range")
    return np.array(g).reshape(4, 2), p_new


def update(est: FilterEstimate, meas_model: MeasurementModel, z) -> FilterEstimate:
    """Correct the estimate with a position measurement z (m)."""
    zx, zy = _finite_pair(z, "measurement")
    (g00, g01, g10, g11, g20, g21, g30, g31), p_new = _gain_and_posterior(
        est.covariance, meas_model
    )
    s = est.state
    ix, iy = zx - s.x, zy - s.y
    state = _state(
        s.x + (g00 * ix + g01 * iy),
        s.y + (g10 * ix + g11 * iy),
        s.vx + (g20 * ix + g21 * iy),
        s.vy + (g30 * ix + g31 * iy),
    )
    return _estimate(state, p_new)


def initial_estimate(z, meas_model: MeasurementModel, v_max: float = 10.0) -> FilterEstimate:
    """Measurement-consistent start: position from z, zero velocity, covariance
    diag(R11, R22, v_max^2, v_max^2)."""
    zx, zy = _finite_pair(z, "measurement")
    p0 = np.diag([meas_model.r[0, 0], meas_model.r[1, 1], v_max * v_max, v_max * v_max])
    return FilterEstimate(TargetState(zx, zy, 0.0, 0.0), p0)


def track(
    times: Sequence[float],
    measurements: Sequence,
    model: MotionModel,
    meas_model: MeasurementModel,
    init: FilterEstimate | None = None,
    accels: Sequence | None = None,
) -> list[FilterEstimate]:
    """Filter a timestamped measurement sequence; one estimate per measurement.

    The initial estimate is taken to be at the first measurement's time, so the
    first output is `init` itself (default: :func:`initial_estimate` from the
    first measurement).  Every later step predicts over the gap between
    consecutive timestamps and then updates.
    """
    times = [float(t) for t in times]
    if len(times) == 0:
        raise InvalidInputError("measurement sequence must be non-empty")
    if len(times) != len(measurements):
        raise InvalidInputError("times and measurements must have equal length")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise InvalidInputError("timestamps must be strictly increasing")
    if accels is not None and len(accels) != len(measurements):
        raise InvalidInputError("accels must have one entry per measurement")

    est = init if init is not None else initial_estimate(measurements[0], meas_model)
    out = [est]
    for k in range(1, len(times)):
        step_model = MotionModel(times[k] - times[k - 1], model.sigma_wx2, model.sigma_wy2)
        u = accels[k] if accels is not None else (0.0, 0.0)
        est = update(predict(est, step_model, u), meas_model, measurements[k])
        out.append(est)
    return out

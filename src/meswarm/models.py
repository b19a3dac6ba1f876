"""System and measurement models with their linearisation builders.

Everything here is a pure function of estimator state, configuration and a
single measurement: the IMU drift field, its 15x15 linearisation, the
landmark / inter-vehicle prediction maps, and the residual and Hessian-term
assemblies.  Both filters consume an observation through `update_terms`,
which builds the residual entries and the Hessian block from one evaluation
of the model terms; `residual` and `hessian_term` each return one of the two.
The landmark terms also take a stack of observations (`stack_observations`)
and return the stack of their terms, each item as it would be alone.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .kernels import EYE3, skew
from .lie import STATE_DOF, VehicleState

DEFAULT_GRAVITY = np.array([0.0, 0.0, 9.81])

LANDMARK = "landmark"
INTERVEHICLE = "intervehicle"

# Leading tangent slots of a vehicle's block that an observation's residual
# and Hessian term touch: rotation and position.
UPDATE_SLOTS = 6

# Inter-arrival periods are capped at this multiple of the nominal period so
# a long dropout cannot blow up the measurement weight.
MAX_PERIOD_FACTOR = 10.0


class ObservationError(ValueError):
    """Observation rejected (unknown landmark, self-observation, ...)."""


class ImuSample(NamedTuple):
    """One IMU sample.  A named tuple, because sources build one per
    vehicle per tick: it costs half a frozen dataclass's construction."""

    gyro: np.ndarray    # rad/s, body frame
    accel: np.ndarray   # m/s^2, body frame (specific force)
    t_ns: int


class ImuStream:
    """A stream of IMU samples as arrays: int64 stamps (N,), gyro and accel
    (N, 3).  ``stream[k]`` is an ImuSample of views with a Python-int stamp;
    a slice is a shorter stream."""

    def __init__(self, t_ns, gyro, accel):
        self.t_ns = np.asarray(t_ns, dtype=np.int64)
        self.gyro = np.asarray(gyro, dtype=float)
        self.accel = np.asarray(accel, dtype=float)

    def __len__(self):
        return len(self.t_ns)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ImuStream(self.t_ns[k], self.gyro[k], self.accel[k])
        return ImuSample(self.gyro[k], self.accel[k], int(self.t_ns[k]))


@dataclass
class WorldConfig:
    """Known environment: gravity, landmark positions, marker points."""

    gravity: np.ndarray = field(default_factory=lambda: DEFAULT_GRAVITY.copy())
    landmarks: dict = field(default_factory=dict)   # id -> 3-vector, inertial
    markers: dict = field(default_factory=dict)     # vehicle -> 3-vector, body

    def marker(self, vehicle):
        return np.asarray(self.markers.get(vehicle, np.zeros(3)), dtype=float)

    def landmark(self, index):
        """Inertial position of a landmark; an array of indices, as a
        stack of observations carries, gives their positions stacked."""
        if isinstance(index, np.ndarray):
            return np.array([self.landmark(i) for i in index.tolist()])
        try:
            return np.asarray(self.landmarks[index], dtype=float)
        except KeyError:
            raise ObservationError(f"unknown landmark index {index!r}") from None


@dataclass
class NoiseModel:
    """Error-signal weights and the rate-corrected measurement weights.

    ``b_*`` weight the IMU and bias-drift error signals, ``d_landmark`` /
    ``d_intervehicle`` the measurement errors.  The cost-functional weights
    are tied to the sample periods: the IMU weight is (1/dt_imu) I and each
    measurement weight is (1/dt) I with dt the measured inter-arrival time.
    Construction refuses a matrix with a non-finite entry and a period that
    is not a positive finite number, raising a ValueError that names the
    field; the matrices are kept as float arrays.
    """

    b_gyro: np.ndarray = field(default_factory=lambda: np.eye(3))
    b_accel: np.ndarray = field(default_factory=lambda: np.eye(3))
    b_gyro_bias: np.ndarray = field(default_factory=lambda: np.eye(3))
    b_accel_bias: np.ndarray = field(default_factory=lambda: np.eye(3))
    d_landmark: np.ndarray = field(default_factory=lambda: np.eye(3))
    d_intervehicle: np.ndarray = field(default_factory=lambda: np.eye(3))
    dt_imu: float = 1.0 / 200.0
    dt_landmark: float = 0.1
    dt_intervehicle: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("dt_"):
                if (isinstance(value, bool)
                        or not isinstance(value, numbers.Real)
                        or not 0.0 < value < math.inf):
                    raise ValueError(f"{f.name} must be a positive finite "
                                     f"number, got {value!r}")
                continue
            m = np.asarray(value, dtype=float)
            if not np.isfinite(m).all():
                raise ValueError(f"{f.name} must be finite")
            setattr(self, f.name, m)
        for name in ("d_landmark", "d_intervehicle"):
            if np.linalg.cond(getattr(self, name)) > 1e6:
                raise ValueError(f"{name} must be invertible (cond < 1e6)")
        # D^{-T} D^{-1} per kind, built once from solves: D is fixed
        self._unit_weight = {}
        for kind in (LANDMARK, INTERVEHICLE):
            d_inv = np.linalg.solve(self.d_matrix(kind), np.eye(3))
            self._unit_weight[kind] = d_inv.T @ d_inv

    def d_matrix(self, kind):
        return self.d_landmark if kind == LANDMARK else self.d_intervehicle

    def nominal_period(self, kind):
        return self.dt_landmark if kind == LANDMARK else self.dt_intervehicle

    def measurement_weight(self, kind, dt):
        """M = D^{-T} Q D^{-1} with Q = (1/dt) I; an array of periods gives
        the stack of their weights."""
        if isinstance(dt, np.ndarray):
            dt = dt[..., None, None]
        return self._unit_weight[kind] / dt

    def w_inverse_scale(self):
        """Inverse of the IMU error weight (scalar multiple of identity)."""
        return self.dt_imu

    def effective_period(self, kind, last_t_ns, t_ns):
        """Inter-arrival time with the first-arrival and dropout-cap rules."""
        nominal = self.nominal_period(kind)
        if last_t_ns is None:
            return nominal
        dt = (t_ns - last_t_ns) * 1e-9
        if dt <= 0.0:
            raise ObservationError("non-increasing observation timestamp")
        return min(dt, MAX_PERIOD_FACTOR * nominal)


@dataclass(frozen=True)
class Observation:
    """One observation, or a stack of landmark observations made at one
    time (stack_observations): observer, subject and y then carry a
    leading item axis."""

    kind: str           # LANDMARK or INTERVEHICLE
    observer: int
    subject: int        # landmark index, or target vehicle
    y: np.ndarray       # 3-vector, body frame of the observer
    t_ns: int

    def __post_init__(self):
        check_source(self.kind, self.observer, self.subject)


def check_source(kind, observer, subject):
    """Refuse an observation source that no observation can have: an
    unknown kind, or a vehicle observing its own marker."""
    if kind not in (LANDMARK, INTERVEHICLE):
        raise ObservationError(f"unknown observation kind {kind!r}")
    if kind == INTERVEHICLE and observer == subject:
        raise ObservationError("a vehicle cannot observe its own marker")


def stack_observations(observations):
    """One Observation of R landmark observations made at one time, with
    observer and subject (R,) and y (R, 3)."""
    return Observation(LANDMARK,
                       np.array([obs.observer for obs in observations]),
                       np.array([obs.subject for obs in observations]),
                       np.array([obs.y for obs in observations], dtype=float),
                       observations[0].t_ns)


# -- system model ------------------------------------------------------------
#
# These take one vehicle's state and IMU sample, or a stack of both with the
# same leading axes, and return the matching stack.

def lambda_single(x: VehicleState, u: ImuSample, world: WorldConfig):
    """Tangent-space drift of the vehicles under the held IMU samples."""
    out = np.zeros(x.pos.shape[:-1] + (STATE_DOF,))
    out[..., 0:3] = u.gyro - x.gyro_bias
    # R^T v and R^T g, as the rows v^T R and g^T R
    out[..., 3:6] = (x.vel[..., None, :] @ x.rot)[..., 0, :]
    out[..., 6:9] = u.accel - x.accel_bias - world.gravity @ x.rot
    return out


def b_check_single(noise: NoiseModel):
    """15x12 map from the stacked IMU/bias error signals to the algebra."""
    b = np.zeros((STATE_DOF, 12))
    b[0:3, 0:3] = -noise.b_gyro
    b[6:9, 3:6] = -noise.b_accel
    b[9:12, 6:9] = noise.b_gyro_bias
    b[12:15, 9:12] = noise.b_accel_bias
    return b


def imu_noise_term(noise: NoiseModel):
    """Constant input term dt_imu B B^T of every diagonal gain block's flow."""
    b = b_check_single(noise)
    return noise.w_inverse_scale() * (b @ b.T)


def _a_check_affine():
    """a_check_single is affine in d = (gyro_bias - gyro, accel_bias - accel):
    flattened, a = d @ linear + fixed with linear (6, 225) and fixed (225,)."""
    linear = np.zeros((6, STATE_DOF, STATE_DOF))
    for i, hat in enumerate(skew(np.eye(3))):
        for row in (0, 3, 6):
            linear[i, row:row + 3, row:row + 3] = hat
        linear[3 + i, 6:9, 0:3] = hat
    fixed = np.zeros((STATE_DOF, STATE_DOF))
    fixed[0:3, 9:12] = -np.eye(3)
    fixed[3:6, 6:9] = np.eye(3)
    fixed[6:9, 12:15] = -np.eye(3)
    return linear.reshape(6, -1), fixed.ravel()


_A_LINEAR, _A_FIXED = _a_check_affine()


def a_check_single(x: VehicleState, u: ImuSample):
    """15x15 linearisation of the drift, evaluated at the estimate.

    Depends on the state only through the bias estimates:

        [ -w^   0    0    -I   0 ]      w = gyro - gyro_bias
        [  0   -w^   I     0   0 ]      f = accel - accel_bias
        [ -f^   0   -w^    0  -I ]
        [  0    0    0     0   0 ]
        [  0    0    0     0   0 ]
    """
    d = np.concatenate((x.gyro_bias - u.gyro, x.accel_bias - u.accel), axis=-1)
    a = np.dot(d, _A_LINEAR) + _A_FIXED
    return a.reshape(d.shape[:-1] + (STATE_DOF, STATE_DOF))


# -- measurement predictions -------------------------------------------------

def predict_landmark(x: VehicleState, l):
    """R^T (l - p), for one vehicle or a stack with l stacked alike."""
    return _mv(x.rot.swapaxes(-1, -2), np.asarray(l, dtype=float) - x.pos)


def predict_intervehicle(x_obs: VehicleState, x_tgt: VehicleState, m_tgt):
    m = np.asarray(m_tgt, dtype=float)
    return x_obs.rot.T @ (x_tgt.rot @ m + x_tgt.pos - x_obs.pos)


def predict(states, kind, observer, subject, world: WorldConfig):
    """The noise-free measurement of an observation source."""
    if kind == LANDMARK:
        return predict_landmark(states[observer], world.landmark(subject))
    return predict_intervehicle(states[observer], states[subject],
                                world.marker(subject))


def _sym(m):
    return 0.5 * (m + m.swapaxes(-1, -2))


def _mv(a, x):
    """a @ x for one matrix and vector or for stacks of both, each item
    through the product one item alone gets."""
    if x.ndim == 1:
        return a @ x
    return (a @ x[..., None])[..., 0]


# -- residuals and Hessian terms on the update slots -------------------------
#
# An observation's residual and Hessian term vanish outside the rotation and
# position slots of the vehicles it involves (update_indices), so both are
# built on those m = 6 or 12 slots only.  `states` is anything indexed by
# vehicle: a list, a stacked VehicleState, or a dict holding the observer
# (and the target).

def _landmark_terms(states, obs, world, noise, dt):
    """Weight M, weighted innovation s, Jacobian F = [h^ -I] (3 x 6) and
    the second-order part G^T F of the Hessian term, G = [s^ 0].

    For a stack of R observations (stack_observations) with dt (R,),
    `states` is the stacked state the observers index, and every term
    gets a leading item axis; each item equals its observation's terms
    alone, bit for bit."""
    m = noise.measurement_weight(LANDMARK, dt)
    x = states[obs.observer]
    lead = x.pos.shape[:-1]
    # rows h, s: one hat for both
    v = np.empty(lead + (2, 3))
    v[..., 0, :] = predict_landmark(x, world.landmark(obs.subject))
    v[..., 1, :] = _mv(m, obs.y - v[..., 0, :])
    hat = skew(v)
    f = np.empty(lead + (3, 6))
    f[..., 0:3] = hat[..., 0, :, :]
    f[..., 3:6] = -EYE3
    core = np.zeros(lead + (6, 6))
    np.matmul(hat[..., 1, :, :].swapaxes(-1, -2), f, out=core[..., 0:3, :])
    return m, v[..., 1, :], f, core


def _intervehicle_terms(states, obs, world, noise, dt):
    """As _landmark_terms on the observer's then the target's slots,
    F = [h^ -I | -R_ab m_b^ R_ab] (3 x 12): the core is
    G_a^T F + G_a^T R_ab L_b - G_b^T L_b with G_a = [s^ 0 | 0 0],
    G_b = [0 0 | (R_ab^T s)^ 0] and L_b = [0 0 | -m_b^ I].  R_ab L_b is F's
    target block, so the observer's rows carry that block twice, and
    -G_b^T L_b fills the target's rotation rows only."""
    x_a, x_b = states[obs.observer], states[obs.subject]
    m = noise.measurement_weight(INTERVEHICLE, dt)
    r_ab = x_a.rot.T @ x_b.rot
    # rows h, s, m_b, R_ab^T s: one hat for all four
    v = np.empty((4, 3))
    v[2] = world.marker(obs.subject)
    v[0] = predict_intervehicle(x_a, x_b, v[2])
    v[1] = m @ (obs.y - v[0])
    v[3] = r_ab.T @ v[1]
    hat = skew(v)
    f = np.empty((3, 12))
    f[:, 0:3] = hat[0]
    f[:, 3:6] = -EYE3
    f[:, 6:9] = -r_ab @ hat[2]
    f[:, 9:12] = r_ab
    core = np.zeros((12, 12))
    np.matmul(hat[1].T, f, out=core[0:3])
    core[0:3, 6:12] *= 2.0
    core[6:9, 6:9] = hat[3].T @ hat[2]
    core[6:9, 9:12] = -hat[3].T
    return m, v[1], f, core


def _terms(states, obs, world, noise, dt):
    if obs.kind == LANDMARK:
        return _landmark_terms(states, obs, world, noise, dt)
    return _intervehicle_terms(states, obs, world, noise, dt)


def update_terms(states, obs, world, noise, dt):
    """The m residual entries F^T s and the symmetric m x m Hessian block
    E_ii at update_indices(obs.kind, obs.observer, obs.subject), as
    (r_ix, e_ii), from one evaluation of the model terms; a stack of
    landmark observations gives (R, m) and (R, m, m)."""
    m, s, f, core = _terms(states, obs, world, noise, dt)
    ft = f.swapaxes(-1, -2)
    return _mv(ft, s), _sym(core) + _sym(ft @ m @ f)


def residual(states, obs, world, noise, dt):
    """Weighted innovation s and the m residual entries F^T s at
    update_indices(obs.kind, obs.observer, obs.subject)."""
    _, s, f, _ = _terms(states, obs, world, noise, dt)
    return s, _mv(f.swapaxes(-1, -2), s)


def hessian_term(states, obs, world, noise, dt):
    """Symmetric m x m block E_ii of the Hessian term at update_indices."""
    m, _, f, core = _terms(states, obs, world, noise, dt)
    return _sym(core) + _sym(f.swapaxes(-1, -2) @ m @ f)


@functools.lru_cache(maxsize=None)
def update_indices(kind, observer, subject):
    """Indices outside which an observation's residual and Hessian term vanish.

    The rotation and position slots of the observer, then of the target
    vehicle for an inter-vehicle observation: 6 or 12 of the 15n indices.
    Cached, so the read-only array is built once per observation source.
    """
    vehicles = (observer,) if kind == LANDMARK else (observer, subject)
    ix = np.concatenate([np.arange(v * STATE_DOF, v * STATE_DOF + UPDATE_SLOTS)
                         for v in vehicles])
    ix.flags.writeable = False
    return ix

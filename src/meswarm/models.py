"""System and measurement models with their linearisation builders.

Everything here is a pure function of estimator state, configuration and a
single measurement: the IMU drift field, its 15x15 linearisation, the
landmark / inter-vehicle prediction maps, and the residual and Hessian-term
assemblies consumed by the filters.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .kernels import skew
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


@dataclass(frozen=True)
class ImuSample:
    gyro: np.ndarray    # rad/s, body frame
    accel: np.ndarray   # m/s^2, body frame (specific force)
    t_ns: int


@dataclass
class WorldConfig:
    """Known environment: gravity, landmark positions, marker points."""

    gravity: np.ndarray = field(default_factory=lambda: DEFAULT_GRAVITY.copy())
    landmarks: dict = field(default_factory=dict)   # id -> 3-vector, inertial
    markers: dict = field(default_factory=dict)     # vehicle -> 3-vector, body

    def marker(self, vehicle):
        return np.asarray(self.markers.get(vehicle, np.zeros(3)), dtype=float)

    def landmark(self, index):
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
        for name in ("d_landmark", "d_intervehicle"):
            d = np.asarray(getattr(self, name), dtype=float)
            if np.linalg.cond(d) > 1e6:
                raise ValueError(f"{name} must be invertible (cond < 1e6)")
            setattr(self, name, d)

    def d_matrix(self, kind):
        return self.d_landmark if kind == LANDMARK else self.d_intervehicle

    def nominal_period(self, kind):
        return self.dt_landmark if kind == LANDMARK else self.dt_intervehicle

    def measurement_weight(self, kind, dt):
        """M = D^{-T} Q D^{-1} with Q = (1/dt) I, built from solves."""
        d = self.d_matrix(kind)
        d_inv = np.linalg.solve(d, np.eye(3))
        return (d_inv.T @ d_inv) / dt

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
    kind: str           # LANDMARK or INTERVEHICLE
    observer: int
    subject: int        # landmark index, or target vehicle
    y: np.ndarray       # 3-vector, body frame of the observer
    t_ns: int
    dt: float = None    # s since the previous observation of this source

    def __post_init__(self):
        if self.kind not in (LANDMARK, INTERVEHICLE):
            raise ObservationError(f"unknown observation kind {self.kind!r}")
        if self.kind == INTERVEHICLE and self.observer == self.subject:
            raise ObservationError("a vehicle cannot observe its own marker")


# -- system model ------------------------------------------------------------

def lambda_single(x: VehicleState, u: ImuSample, world: WorldConfig):
    """Tangent-space drift of one vehicle under the held IMU sample."""
    rt = x.rot.T
    return np.concatenate([
        u.gyro - x.gyro_bias,
        rt @ x.vel,
        u.accel - x.accel_bias - rt @ world.gravity,
        np.zeros(3),
        np.zeros(3),
    ])


def b_check_single(noise: NoiseModel):
    """15x12 map from the stacked IMU/bias error signals to the algebra."""
    b = np.zeros((STATE_DOF, 12))
    b[0:3, 0:3] = -noise.b_gyro
    b[6:9, 3:6] = -noise.b_accel
    b[9:12, 6:9] = noise.b_gyro_bias
    b[12:15, 9:12] = noise.b_accel_bias
    return b


def a_check_single(x: VehicleState, u: ImuSample):
    """15x15 linearisation of the drift, evaluated at the estimate.

    Depends on the state only through the bias estimates.
    """
    w = skew(u.gyro - x.gyro_bias)
    a = np.zeros((STATE_DOF, STATE_DOF))
    a[0:3, 0:3] = w
    a[0:3, 9:12] = np.eye(3)
    a[3:6, 3:6] = w
    a[3:6, 6:9] = -np.eye(3)
    a[6:9, 0:3] = skew(u.accel - x.accel_bias)
    a[6:9, 6:9] = w
    a[6:9, 12:15] = np.eye(3)
    return -a


# -- measurement predictions -------------------------------------------------

def predict_landmark(x: VehicleState, l):
    return x.rot.T @ (np.asarray(l, dtype=float) - x.pos)


def predict_intervehicle(x_obs: VehicleState, x_tgt: VehicleState, m_tgt):
    m = np.asarray(m_tgt, dtype=float)
    return x_obs.rot.T @ (x_tgt.rot @ m + x_tgt.pos - x_obs.pos)


def predict(states, obs: Observation, world: WorldConfig):
    if obs.kind == LANDMARK:
        return predict_landmark(states[obs.observer], world.landmark(obs.subject))
    return predict_intervehicle(states[obs.observer], states[obs.subject],
                                world.marker(obs.subject))


# -- block-row builders ------------------------------------------------------

def _row(n):
    return np.zeros((3, n * STATE_DOF))


def f_landmark(states, alpha, l):
    n = len(states)
    f = _row(n)
    c = alpha * STATE_DOF
    f[:, c:c + 3] = skew(predict_landmark(states[alpha], l))
    f[:, c + 3:c + 6] = -np.eye(3)
    return f


def f_intervehicle(states, alpha, beta, m_beta):
    n = len(states)
    f = _row(n)
    ca = alpha * STATE_DOF
    cb = beta * STATE_DOF
    r_ab = states[alpha].rot.T @ states[beta].rot
    f[:, ca:ca + 3] = skew(predict_intervehicle(states[alpha], states[beta], m_beta))
    f[:, ca + 3:ca + 6] = -np.eye(3)
    f[:, cb:cb + 3] = -r_ab @ skew(np.asarray(m_beta, dtype=float))
    f[:, cb + 3:cb + 6] = r_ab
    return f


def g_row(s, idx, n):
    g = _row(n)
    c = idx * STATE_DOF
    g[:, c:c + 3] = skew(np.asarray(s, dtype=float))
    return g


def l_row(m_beta, beta, n):
    l = _row(n)
    c = beta * STATE_DOF
    l[:, c:c + 3] = -skew(np.asarray(m_beta, dtype=float))
    l[:, c + 3:c + 6] = np.eye(3)
    return l


def _sym(m):
    return 0.5 * (m + m.T)


# -- residuals and Hessian terms --------------------------------------------

def residual_landmark(states, obs: Observation, world: WorldConfig,
                      noise: NoiseModel, dt=None):
    """Weighted innovation and its 15n-vector residual contribution."""
    l = world.landmark(obs.subject)
    dt = obs.dt if dt is None else dt
    m = noise.measurement_weight(LANDMARK, dt)
    s = m @ (obs.y - predict_landmark(states[obs.observer], l))
    f = f_landmark(states, obs.observer, l)
    return s, f.T @ s


def residual_intervehicle(states, obs: Observation, world: WorldConfig,
                          noise: NoiseModel, dt=None):
    m_beta = world.marker(obs.subject)
    dt = obs.dt if dt is None else dt
    m = noise.measurement_weight(INTERVEHICLE, dt)
    s = m @ (obs.y - predict_intervehicle(states[obs.observer],
                                          states[obs.subject], m_beta))
    f = f_intervehicle(states, obs.observer, obs.subject, m_beta)
    return s, f.T @ s


def e_landmark(states, obs: Observation, world: WorldConfig,
               noise: NoiseModel, dt=None):
    """Symmetric 15n x 15n Hessian term for a landmark observation."""
    n = len(states)
    l = world.landmark(obs.subject)
    dt = obs.dt if dt is None else dt
    m = noise.measurement_weight(LANDMARK, dt)
    s = m @ (obs.y - predict_landmark(states[obs.observer], l))
    f = f_landmark(states, obs.observer, l)
    g = g_row(s, obs.observer, n)
    return _sym(g.T @ f) + _sym(f.T @ m @ f)


def e_intervehicle(states, obs: Observation, world: WorldConfig,
                   noise: NoiseModel, dt=None):
    """Symmetric 15n x 15n Hessian term for an inter-vehicle observation."""
    n = len(states)
    alpha, beta = obs.observer, obs.subject
    m_beta = world.marker(beta)
    dt = obs.dt if dt is None else dt
    m = noise.measurement_weight(INTERVEHICLE, dt)
    r_ab = states[alpha].rot.T @ states[beta].rot
    s = m @ (obs.y - predict_intervehicle(states[alpha], states[beta], m_beta))
    f = f_intervehicle(states, alpha, beta, m_beta)
    ga = g_row(s, alpha, n)
    gb = g_row(r_ab.T @ s, beta, n)
    lb = l_row(m_beta, beta, n)
    core = ga.T @ f + ga.T @ (r_ab @ lb) - gb.T @ lb
    return _sym(core) + _sym(f.T @ m @ f)


def residual(states, obs, world, noise, dt=None):
    if obs.kind == LANDMARK:
        return residual_landmark(states, obs, world, noise, dt)
    return residual_intervehicle(states, obs, world, noise, dt)


def hessian_term(states, obs, world, noise, dt=None):
    if obs.kind == LANDMARK:
        return e_landmark(states, obs, world, noise, dt)
    return e_intervehicle(states, obs, world, noise, dt)


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

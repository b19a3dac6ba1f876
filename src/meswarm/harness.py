"""Deterministic multi-rate simulation harness.

Provides smooth synthetic trajectories with closed-form IMU signals, seeded
IMU/measurement synthesis, the tick-based event scheduler that drives the
three filter modes (independent, centralised, decentralised), a logging
message bus, and the error-metric computation.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import distributed, models
from .distributed import VehicleNode, encode_message
from .joint import JointFilter, block_diag_prior
from .kernels import skew, so3_exp
from .lie import STATE_DOF, VehicleState, make_state, rotation_error_angle
from .models import ImuSample, Observation

log = logging.getLogger(__name__)

MODE_NONE = "none"
MODE_CENTRAL = "central"
MODE_DISTRIBUTED = "distributed"
MODES = (MODE_NONE, MODE_CENTRAL, MODE_DISTRIBUTED)

# channel codes for the per-(channel, vehicle, subject) noise streams
_CH_GYRO = 0
_CH_ACCEL = 1
_CH_GYRO_WALK = 2
_CH_ACCEL_WALK = 3
_CH_LANDMARK = 4
_CH_INTERVEHICLE = 5
_CH_DROP_LANDMARK = 6
_CH_DROP_INTERVEHICLE = 7
_CH_PRIOR = 8

SUMMARY_QUANTITIES = (
    ("Position", "m", "pos_err"),
    ("Rotation", "rad", "rot_err"),
    ("Linear Velocity", "m/s", "vel_err"),
    ("IMU Gyro Bias", "rad/s", "gyro_bias_err"),
    ("IMU Accel. Bias", "m/s^2", "accel_bias_err"),
)


def channel_rng(seed, channel, vehicle, subject):
    """Independent generator per (channel, vehicle, subject) tuple.

    Toggling one channel never shifts the draws of another.
    """
    return np.random.default_rng(
        np.random.SeedSequence((seed, channel, vehicle, subject)))


@dataclass
class ScheduleConfig:
    imu_rate_hz: float = 200.0
    landmark_rate_hz: float = 10.0
    intervehicle_rate_hz: float = 10.0
    duration_s: float = 10.0
    dropout_landmark: float = 0.0
    dropout_intervehicle: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.imu_rate_hz <= 0.0:
            raise ValueError("IMU rate must be positive")
        for name in ("landmark_rate_hz", "intervehicle_rate_hz"):
            rate = getattr(self, name)
            if rate < 0.0:
                raise ValueError(f"{name} must be non-negative")
            if rate > self.imu_rate_hz:
                raise ValueError(f"{name} must not exceed the IMU rate")


@dataclass
class PriorConfig:
    """Initial estimate perturbation and prior gain.

    k0_diag is a scalar or a 15-vector over the tangent slots (rotation,
    position, velocity, gyro bias, accel bias).  The default reflects the
    usual initial knowledge: approximate pose, uncertain velocity, and biases
    assumed near zero.  Large bias or velocity entries let the first few
    updates kick those estimates hard enough to destabilise the filter,
    especially once tightly-weighted inter-vehicle updates couple position
    and velocity gains across vehicles.
    """

    pos_offset_m: float = 0.1
    rot_offset_rad: float = 0.1
    k0_diag: object = (0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1,
                       0.01, 0.01, 0.01, 0.01, 0.01, 0.01)

    def k0_block(self):
        diag = np.asarray(self.k0_diag, dtype=float)
        if diag.ndim == 0:
            diag = np.full(STATE_DOF, float(diag))
        if diag.shape != (STATE_DOF,) or np.any(diag <= 0.0):
            raise ValueError("k0_diag must be a positive scalar or 15-vector")
        return np.diag(diag)


@dataclass(frozen=True)
class MetricsRow:
    t: float
    vehicle: int
    pos_err: float
    rot_err: float
    vel_err: float
    gyro_bias_err: float
    accel_bias_err: float


# -- synthetic trajectories ----------------------------------------------------

@dataclass
class SinusoidTrajectory:
    """Sum-of-sinusoids position with a fixed-axis sinusoidal attitude.

    Every kinematic quantity (velocity, acceleration, body angular rate) has
    a closed form, so IMU synthesis involves no numerical differentiation.
    """

    pos_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pos_amp: np.ndarray = field(default_factory=lambda: np.zeros((3, 1)))
    pos_freq_hz: np.ndarray = field(default_factory=lambda: 0.1 * np.ones((3, 1)))
    pos_phase: np.ndarray = field(default_factory=lambda: np.zeros((3, 1)))
    rot_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    rot_amp: float = 0.0
    rot_freq_hz: float = 0.1
    rot_phase: float = 0.0

    def __post_init__(self):
        self.pos_offset = np.asarray(self.pos_offset, dtype=float)
        for name in ("pos_amp", "pos_freq_hz", "pos_phase"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name),
                                                         dtype=float)))
        axis = np.asarray(self.rot_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ValueError("rotation axis must be non-zero")
        self.rot_axis = axis / norm

    @classmethod
    def random(cls, rng, pos_scale=2.0, rot_scale=0.5, terms=2):
        axis = rng.standard_normal(3)
        return cls(pos_offset=pos_scale * rng.standard_normal(3),
                   pos_amp=pos_scale * rng.uniform(0.2, 1.0, (3, terms)),
                   pos_freq_hz=rng.uniform(0.05, 0.3, (3, terms)),
                   pos_phase=rng.uniform(0.0, 2.0 * np.pi, (3, terms)),
                   rot_axis=axis,
                   rot_amp=rot_scale * rng.uniform(0.5, 1.0),
                   rot_freq_hz=rng.uniform(0.05, 0.3),
                   rot_phase=rng.uniform(0.0, 2.0 * np.pi))

    def _arg(self, t):
        return 2.0 * np.pi * self.pos_freq_hz * t + self.pos_phase

    def position(self, t):
        return self.pos_offset + np.sum(self.pos_amp * np.sin(self._arg(t)),
                                        axis=1)

    def velocity(self, t):
        w = 2.0 * np.pi * self.pos_freq_hz
        return np.sum(self.pos_amp * w * np.cos(self._arg(t)), axis=1)

    def acceleration(self, t):
        w = 2.0 * np.pi * self.pos_freq_hz
        return -np.sum(self.pos_amp * w * w * np.sin(self._arg(t)), axis=1)

    def _angle(self, t):
        return self.rot_amp * math.sin(2.0 * np.pi * self.rot_freq_hz * t
                                       + self.rot_phase)

    def _angle_rate(self, t):
        w = 2.0 * np.pi * self.rot_freq_hz
        return self.rot_amp * w * math.cos(w * t + self.rot_phase)

    def rotation(self, t):
        return so3_exp(self._angle(t) * self.rot_axis)

    def angular_velocity_body(self, t):
        # rotation about a fixed axis: the body rate equals the inertial rate
        return self._angle_rate(t) * self.rot_axis

    def truth_state(self, t, gyro_bias=None, accel_bias=None):
        return make_state(self.rotation(t), self.position(t), self.velocity(t),
                          gyro_bias, accel_bias)


# -- sensor synthesis -----------------------------------------------------------

def synthesize_imu(trajectory, noise, gravity, n_ticks, dt, seed, vehicle,
                   gyro_bias0=None, accel_bias0=None, bias_walk=True):
    """Seeded IMU stream plus the true bias trajectories it embeds.

    Returns (samples, gyro_biases, accel_biases) with one entry per tick;
    biases follow a random walk with sqrt(dt)-scaled increments, or stay
    constant when bias_walk is False.
    """
    rng_g = channel_rng(seed, _CH_GYRO, vehicle, 0)
    rng_a = channel_rng(seed, _CH_ACCEL, vehicle, 0)
    rng_bg = channel_rng(seed, _CH_GYRO_WALK, vehicle, 0)
    rng_ba = channel_rng(seed, _CH_ACCEL_WALK, vehicle, 0)
    bg = np.zeros(3) if gyro_bias0 is None else np.asarray(gyro_bias0, float)
    ba = np.zeros(3) if accel_bias0 is None else np.asarray(accel_bias0, float)
    sqdt = math.sqrt(dt)
    dt_ns = int(round(1e9 * dt))
    samples, gyro_biases, accel_biases = [], [], []
    for k in range(n_ticks):
        t = k * dt
        gyro_biases.append(bg.copy())
        accel_biases.append(ba.copy())
        rot = trajectory.rotation(t)
        u_w = (trajectory.angular_velocity_body(t) + bg
               + noise.b_gyro @ rng_g.standard_normal(3))
        u_a = (rot.T @ (trajectory.acceleration(t) + gravity) + ba
               + noise.b_accel @ rng_a.standard_normal(3))
        samples.append(ImuSample(u_w, u_a, k * dt_ns))
        if bias_walk:
            bg = bg + noise.b_gyro_bias @ (sqdt * rng_bg.standard_normal(3))
            ba = ba + noise.b_accel_bias @ (sqdt * rng_ba.standard_normal(3))
    return samples, gyro_biases, accel_biases


def synthesize_observation(truth_states, world, kind, observer, subject, d,
                           rng, t_ns, dt=None):
    """One noisy observation: y = h(truth) + D eps with seeded eps."""
    clean = Observation(kind, observer, subject, np.zeros(3), t_ns, dt=dt)
    y = models.predict(truth_states, clean, world)
    y = y + np.asarray(d, dtype=float) @ rng.standard_normal(3)
    return Observation(kind, observer, subject, y, t_ns, dt=dt)


class SyntheticSource:
    """Truth and IMU for one vehicle, generated from a smooth trajectory."""

    def __init__(self, trajectory, noise, vehicle, seed, gravity=None,
                 gyro_bias0=None, accel_bias0=None, bias_walk=True):
        self.trajectory = trajectory
        self.noise = noise
        self.vehicle = vehicle
        self.seed = seed
        self.gravity = (models.DEFAULT_GRAVITY.copy() if gravity is None
                        else np.asarray(gravity, dtype=float))
        self.gyro_bias0 = gyro_bias0
        self.accel_bias0 = accel_bias0
        self.bias_walk = bias_walk
        self._samples = None

    def prepare(self, n_ticks, dt):
        self.dt = dt
        out = synthesize_imu(self.trajectory, self.noise, self.gravity,
                             n_ticks, dt, self.seed, self.vehicle,
                             self.gyro_bias0, self.accel_bias0, self.bias_walk)
        self._samples, self._gyro_biases, self._accel_biases = out

    def imu_at_tick(self, k):
        return self._samples[k]

    def truth_at_tick(self, k):
        # biases are recorded per IMU sample; the last tick reuses the final one
        j = min(k, len(self._gyro_biases) - 1)
        return self.trajectory.truth_state(k * self.dt, self._gyro_biases[j],
                                           self._accel_biases[j])


# -- message bus ----------------------------------------------------------------

class MessageBus:
    """Counts every delivered message and, if recording, keeps its
    canonical encoding.

    Recording holds the full payload of every message in memory, which adds
    up quickly on long many-vehicle runs; switch it off when the log is not
    needed.
    """

    def __init__(self, record=True):
        self.records = []
        self.delivered = 0
        self.record = record

    def deliver(self, tick, msg):
        self.delivered += 1
        if self.record:
            body = encode_message(msg)
            body["tick"] = tick
            self.records.append(body)
        return msg


# -- metrics ---------------------------------------------------------------------

def metrics_row(t, vehicle, est, truth):
    return MetricsRow(
        t=t, vehicle=vehicle,
        pos_err=float(np.linalg.norm(est.pos - truth.pos)),
        rot_err=float(rotation_error_angle(est.rot, truth.rot)),
        vel_err=float(np.linalg.norm(est.vel - truth.vel)),
        gyro_bias_err=float(np.linalg.norm(est.gyro_bias - truth.gyro_bias)),
        accel_bias_err=float(np.linalg.norm(est.accel_bias - truth.accel_bias)))


def summarize_metrics(rows, steady_after_s=10.0):
    """Whole-run and steady-state means, network-averaged.

    Returns a list of (quantity, unit, whole-run mean, post-transient mean)
    in the order of the five summary quantities.
    """
    out = []
    steady = [r for r in rows if r.t >= steady_after_s]
    for name, unit, attr in SUMMARY_QUANTITIES:
        whole = float(np.mean([getattr(r, attr) for r in rows]))
        post = (float(np.mean([getattr(r, attr) for r in steady]))
                if steady else float("nan"))
        out.append((name, unit, whole, post))
    return out


# -- the scheduler ----------------------------------------------------------------

@dataclass
class RunResult:
    rows: list
    summary: list
    bus_records: list
    estimates: list          # final per-vehicle VehicleState list
    update_count: int


def _observation_ticks(rate_hz, imu_rate_hz, n_ticks):
    """Epoch ticks for a channel, rounded up to the IMU grid."""
    if rate_hz <= 0.0:
        return []
    period_ticks = imu_rate_hz / rate_hz
    ticks = []
    j = 1
    while True:
        tick = int(math.ceil(j * period_ticks - 1e-9))
        if tick > n_ticks:
            return ticks
        ticks.append(tick)
        j += 1


def _perturbed_prior(truth, prior, rng):
    """Initial estimate: perturbed truth pose, zero velocity, zero biases."""
    dpos = rng.standard_normal(3)
    dpos = prior.pos_offset_m * dpos / np.linalg.norm(dpos)
    axis = rng.standard_normal(3)
    axis = axis / np.linalg.norm(axis)
    drot = so3_exp(prior.rot_offset_rad * axis)
    return make_state(truth.rot @ drot, truth.pos + dpos, np.zeros(3))


def _distributed_update(nodes, obs, tick, bus):
    factors = [bus.deliver(tick, nd.emit_propagation_factor()) for nd in nodes]
    for nd in nodes:
        for msg in factors:
            if msg.sender != nd.id:
                nd.absorb_propagation_factor(factors[nd.id], msg)
    reply = None
    if obs.kind == models.INTERVEHICLE:
        bus.deliver(tick, distributed.PeerStateRequest(obs.observer, obs.subject))
        reply = bus.deliver(tick, nodes[obs.subject].peer_state_reply())
    bc = bus.deliver(tick, nodes[obs.observer].originate_update(obs, reply))
    for nd in nodes:
        nd.apply_update(bc)


def run_schedule(config, mode, sources, world, noise, prior=None,
                 with_curvature=False, record_bus=True):
    """Run one experiment and return its metrics, summary and bus log.

    Events execute in (tick, channel, observer, subject) lexicographic
    order; observation timestamps land on the IMU grid by construction.

    The second-order gain correction (with_curvature, joint mode only) is
    opt-in: it amplifies through the inverse gain and destabilises runs
    whose gain spectrum gets small, so the robust default leaves it off.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    prior = prior or PriorConfig()
    n = len(sources)
    dt = 1.0 / config.imu_rate_hz
    dt_ns = int(round(1e9 * dt))
    n_ticks = int(round(config.duration_s * config.imu_rate_hz))
    for src in sources:
        src.prepare(n_ticks, dt)

    # observation events per tick, sorted (channel, observer, subject) within
    # the tick; the landmark channel sorts first so that absolute fixes land
    # before the relative inter-vehicle updates of the same epoch
    channel_order = {models.LANDMARK: 0, models.INTERVEHICLE: 1}
    events = {}
    landmark_ids = sorted(world.landmarks)
    for tick in _observation_ticks(config.landmark_rate_hz,
                                   config.imu_rate_hz, n_ticks):
        for v in range(n):
            for lm in landmark_ids:
                events.setdefault(tick, []).append((models.LANDMARK, v, lm))
    if mode != MODE_NONE:
        for tick in _observation_ticks(config.intervehicle_rate_hz,
                                       config.imu_rate_hz, n_ticks):
            for a in range(n):
                for b in range(n):
                    if a != b:
                        events.setdefault(tick, []).append(
                            (models.INTERVEHICLE, a, b))
    for tick in events:
        events[tick].sort(key=lambda ev: (channel_order[ev[0]], ev[1], ev[2]))

    obs_rngs, drop_rngs = {}, {}
    for tick, evs in events.items():
        for kind, a, b in evs:
            if (kind, a, b) not in obs_rngs:
                ch = _CH_LANDMARK if kind == models.LANDMARK else _CH_INTERVEHICLE
                dch = (_CH_DROP_LANDMARK if kind == models.LANDMARK
                       else _CH_DROP_INTERVEHICLE)
                obs_rngs[(kind, a, b)] = channel_rng(config.seed, ch, a, b)
                drop_rngs[(kind, a, b)] = channel_rng(config.seed, dch, a, b)

    truths0 = [src.truth_at_tick(0) for src in sources]
    est0 = [_perturbed_prior(truths0[v], prior,
                             channel_rng(config.seed, _CH_PRIOR, v, 0))
            for v in range(n)]
    k0_block = prior.k0_block()

    bus = MessageBus(record=record_bus)
    if mode == MODE_CENTRAL:
        flt = JointFilter(est0, block_diag_prior([k0_block] * n), world, noise)
    elif mode == MODE_DISTRIBUTED:
        k0 = block_diag_prior([k0_block] * n)
        nodes = [VehicleNode(v, n, est0[v],
                             k0[:, v * STATE_DOF:(v + 1) * STATE_DOF],
                             world, noise) for v in range(n)]
    else:
        filters = [JointFilter([est0[v]], k0_block.copy(), world, noise)
                   for v in range(n)]

    def current_estimates():
        if mode == MODE_CENTRAL:
            return flt.estimate()
        if mode == MODE_DISTRIBUTED:
            return [nd.state for nd in nodes]
        return [f.estimate()[0] for f in filters]

    rows = [metrics_row(0.0, v, est0[v], truths0[v]) for v in range(n)]
    update_count = 0
    dropout = {models.LANDMARK: config.dropout_landmark,
               models.INTERVEHICLE: config.dropout_intervehicle}

    for tick in range(1, n_ticks + 1):
        imu = [src.imu_at_tick(tick - 1) for src in sources]
        if mode == MODE_CENTRAL:
            flt.propagate(imu, dt)
        elif mode == MODE_DISTRIBUTED:
            for v, nd in enumerate(nodes):
                nd.propagate_local(imu[v], dt)
        else:
            for v, f in enumerate(filters):
                f.propagate([imu[v]], dt)

        truths = [src.truth_at_tick(tick) for src in sources]
        for kind, a, b in events.get(tick, ()):
            p = dropout[kind]
            if p > 0.0 and drop_rngs[(kind, a, b)].random() < p:
                continue
            d = noise.d_matrix(kind)
            obs = synthesize_observation(truths, world, kind, a, b, d,
                                         obs_rngs[(kind, a, b)],
                                         tick * dt_ns)
            if mode == MODE_CENTRAL:
                flt.update(obs, with_curvature=with_curvature)
            elif mode == MODE_DISTRIBUTED:
                _distributed_update(nodes, obs, tick, bus)
            else:
                local = Observation(kind, 0, b, obs.y, obs.t_ns)
                filters[a].update(local, with_curvature=with_curvature)
            update_count += 1

        t = tick * dt
        for v, est in enumerate(current_estimates()):
            rows.append(metrics_row(t, v, est, truths[v]))

    return RunResult(rows=rows, summary=summarize_metrics(rows),
                     bus_records=bus.records, estimates=current_estimates(),
                     update_count=update_count)

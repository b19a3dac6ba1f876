"""Deterministic multi-rate simulation harness.

Provides smooth synthetic trajectories with closed-form IMU signals, seeded
IMU/measurement synthesis, the tick-based event scheduler that drives the
three filter modes (independent, centralised, decentralised), a logging
message bus, and the error-metric computation.

Truth is computed once per source, for every tick, when the source is
prepared; the scheduler records each tick's estimates and scores all of
them against that truth in one stacked call after the last tick.
"""

import logging
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import distributed, models
from .distributed import VehicleNode
from .joint import JointFilter, block_diag_prior
from .kernels import skew, so3_exp
from .lie import STATE_DOF, VehicleState, make_state, rotation_error_angle
from .models import ImuSample, ImuStream, Observation

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

_STATE_FIELDS = tuple(f.name for f in fields(VehicleState))

SUMMARY_QUANTITIES = (
    ("Position", "m", "pos_err"),
    ("Rotation", "rad", "rot_err"),
    ("Linear Velocity", "m/s", "vel_err"),
    ("IMU Gyro Bias", "rad/s", "gyro_bias_err"),
    ("IMU Accel. Bias", "m/s^2", "accel_bias_err"),
)

# one scored (tick, vehicle) pair: its time, the vehicle and the five errors
METRICS_DTYPE = np.dtype([("t", float), ("vehicle", np.int64)]
                         + [(attr, float) for _, _, attr in SUMMARY_QUANTITIES])


def finite_real(value):
    """Whether value is a finite real number; a boolean is not one."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


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
        for f in fields(self):
            value = getattr(self, f.name)
            kind, what = ((numbers.Integral, "integer") if f.name == "seed"
                          else (numbers.Real, "finite number"))
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not 0.0 <= value < math.inf):
                raise ValueError(f"{f.name} must be a non-negative {what}, "
                                 f"got {value!r}")
        if self.imu_rate_hz <= 0.0:
            raise ValueError("IMU rate must be positive")
        for name in ("landmark_rate_hz", "intervehicle_rate_hz"):
            if getattr(self, name) > self.imu_rate_hz:
                raise ValueError(f"{name} must not exceed the IMU rate")
        for name in ("dropout_landmark", "dropout_intervehicle"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} must not exceed 1")
        if self.n_ticks < 1:
            raise ValueError(f"duration_s {self.duration_s:g} spans no IMU "
                             f"tick at {self.imu_rate_hz:g} Hz")

    @property
    def n_ticks(self):
        """IMU ticks of the run: its duration rounded to the IMU grid."""
        return int(round(self.duration_s * self.imu_rate_hz))


@dataclass
class PriorConfig:
    """Initial estimate perturbation and prior gain.

    k0_diag is a scalar or a 15-vector over the tangent slots (rotation,
    position, velocity, gyro bias, accel bias).  The default reflects the
    usual initial knowledge: approximate pose, uncertain velocity, and biases
    assumed near zero.  Large bias or velocity entries let the first few
    updates kick those estimates hard enough to destabilise the filter,
    especially once tightly-weighted inter-vehicle updates couple position
    and velocity gains across vehicles.  The offsets must be non-negative
    and k0_diag positive, all finite numbers (a boolean is not one):
    construction checks the offsets and k0_block checks k0_diag, each
    raising a ValueError that names the field.
    """

    pos_offset_m: float = 0.1
    rot_offset_rad: float = 0.1
    k0_diag: object = (0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1,
                       0.01, 0.01, 0.01, 0.01, 0.01, 0.01)

    def __post_init__(self):
        for name in ("pos_offset_m", "rot_offset_rad"):
            value = getattr(self, name)
            if not (finite_real(value) and value >= 0.0):
                raise ValueError(f"{name} must be a non-negative finite "
                                 f"number, got {value!r}")

    def k0_block(self):
        diag = np.asarray(self.k0_diag, dtype=object)
        if diag.ndim == 0:
            diag = np.full(STATE_DOF, diag.item(), dtype=object)
        if diag.shape != (STATE_DOF,) or not all(
                finite_real(d) and d > 0.0 for d in diag):
            raise ValueError("k0_diag must be a positive scalar or 15-vector")
        return np.diag(diag.astype(float))


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

    # position, velocity and acceleration take a time or an array of times;
    # an array of shape s gives results of shape s + (3,)

    def _arg(self, t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return 2.0 * np.pi * self.pos_freq_hz * t + self.pos_phase

    def position(self, t):
        return self.pos_offset + np.sum(self.pos_amp * np.sin(self._arg(t)),
                                        axis=-1)

    def velocity(self, t):
        w = 2.0 * np.pi * self.pos_freq_hz
        return np.sum(self.pos_amp * w * np.cos(self._arg(t)), axis=-1)

    def acceleration(self, t):
        w = 2.0 * np.pi * self.pos_freq_hz
        return -np.sum(self.pos_amp * w * w * np.sin(self._arg(t)), axis=-1)

    def _angle(self, t):
        return self.rot_amp * np.sin(2.0 * np.pi * self.rot_freq_hz * t
                                     + self.rot_phase)

    def _angle_rate(self, t):
        w = 2.0 * np.pi * self.rot_freq_hz
        return self.rot_amp * w * np.cos(w * t + self.rot_phase)

    def rotation(self, t):
        """Attitude at time t; an array of times gives a stack of them."""
        return so3_exp(self._angle(t)[..., None] * self.rot_axis)

    def angular_velocity_body(self, t):
        # rotation about a fixed axis: the body rate equals the inertial rate
        return np.asarray(self._angle_rate(t))[..., None] * self.rot_axis

    def truth_state(self, t, gyro_bias=None, accel_bias=None):
        return make_state(self.rotation(t), self.position(t), self.velocity(t),
                          gyro_bias, accel_bias)


# -- sensor synthesis -----------------------------------------------------------

def synthesize_imu(trajectory, noise, gravity, n_ticks, dt, seed, vehicle,
                   gyro_bias0=None, accel_bias0=None, bias_walk=True):
    """Seeded IMU stream plus the true bias trajectories it embeds.

    Returns (stream, gyro_biases, accel_biases): an ImuStream stamped
    k·dt in ns, and (n_ticks, 3) bias arrays with one row per tick;
    biases follow a random walk with sqrt(dt)-scaled increments, or stay
    constant when bias_walk is False.  Each channel draws its noise for
    all ticks in one call, the same draws a tick-by-tick loop would make.
    """
    sqdt = math.sqrt(dt)
    dt_ns = int(round(1e9 * dt))

    def draws(channel):
        rng = channel_rng(seed, channel, vehicle, 0)
        return rng.standard_normal((n_ticks, 3))

    def walk(bias0, channel, scale):
        steps = np.zeros((n_ticks, 3))
        steps[:1] = 0.0 if bias0 is None else np.asarray(bias0, float)
        if bias_walk:
            # the last tick's step would only move the bias after the run
            steps[1:] = (sqdt * draws(channel)[:-1]) @ scale.T
        # summed left to right from bias0, as a loop adds step by step
        return np.cumsum(steps, axis=0)

    bg = walk(gyro_bias0, _CH_GYRO_WALK, noise.b_gyro_bias)
    ba = walk(accel_bias0, _CH_ACCEL_WALK, noise.b_accel_bias)
    times = dt * np.arange(n_ticks)
    rots = trajectory.rotation(times)
    specific = (trajectory.acceleration(times) + gravity)[..., None]
    u_w = (trajectory.angular_velocity_body(times) + bg
           + draws(_CH_GYRO) @ noise.b_gyro.T)
    u_a = ((rots.swapaxes(-1, -2) @ specific)[..., 0] + ba
           + draws(_CH_ACCEL) @ noise.b_accel.T)
    stamps = dt_ns * np.arange(n_ticks, dtype=np.int64)
    return ImuStream(stamps, u_w, u_a), bg, ba


def synthesize_observation(truth_states, world, kind, observer, subject, d,
                           rng, t_ns):
    """One noisy observation: y = h(truth) + D eps with seeded eps."""
    y = models.predict(truth_states, kind, observer, subject, world)
    y = y + np.asarray(d, dtype=float) @ rng.standard_normal(3)
    return Observation(kind, observer, subject, y, t_ns)


class SyntheticSource:
    """Truth and IMU for one vehicle, generated from a smooth trajectory.

    ``prepare`` synthesises the IMU stream ``imu``, one sample per tick,
    and the truth of ticks 0..n_ticks; ``truth`` is that truth as one state
    stacked over ticks, and ``truth_at_tick(k)`` is its entry k, as views.
    ``imu_at_tick(k)`` is sample k of ``imu``, also as views.
    """

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
        self.imu = None
        self.truth = None

    def prepare(self, n_ticks, dt):
        self.imu, gyro_biases, accel_biases = synthesize_imu(
            self.trajectory, self.noise, self.gravity, n_ticks, dt, self.seed,
            self.vehicle, self.gyro_bias0, self.accel_bias0, self.bias_walk)
        # biases are recorded per IMU sample; the last tick reuses the last
        t = dt * np.arange(n_ticks + 1)
        traj = self.trajectory
        self.truth = VehicleState(
            traj.rotation(t), traj.position(t), traj.velocity(t),
            np.concatenate([gyro_biases, gyro_biases[-1:]]),
            np.concatenate([accel_biases, accel_biases[-1:]]))

    def imu_at_tick(self, k):
        return self.imu[k]

    def truth_at_tick(self, k):
        return self.truth[k]


# -- message bus ----------------------------------------------------------------

class MessageBus:
    """Keeps every delivered message, with its tick, if recording.

    A record is the (tick, message) pair as delivered: nothing is encoded
    on the epoch tick.  The bus-log line of a record, wire version 4 with
    every array as base64 of its float64 bytes, is rendered once, by
    distributed.encode_message, when the log is written (cli.write_bus_log).
    That is sound because no message array is written in place after
    delivery: a factor views a factor stack that the nodes only rebind, a
    reply views state arrays that each step replaces, and the reply's
    column slots, the residual and the gain correction are fresh arrays.
    Recording keeps those arrays alive for the whole run; switch it off
    when the log is not needed.
    """

    def __init__(self, record=True):
        self.records = []
        self.record = record

    def deliver(self, tick, msg):
        if self.record:
            self.records.append((tick, msg))
        return msg


# -- metrics ---------------------------------------------------------------------

def metrics_row(t, vehicle, est, truth):
    """The five estimation errors of est against truth, as a record array
    of METRICS_DTYPE.

    Both states may be stacked over the same leading axes; the record
    array then has those axes, with t and vehicle broadcast against them.
    """
    def dist(a, b):
        # a (1x3)(3x1) product per entry rounds as the dot product that
        # np.linalg.norm takes of a single vector
        d = (a - b)[..., None]
        return np.sqrt((d.swapaxes(-1, -2) @ d)[..., 0, 0])

    return np.rec.fromarrays(np.broadcast_arrays(
        t, vehicle,
        dist(est.pos, truth.pos),
        rotation_error_angle(est.rot, truth.rot),
        dist(est.vel, truth.vel),
        dist(est.gyro_bias, truth.gyro_bias),
        dist(est.accel_bias, truth.accel_bias)), dtype=METRICS_DTYPE)


def _store(stack, index, state):
    """Write state into entry `index` of a stacked state."""
    for name in _STATE_FIELDS:
        getattr(stack, name)[index] = getattr(state, name)


def _metrics_rows(est, sources, dt):
    """One record per (tick, vehicle), tick-major: the estimates stacked
    over (tick, vehicle) against the sources' truth, in one metrics_row
    call."""
    truth = VehicleState(*(np.stack([getattr(src.truth, name)
                                     for src in sources], axis=1)
                           for name in _STATE_FIELDS))
    n_t, n = est.pos.shape[:2]
    return metrics_row(dt * np.arange(n_t)[:, None], np.arange(n), est,
                       truth).ravel()


def summarize_metrics(rows, steady_after_s=10.0):
    """Whole-run and steady-state means, network-averaged, of a record
    array of METRICS_DTYPE.

    Returns a list of (quantity, unit, whole-run mean, post-transient mean)
    in the order of the five summary quantities; the post-transient mean
    is nan when no record has t >= steady_after_s.
    """
    steady = rows["t"] >= steady_after_s
    any_steady = bool(steady.any())
    out = []
    for name, unit, attr in SUMMARY_QUANTITIES:
        col = rows[attr]
        post = float(np.mean(col[steady])) if any_steady else float("nan")
        out.append((name, unit, float(np.mean(col)), post))
    return out


# -- the scheduler ----------------------------------------------------------------

@dataclass
class RunResult:
    """One run's outputs.  ``bus_records`` holds a (tick, message) pair per
    delivered message, in delivery order (empty unless `distributed`
    records its bus); cli.write_bus_log renders them as bus.log, one wire
    v4 line each, and decoding a line gives its message back bit for
    bit."""

    rows: np.recarray        # METRICS_DTYPE, one record per (tick, vehicle)
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
    """One observation through the network: every node's factor, each
    absorbed by the others, the target's reply to an inter-vehicle
    observer, and the observer's broadcast, applied by every node."""
    for msg in nodes.emit_propagation_factors():
        nodes.absorb_propagation_factor(bus.deliver(tick, msg))
    reply = None
    if obs.kind == models.INTERVEHICLE:
        bus.deliver(tick, distributed.PeerStateRequest(obs.observer, obs.subject))
        reply = bus.deliver(tick, nodes.peer_state_reply(obs.subject))
    nodes.apply_update(bus.deliver(tick, nodes.originate_update(obs, reply)))


def run_schedule(config, mode, sources, world, noise, prior=None,
                 record_bus=True):
    """Run one experiment and return its metrics, summary and bus log.

    Events execute in (tick, channel, observer, subject) lexicographic
    order; observation timestamps land on the IMU grid by construction.

    Each tick pulls vehicle 0's IMU sample first (a benchmark stamps its
    tick clock there).  In `none` and `central` that pull only gives the
    tick's stamp: the first n_ticks rows of every source's ``imu`` stream
    are stacked once into (n_ticks, n, 3) gyro and accel arrays, and each
    tick hands the joint filter one ImuSample of its (n, 3) rows.  In
    `distributed` each node pulls its own sample with ``imu_at_tick``.
    Sources are prepared once; truth_at_tick is read at tick 0 and on
    observation ticks, and after the last tick every recorded estimate is
    scored against the sources' stacked ``truth`` into ``rows``, a record
    array of METRICS_DTYPE with one record per (tick, vehicle), tick-major.

    In `none` and `central` each epoch tick hands the joint filter its
    observations, after dropout, in one JointFilter.update call, in event
    order; in `distributed` every observation runs its own exchange.

    `none` is the JointFilter of `central` without the inter-vehicle
    channel: its cross blocks stay exactly zero, so its vehicles evolve as
    n isolated filters, it holds its gain as the (n, 15, 15) diagonal
    blocks only, keeps no propagation factor and never exponentiates, its
    landmark updates go in one round per landmark rank (each vehicle's
    d-th observation in round d) on those blocks, and a lost definiteness
    warns once per epoch.  `central` holds the same blocks until its first
    applied inter-vehicle update builds the dense gain and starts its
    factors, so only the landmark updates before it go in rounds.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    prior = prior or PriorConfig()
    n = len(sources)
    dt = 1.0 / config.imu_rate_hz
    dt_ns = int(round(1e9 * dt))
    n_ticks = config.n_ticks
    for src in sources:
        src.prepare(n_ticks, dt)

    # observation events per tick in (channel, observer, subject) order, as
    # the loops emit them: the landmark channel comes first so that absolute
    # fixes land before the relative inter-vehicle updates of the same epoch,
    # and vehicles and landmark ids ascend within a channel
    channels = [(models.LANDMARK, config.landmark_rate_hz, _CH_LANDMARK,
                 _CH_DROP_LANDMARK,
                 [(v, lm) for v in range(n) for lm in sorted(world.landmarks)])]
    if mode != MODE_NONE:
        channels.append((models.INTERVEHICLE, config.intervehicle_rate_hz,
                         _CH_INTERVEHICLE, _CH_DROP_INTERVEHICLE,
                         [(a, b) for a in range(n) for b in range(n)
                          if a != b]))
    events, obs_rngs, drop_rngs = {}, {}, {}
    for kind, rate, ch, dch, pairs in channels:
        for a, b in pairs:
            obs_rngs[(kind, a, b)] = channel_rng(config.seed, ch, a, b)
            drop_rngs[(kind, a, b)] = channel_rng(config.seed, dch, a, b)
        for tick in _observation_ticks(rate, config.imu_rate_hz, n_ticks):
            events.setdefault(tick, []).extend((kind, a, b) for a, b in pairs)

    truths0 = [src.truth_at_tick(0) for src in sources]
    est0 = [_perturbed_prior(truths0[v], prior,
                             channel_rng(config.seed, _CH_PRIOR, v, 0))
            for v in range(n)]
    k0 = block_diag_prior([prior.k0_block()] * n)

    bus = MessageBus(record=record_bus)
    if mode == MODE_DISTRIBUTED:
        # node v starts from column v of the joint prior
        flt = VehicleNode(est0, k0.reshape(n * STATE_DOF, n, STATE_DOF)
                          .swapaxes(0, 1), world, noise)
    else:
        flt = JointFilter(est0, k0, world, noise)
        # every tick's (n, 3) rows, read from the streams once
        gyro = np.stack([src.imu.gyro[:n_ticks] for src in sources], axis=1)
        accel = np.stack([src.imu.accel[:n_ticks] for src in sources], axis=1)

    # every tick's estimates, stacked over (tick, vehicle), scored at the end
    est = VehicleState(np.empty((n_ticks + 1, n, 3, 3)),
                       *(np.empty((n_ticks + 1, n, 3)) for _ in range(4)))

    _store(est, 0, flt.state)
    update_count = 0
    dropout = {models.LANDMARK: config.dropout_landmark,
               models.INTERVEHICLE: config.dropout_intervehicle}

    for tick in range(1, n_ticks + 1):
        if mode == MODE_DISTRIBUTED:
            for v, src in enumerate(sources):
                flt.propagate_local(v, src.imu_at_tick(tick - 1), dt)
        else:
            t_ns = sources[0].imu_at_tick(tick - 1).t_ns
            flt.propagate(ImuSample(gyro[tick - 1], accel[tick - 1], t_ns), dt)

        evs = events.get(tick, ())
        if evs:
            truths = [src.truth_at_tick(tick) for src in sources]
        batch = []
        for kind, a, b in evs:
            p = dropout[kind]
            if p > 0.0 and drop_rngs[(kind, a, b)].random() < p:
                continue
            d = noise.d_matrix(kind)
            obs = synthesize_observation(truths, world, kind, a, b, d,
                                         obs_rngs[(kind, a, b)],
                                         tick * dt_ns)
            if mode == MODE_DISTRIBUTED:
                _distributed_update(flt, obs, tick, bus)
            else:
                batch.append(obs)
            update_count += 1
        if batch:
            flt.update(*batch)

        _store(est, tick, flt.state)

    rows = _metrics_rows(est, sources, dt)
    finals = flt.estimate()
    return RunResult(rows=rows, summary=summarize_metrics(rows),
                     bus_records=bus.records, estimates=finals,
                     update_count=update_count)

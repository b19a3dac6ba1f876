"""Dataset ingestion and experiment configuration.

CSV loaders for IMU and ground-truth streams in the common MAV-dataset
layout, truth interpolation onto the IMU tick grid (linear for vectors,
spherical-linear for rotation), multi-trial alignment, and the JSON
experiment configuration that assembles a full run for the CLI.
"""

import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from . import models
from .harness import (MODES, PriorConfig, ScheduleConfig, SinusoidTrajectory,
                      SyntheticSource)
from .lie import VehicleState

log = logging.getLogger(__name__)

QUAT_NORM_TOL = 1e-3


class ConfigError(ValueError):
    """Invalid experiment configuration or CLI arguments."""


class DataError(ValueError):
    """Malformed or inconsistent input data."""


# -- CSV loaders ---------------------------------------------------------------

@dataclass(frozen=True)
class TruthSample:
    t_ns: int
    pos: np.ndarray
    quat: np.ndarray        # (w, x, y, z), unit norm, body-to-world
    vel: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray


def _read_rows(path, n_min, n_max, what):
    """Parse a headered CSV of an integer nanosecond stamp and floats,
    reporting errors with line numbers.

    The stamp is parsed exactly: a float holds integers only up to 2^53,
    and recorded stamps (about 1.4e18 ns) lie far above that.
    """
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        log.warning("%s: empty %s file", path, what)
        return rows
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if not n_min <= len(parts) <= n_max:
            raise DataError(f"{path}:{lineno}: expected {n_min}"
                            + (f"-{n_max}" if n_max != n_min else "")
                            + f" fields, got {len(parts)}")
        try:
            rows.append([int(parts[0])] + [float(p) for p in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return rows


def _check_monotone(path, stamps):
    for i in range(1, len(stamps)):
        if stamps[i] <= stamps[i - 1]:
            raise DataError(f"{path}: timestamps must be strictly increasing "
                            f"(sample {i}: {stamps[i]} after {stamps[i - 1]})")


def load_imu_csv(path):
    """IMU stream from rows `timestamp_ns,wx,wy,wz,ax,ay,az`."""
    rows = _read_rows(path, 7, 7, "IMU")
    stamps = [r[0] for r in rows]
    _check_monotone(path, stamps)
    return [models.ImuSample(np.array(r[1:4]), np.array(r[4:7]), t)
            for r, t in zip(rows, stamps)]


def load_truth_csv(path):
    """Truth stream from `timestamp_ns,p,q(wxyz),v[,gyro bias,accel bias]`.

    Quaternions within 1e-3 of unit norm are normalised silently; anything
    further off is a data error.
    """
    rows = _read_rows(path, 11, 17, "truth")
    stamps = [r[0] for r in rows]
    _check_monotone(path, stamps)
    out = []
    for i, (r, t) in enumerate(zip(rows, stamps)):
        q = np.array(r[4:8])
        norm = np.linalg.norm(q)
        if abs(norm - 1.0) > QUAT_NORM_TOL:
            raise DataError(f"{path}: row {i + 2}: quaternion norm {norm:.4f} "
                            f"is not within {QUAT_NORM_TOL} of 1")
        bg = np.array(r[11:14]) if len(r) >= 14 else np.zeros(3)
        ba = np.array(r[14:17]) if len(r) >= 17 else np.zeros(3)
        out.append(TruthSample(t, np.array(r[1:4]), q / norm,
                               np.array(r[8:11]), bg, ba))
    return out


# -- interpolation and alignment -------------------------------------------------

class TruthTrack:
    """Truth samples with interpolation onto arbitrary query times.

    Position, velocity and biases interpolate linearly; rotation follows the
    spherical-linear path between the bracketing quaternions.
    """

    def __init__(self, samples):
        if not samples:
            raise DataError("truth stream is empty")
        self.t_ns = np.array([s.t_ns for s in samples], dtype=np.int64)
        self._pos = np.array([s.pos for s in samples])
        self._vel = np.array([s.vel for s in samples])
        self._bg = np.array([s.gyro_bias for s in samples])
        self._ba = np.array([s.accel_bias for s in samples])
        # scipy uses scalar-last quaternions
        quats = np.array([s.quat for s in samples])[:, [1, 2, 3, 0]]
        self._rots = Rotation.from_quat(quats)
        self._slerp = (Slerp(self.t_ns.astype(float), self._rots)
                       if len(samples) > 1 else None)

    def state_at(self, t_ns):
        """Interpolated truth at one stamp, or stacked over an array of them.

        The rotation takes one Slerp call and every vector entry one
        np.interp call, whatever the number of stamps.
        """
        t_ns = np.asarray(t_ns)
        outside = (t_ns < self.t_ns[0]) | (t_ns > self.t_ns[-1])
        if np.any(outside):
            raise DataError(f"query time {t_ns[outside].flat[0]} ns outside "
                            f"truth span [{self.t_ns[0]}, {self.t_ns[-1]}]")
        t = t_ns.astype(float)
        if self._slerp is None:
            rot = np.broadcast_to(self._rots.as_matrix()[0], t.shape + (3, 3))
        else:
            rot = self._slerp(t.ravel()).as_matrix().reshape(t.shape + (3, 3))
        stamps = self.t_ns.astype(float)

        def lerp(arr):
            return np.stack([np.interp(t, stamps, arr[:, i])
                             for i in range(arr.shape[1])], axis=-1)

        return VehicleState(rot, lerp(self._pos), lerp(self._vel),
                            lerp(self._bg), lerp(self._ba))


def align_trials(trials):
    """Clip several (imu, truth) trials to their common time window.

    Streams are aligned at the latest common start and truncated to the
    earliest end, so every vehicle covers the same span; each trial's truth
    must cover its clipped IMU range.
    """
    if not trials:
        raise DataError("no trials to align")
    start = max(t[0][0].t_ns for t in trials)
    end = min(t[0][-1].t_ns for t in trials)
    if end <= start:
        raise DataError("trials share no common time window")
    out = []
    n_keep = min(sum(1 for s in imu if start <= s.t_ns <= end)
                 for imu, _ in trials)
    for imu, truth in trials:
        clipped = [s for s in imu if s.t_ns >= start][:n_keep]
        track = TruthTrack(truth)
        if not (track.t_ns[0] <= clipped[0].t_ns
                and track.t_ns[-1] >= clipped[-1].t_ns):
            raise DataError("truth stream does not cover the IMU window")
        out.append((clipped, track))
    return out


class DatasetSource:
    """Truth and IMU for one vehicle, read from recorded streams.

    Matches the source interface the scheduler expects: ``prepare`` checks
    the requested grid against the file and interpolates the truth of ticks
    0..n_ticks into ``truth``, one state stacked over ticks;
    ``imu_at_tick`` / ``truth_at_tick`` serve samples rebased to t = 0 at the
    first kept IMU stamp.
    """

    def __init__(self, imu_samples, truth_track, vehicle):
        if not imu_samples:
            raise DataError("IMU stream is empty")
        self.vehicle = vehicle
        self._imu = imu_samples
        self._track = truth_track
        self._t0_ns = imu_samples[0].t_ns
        self.truth = None

    def file_rate_hz(self):
        gaps = np.diff([s.t_ns for s in self._imu])
        return 1e9 / float(np.median(gaps))

    def duration_s(self):
        return (self._imu[-1].t_ns - self._t0_ns) * 1e-9

    def prepare(self, n_ticks, dt):
        rate = self.file_rate_hz()
        if abs(rate * dt - 1.0) > 1e-3:
            raise DataError(f"vehicle {self.vehicle}: file IMU rate "
                            f"{rate:.2f} Hz does not match the configured "
                            f"{1.0 / dt:.2f} Hz")
        if n_ticks > len(self._imu):
            raise DataError(f"vehicle {self.vehicle}: run needs {n_ticks} IMU "
                            f"ticks but the file has {len(self._imu)}")
        self._dt_ns = int(round(1e9 * dt))
        # tick k's truth is at the stamp of IMU sample k, or of the last one
        stamps = np.array([s.t_ns for s in self._imu], dtype=np.int64)
        ticks = np.minimum(np.arange(n_ticks + 1), len(stamps) - 1)
        self.truth = self._track.state_at(stamps[ticks])

    def imu_at_tick(self, k):
        s = self._imu[k]
        return models.ImuSample(s.gyro, s.accel, k * self._dt_ns)

    def truth_at_tick(self, k):
        return self.truth[k]


# -- experiment configuration ------------------------------------------------------

# the seed is the config's top-level one
_SCHEDULE_DEFAULTS = {f.name: f.default for f in fields(ScheduleConfig)
                      if f.name != "seed"}

_NOISE_DEFAULTS = {
    "b_gyro_rad_s": 0.005, "b_accel_mps2": 0.02,
    "b_gyro_bias_rad_s2": 1e-5, "b_accel_bias_mps3": 1e-4,
    "d_landmark_m": 0.05, "d_intervehicle_m": 0.05,
}

_PRIOR_DEFAULTS = {f.name: f.default for f in fields(PriorConfig)}

_SYNTHETIC_DEFAULTS = {
    "type": "synthetic", "trajectory_seed": 0,
    "pos_scale_m": 1.0, "rot_scale_rad": 0.3,
    "gyro_bias0_rad_s": [0.0, 0.0, 0.0],
    "accel_bias0_mps2": [0.0, 0.0, 0.0],
    "bias_walk": True,
}


def _merge(defaults, given, where):
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    out = dict(defaults)
    out.update(given)
    return out


def _vec3(value, where):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ConfigError(f"{where} must be a 3-vector")
    return arr


@dataclass
class ExperimentConfig:
    """A complete run description with every default resolved."""

    mode: str = "central"
    seed: int = 0
    with_curvature: bool = False
    gravity_mps2: list = field(default_factory=lambda: [0.0, 0.0, 9.81])
    schedule: dict = field(default_factory=lambda: dict(_SCHEDULE_DEFAULTS))
    noise: dict = field(default_factory=lambda: dict(_NOISE_DEFAULTS))
    prior: dict = field(default_factory=lambda: dict(_PRIOR_DEFAULTS))
    landmarks_m: list = field(default_factory=list)
    markers_m: list = field(default_factory=list)
    vehicles: list = field(default_factory=list)
    base_dir: str = "."

    def effective(self):
        """JSON-compatible dict reproducing this exact run when reloaded:
        every field but base_dir, as JSON reads it back."""
        body = asdict(self)
        del body["base_dir"]
        return json.loads(json.dumps(body))


def parse_config(body, base_dir="."):
    """Validate a raw config dict and resolve all defaults."""
    if not isinstance(body, dict):
        raise ConfigError("config root must be a JSON object")
    body = _merge(ExperimentConfig().effective(), body, "config")
    if body["mode"] not in MODES:
        raise ConfigError(f"unknown mode {body['mode']!r}")
    _vec3(body["gravity_mps2"], "gravity_mps2")
    cfg = ExperimentConfig(
        mode=body["mode"], seed=int(body["seed"]),
        with_curvature=bool(body["with_curvature"]),
        gravity_mps2=[float(g) for g in body["gravity_mps2"]],
        schedule=_merge(_SCHEDULE_DEFAULTS, body["schedule"], "schedule"),
        noise=_merge(_NOISE_DEFAULTS, body["noise"], "noise"),
        prior=_merge(_PRIOR_DEFAULTS, body["prior"], "prior"),
        landmarks_m=[list(_vec3(lm, "landmarks_m")) for lm in body["landmarks_m"]],
        markers_m=[list(_vec3(m, "markers_m")) for m in body["markers_m"]],
        base_dir=base_dir)

    if not body["vehicles"]:
        raise ConfigError("config needs at least one vehicle")
    for i, veh in enumerate(body["vehicles"]):
        kind = veh.get("type", "synthetic")
        if kind == "synthetic":
            cfg.vehicles.append(_merge(_SYNTHETIC_DEFAULTS, veh,
                                       f"vehicles[{i}]"))
        elif kind == "dataset":
            defaults = {"type": "dataset", "imu_csv": None, "truth_csv": None}
            veh = _merge(defaults, veh, f"vehicles[{i}]")
            for key in ("imu_csv", "truth_csv"):
                if not veh[key]:
                    raise ConfigError(f"vehicles[{i}]: dataset vehicles need "
                                      f"{key}")
                path = os.path.join(base_dir, veh[key])
                if not os.path.exists(path):
                    raise ConfigError(f"vehicles[{i}]: {key} file not found: "
                                      f"{path}")
            cfg.vehicles.append(veh)
        else:
            raise ConfigError(f"vehicles[{i}]: unknown type {kind!r}")

    try:
        build_prior(cfg).k0_block()
    except ValueError as exc:
        raise ConfigError(f"prior.{exc}") from None
    schedule_config(cfg)
    for key, value in cfg.noise.items():
        if float(value) <= 0.0:
            raise ConfigError(f"noise.{key} must be positive")
    return cfg


def schedule_config(cfg, sched=None):
    """The run's ScheduleConfig from cfg's schedule, or from `sched` in its
    place; an invalid schedule, one without an IMU tick included, is a
    ConfigError."""
    try:
        return ScheduleConfig(seed=cfg.seed, **(sched or cfg.schedule))
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from None


def load_config(path):
    try:
        with open(path) as fh:
            body = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(body, base_dir=os.path.dirname(os.path.abspath(path)))


# -- run assembly ------------------------------------------------------------------

def build_noise_model(cfg):
    ns = cfg.noise
    sched = cfg.schedule
    eye = np.eye(3)
    return models.NoiseModel(
        b_gyro=ns["b_gyro_rad_s"] * eye,
        b_accel=ns["b_accel_mps2"] * eye,
        b_gyro_bias=ns["b_gyro_bias_rad_s2"] * eye,
        b_accel_bias=ns["b_accel_bias_mps3"] * eye,
        d_landmark=ns["d_landmark_m"] * eye,
        d_intervehicle=ns["d_intervehicle_m"] * eye,
        dt_imu=1.0 / sched["imu_rate_hz"],
        dt_landmark=(1.0 / sched["landmark_rate_hz"]
                     if sched["landmark_rate_hz"] > 0 else 0.1),
        dt_intervehicle=(1.0 / sched["intervehicle_rate_hz"]
                         if sched["intervehicle_rate_hz"] > 0 else 0.1))


def build_world(cfg):
    markers = {i: np.asarray(m, dtype=float)
               for i, m in enumerate(cfg.markers_m)}
    return models.WorldConfig(
        gravity=np.asarray(cfg.gravity_mps2, dtype=float),
        landmarks={i: np.asarray(lm, dtype=float)
                   for i, lm in enumerate(cfg.landmarks_m)},
        markers=markers)


def build_sources(cfg, noise):
    """Per-vehicle sources; recorded trials are aligned to a common window."""
    sources = [None] * len(cfg.vehicles)
    dataset_idx, trials = [], []
    for v, veh in enumerate(cfg.vehicles):
        if veh["type"] == "synthetic":
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, int(veh["trajectory_seed"]))))
            traj = SinusoidTrajectory.random(
                rng, pos_scale=float(veh["pos_scale_m"]),
                rot_scale=float(veh["rot_scale_rad"]))
            sources[v] = SyntheticSource(
                traj, noise, v, cfg.seed,
                gravity=np.asarray(cfg.gravity_mps2, dtype=float),
                gyro_bias0=_vec3(veh["gyro_bias0_rad_s"], "gyro_bias0_rad_s"),
                accel_bias0=_vec3(veh["accel_bias0_mps2"], "accel_bias0_mps2"),
                bias_walk=bool(veh["bias_walk"]))
        else:
            imu = load_imu_csv(os.path.join(cfg.base_dir, veh["imu_csv"]))
            truth = load_truth_csv(os.path.join(cfg.base_dir, veh["truth_csv"]))
            dataset_idx.append(v)
            trials.append((imu, truth))
    if trials:
        for v, (imu, track) in zip(dataset_idx, align_trials(trials)):
            sources[v] = DatasetSource(imu, track, v)
    return sources


def build_prior(cfg):
    """The run's PriorConfig; k0_diag is checked by PriorConfig.k0_block."""
    return PriorConfig(pos_offset_m=float(cfg.prior["pos_offset_m"]),
                       rot_offset_rad=float(cfg.prior["rot_offset_rad"]),
                       k0_diag=cfg.prior["k0_diag"])


def build_schedule(cfg, sources):
    """Schedule for the run, clipping the duration to recorded data."""
    sched = dict(cfg.schedule)
    recorded = [s for s in sources if isinstance(s, DatasetSource)]
    if recorded:
        available = min(s.duration_s() for s in recorded)
        if sched["duration_s"] > available:
            log.info("duration clipped to %.2f s of recorded data", available)
            sched["duration_s"] = math.floor(
                available * sched["imu_rate_hz"]) / sched["imu_rate_hz"]
    return schedule_config(cfg, sched)

"""Dataset ingestion and experiment configuration.

CSV loaders for IMU and ground-truth streams in the common MAV-dataset
layout, truth interpolation onto the IMU tick grid (linear for vectors,
spherical-linear for rotation), multi-trial alignment, and the JSON
experiment configuration that assembles a full run for the CLI.
"""

import io
import json
import logging
import math
import numbers
import os
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import models
from .harness import (MODES, PriorConfig, ScheduleConfig, SinusoidTrajectory,
                      SyntheticSource, finite_real)
from .lie import VehicleState

log = logging.getLogger(__name__)

QUAT_NORM_TOL = 1e-3


class ConfigError(ValueError):
    """Invalid experiment configuration or CLI arguments."""


class DataError(ValueError):
    """Malformed or inconsistent input data."""


# -- CSV loaders ---------------------------------------------------------------

# ASCII characters numpy's reader reads otherwise than the line-by-line
# parse: str.splitlines breaks lines at \x0b, \x0c and \x1c-\x1e, which
# numpy, breaking lines only at "\n", reads as whitespace in a field; and
# numpy strips \x1c-\x1f from a field as whitespace, which int() and
# float() refuse
_NOT_FOR_C_READER = b"\x0b\x0c\x1c\x1d\x1e\x1f"


def _parse_lines(path, lines, n_min, n_max):
    """Stamps, values and field counts of the data lines of `lines`, as
    _read_table returns them, parsed one line at a time with int() and
    float(); the first line that breaks the row rules (n_min..n_max fields,
    an int64 stamp and float fields) raises a DataError naming it."""
    stamps, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if not n_min <= len(parts) <= n_max:
            raise DataError(f"{path}:{lineno}: expected {n_min}"
                            + (f"-{n_max}" if n_max != n_min else "")
                            + f" fields, got {len(parts)}")
        try:
            stamp = int(parts[0])
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not -2**63 <= stamp < 2**63:
            raise DataError(f"{path}:{lineno}: stamp {stamp} does not fit "
                            f"in int64")
        stamps.append(stamp)
    values = np.zeros((len(rows), n_max - 1))
    for i, row in enumerate(rows):
        values[i, :len(row)] = row
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) + 1
    return np.array(stamps, dtype=np.int64), values, widths


def _load_uniform(path, n_min, n_max):
    """The table as _read_table returns it, read by numpy's C reader, or
    None where that reader may not or does not read it.

    The reader takes ASCII text free of _NOT_FOR_C_READER whose data lines
    all have the n_min..n_max fields of the first non-blank one.  It reads
    the stamps into int64 with numpy's integer parser, which takes no
    fraction, exponent or out-of-range value, and the floats with the
    parser float() uses.  Anything it refuses, a warning included, gives
    None.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or any(c in data for c in _NOT_FOR_C_READER):
        return None
    lines = io.BytesIO(data)
    next(lines, None)
    width = next((line for line in lines if line.strip()), b"").count(b",") + 1
    # the reader reads the file itself: drop this copy before it allocates
    del data, lines
    if not n_min <= width <= n_max:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                               dtype=[("t", np.int64),
                                      ("v", float, (width - 1,))],
                               ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    values = table["v"]
    if width < n_max:
        values = np.zeros((len(table), n_max - 1))
        values[:, :width - 1] = table["v"]
    return (table["t"].copy(), values,
            np.full(len(table), width, dtype=np.int64))


def _read_table(path, n_min, n_max, what):
    """Parse a headered CSV of an integer nanosecond stamp and floats.

    Returns int64 stamps (N,), the other fields as floats (N, n_max - 1)
    with the cells a shorter row lacks left zero, and each row's field
    count (N,).  Blank lines are skipped.  The stamps are parsed exactly:
    a float holds integers only up to 2^53, and recorded stamps (about
    1.4e18 ns) lie far above that.  A table whose data lines all have one
    field count is read in one pass by numpy's C reader (_load_uniform),
    with no Python string per field.  Any other table (mixed field counts,
    whitespace-only lines, non-ASCII text, a header-only or empty file),
    and any the C reader refuses, is parsed line by line with int() and
    float() (_parse_lines), which give the same arrays and name the first
    bad line.
    """
    table = _load_uniform(path, n_min, n_max)
    if table is None:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            log.warning("%s: empty %s file", path, what)
        table = _parse_lines(path, lines, n_min, n_max)
    stamps, values, widths = table
    back = np.flatnonzero(stamps[1:] <= stamps[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise DataError(f"{path}: timestamps must be strictly increasing "
                        f"(sample {i}: {stamps[i]} after {stamps[i - 1]})")
    return stamps, values, widths


def _data_line(path, i):
    """The line number of data row i of a headered CSV, blank lines
    skipped as _read_table skips them; read again only to name a bad row."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [n for n, line in enumerate(lines[1:], start=2)
            if line.strip()][i]


def load_imu_csv(path):
    """IMU stream from rows `timestamp_ns,wx,wy,wz,ax,ay,az`, as an
    ImuStream."""
    stamps, values, _ = _read_table(path, 7, 7, "IMU")
    return models.ImuStream(stamps, values[:, 0:3], values[:, 3:6])


def load_truth_csv(path):
    """Truth stream from `timestamp_ns,p,q(wxyz),v[,gyro bias,accel bias]`,
    as a TruthTrack.

    A row holds 11 to 17 fields; a bias group it lacks, in full or in part,
    reads as zeros.  A non-finite value is a data error naming its line.
    Quaternions within 1e-3 of unit norm are normalised silently; anything
    further off is a data error.
    """
    stamps, values, widths = _read_table(path, 11, 17, "truth")
    values[widths < 14, 10:13] = 0.0
    values[widths < 17, 13:16] = 0.0
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i, j = divmod(int(bad[0]), values.shape[1])
        raise DataError(f"{path}:{_data_line(path, i)}: field {j + 2} is "
                        f"not finite ({values[i, j]})")
    quat = values[:, 3:7]
    norm = np.linalg.norm(quat, axis=1)
    far = np.flatnonzero(np.abs(norm - 1.0) > QUAT_NORM_TOL)
    if far.size:
        i = int(far[0])
        raise DataError(f"{path}:{_data_line(path, i)}: quaternion norm "
                        f"{norm[i]:.4f} is not within {QUAT_NORM_TOL} of 1")
    return TruthTrack(stamps, values[:, 0:3], quat / norm[:, None],
                      values[:, 7:10], values[:, 10:13], values[:, 13:16])


# -- interpolation and alignment -------------------------------------------------

def _quat_to_matrix(q):
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4), (w, x, y,
    z) scalar-first."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


class TruthTrack:
    """Truth samples as arrays, with interpolation onto arbitrary stamps.

    ``t_ns`` holds int64 stamps (N,), ``quat`` unit quaternions (N, 4),
    (w, x, y, z) body-to-world, and ``pos``, ``vel``, ``gyro_bias``,
    ``accel_bias`` (N, 3).  Position, velocity and biases interpolate
    linearly; rotation follows the shortest-arc spherical-linear path
    between the bracketing quaternions.
    """

    def __init__(self, t_ns, pos, quat, vel, gyro_bias, accel_bias):
        self.t_ns = np.asarray(t_ns, dtype=np.int64)
        self.pos = np.asarray(pos, dtype=float)
        self.quat = np.asarray(quat, dtype=float)
        self.vel = np.asarray(vel, dtype=float)
        self.gyro_bias = np.asarray(gyro_bias, dtype=float)
        self.accel_bias = np.asarray(accel_bias, dtype=float)

    def __len__(self):
        return len(self.t_ns)

    def state_at(self, t_ns):
        """Interpolated truth at one stamp, or stacked over an array of them.

        The fraction between the bracketing samples comes from exact int64
        stamp differences, so it is not quantised at recorded stamps.
        """
        t_ns = np.asarray(t_ns, dtype=np.int64)
        stamps = self.t_ns
        outside = (t_ns < stamps[0]) | (t_ns > stamps[-1])
        if np.any(outside):
            raise DataError(f"query time {t_ns[outside].flat[0]} ns outside "
                            f"truth span [{stamps[0]}, {stamps[-1]}]")
        last = len(stamps) - 1
        i = np.clip(np.searchsorted(stamps, t_ns, side="right") - 1, 0,
                    max(last - 1, 0))
        j = np.minimum(i + 1, last)
        # a one-sample track has j == i, a span of 0 and a fraction of 0
        span = np.maximum(stamps[j] - stamps[i], 1)
        a = ((t_ns - stamps[i]) / span)[..., None]

        def lerp(arr):
            return (1.0 - a) * arr[i] + a * arr[j]

        q0, q1 = self.quat[i], self.quat[j]
        q1 = np.where(np.sum(q0 * q1, axis=-1, keepdims=True) < 0.0, -q1, q1)
        # the angle between q0 and q1 as 4-vectors, in units of pi; atan2
        # keeps it accurate when it is small.  The slerp weights
        # sin((1-a)x pi)/sin(x pi) and sin(a x pi)/sin(x pi) are taken
        # without their common divisor, which the normalisation removes.
        x = (2.0 / np.pi) * np.arctan2(
            np.linalg.norm(q1 - q0, axis=-1, keepdims=True),
            np.linalg.norm(q1 + q0, axis=-1, keepdims=True))
        q = (1.0 - a) * np.sinc((1.0 - a) * x) * q0 + a * np.sinc(a * x) * q1
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        return VehicleState(_quat_to_matrix(q), lerp(self.pos),
                            lerp(self.vel), lerp(self.gyro_bias),
                            lerp(self.accel_bias))


def align_trials(trials):
    """Clip several (imu stream, truth track) trials to their common time
    window.

    Streams are aligned at the latest common start and truncated to the
    earliest end, so every vehicle covers the same span; each trial's truth
    must cover its clipped IMU range.
    """
    if not trials:
        raise DataError("no trials to align")
    for imu, track in trials:
        if not len(imu):
            raise DataError("IMU stream is empty")
        if not len(track):
            raise DataError("truth stream is empty")
    start = max(int(imu.t_ns[0]) for imu, _ in trials)
    end = min(int(imu.t_ns[-1]) for imu, _ in trials)
    firsts = [int(np.searchsorted(imu.t_ns, start)) for imu, _ in trials]
    n_keep = min(int(np.searchsorted(imu.t_ns, end, side="right")) - first
                 for (imu, _), first in zip(trials, firsts))
    if end <= start or n_keep <= 0:
        raise DataError("trials share no common time window")
    out = []
    for (imu, track), first in zip(trials, firsts):
        clipped = imu[first:first + n_keep]
        if not (track.t_ns[0] <= clipped.t_ns[0]
                and track.t_ns[-1] >= clipped.t_ns[-1]):
            raise DataError("truth stream does not cover the IMU window")
        out.append((clipped, track))
    return out


class DatasetSource:
    """Truth and IMU for one vehicle, read from recorded streams.

    Matches the source interface the scheduler expects: ``imu`` is the
    recorded ImuStream, sample k serving tick k; ``prepare`` checks the
    requested grid against the file and interpolates the truth of ticks
    0..n_ticks into ``truth``, one state stacked over ticks;
    ``imu_at_tick(k)`` is row k of ``imu`` stamped k IMU periods after
    t = 0 at the first kept IMU stamp, and ``truth_at_tick(k)`` entry k of
    ``truth``, both as views.
    """

    def __init__(self, imu, truth_track, vehicle):
        # a single sample has no period: its median gap would be nan, which
        # passes any check of the file rate against the configured one
        if len(imu) < 2:
            raise DataError(f"vehicle {vehicle}: IMU stream needs two "
                            f"samples to measure its rate, has {len(imu)}")
        self.vehicle = vehicle
        self.imu = imu
        self._track = truth_track
        self._t0_ns = int(imu.t_ns[0])
        self.truth = None

    def file_rate_hz(self):
        gaps = np.diff(self.imu.t_ns)
        return 1e9 / float(np.median(gaps))

    def duration_s(self):
        return (int(self.imu.t_ns[-1]) - self._t0_ns) * 1e-9

    def prepare(self, n_ticks, dt):
        rate = self.file_rate_hz()
        if abs(rate * dt - 1.0) > 1e-3:
            raise DataError(f"vehicle {self.vehicle}: file IMU rate "
                            f"{rate:.2f} Hz does not match the configured "
                            f"{1.0 / dt:.2f} Hz")
        if n_ticks > len(self.imu):
            raise DataError(f"vehicle {self.vehicle}: run needs {n_ticks} IMU "
                            f"ticks but the file has {len(self.imu)}")
        self._dt_ns = int(round(1e9 * dt))
        # tick k's truth is at the stamp of IMU sample k, or of the last one
        stamps = self.imu.t_ns
        ticks = np.minimum(np.arange(n_ticks + 1), len(stamps) - 1)
        self.truth = self._track.state_at(stamps[ticks])

    def imu_at_tick(self, k):
        return models.ImuSample(self.imu.gyro[k], self.imu.accel[k],
                                k * self._dt_ns)

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


def _object(value, where):
    """value, a ConfigError naming `where` unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _list(value, where):
    """value, a ConfigError naming `where` unless it is a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _merge(defaults, given, where):
    unknown = set(_object(given, where)) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    for key, value in given.items():
        if isinstance(defaults[key], bool) and not isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be true or false, "
                              f"got {value!r}")
    out = dict(defaults)
    out.update(given)
    return out


def _vec3(value, where):
    """value as a float 3-vector; a ConfigError unless it holds three
    finite numbers."""
    try:
        ok = len(value) == 3 and all(map(finite_real, value))
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be a 3-vector of numbers, "
                          f"got {value!r}")
    return np.array(value, dtype=float)


def _check_synthetic(veh, where):
    """A synthetic vehicle's trajectory seed, scales and initial biases."""
    seed = veh["trajectory_seed"]
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise ConfigError(f"{where}.trajectory_seed must be a non-negative "
                          f"integer, got {seed!r}")
    for key in ("pos_scale_m", "rot_scale_rad"):
        value = veh[key]
        if not finite_real(value):
            raise ConfigError(f"{where}.{key} must be a finite number, "
                              f"got {value!r}")
    for key in ("gyro_bias0_rad_s", "accel_bias0_mps2"):
        _vec3(veh[key], f"{where}.{key}")


@dataclass
class ExperimentConfig:
    """A complete run description with every default resolved."""

    mode: str = "central"
    seed: int = 0
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
    body = _merge(ExperimentConfig().effective(), body, "config")
    if body["mode"] not in MODES:
        raise ConfigError(f"unknown mode {body['mode']!r}")
    _vec3(body["gravity_mps2"], "gravity_mps2")
    cfg = ExperimentConfig(
        mode=body["mode"], seed=body["seed"],
        gravity_mps2=[float(g) for g in body["gravity_mps2"]],
        schedule=_merge(_SCHEDULE_DEFAULTS, body["schedule"], "schedule"),
        noise=_merge(_NOISE_DEFAULTS, body["noise"], "noise"),
        prior=_merge(_PRIOR_DEFAULTS, body["prior"], "prior"),
        landmarks_m=[list(_vec3(lm, "landmarks_m"))
                     for lm in _list(body["landmarks_m"], "landmarks_m")],
        markers_m=[list(_vec3(m, "markers_m"))
                   for m in _list(body["markers_m"], "markers_m")],
        base_dir=base_dir)

    if not _list(body["vehicles"], "vehicles"):
        raise ConfigError("config needs at least one vehicle")
    for i, veh in enumerate(body["vehicles"]):
        kind = _object(veh, f"vehicles[{i}]").get("type", "synthetic")
        if kind == "synthetic":
            veh = _merge(_SYNTHETIC_DEFAULTS, veh, f"vehicles[{i}]")
            _check_synthetic(veh, f"vehicles[{i}]")
            cfg.vehicles.append(veh)
        elif kind == "dataset":
            defaults = {"type": "dataset", "imu_csv": None, "truth_csv": None}
            veh = _merge(defaults, veh, f"vehicles[{i}]")
            for key in ("imu_csv", "truth_csv"):
                if not veh[key]:
                    raise ConfigError(f"vehicles[{i}]: dataset vehicles need "
                                      f"{key}")
                if not isinstance(veh[key], str):
                    raise ConfigError(f"vehicles[{i}].{key} must be a file "
                                      f"path, got {veh[key]!r}")
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
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"noise.{key} must be a number, got {value!r}")
        if not value > 0.0:
            raise ConfigError(f"noise.{key} must be positive")
        if not math.isfinite(value):
            raise ConfigError(f"noise.{key} must be finite, got {value!r}")
    return cfg


def schedule_config(cfg, sched=None):
    """The run's ScheduleConfig from cfg's schedule, or from `sched` in its
    place, with cfg's seed; an invalid schedule or seed, one without an IMU
    tick included, is a ConfigError."""
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
                bias_walk=veh["bias_walk"])
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
    """The run's PriorConfig, which checks the offsets; k0_diag is checked
    by PriorConfig.k0_block."""
    return PriorConfig(**cfg.prior)


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

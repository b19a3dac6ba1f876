"""One workload in one process: timed repeats, correctness checks, metrics.

Usage: python3 perfbench/child.py --workload W --seed N --seconds S --trace T

`run.py` starts this with the BLAS and OpenMP thread counts pinned to 1 and
passes, in PERFBENCH_T_SPAWN, the perf_counter reading taken just before the
start, so interpreter start-up and imports count towards set-up time.  The
last line of standard output is the result object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402
import clock as clocks  # noqa: E402
import scenario  # noqa: E402
import tracer as tracing  # noqa: E402
import trials  # noqa: E402

MODES = ("none", "central", "distributed")
LABEL = {"none": "isolated", "central": "central",
         "distributed": "distributed"}
BUS_TYPES = ("propagation_factor", "peer_state_request", "peer_state_reply",
             "update_broadcast")
OBS_RATE_HZ = 10.0
# distributed must reproduce central to this tolerance (paper's claim)
AGREE_TOL = 1e-8
CLI_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    n: int
    imu_rate_hz: float
    sim_s: float            # simulated seconds per mode per repeat
    repeat_wall_s: float    # nominal wall time of one repeat, all modes
    trace_sim_s: float      # simulated seconds per mode in a traced repeat
    bus_sim_s: float = 0.0  # library: simulated seconds of the bus pass
    via_cli: bool = False
    benefit_check: bool = False
    trial_s: float = 0.0    # replay: length of each recorded trial


# The number of repeats follows --seconds through the nominal repeat cost
# measured on a 2-core machine, so a run's work is fixed by its arguments.
# Timed runs last one tick past an epoch, so the last epoch tick is followed
# by a stamp and every epoch is measured.
WORKLOADS = {
    "collab-n6": Workload(n=6, imu_rate_hz=200.0, sim_s=1.005,
                          repeat_wall_s=4.4, trace_sim_s=0.5, bus_sim_s=0.3,
                          benefit_check=True),
    "imu1k-n6": Workload(n=6, imu_rate_hz=1000.0, sim_s=0.501,
                         repeat_wall_s=5.8, trace_sim_s=0.2, bus_sim_s=0.2),
    "replay-n3": Workload(n=3, imu_rate_hz=200.0, sim_s=1.005,
                          repeat_wall_s=7.0, trace_sim_s=1.0, via_cli=True,
                          trial_s=30.0),
}


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"{what}: {'; '.join(problems)}")
            print(f"# FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


@dataclass
class ModeRun:
    """One mode's run; times are scaled to the reference speed (clock.py)."""

    mode: str
    sim_s: float
    setup_s: float          # start of the call to the first tick
    ticks: list             # tick durations; the last includes the run's end
    wall_s: float           # unscaled first tick to end, without pauses
    rows: object            # per-tick error rows, (rows, 7) array
    finals: object = None   # final estimates, (n, 21) array
    extra: dict = None

    @property
    def rate(self):
        """Simulated seconds per second at the reference speed."""
        return self.sim_s / sum(self.ticks)

    @property
    def raw_rate(self):
        return self.sim_s / self.wall_s


def timed_run(mode, sim_s, clock, t_start, t_end, rows, finals=None,
              extra=None):
    paused = sum(b - a for a, b in zip(clock.enter, clock.leave))
    return ModeRun(mode, sim_s, (clock.enter[0] - t_start) * clock.scales()[0],
                   clock.ticks(t_end), t_end - clock.enter[0] - paused, rows,
                   finals, dict(extra or {}, paused_s=paused))


def run_modes(run_one, tally, tag):
    """Every mode on identical inputs; returns {mode: ModeRun}."""
    runs = {}
    for mode in MODES:
        try:
            runs[mode] = run_one(mode)
        except Exception:
            traceback.print_exc()
            tally.record(f"{tag} {mode}", ["raised"])
    return runs


def _rows_problems(run):
    problems = []
    if not np.all(np.isfinite(run.rows)):
        problems.append("non-finite error rows")
    if run.finals is not None and not np.all(np.isfinite(run.finals)):
        problems.append("non-finite final estimates")
    return problems


def _agreement_problems(dist, central):
    """distributed must equal central within AGREE_TOL."""
    problems = []
    if dist.rows.shape != central.rows.shape:
        return ["error rows differ in shape from central"]
    diff = float(np.max(np.abs(dist.rows - central.rows)))
    if not diff <= AGREE_TOL:
        problems.append(f"error rows differ from central by {diff:.2e}")
    if dist.finals is not None:
        diff = float(np.max(np.abs(dist.finals - central.finals)))
        if not diff <= AGREE_TOL:
            problems.append(f"final estimates differ from central by "
                            f"{diff:.2e}")
    return problems


def read_bus_log(path):
    """Messages and bytes per type, and the line count, of a bus log."""
    msgs, size = defaultdict(int), defaultdict(int)
    lines = 0
    with open(path, "rb") as fh:
        for line in fh:
            kind = json.loads(line)["type"]
            msgs[kind] += 1
            size[kind] += len(line)
            lines += 1
    return msgs, size, lines


# -- library workloads --------------------------------------------------------

class Library:
    """collab-n6 and imu1k-n6: `harness.run_schedule` on the scenario."""

    def __init__(self, wl, seed, out_dir):
        from meswarm import cli, harness, models
        self.cli, self.harness = cli, harness
        self.wl, self.seed, self.out_dir = wl, seed, out_dir
        self.noise = scenario.scenario_noise(models, wl.imu_rate_hz)
        self.world = scenario.scenario_world(models, wl.n)
        self.tracer = None      # told of the clock's pauses while tracing

    def n_ticks(self, sim_s):
        return int(round(sim_s * self.wl.imu_rate_hz))

    def epoch_ticks(self, sim_s):
        return scenario.observation_ticks(OBS_RATE_HZ, self.wl.imu_rate_hz,
                                          self.n_ticks(sim_s))

    def run(self, mode, sim_s, record_bus=False):
        harness = self.harness
        n_ticks = self.n_ticks(sim_s)
        clock = clocks.TickClock(
            clocks.calibration_pulls(self.epoch_ticks(sim_s), n_ticks),
            on_pause=self.tracer.exclude if self.tracer else None)
        t_call = time.perf_counter()
        sources = scenario.scenario_sources(harness, self.noise, self.wl.n,
                                            self.seed, clock)
        cfg = harness.ScheduleConfig(
            imu_rate_hz=self.wl.imu_rate_hz, landmark_rate_hz=OBS_RATE_HZ,
            intervehicle_rate_hz=OBS_RATE_HZ, duration_s=sim_s,
            seed=self.seed)
        result = harness.run_schedule(cfg, mode, sources, self.world,
                                      self.noise, record_bus=record_bus)
        t_end = time.perf_counter()
        rows = np.array([[r.t, r.vehicle, r.pos_err, r.rot_err, r.vel_err,
                          r.gyro_bias_err, r.accel_bias_err]
                         for r in result.rows])
        finals = np.array([np.concatenate([x.rot.ravel(), x.pos, x.vel,
                                           x.gyro_bias, x.accel_bias])
                           for x in result.estimates])
        return timed_run(mode, sim_s, clock, t_call, t_end, rows, finals,
                         {"bus_records": result.bus_records,
                          "t_call": t_call, "t_end": t_end})

    def repeat(self, sim_s, tally, tag, reference=None):
        """All modes on identical inputs, checked; returns {mode: ModeRun}."""
        runs = run_modes(lambda mode: self.run(mode, sim_s), tally, tag)
        for mode, run in runs.items():
            problems = _rows_problems(run)
            if mode == "distributed" and "central" in runs:
                problems += _agreement_problems(run, runs["central"])
            if (self.wl.benefit_check and mode != "none"
                    and "none" in runs):
                mine = float(np.mean(run.rows[:, 2]))
                alone = float(np.mean(runs["none"].rows[:, 2]))
                if not mine < alone:
                    problems.append(f"mean position error {mine:.4f} m does "
                                    f"not beat isolated {alone:.4f} m")
            if reference and mode in reference and not np.array_equal(
                    run.rows, reference[mode].rows):
                problems.append("error rows differ from the first repeat")
            tally.record(f"{tag} {mode}", problems)
        return runs

    def bus_pass(self, tally, tag):
        """A recorded distributed run; its bus log is written by the CLI
        writer, so bytes are counted as users get them in bus.log."""
        sim_s = self.wl.bus_sim_s
        path = os.path.join(self.out_dir, f"bus-{tag}.log")
        try:
            run = self.run("distributed", sim_s, record_bus=True)
            self.cli.write_bus_log(path, run.extra["bus_records"])
        except Exception:
            traceback.print_exc()
            tally.record(f"{tag} bus pass", ["raised"])
            return None
        return run, path

    def check_bus(self, path, tally, tag):
        msgs, size, lines = read_bus_log(path)
        expected = scenario.expected_messages(
            self.wl.n, scenario.N_LANDMARKS,
            len(self.epoch_ticks(self.wl.bus_sim_s)))
        problems = []
        if lines != expected:
            problems.append(f"bus log has {lines} messages, expected "
                            f"{expected}")
        total = os.path.getsize(path)
        if sum(size.values()) != total:
            problems.append("per-type bytes do not add up to the file size")
        tally.record(f"{tag} bus log", problems)
        os.remove(path)
        return msgs, size, total / self.wl.bus_sim_s


# -- replay through the CLI ---------------------------------------------------

class Replay:
    """replay-n3: the CLI in a child process on recorded-layout trials."""

    def __init__(self, wl, seed, out_dir):
        from meswarm import harness, models
        self.wl, self.seed, self.out_dir = wl, seed, out_dir
        self.noise = scenario.scenario_noise(models, wl.imu_rate_hz)
        root = os.path.join(out_dir, "trials")
        trials.write_trials(harness, models, root, wl.n, seed, wl.trial_s,
                            wl.imu_rate_hz, self.noise)
        self.config = os.path.join(root, "config.json")
        body = {
            "seed": seed,
            "schedule": {"imu_rate_hz": wl.imu_rate_hz,
                         "landmark_rate_hz": OBS_RATE_HZ,
                         "intervehicle_rate_hz": OBS_RATE_HZ},
            "noise": {"b_gyro_rad_s": 0.005, "b_accel_mps2": 0.02,
                      "b_gyro_bias_rad_s2": 1e-5, "b_accel_bias_mps3": 1e-4,
                      "d_landmark_m": 0.1, "d_intervehicle_m": 0.05},
            "landmarks_m": [list(map(float, v)) for v in
                            scenario.scenario_world(models, wl.n)
                            .landmarks.values()],
            "markers_m": [[0.05 if i == v % 3 else 0.0 for i in range(3)]
                          for v in range(wl.n)],
            "vehicles": [{"type": "dataset",
                          "imu_csv": os.path.relpath(p[0], root),
                          "truth_csv": os.path.relpath(p[1], root)}
                         for p in (trials.trial_paths(root, v)
                                   for v in range(wl.n))],
        }
        with open(self.config, "w") as fh:
            json.dump(body, fh, indent=1)
        self._reference = {}

    def n_ticks(self, sim_s):
        return int(round(sim_s * self.wl.imu_rate_hz))

    def epoch_ticks(self, sim_s):
        return scenario.observation_ticks(OBS_RATE_HZ, self.wl.imu_rate_hz,
                                          self.n_ticks(sim_s))

    def run(self, mode, sim_s, tag, traced=False):
        out = os.path.join(self.out_dir, f"{tag}-{mode}")
        result_path = out + ".result.json"
        pulls = clocks.calibration_pulls(self.epoch_ticks(sim_s),
                                         self.n_ticks(sim_s))
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
               "--result", result_path,
               "--calibrate-at", ",".join(map(str, sorted(pulls)))]
        if traced:
            cmd += ["--spans", out + ".spans.csv"]
        cmd += ["--", "--config", self.config, "--out", out, "--mode", mode,
                "--duration", repr(sim_s)]
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0 or not os.path.exists(result_path):
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"CLI launcher exited {proc.returncode}")
        with open(result_path) as fh:
            res = json.load(fh)
        os.remove(result_path)
        if res["code"] != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"CLI exited {res['code']}")
        clock = clocks.TickClock.from_dict(res.pop("clock"))
        rows = self._read_metrics(os.path.join(out, "metrics.csv"))
        return timed_run(mode, sim_s, clock, t_spawn, res["t_end"], rows,
                         extra=dict(res, out=out))

    def _read_metrics(self, path):
        with open(path) as fh:
            lines = fh.read().splitlines()[1:]
        return np.array([[float(x) for x in line.split(",")]
                         for line in lines])

    def _output_problems(self, run):
        wl = self.wl
        out = run.extra["out"]
        problems = []
        n_rows = (self.n_ticks(run.sim_s) + 1) * wl.n
        if run.rows.shape != (n_rows, 7):
            problems.append(f"metrics.csv has {run.rows.shape[0]} rows, "
                            f"expected {n_rows}")
        problems += _rows_problems(run)
        with open(os.path.join(out, "summary.csv")) as fh:
            summary = [line.split(",") for line in fh.read().splitlines()[1:]]
        # the post-transient column is nan for runs under 10 s by design
        if len(summary) != 5 or not all(np.isfinite(float(r[2]))
                                        for r in summary):
            problems.append("summary whole-run means are not all finite")
        run.extra["bus"] = read_bus_log(os.path.join(out, "bus.log"))
        lines = run.extra["bus"][2]
        expected = (scenario.expected_messages(
            wl.n, scenario.N_LANDMARKS, len(self.epoch_ticks(run.sim_s)))
            if run.mode == "distributed" else 0)
        if lines != expected:
            problems.append(f"bus.log has {lines} lines, expected {expected}")
        return problems

    def _digest(self, run):
        h = hashlib.sha256()
        for name in ("metrics.csv", "bus.log"):
            with open(os.path.join(run.extra["out"], name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def repeat(self, sim_s, tally, tag, traced=False):
        runs = run_modes(lambda mode: self.run(mode, sim_s, tag, traced),
                         tally, tag)
        for mode, run in runs.items():
            problems = self._output_problems(run)
            if mode == "distributed" and "central" in runs:
                problems += _agreement_problems(run, runs["central"])
            digest = self._digest(run)
            if digest != self._reference.setdefault((sim_s, mode), digest):
                problems.append("outputs differ from the first repeat")
            tally.record(f"{tag} {mode}", problems)
            shutil.rmtree(run.extra["out"], ignore_errors=True)
        return runs


# -- metrics ------------------------------------------------------------------

def end_to_end(repeats, import_s, peak_rss_mb, bus_bytes_per_sim_s, epochs):
    """The end-to-end metrics from the untraced repeats."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    samples, raw = {}, {}
    for mode in MODES:
        runs = [r[mode] for r in repeats if mode in r]
        if not runs:
            continue
        put(f"{LABEL[mode]}_sim_rate",
            statistics.median(r.rate for r in runs), "sim-s/s")
        raw[f"{LABEL[mode]}_sim_rate"] = statistics.median(
            r.raw_rate for r in runs)
        if mode == "none":
            continue
        # percentiles per repeat, then the median over repeats, so that a
        # burst of interference in one repeat moves no percentile
        split = [clocks.split_ticks(r.ticks, epochs) for r in runs]
        samples[mode] = [len(split[0][0]), len(split[0][1]), len(split)]
        for name, q, pick in (("epoch_ms_p50", 50, 0), ("epoch_ms_p90", 90, 0),
                              ("tick_ms_p50", 50, 1)):
            put(f"{mode}_{name}", 1e3 * statistics.median(
                float(np.percentile(s[pick], q)) for s in split), "ms")
    # imports ran before any reference timing; scale them like the runs
    scales = [run.sim_s / run.wall_s / run.rate
              for r in repeats for run in r.values()]
    import_ref_s = import_s * statistics.median(scales) if scales else import_s
    setups = [import_ref_s + sum(run.setup_s for run in r.values())
              for r in repeats if r]
    if setups:
        put("setup_s", statistics.median(setups), "s")
    put("peak_rss_mb", peak_rss_mb, "MB")
    if bus_bytes_per_sim_s is not None:
        put("bus_bytes_per_sim_s", bus_bytes_per_sim_s, "B/sim-s")
    info = {"tick_samples": samples, "unscaled": raw,
            "scales": [round(x, 4) for x in scales]}
    return metrics, info


def per_layer(layers, counts, warnings, bus, slowdown, accounted):
    """The per-layer metrics of one traced repeat."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in tracing.LAYER_NAMES:
        calls, self_s = layers.get(name, (0, 0.0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.s", self_s, "s")
    put("joint.update.singular", counts.get("joint.update.singular", 0),
        "count")
    put("joint.update.pd_lost", warnings.get("joint.update.pd_lost", 0),
        "count")
    put("linalg.lu_factor.flop", counts.get("linalg.lu_factor.flop", 0),
        "flop")
    absorbs = layers.get("distributed.absorb_propagation_factor", (0, 0.0))[0]
    useful = counts.get("distributed.absorb_propagation_factor.useful", 0)
    put("distributed.absorb_propagation_factor.useful_ratio",
        useful / absorbs if absorbs else 0.0, "ratio")
    put("distributed.apply_update.skipped",
        warnings.get("distributed.apply_update.skipped", 0), "count")
    put("cli.write_bus_log.bytes", counts.get("cli.write_bus_log.bytes", 0),
        "B")
    msgs, size = bus
    for kind in BUS_TYPES:
        put(f"bus.{kind}.msgs", msgs.get(kind, 0), "count")
        put(f"bus.{kind}.bytes", size.get(kind, 0), "B")
    for mode in MODES:
        put(f"trace.{LABEL[mode]}_slowdown", slowdown.get(mode, 0.0), "ratio")
    put("trace.accounted", accounted, "ratio")
    return metrics


def _exact_count_problems(first, second):
    """Counts of two traced repeats of the same inputs must be equal."""
    problems = []
    for key in first:
        if first[key] != second.get(key):
            problems.append(f"{key}: {first[key]} then {second.get(key)}")
    return problems[:5]


def _exact_view(layers, counts, warnings, bus):
    view = {f"{n}.calls": c for n, (c, _) in layers.items()}
    view.update(counts)
    view.update(warnings)
    for kind in BUS_TYPES:
        view[f"bus.{kind}.msgs"] = bus[0].get(kind, 0)
        view[f"bus.{kind}.bytes"] = bus[1].get(kind, 0)
    return view


# -- running one workload -----------------------------------------------------

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "import numpy, scipy.linalg; "
                "from meswarm import cli, dataio, distributed, harness, joint; "
                "print(repr(time.perf_counter()))")


def import_probe_s():
    """Interpreter start and package import, timed in a fresh process."""
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(src=checkout.SRC)],
        stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout) - t_spawn


def untraced(wl, bench, seconds, tally, import_s):
    repeats_n = max(3, int(round(seconds / wl.repeat_wall_s)))
    repeats = []
    for i in range(repeats_n):
        if wl.via_cli:
            repeats.append(bench.repeat(wl.sim_s, tally, f"repeat {i}"))
        else:
            repeats.append(bench.repeat(wl.sim_s, tally, f"repeat {i}",
                                        reference=repeats[0] if repeats
                                        else None))
    if wl.via_cli:
        rss = statistics.median(
            max(run.extra["maxrss_kb"] for run in r.values())
            for r in repeats if r) / 1024.0
        bus = [sum(r["distributed"].extra["bus"][1].values())
               for r in repeats if "distributed" in r]
        bus_rate = bus[0] / wl.sim_s if bus else None
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # this process imported once; two fresh ones give a median
        import_s = statistics.median([import_s, import_probe_s(),
                                      import_probe_s()])
        bus_rate = None
        got = bench.bus_pass(tally, "bus")
        if got:
            bus_rate = bench.check_bus(got[1], tally, "bus")[2]
    metrics, info = end_to_end(repeats, import_s, rss, bus_rate,
                               bench.epoch_ticks(wl.sim_s))
    return metrics, dict(info, repeats=repeats_n, import_s=import_s)


def _traced_cli(bench, sim_s, tally, tag):
    """One traced repeat of the CLI workload; the children trace."""
    runs = bench.repeat(sim_s, tally, tag, traced=True)
    layers, counts, warnings = {}, defaultdict(int), defaultdict(int)
    root_s = wall_s = 0.0
    for run in runs.values():
        res = run.extra
        for name, (calls, self_s) in res["layers"].items():
            c0, s0 = layers.get(name, (0, 0.0))
            layers[name] = (c0 + calls, s0 + self_s)
        for key, value in res["counts"].items():
            counts[key] += value
        for key, value in res["warnings"].items():
            warnings[key] += value
        root_s += res["root_s"]
        wall_s += res["t_end"] - res["t_main"] - res["paused_s"]
    bus = (runs["distributed"].extra["bus"][:2] if "distributed" in runs
           else ({}, {}))
    return runs, layers, dict(counts), dict(warnings), bus, root_s, wall_s


def _traced_library(bench, sim_s, tally, tag, base, spans_path):
    """One traced repeat of a library workload, bus pass included."""
    tr = tracing.Tracer()
    warn = tracing.WarningCounter().attach()

    def one(mode):
        tr.run_id = MODES.index(mode)
        return bench.run(mode, sim_s)

    bench.tracer = tr
    try:
        with tr:
            runs = run_modes(one, tally, tag)
            wall_s = sum(r.extra["t_end"] - r.extra["t_call"]
                         - r.extra["paused_s"] for r in runs.values())
            tr.run_id = len(MODES)
            t0 = time.perf_counter()
            got = bench.bus_pass(tally, tag)
            wall_s += time.perf_counter() - t0
    finally:
        bench.tracer = None
        warn.detach()
    for mode, run in runs.items():
        problems = _rows_problems(run)
        if mode in base and not np.array_equal(run.rows, base[mode].rows):
            problems.append("traced run differs from untraced run")
        tally.record(f"{tag} {mode}", problems)
    bus = bench.check_bus(got[1], tally, tag)[:2] if got else ({}, {})
    if spans_path:
        tr.write_spans(spans_path)
    return (runs, tr.layer_totals(), dict(tr.counts), warn.counts, bus,
            tr.root_seconds(), wall_s)


def traced(wl, bench, tally, out_dir):
    """Per-layer metrics: one untraced and two traced repeats, same inputs."""
    sim_s = wl.trace_sim_s
    base = bench.repeat(sim_s, tally, "untraced")
    views, results = [], []
    for attempt in range(2):
        tag = f"traced{attempt}"
        if wl.via_cli:
            got = _traced_cli(bench, sim_s, tally, tag)
        else:
            spans = os.path.join(out_dir, "spans.csv") if attempt == 0 \
                else None
            got = _traced_library(bench, sim_s, tally, tag, base, spans)
        runs, layers, counts, warnings, bus, root_s, wall_s = got
        views.append(_exact_view(layers, counts, warnings, bus))
        slowdown = {m: base[m].rate / runs[m].rate for m in MODES
                    if m in base and m in runs}
        results.append((layers, counts, warnings, bus, slowdown,
                        root_s / wall_s if wall_s else 0.0))
    tally.record("exact counts across traced repeats",
                 _exact_count_problems(views[0], views[1]))
    return per_layer(*results[0]), {"trace_sim_s": sim_s}


def environment(wl_name, seed):
    from meswarm import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in checkout.PINNED_THREADS},
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "commit": checkout.git_commit(),
        "workload": wl_name, "seed": seed,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    t_spawn = float(os.environ.get("PERFBENCH_T_SPAWN", time.perf_counter()))

    checkout.use_checkout_package()
    from meswarm import cli, dataio, distributed, harness, joint  # noqa
    import_s = time.perf_counter() - t_spawn

    wl = WORKLOADS[args.workload]
    out_dir = os.path.join(checkout.OUT,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = environment(args.workload, args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    tally = Tally()
    bench = (Replay if wl.via_cli else Library)(wl, args.seed, out_dir)
    warn = tracing.WarningCounter().attach()
    if args.trace:
        metrics, info = traced(wl, bench, tally, out_dir)
    else:
        metrics, info = untraced(wl, bench, args.seconds, tally, import_s)
    warn.detach()
    info["warnings"] = warn.counts

    for name, m in sorted(metrics.items()):
        print(f"# {name} = {m['value']} {m['unit']}")
    print("# info " + json.dumps(info, sort_keys=True))
    report = {"env": env, "info": info, "notes": tally.notes,
              "metrics": metrics}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checkout.MissingSource as exc:
        sys.exit(exc.code)

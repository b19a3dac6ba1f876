"""Per-layer spans, recorded by wrapping the package's functions from outside.

`Tracer.install()` replaces each target function at every module or class
attribute that holds it (a function imported by name into another module is
replaced there too) with a wrapper that records a span: name, start, end,
parent span and run id.  `uninstall()` puts every original back.  Self time
is a span's duration minus the time its child spans cover.

Layer names follow the package's modules; `linalg` names the scipy LU calls
that `joint` and `distributed` make.
"""

import functools
import importlib
import logging
import os
import sys
import time
from collections import defaultdict

# (layer name, module, class or None, attribute)
TARGETS = (
    ("kernels.expm", "meswarm.kernels", None, "expm"),
    ("kernels.so3_exp", "meswarm.kernels", None, "so3_exp"),
    ("kernels.so3_left_jacobian", "meswarm.kernels", None,
     "so3_left_jacobian"),
    ("lie.compose", "meswarm.lie", None, "compose"),
    ("lie.group_exp", "meswarm.lie", None, "group_exp"),
    ("models.a_check_single", "meswarm.models", None, "a_check_single"),
    ("models.lambda_single", "meswarm.models", None, "lambda_single"),
    ("models.hessian_term", "meswarm.models", None, "hessian_term"),
    ("models.residual", "meswarm.models", None, "residual"),
    ("joint.propagate", "meswarm.joint", "JointFilter", "propagate"),
    ("joint.update", "meswarm.joint", "JointFilter", "update"),
    ("linalg.lu_factor", "scipy.linalg", None, "lu_factor"),
    ("linalg.lu_solve", "scipy.linalg", None, "lu_solve"),
    ("distributed.propagate_local", "meswarm.distributed", "VehicleNode",
     "propagate_local"),
    ("distributed.absorb_propagation_factor", "meswarm.distributed",
     "VehicleNode", "absorb_propagation_factor"),
    ("distributed.originate_update", "meswarm.distributed", "VehicleNode",
     "originate_update"),
    ("distributed.apply_update", "meswarm.distributed", "VehicleNode",
     "apply_update"),
    ("distributed.encode_message", "meswarm.distributed", None,
     "encode_message"),
    ("harness.run_schedule", "meswarm.harness", None, "run_schedule"),
    ("harness.prepare", "meswarm.harness", "SyntheticSource", "prepare"),
    ("harness.truth_at_tick", "meswarm.harness", "SyntheticSource",
     "truth_at_tick"),
    ("harness.metrics_row", "meswarm.harness", None, "metrics_row"),
    ("harness.synthesize_observation", "meswarm.harness", None,
     "synthesize_observation"),
    ("harness.deliver", "meswarm.harness", "MessageBus", "deliver"),
    ("dataio.load_imu_csv", "meswarm.dataio", None, "load_imu_csv"),
    ("dataio.load_truth_csv", "meswarm.dataio", None, "load_truth_csv"),
    ("dataio.align_trials", "meswarm.dataio", None, "align_trials"),
    ("dataio.state_at", "meswarm.dataio", "TruthTrack", "state_at"),
    ("cli.write_bus_log", "meswarm.cli", None, "write_bus_log"),
    ("cli.write_metrics_csv", "meswarm.cli", None, "write_metrics_csv"),
)

LAYER_NAMES = tuple(t[0] for t in TARGETS)

# Warnings the package logs for a lost positive-definite gain and a skipped
# update, keyed by the count they feed.
WARNING_COUNTS = (
    ("joint.update.pd_lost", "meswarm.joint", "lost positive definiteness"),
    ("distributed.apply_update.skipped", "meswarm.distributed", "skipping"),
)


class WarningCounter(logging.Handler):
    """Counts the package's warnings about lost definiteness and skips."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = {name: 0 for name, _, _ in WARNING_COUNTS}

    def emit(self, record):
        for name, logger, text in WARNING_COUNTS:
            if record.name == logger and text in record.getMessage():
                self.counts[name] += 1

    def attach(self):
        logging.getLogger("meswarm").addHandler(self)
        return self

    def detach(self):
        logging.getLogger("meswarm").removeHandler(self)


def _owner(module, cls):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _after_call(name, counts, args, result, exc):
    if name == "linalg.lu_factor":
        d = len(args[0])
        counts["linalg.lu_factor.flop"] += 2 * d ** 3 // 3
    elif name == "distributed.absorb_propagation_factor":
        own = args[1]
        if own.start_tick != own.end_tick:
            counts["distributed.absorb_propagation_factor.useful"] += 1
    elif name == "joint.update":
        if exc is not None and type(exc).__name__ == "UpdateSingularError":
            counts["joint.update.singular"] += 1
    elif name == "cli.write_bus_log" and exc is None:
        counts["cli.write_bus_log.bytes"] += os.path.getsize(args[0])


_HOOKED = {"linalg.lu_factor", "distributed.absorb_propagation_factor",
           "joint.update", "cli.write_bus_log"}


class Tracer:
    """Records spans for every target while installed."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, run id)
        self.run_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.excluded_s = 0.0  # pauses of the benchmark inside spans
        self._stack = []       # [span id, time covered by children]
        self._next_id = 0
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, name, fn):
        tracer = self
        hooked = name in _HOOKED
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            exc = result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer.spans.append((span_id, name, start, end,
                                     parent[0] if parent else -1,
                                     tracer.run_id))
                if hooked:
                    _after_call(name, tracer.counts, args, result, exc)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def install(self):
        """Wrap every target wherever the package holds a reference to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "meswarm" or n.startswith("meswarm.")]
        for name, module, cls, attr in TARGETS:
            owner = _owner(module, cls)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            places = [owner] + [m for m in holders if m is not owner
                                and m.__dict__.get(attr) is original]
            for place in places:
                self._patches.append((place, attr, original))
                setattr(place, attr, wrapper)
        return self

    def uninstall(self):
        for place, attr, original in reversed(self._patches):
            setattr(place, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def exclude(self, seconds):
        """Take a pause of the benchmark's own out of the open span."""
        if self._stack:
            self._stack[-1][1] += seconds
        self.excluded_s += seconds

    def layer_totals(self):
        """{name: (calls, self seconds)} for every target, zero if unused."""
        return {name: (self.calls.get(name, 0), self.self_s.get(name, 0.0))
                for name in LAYER_NAMES}

    def root_seconds(self):
        """Wall time covered by top-level spans, less excluded pauses."""
        return sum(end - start for _, _, start, end, parent, _ in self.spans
                   if parent == -1) - self.excluded_s

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,run\n")
            for span in self.spans:
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % span)

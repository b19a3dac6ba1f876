"""What the benchmark under perfbench/ reads from the package.

The benchmark's tracer replaces each target function by name and raises
KeyError on a missing one, and every run records `kernels.NUMBA_ENABLED`;
a rename in the package would only show as a failed benchmark run.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name,module,cls,attr", tracer.TARGETS,
                         ids=[t[0] for t in tracer.TARGETS])
def test_traced_attribute_exists(name, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(owner.__dict__.get(attr)), name


def test_tracer_installs_and_restores():
    from meswarm import joint, kernels
    original = kernels.expm
    with tracer.Tracer():
        assert getattr(kernels.expm, "__perfbench_wrapper__", False)
        assert joint.expm is kernels.expm
    assert kernels.expm is original and joint.expm is original


def test_environment_flag_exists():
    from meswarm import kernels
    assert kernels.NUMBA_ENABLED is False


def test_warning_counter_counts_package_warnings(monkeypatch):
    """The tracer counts lost definiteness and refused updates by the text
    of the package's warnings; a changed text would read 0.  Force one of
    each: a landmark update whose Hessian term -2/dt I turns K = I into
    -I on its slots, and a distributed one whose -1/dt I makes the small
    system zero."""
    from meswarm import distributed, joint, models
    from meswarm.lie import make_state
    noise = models.NoiseModel()
    dt = noise.nominal_period(models.LANDMARK)
    world = models.WorldConfig(landmarks={0: np.ones(3)})
    state = make_state(np.eye(3), np.zeros(3), np.zeros(3))
    obs = models.Observation(models.LANDMARK, 0, 0, np.zeros(3), 0)
    counter = tracer.WarningCounter().attach()
    try:
        monkeypatch.setattr(models, "update_terms", lambda *args: (
            np.zeros(6), -2.0 / dt * np.eye(6)))
        joint.JointFilter([state], np.eye(15), world, noise).update(obs)
        monkeypatch.setattr(models, "update_terms", lambda *args: (
            np.zeros(6), -1.0 / dt * np.eye(6)))
        nodes = distributed.VehicleNode([state], np.eye(15)[None], world,
                                        noise)
        assert nodes.originate_update(obs).gain is None
    finally:
        counter.detach()
    assert counter.counts == {"joint.update.pd_lost": 1,
                              "distributed.apply_update.skipped": 1}


def test_traced_distributed_run_records_every_node_layer(tmp_path):
    """A traced distributed run, its bus log written, records calls on
    every `distributed.*` target (the log encodes every message once, as
    `cli.write_bus_log` writes it), its absorb hook reads the factor it is
    given, and tracing leaves the rows as they are."""
    from meswarm import cli, harness, models
    noise = models.NoiseModel(d_landmark=0.1 * np.eye(3),
                              d_intervehicle=0.05 * np.eye(3))
    world = models.WorldConfig(landmarks={0: np.array([2.0, 0.0, 1.0])},
                               markers={0: 0.05 * np.eye(3)[0],
                                        1: 0.05 * np.eye(3)[1]})
    cfg = harness.ScheduleConfig(duration_s=0.2, seed=5)

    def run():
        rng = np.random.default_rng(3)
        sources = [harness.SyntheticSource(
            harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                              rot_scale=0.3), noise, v, 5)
            for v in range(2)]
        return harness.run_schedule(cfg, "distributed", sources, world,
                                    noise)

    plain = run().rows.tolist()
    tr = tracer.Tracer()
    with tr:
        result = run()
        cli.write_bus_log(tmp_path / "bus.log", result.bus_records)
    traced = result.rows.tolist()
    calls = {name: n for name, (n, _) in tr.layer_totals().items()}
    for name in tracer.LAYER_NAMES:
        if name.startswith("distributed."):
            assert calls[name] > 0, name
    assert calls["distributed.encode_message"] == len(result.bus_records)
    assert calls["cli.write_bus_log"] == 1
    useful = tr.counts["distributed.absorb_propagation_factor.useful"]
    assert 0 < useful <= calls["distributed.absorb_propagation_factor"]
    assert traced == plain


# -- the tick clock -----------------------------------------------------------
#
# The benchmark stamps a tick each time the scheduler pulls vehicle 0's IMU
# sample, so run_schedule must pull vehicle 0's `imu_at_tick(tick - 1)` first
# on every tick, and the harness work it traces (`truth_at_tick`,
# `metrics_row`) must still happen inside run_schedule.

N_VEHICLES = 3
N_TICKS = 40            # 0.2 s at 200 Hz: observation epochs at ticks 20, 40
EPOCH_TICKS = (20, 40)


def _recording(base):
    class Recording(base):
        log = None

        def imu_at_tick(self, k):
            self.log.append(("imu", self.vehicle, k))
            return super().imu_at_tick(k)

        def truth_at_tick(self, k):
            self.log.append(("truth", self.vehicle, k))
            return super().truth_at_tick(k)

    return Recording


def _synthetic_sources(noise):
    from meswarm import harness
    rng = np.random.default_rng(3)
    cls = _recording(harness.SyntheticSource)
    return [cls(harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                                  rot_scale=0.3),
                noise, v, 5) for v in range(N_VEHICLES)]


def _dataset_sources(noise):
    """Recorded-layout sources: the synthetic IMU with truth samples at its
    stamps, each vehicle's stream offset by a fraction of a period."""
    from meswarm import dataio, harness, models
    rng = np.random.default_rng(4)
    cls = _recording(dataio.DatasetSource)
    out = []
    for v in range(N_VEHICLES):
        traj = harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                                 rot_scale=0.3)
        imu, bg, ba = harness.synthesize_imu(traj, noise,
                                             models.DEFAULT_GRAVITY,
                                             N_TICKS + 5, 0.005, 5, v)
        t0 = 10**9 + 1_000_000 * v
        imu = models.ImuStream(t0 + imu.t_ns, imu.gyro, imu.accel)
        t = (imu.t_ns - t0) * 1e-9
        q = ScipyRotation.from_matrix(traj.rotation(t)).as_quat()
        truth = dataio.TruthTrack(imu.t_ns, traj.position(t),
                                  q[:, [3, 0, 1, 2]], traj.velocity(t), bg, ba)
        out.append(cls(imu, truth, v))
    return out


@pytest.mark.parametrize("mode", ["none", "central", "distributed"])
@pytest.mark.parametrize("make_sources",
                         [_synthetic_sources, _dataset_sources],
                         ids=["synthetic", "dataset"])
def test_tick_clock_and_traced_harness_calls(mode, make_sources, monkeypatch):
    from meswarm import harness, models
    noise = models.NoiseModel(d_landmark=0.1 * np.eye(3),
                              d_intervehicle=0.05 * np.eye(3))
    world = models.WorldConfig(
        landmarks={0: np.array([2.0, 0.0, 1.0]),
                   1: np.array([-1.0, 2.0, 0.5])},
        markers={v: 0.05 * np.eye(3)[v] for v in range(N_VEHICLES)})
    sources = make_sources(noise)
    log = []
    for src in sources:
        src.log = log
    scored = []
    metrics_row = harness.metrics_row

    def counted(*args):
        scored.append(args)
        return metrics_row(*args)

    monkeypatch.setattr(harness, "metrics_row", counted)
    cfg = harness.ScheduleConfig(duration_s=N_TICKS * 0.005, seed=5)
    result = harness.run_schedule(cfg, mode, sources, world, noise,
                                  record_bus=False)

    pulls = [(v, k) for kind, v, k in log if kind == "imu"]
    # the joint modes read the tick's rows from the streams and pull only
    # vehicle 0's sample; each node pulls its own
    pulled = [0] if mode in ("none", "central") else range(N_VEHICLES)
    assert pulls == [(v, k) for k in range(N_TICKS) for v in pulled]
    # every truth query falls inside the tick it serves: after vehicle 0's
    # pull that starts the tick and before the pull that starts the next
    starts = {k + 1: log.index(("imu", 0, k)) for k in range(N_TICKS)}
    truth = [(i, k) for i, (kind, _, k) in enumerate(log) if kind == "truth"]
    assert truth
    for i, k in truth:
        assert k in (0,) + EPOCH_TICKS
        assert starts.get(k, -1) < i < starts.get(k + 1, len(log))
    assert len(truth) <= N_VEHICLES * (len(EPOCH_TICKS) + 2)
    assert len(scored) == 1
    assert len(result.rows) == (N_TICKS + 1) * N_VEHICLES

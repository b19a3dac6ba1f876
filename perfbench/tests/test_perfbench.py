"""Self-tests of the benchmark's own instruments.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checkout  # noqa: E402

checkout.use_checkout_package()

import clock as clocks  # noqa: E402
import scenario  # noqa: E402
import trials  # noqa: E402
from meswarm import dataio, harness, lie, models  # noqa: E402
from tracer import TARGETS, Tracer, _owner  # noqa: E402


def _run(mode, n, duration_s, clock=None, plain=False, record_bus=False,
         seed=3):
    noise = scenario.scenario_noise(models, 200.0)
    world = scenario.scenario_world(models, n)
    if plain:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        sources = [harness.SyntheticSource(
            harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                              rot_scale=0.3), noise, v, seed)
            for v in range(n)]
    else:
        sources = scenario.scenario_sources(harness, noise, n, seed, clock)
    cfg = harness.ScheduleConfig(duration_s=duration_s, seed=seed)
    return harness.run_schedule(cfg, mode, sources, world, noise,
                                record_bus=record_bus)


def _rows(result):
    return np.array([[r.t, r.vehicle, r.pos_err, r.rot_err, r.vel_err,
                      r.gyro_bias_err, r.accel_bias_err]
                     for r in result.rows])


def _clock(n_ticks):
    epochs = scenario.observation_ticks(10.0, 200.0, n_ticks)
    return clocks.TickClock(clocks.calibration_pulls(epochs, n_ticks))


@pytest.mark.parametrize("mode", ["central", "distributed"])
def test_stamping_source_leaves_rows_bit_identical(mode):
    clock = _clock(100)
    stamped = _run(mode, 3, 0.5, clock=clock)
    plain = _run(mode, 3, 0.5, plain=True)
    assert np.array_equal(_rows(stamped), _rows(plain))
    assert len(clock.enter) == len(clock.leave) == 100
    assert sorted(clock.refs) == [0, 19, 20, 39, 40, 59, 60, 79, 80, 99]


def test_stamping_costs_under_one_percent_of_wall_time():
    n, duration_s = 6, 0.3
    clock = _clock(60)
    t0 = time.perf_counter()
    _run("central", n, duration_s, clock=clock)
    # the reference-loop pauses lie outside every tick and are not a cost
    # of the stamps
    wall = time.perf_counter() - t0 - sum(
        b - a for a, b in zip(clock.enter, clock.leave))

    noise = scenario.scenario_noise(models, 200.0)
    traj = harness.SinusoidTrajectory()
    plain = harness.SyntheticSource(traj, noise, 0, 0)
    stamped = scenario.stamped_source_class(harness)(
        traj, noise, 0, 0, clock=clocks.TickClock(()))
    for src in (plain, stamped):
        src.prepare(60, 0.005)

    def per_call(src):
        best = float("inf")
        for _ in range(5):
            t = time.perf_counter()
            for k in range(60):
                src.imu_at_tick(k)
            best = min(best, (time.perf_counter() - t) / 60)
        return best

    extra = max(0.0, per_call(stamped) - per_call(plain))
    # every pull goes through the subclass; vehicle 0's also stamps
    cost = extra * n * len(clock.enter)
    assert cost < 0.01 * wall, f"{cost:.2e} s of {wall:.2f} s"


def test_tick_split_scaling_and_expected_bus_messages():
    clock = _clock(60)
    t0 = time.perf_counter()
    res = _run("distributed", 3, 0.3, clock=clock, record_bus=True)
    t_end = time.perf_counter()
    epochs = scenario.observation_ticks(10.0, 200.0, 60)
    assert epochs == {20, 40, 60}
    ticks = clock.ticks(t_end)
    assert len(ticks) == 60
    epoch, plain = clocks.split_ticks(ticks, epochs)
    assert len(epoch) == 2 and len(plain) == 57
    # scaled ticks are wall ticks times the bracketing reference factor
    scales = clock.scales()
    assert ticks[20] == pytest.approx(
        (clock.enter[21] - clock.leave[20]) * scales[20])
    paused = sum(b - a for a, b in zip(clock.enter, clock.leave))
    unscaled = sum(t / s for t, s in zip(ticks, scales))
    assert unscaled == pytest.approx(t_end - clock.enter[0] - paused)
    assert clock.enter[0] > t0
    assert len(res.bus_records) == scenario.expected_messages(
        3, scenario.N_LANDMARKS, len(epochs))


def installed_wrappers():
    """Attributes of loaded package modules that hold a trace wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if not (mod_name == "meswarm" or mod_name.startswith("meswarm.")
                or mod_name == "scipy.linalg"):
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__perfbench_wrapper__", False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found


def _holders(attr, original):
    return [m for name, m in sys.modules.items()
            if (name == "meswarm" or name.startswith("meswarm."))
            and m.__dict__.get(attr) is original]


def test_trace_wrappers_fully_removed_after_traced_run():
    before = {}
    for name, module, cls, attr in TARGETS:
        owner = _owner(module, cls)
        original = owner.__dict__[attr]
        before[name] = (owner, attr, original, _holders(attr, original))
    tr = Tracer()
    with tr:
        t0 = time.perf_counter()
        _run("central", 2, 0.2)
        _run("distributed", 2, 0.2)
        wall = time.perf_counter() - t0
        assert installed_wrappers()
    assert installed_wrappers() == []
    for name, (owner, attr, original, holders) in before.items():
        assert owner.__dict__[attr] is original, name
        assert _holders(attr, original) == holders, name
    assert lie.compose is before["lie.compose"][2]

    totals = tr.layer_totals()
    assert totals["harness.run_schedule"][0] == 2
    assert totals["joint.propagate"][0] == 40
    assert totals["distributed.propagate_local"][0] == 80
    self_sum = sum(s for _, s in totals.values())
    assert self_sum == pytest.approx(tr.root_seconds(), rel=1e-9)
    assert 0.9 * wall < tr.root_seconds() <= wall


def test_generated_trials_load_and_match_their_trajectories(tmp_path):
    noise = scenario.scenario_noise(models, 200.0)
    trajs = trials.write_trials(harness, models, str(tmp_path), 2, 5, 2.0,
                                200.0, noise)
    loaded = []
    for v in range(2):
        imu_path, truth_path = trials.trial_paths(str(tmp_path), v)
        imu = dataio.load_imu_csv(imu_path)
        truth = dataio.load_truth_csv(truth_path)
        assert len(imu) == len(truth) == 400
        assert imu[0].t_ns == trials.T0_NS + v * trials.START_OFFSET_NS
        loaded.append((imu, truth))
    aligned = dataio.align_trials(loaded)
    assert aligned[1][0][0].t_ns == trials.T0_NS + trials.START_OFFSET_NS
    assert aligned[0][0][0].t_ns == trials.T0_NS + 5_000_000

    for v, (imu, track) in enumerate(aligned):
        t0 = trials.T0_NS + v * trials.START_OFFSET_NS
        for k in range(3, 390, 37):
            t_ns = t0 + k * 5_000_000 + 2_500_000     # between two samples
            got = track.state_at(t_ns)
            t = (t_ns - t0) * 1e-9
            want = trajs[v].truth_state(t)
            assert np.linalg.norm(got.pos - want.pos) < 1e-4
            assert np.linalg.norm(got.vel - want.vel) < 1e-3
            assert lie.rotation_error_angle(got.rot, want.rot) < 1e-5

"""Acceptance gate: one check per release criterion.

Each test prints a single verdict line directly to the terminal (bypassing
capture) so a full run shows the ten pass/fail lines at a glance.  The final
criterion needs externally supplied recorded flight data and is skipped
unless ME_SWARM_EUROC_DIR points at a directory of trials.
"""

import json
import os
import time

import numpy as np
import pytest

import test_joint
import test_lie
import test_models
from meswarm import cli, harness, models
from meswarm.dataio import load_imu_csv
from meswarm.distributed import VehicleNode
from meswarm.harness import (MessageBus, PriorConfig, ScheduleConfig,
                             SinusoidTrajectory, SyntheticSource,
                             _distributed_round, _observation_ticks,
                             run_schedule, synthesize_observation)
from meswarm.joint import JointFilter, block_diag_prior, epoch_rounds
from meswarm.lie import compose, group_exp, stack_states
from meswarm.models import ImuSample, NoiseModel, Observation, WorldConfig
from test_joint import joint_gain
from test_lie import adjoint_matrix_from_vector, inverse, pose_matrix
from test_models import stack_samples


@pytest.fixture
def report(capsys):
    def _report(num, title, ok, detail=""):
        tail = f"  [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - "
                  f"{title}{tail}")
        assert ok, f"criterion {num} failed: {title}{tail}"
    return _report


def scenario_noise():
    return NoiseModel(b_gyro=0.005 * np.eye(3), b_accel=0.02 * np.eye(3),
                      b_gyro_bias=1e-5 * np.eye(3),
                      b_accel_bias=1e-4 * np.eye(3),
                      d_landmark=0.1 * np.eye(3),
                      d_intervehicle=0.05 * np.eye(3))


def scenario_world(n_vehicles):
    return WorldConfig(
        landmarks={0: np.array([2.0, 0.0, 1.0]),
                   1: np.array([-1.0, 2.0, 0.5]),
                   2: np.array([0.0, -2.0, 1.5])},
        markers={i: 0.05 * np.eye(3)[i % 3] for i in range(n_vehicles)})


def scenario_sources(n_vehicles, noise, seed, traj_seed=2, **kw):
    rng = np.random.default_rng(traj_seed)
    return [SyntheticSource(
        SinusoidTrajectory.random(rng, pos_scale=0.6, rot_scale=0.3),
        noise, v, seed, **kw) for v in range(n_vehicles)]


def test_criterion_1_group_property_suite(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_axiom = worst_exp = worst_ad = worst_jacobi = 0.0
    for _ in range(50):
        x, y, z = (test_lie.random_state(rng) for _ in range(3))
        assoc = (pose_matrix(compose(compose(x, y), z))
                 - pose_matrix(compose(x, compose(y, z))))
        inv = pose_matrix(compose(x, inverse(x))) - np.eye(5)
        worst_axiom = max(worst_axiom, np.abs(assoc).max(),
                          np.abs(inv).max())
    for _ in range(200):
        q = rng.standard_normal(15)
        err = np.abs(pose_matrix(group_exp(q))
                     - test_lie.series_exp_oracle(q)).max()
        worst_exp = max(worst_exp, err)
    for _ in range(1000):
        p, q = rng.standard_normal(15), rng.standard_normal(15)
        err = np.abs(adjoint_matrix_from_vector(p) @ q
                     - test_lie.bracket_oracle(p, q)).max()
        worst_ad = max(worst_ad, err)
    ad = adjoint_matrix_from_vector
    for _ in range(200):
        p, q, r = (rng.standard_normal(15) for _ in range(3))
        total = (ad(p) @ (ad(q) @ r) + ad(q) @ (ad(r) @ p)
                 + ad(r) @ (ad(p) @ q))
        worst_jacobi = max(worst_jacobi, np.abs(total).max())
    elapsed = time.perf_counter() - t0
    ok = (worst_axiom <= 1e-10 and worst_exp <= 1e-10
          and worst_ad <= 1e-12 and worst_jacobi <= 1e-10 and elapsed < 5.0)
    report(1, "group property suite", ok,
           f"axioms {worst_axiom:.1e}, exp {worst_exp:.1e}, "
           f"bracket {worst_ad:.1e}, jacobi {worst_jacobi:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_drift_linearisation(report):
    rng = np.random.default_rng(102)
    world = WorldConfig()
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        x = test_models.random_state(rng)
        u = test_models.random_imu(rng)
        d1 = np.zeros((15, 15))
        for k in range(15):
            q = eps * np.eye(15)[k]
            plus = test_models.drift_vector(compose(x, group_exp(q)), u,
                                            world)
            minus = test_models.drift_vector(compose(x, group_exp(-q)), u,
                                             world)
            d1[:, k] = (plus - minus) / (2 * eps)
        lam = test_models.drift_vector(x, u, world)
        expected = d1 - adjoint_matrix_from_vector(lam)
        worst = max(worst,
                    np.abs(test_models.a_check(x, u) - expected).max())
    report(2, "drift linearisation vs central differences", worst <= 1e-5,
           f"max err {worst:.1e}")


def test_criterion_3_update_hessian_terms(report):
    rng = np.random.default_rng(103)
    world = WorldConfig(landmarks={0: np.array([1.0, 0.0, 0.0]),
                                   1: np.array([0.0, 2.0, 1.0])},
                        markers={1: np.array([0.1, 0.0, 0.0]),
                                 2: np.array([0.0, 0.0, 0.1])})
    noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                       d_intervehicle=0.1 * np.eye(3))
    worst = 0.0
    min_eig = np.inf
    symmetric = True
    for _ in range(50):
        states = [test_models.random_state(rng) for _ in range(3)]
        obs_l = Observation(models.LANDMARK, int(rng.integers(3)),
                            int(rng.integers(2)), rng.standard_normal(3), 0)
        e = test_models.dense_hessian(states, obs_l, world, noise, 0.1)
        symmetric &= bool(np.array_equal(e, e.T))
        worst = max(worst, np.abs(
            e - test_models.hessian_landmark_oracle(states, obs_l, world,
                                                    noise, 0.1)).max())
        a = int(rng.integers(3))
        b = (a + 1 + int(rng.integers(2))) % 3
        obs_i = Observation(models.INTERVEHICLE, a, b,
                            rng.standard_normal(3), 0)
        e = test_models.dense_hessian(states, obs_i, world, noise, 0.1)
        symmetric &= bool(np.array_equal(e, e.T))
        worst = max(worst, np.abs(
            e - test_models.hessian_intervehicle_oracle(states, obs_i, world,
                                                        noise, 0.1)).max())
        # at zero innovation the term is F^T M F alone
        y0 = models.predict(states, models.INTERVEHICLE, a, b, world)
        e0 = models.hessian_term(states, Observation(
            models.INTERVEHICLE, a, b, y0, 0), world, noise, 0.1)
        min_eig = min(min_eig, np.min(np.linalg.eigvalsh(e0)))
    ok = worst <= 1e-12 and symmetric and min_eig >= -1e-10
    report(3, "update Hessian terms vs assembly oracle", ok,
           f"max err {worst:.1e}, symmetric {symmetric}, "
           f"min eig {min_eig:.1e}")


def test_criterion_4_discrete_vs_continuous(report):
    rng = np.random.default_rng(104)
    world = WorldConfig()
    noise = NoiseModel(b_gyro=0.01 * np.eye(3), b_accel=0.05 * np.eye(3),
                       b_gyro_bias=1e-4 * np.eye(3),
                       b_accel_bias=1e-3 * np.eye(3))
    dt = 2e-4
    worst = 0.0
    for _ in range(25):                       # 25 scenes x 2 vehicles
        states = [test_joint.random_state(rng) for _ in range(2)]
        k0 = test_joint.random_spd(rng, 30)
        flt = JointFilter(states, k0, world, noise)
        imu = [ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0)
               for _ in range(2)]
        flt.propagate(stack_samples(imu), dt)
        poses_ref, k_ref = test_joint.rk4_reference(states, k0, imu, world,
                                                    noise, dt, 100)
        worst = max(worst, np.linalg.norm(joint_gain(flt) - k_ref)
                    / np.linalg.norm(k_ref))
        for i, est in enumerate(flt.estimate()):
            worst = max(worst, np.linalg.norm(pose_matrix(est) - poses_ref[i])
                        / np.linalg.norm(poses_ref[i]))
    report(4, "one propagation step vs RK4 reference", worst < 1e-6,
           f"max rel err {worst:.1e}")


def _scripted_parallel_run(duration_s=10.0, n=3, seed=11):
    """Drive the joint filter, the node network and the dense oracle
    (tests/test_rounds.py's DensePerRound: the gain dense, updated round
    by round in information form and symmetrised, its cross blocks rebuilt
    from the factors) on identical inputs, an epoch at a time in its
    rounds.  Returns the max (position, gain) discrepancy after every
    epoch for each of the pairs distributed-central, central-oracle and
    distributed-oracle, and the distributed bus."""
    # imported here: test_rounds imports this module's scenario helpers
    from test_rounds import DensePerRound

    noise = scenario_noise()
    world = scenario_world(n)
    sources = scenario_sources(n, noise, seed)
    dt = 0.005
    dt_ns = 5_000_000
    n_ticks = int(round(duration_s / dt))
    for src in sources:
        src.prepare(n_ticks, dt)

    prior = PriorConfig()
    truths0 = [src.truth_at_tick(0) for src in sources]
    est0 = [harness._perturbed_prior(truths0[v], prior,
                                     harness.channel_rng(seed, 8, v, 0))
            for v in range(n)]
    k0 = block_diag_prior([prior.k0_block()] * n)
    flt = JointFilter(est0, k0, world, noise)
    nodes = VehicleNode(est0, k0, world, noise)
    dense = DensePerRound(est0, k0, world, noise)
    bus = MessageBus()

    obs_ticks = set(_observation_ticks(10.0, 200.0, n_ticks))
    rngs = {}
    diffs = dict.fromkeys(("distributed-central", "central-oracle",
                           "distributed-oracle"), (0.0, 0.0))
    for tick in range(1, n_ticks + 1):
        imu = [src.imu_at_tick(tick - 1) for src in sources]
        flt.propagate(stack_samples(imu), dt)
        dense.propagate(stack_samples(imu), dt)
        for v, u in enumerate(imu):
            nodes.propagate_local(v, u, dt)
        if tick in obs_ticks:
            truths = stack_states([src.truth_at_tick(tick)
                                   for src in sources])
            events = ([(models.LANDMARK, v, lm) for v in range(n)
                       for lm in range(3)]
                      + [(models.INTERVEHICLE, a, b) for a in range(n)
                         for b in range(n) if a != b])
            batch = []
            for kind, a, b in events:
                key = (kind, a, b)
                if key not in rngs:
                    ch = 4 if kind == models.LANDMARK else 5
                    rngs[key] = harness.channel_rng(seed, ch, a, b)
                batch += synthesize_observation(
                    truths, world, kind, [(a, b)], noise.d_matrix(kind),
                    [rngs[key]], tick * dt_ns)
            flt.update(*batch)
            dense.update(*batch)
            for group in epoch_rounds(events, n):
                _distributed_round(nodes, [batch[i] for i in group], tick,
                                   bus)
            filters = {"central": flt, "distributed": nodes,
                       "oracle": dense}
            for pair in diffs:
                a, b = (filters[name] for name in pair.split("-"))
                ka = a.k if a is dense else joint_gain(a)
                kb = b.k if b is dense else joint_gain(b)
                pos = np.linalg.norm(a.state.pos - b.state.pos, axis=-1)
                diffs[pair] = (max(diffs[pair][0], pos.max()),
                               max(diffs[pair][1], np.abs(ka - kb).max()))
    return diffs, bus, obs_ticks, n_ticks


@pytest.fixture(scope="module")
def parallel_run():
    t0 = time.perf_counter()
    out = _scripted_parallel_run()
    return (*out, time.perf_counter() - t0)


def test_criterion_5_distributed_equals_central(report, parallel_run):
    """The two filters apply the same rounds through the same Network
    code, so they agree bit for bit; each agrees with the dense oracle,
    which shares neither their column stack nor their low-rank algebra,
    within 1e-8."""
    diffs, _, _, _, elapsed = parallel_run
    max_pos, max_k = diffs["distributed-central"]
    ok = (max_pos == max_k == 0.0
          and all(pos <= 1e-8 and k <= 1e-8 for pos, k in diffs.values())
          and elapsed < 30.0)
    oracle = ", ".join(f"{pair} {pos:.1e} m / {k:.1e}"
                       for pair, (pos, k) in diffs.items()
                       if pair.endswith("oracle"))
    report(5, "decentralised filter reproduces the joint filter", ok,
           f"max pos diff {max_pos:.1e} m, max gain diff {max_k:.1e}, "
           f"{oracle}, {elapsed:.1f}s")


def test_criterion_9_communication_silence(report, parallel_run):
    _, bus, obs_ticks, n_ticks, _ = parallel_run
    ticks = {tick for tick, _ in bus.records}
    stray = ticks - obs_ticks
    ok = len(bus.records) > 0 and not stray
    report(9, "no bus traffic between observation epochs", ok,
           f"{len(bus.records)} messages, stray ticks {sorted(stray)[:3]}")


def test_criterion_6_convergence_with_constant_biases(report):
    noise = scenario_noise()
    world = scenario_world(3)
    bg = 0.02 / np.sqrt(3.0) * np.ones(3)     # |gyro bias| = 0.02 rad/s
    ba = 0.2 / np.sqrt(3.0) * np.ones(3)      # |accel bias| = 0.2 m/s^2
    sources = scenario_sources(3, noise, seed=6, gyro_bias0=bg,
                               accel_bias0=ba, bias_walk=False)
    cfg = ScheduleConfig(duration_s=40.0, seed=6)
    res = run_schedule(cfg, harness.MODE_DISTRIBUTED, sources, world, noise)
    late = [r for r in res.rows if r.t >= 30.0]
    pos = float(np.mean([r.pos_err for r in late]))
    gyro = float(np.mean([r.gyro_bias_err for r in late]))
    accel = float(np.mean([r.accel_bias_err for r in late]))
    ok = pos < 0.3 and gyro < 0.5 * 0.02 and accel < 0.5 * 0.2
    report(6, "convergence with constant true biases", ok,
           f"pos {pos:.3f} m, gyro bias err {gyro:.4f}/{0.02}, "
           f"accel bias err {accel:.3f}/{0.2}")


def test_criterion_7_collaboration_benefit(report):
    t0 = time.perf_counter()
    noise = scenario_noise()
    world = scenario_world(6)
    cfg = ScheduleConfig(duration_s=90.0, seed=7)
    means = {}
    for mode in (harness.MODE_NONE, harness.MODE_CENTRAL,
                 harness.MODE_DISTRIBUTED):
        res = run_schedule(cfg, mode, scenario_sources(6, noise, seed=7),
                           world, noise, record_bus=False)
        means[mode] = float(np.mean([r.pos_err for r in res.rows]))
    elapsed = time.perf_counter() - t0
    base = means[harness.MODE_NONE]
    gain_c = 1.0 - means[harness.MODE_CENTRAL] / base
    gain_d = 1.0 - means[harness.MODE_DISTRIBUTED] / base
    ok = (means[harness.MODE_CENTRAL] < base
          and means[harness.MODE_DISTRIBUTED] < base
          and gain_c >= 0.15 and gain_d >= 0.15 and elapsed < 300.0)
    report(7, "collaboration beats isolation on six vehicles", ok,
           f"isolated {base:.3f} m, joint -{100 * gain_c:.0f}%, "
           f"decentralised -{100 * gain_d:.0f}%, {elapsed:.0f}s")


def test_criterion_8_byte_identical_reruns(report, tmp_path):
    config = {
        "mode": "distributed", "seed": 3,
        "schedule": {"duration_s": 5.0},
        "landmarks_m": [[2, 0, 1], [-1, 2, 0.5], [0, -2, 1.5]],
        "markers_m": [[0.05, 0, 0], [0, 0.05, 0]],
        "vehicles": [{"type": "synthetic", "trajectory_seed": v,
                      "pos_scale_m": 0.5} for v in range(2)],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same_metrics = ((outs[0] / "metrics.csv").read_bytes()
                    == (outs[1] / "metrics.csv").read_bytes())
    same_bus = ((outs[0] / "bus.log").read_bytes()
                == (outs[1] / "bus.log").read_bytes())
    report(8, "identical seeds give byte-identical outputs",
           same_metrics and same_bus,
           f"metrics {same_metrics}, bus {same_bus}")


def _find_euroc_trials(root):
    trials = []
    for entry in sorted(os.listdir(root)):
        imu = os.path.join(root, entry, "mav0", "imu0", "data.csv")
        truth = os.path.join(root, entry, "mav0",
                             "state_groundtruth_estimate0", "data.csv")
        if os.path.exists(imu) and os.path.exists(truth):
            trials.append((imu, truth))
    return trials


def test_criterion_10_recorded_flight_data(report, tmp_path):
    root = os.environ.get("ME_SWARM_EUROC_DIR")
    if not root:
        pytest.skip("set ME_SWARM_EUROC_DIR to a directory of recorded "
                    "trials to enable this check")
    trials = _find_euroc_trials(root)
    assert len(trials) >= 6, f"expected six trials under {root}"
    config = {
        "mode": "distributed", "seed": 0,
        "schedule": {"duration_s": 83.5},
        "landmarks_m": [[2, 0, 1], [-1, 2, 0.5], [0, -2, 1.5]],
        "markers_m": [list(0.05 * np.eye(3)[i % 3]) for i in range(6)],
        "vehicles": [{"type": "dataset", "imu_csv": imu, "truth_csv": truth}
                     for imu, truth in trials[:6]],
    }
    n_samples = len(load_imu_csv(trials[0][0]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    pos = {}
    for mode in ("none", "central", "distributed"):
        out = tmp_path / mode
        code = cli.main(["--config", str(cfg_path), "--out", str(out),
                         "--mode", mode])
        assert code == 0, f"mode {mode} exited {code}"
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            name, _, whole, _ = line.rsplit(",", 3)
            if name == "Position":
                pos[mode] = float(whole)
    ticks_ok = abs(min(n_samples, int(round(83.5 * 200.0))) - 16700) <= 1
    ok = ticks_ok and 0.05 <= pos["distributed"] <= 0.6
    report(10, "recorded six-trial dataset pipeline", ok,
           f"ticks ok {ticks_ok}, decentralised pos {pos['distributed']:.3f} m")

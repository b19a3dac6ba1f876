import json

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import distributed, harness, joint as joint_module, models
from meswarm.distributed import (PeerStateReply, PeerStateRequest,
                                 PropagationFactor, SynchronizationError,
                                 UpdateBroadcast, VehicleNode, decode_message,
                                 encode_message)
from meswarm.joint import JointFilter, UpdateSingularError, block_diag_prior
from meswarm.kernels import expm
from meswarm.lie import STATE_DOF, compose, group_exp, identity_state, make_state
from meswarm.models import ImuSample, NoiseModel, Observation, WorldConfig

DT = 0.005
TICK_NS = 5_000_000


def random_state(rng):
    rot = ScipyRotation.random(random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    return make_state(rot, rng.standard_normal(3), rng.standard_normal(3),
                      0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))


def random_spd(rng, dim, scale=0.1):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) + 0.5 * np.eye(dim)


@pytest.fixture
def world():
    return WorldConfig(landmarks={0: np.array([1.0, 2.0, 0.5]),
                                  1: np.array([-1.0, 0.0, 1.0])},
                       markers={0: np.array([0.1, 0.0, 0.0]),
                                1: np.array([0.0, 0.1, 0.0])})


@pytest.fixture
def noise():
    return NoiseModel(b_gyro=0.01 * np.eye(3), b_accel=0.05 * np.eye(3),
                      b_gyro_bias=1e-4 * np.eye(3),
                      b_accel_bias=1e-3 * np.eye(3),
                      d_landmark=0.2 * np.eye(3),
                      d_intervehicle=0.2 * np.eye(3))


def make_network(rng, n, world, noise, k0=None):
    states = [random_state(rng) for _ in range(n)]
    if k0 is None:
        blocks = [random_spd(rng, STATE_DOF, scale=0.02) for _ in range(n)]
        k0 = block_diag_prior(blocks)
    joint = JointFilter(states, k0, world, noise)
    nodes = [VehicleNode(i, n, states[i],
                         k0[:, i * STATE_DOF:(i + 1) * STATE_DOF],
                         world, noise) for i in range(n)]
    return joint, nodes


def exchange_factors(nodes):
    msgs = [nd.emit_propagation_factor() for nd in nodes]
    for nd in nodes:
        for msg in msgs:
            if msg.sender != nd.id:
                nd.absorb_propagation_factor(msgs[nd.id], msg)
    return msgs


def run_update(nodes, obs):
    exchange_factors(nodes)
    reply = None
    if obs.kind == models.INTERVEHICLE:
        PeerStateRequest(obs.observer, obs.subject)  # what goes on the wire
        reply = nodes[obs.subject].peer_state_reply()
    bc = nodes[obs.observer].originate_update(obs, reply)
    for nd in nodes:
        nd.apply_update(bc)
    return bc


def propagate_pair(joint, nodes, rng, ticks):
    """Feed the joint filter and every node the same random IMU ticks."""
    for _ in range(ticks):
        imu = [ImuSample(0.3 * rng.standard_normal(3),
                         0.3 * rng.standard_normal(3), joint.t_ns)
               for _ in nodes]
        joint.propagate(imu, DT)
        for nd, u in zip(nodes, imu):
            nd.propagate_local(u, DT)


def assert_nodes_match_joint(joint, nodes, atol):
    kj = joint.gain()
    for i, (nd, x) in enumerate(zip(nodes, joint.estimate())):
        col = kj[:, i * STATE_DOF:(i + 1) * STATE_DOF]
        np.testing.assert_allclose(nd.k_col, col, rtol=0, atol=atol)
        np.testing.assert_allclose(nd.state.pose_matrix(), x.pose_matrix(),
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(nd.state.gyro_bias, x.gyro_bias,
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(nd.state.accel_bias, x.accel_bias,
                                   rtol=0, atol=atol)


def assert_same_message(back, msg):
    assert type(back) is type(msg)
    for name in msg.__dataclass_fields__:
        a, b = getattr(back, name), getattr(msg, name)
        if name == "state":
            for part in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
                np.testing.assert_array_equal(getattr(a, part),
                                              getattr(b, part))
        elif isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, name


class TestWire:
    def test_roundtrip_all_types(self, world, noise):
        rng = np.random.default_rng(0)
        st = random_state(rng)
        col = rng.standard_normal((30, models.UPDATE_SLOTS))
        msgs = [
            PropagationFactor(1, rng.standard_normal((15, 15)), 3, 9),
            PeerStateRequest(0, 1),
            PeerStateReply(1, st, col),
            UpdateBroadcast(0, models.LANDMARK, 2, 0.1, 5_000_000,
                            rng.standard_normal(6),
                            rng.standard_normal((30, 6))),
            UpdateBroadcast(0, models.INTERVEHICLE, 1, 0.1, 5_000_000,
                            rng.standard_normal(12),
                            rng.standard_normal((30, 12))),
            UpdateBroadcast(1, models.INTERVEHICLE, 0, 0.1, 5_000_000,
                            rng.standard_normal(12), None),
        ]
        for msg in msgs:
            body = json.loads(json.dumps(encode_message(msg)))
            assert body["v"] == 3
            assert_same_message(decode_message(body), msg)
        assert decode_message(encode_message(msgs[-1])).gain is None

    def test_v1_update_broadcast_rejected(self):
        body = {"type": "update_broadcast", "origin": 0, "kind": "landmark",
                "dt": 0.1, "t_ns": 0, "r": [0.0] * 15,
                "s": np.eye(15).tolist(), "v": 1}
        with pytest.raises(ValueError, match="wire version 1"):
            decode_message(body)

    def test_v2_peer_state_reply_rejected(self):
        body = encode_message(PeerStateReply(1, identity_state(),
                                             np.zeros((30, 15))))
        body["v"] = 2
        with pytest.raises(ValueError, match="wire version 2"):
            decode_message(body)

    def test_version_check(self):
        with pytest.raises(ValueError):
            decode_message({"type": "peer_state_request", "v": 99})

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            decode_message({"type": "gossip", "v": 1})


class TestFactors:
    def test_single_tick_factor(self, world, noise):
        rng = np.random.default_rng(1)
        _, nodes = make_network(rng, 1, world, noise)
        u = ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0)
        a = models.a_check_single(nodes[0].state, u)
        nodes[0].propagate_local(u, DT)
        msg = nodes[0].emit_propagation_factor()
        np.testing.assert_array_equal(msg.lam, expm(a * DT))
        assert (msg.start_tick, msg.end_tick) == (0, 1)

    def test_ordered_product_oracle(self, world, noise):
        rng = np.random.default_rng(2)
        _, nodes = make_network(rng, 1, world, noise)
        nd = nodes[0]
        expected = np.eye(STATE_DOF)
        for k in range(5):
            u = ImuSample(rng.standard_normal(3), rng.standard_normal(3),
                          k * TICK_NS)
            a = models.a_check_single(nd.state, u)
            expected = expm(a * DT) @ expected
            nd.propagate_local(u, DT)
        np.testing.assert_array_equal(nd.lam_acc, expected)

    def test_emit_resets_accumulator(self, world, noise):
        rng = np.random.default_rng(3)
        _, nodes = make_network(rng, 1, world, noise)
        nodes[0].propagate_local(ImuSample(np.zeros(3), np.zeros(3), 0), DT)
        nodes[0].emit_propagation_factor()
        np.testing.assert_array_equal(nodes[0].lam_acc, np.eye(STATE_DOF))
        msg = nodes[0].emit_propagation_factor()
        assert msg.start_tick == msg.end_tick == 1

    def test_zero_span_absorb_is_noop(self, world, noise):
        rng = np.random.default_rng(4)
        _, nodes = make_network(rng, 2, world, noise)
        before = nodes[0].k_col.copy()
        own = PropagationFactor(0, np.eye(15), 3, 3)
        peer = PropagationFactor(1, np.eye(15), 3, 3)
        nodes[0].absorb_propagation_factor(own, peer)
        np.testing.assert_array_equal(nodes[0].k_col, before)

    def test_span_mismatch_raises(self, world, noise):
        rng = np.random.default_rng(5)
        _, nodes = make_network(rng, 2, world, noise)
        own = PropagationFactor(0, np.eye(15), 0, 4)
        peer = PropagationFactor(1, np.eye(15), 0, 3)
        with pytest.raises(SynchronizationError):
            nodes[0].absorb_propagation_factor(own, peer)


class TestPropagationEquivalence:
    def test_diag_blocks_match_joint_over_200_ticks(self, world, noise):
        rng = np.random.default_rng(6)
        joint, nodes = make_network(rng, 2, world, noise)
        for k in range(200):
            imu = [ImuSample(0.3 * rng.standard_normal(3),
                             0.3 * rng.standard_normal(3), k * TICK_NS)
                   for _ in range(2)]
            joint.propagate(imu, DT)
            for i, nd in enumerate(nodes):
                nd.propagate_local(imu[i], DT)
        kj = joint.gain()
        for i, nd in enumerate(nodes):
            sl = slice(i * STATE_DOF, (i + 1) * STATE_DOF)
            np.testing.assert_array_equal(nd.k_col[sl, :], kj[sl, sl])
            np.testing.assert_array_equal(nd.state.pose_matrix(),
                                          joint.estimate()[i].pose_matrix())


def dense_update(k, e, r, dt):
    """Oracle: the full-system step (I + dt K E)^-1 K and its state increment."""
    k_new = np.linalg.solve(np.eye(len(k)) + dt * (k @ e), k)
    k_new = 0.5 * (k_new + k_new.T)
    return k_new, dt * (k_new @ r)


class TestUpdates:
    def test_zero_innovation_broadcast(self, world, noise):
        rng = np.random.default_rng(7)
        _, nodes = make_network(rng, 2, world, noise)
        y = models.predict_landmark(nodes[0].state, world.landmark(0))
        obs = Observation(models.LANDMARK, 0, 0, y, 0, dt=0.1)
        bc = nodes[0].originate_update(obs)
        assert bc.r.shape == (6,) and bc.gain.shape == (30, 6)
        np.testing.assert_array_equal(bc.r, 0.0)
        # the gain still contracts through the quadratic term
        assert np.linalg.norm(bc.gain) > 0.0

    def test_landmark_system_matches_full_assembly(self, world, noise):
        rng = np.random.default_rng(8)
        joint, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.LANDMARK, 0, 1,
                          rng.standard_normal(3), 0, dt=0.1)
        bc = nodes[0].originate_update(obs)  # no peer traffic needed
        e = models.hessian_term(joint.estimate(), obs, world, noise, 0.1)
        _, r = models.residual(joint.estimate(), obs, world, noise, 0.1)
        k = joint.gain()
        ix = models.update_indices(models.LANDMARK, 0, 1)
        np.testing.assert_array_equal(bc.r, r[ix])
        k_ref, _ = dense_update(k, e, r, 0.1)
        np.testing.assert_allclose(k - bc.gain @ k[ix, :], k_ref, atol=1e-10)

    def test_intervehicle_requires_peer_reply(self, world, noise):
        rng = np.random.default_rng(9)
        _, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.INTERVEHICLE, 0, 1,
                          rng.standard_normal(3), 0, dt=0.1)
        with pytest.raises(ValueError):
            nodes[0].originate_update(obs)
        with pytest.raises(ValueError):
            nodes[0].originate_update(obs, nodes[0].peer_state_reply())

    def test_only_observer_originates(self, world, noise):
        rng = np.random.default_rng(10)
        _, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.LANDMARK, 0, 0, np.zeros(3), 0, dt=0.1)
        with pytest.raises(ValueError):
            nodes[1].originate_update(obs)

    def test_apply_rejects_time_mismatch(self, world, noise):
        rng = np.random.default_rng(11)
        _, nodes = make_network(rng, 1, world, noise)
        bc = UpdateBroadcast(0, models.LANDMARK, 0, 0.1, TICK_NS,
                             np.zeros(6), np.zeros((15, 6)))
        with pytest.raises(ValueError):
            nodes[0].apply_update(bc)

    def test_singular_system_skipped(self, world, noise, caplog):
        rng = np.random.default_rng(12)
        _, nodes = make_network(rng, 1, world, noise)
        before = nodes[0].k_col.copy()
        pose = nodes[0].state.pose_matrix()
        bc = UpdateBroadcast(0, models.LANDMARK, 0, 0.1, 0,
                             np.ones(6), None)
        with caplog.at_level("WARNING"):
            nodes[0].apply_update(bc)
        np.testing.assert_array_equal(nodes[0].k_col, before)
        np.testing.assert_array_equal(nodes[0].state.pose_matrix(), pose)
        # the origin refused and said so; receivers stay silent
        assert "skipping" not in caplog.text


def singular_hessian(dt):
    """A Hessian term making I + dt E_ii K_ii zero when K_ii = I."""
    def hessian_term(states, obs, world, noise, _dt=None):
        e = np.zeros((len(states) * STATE_DOF,) * 2)
        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
        e[ix, ix] = -1.0 / dt
        return e
    return hessian_term


class TestSingularGate:
    DT = 0.5

    def test_joint_raises(self, world, noise, monkeypatch):
        rng = np.random.default_rng(30)
        joint, _ = make_network(rng, 2, world, noise, k0=np.eye(30))
        monkeypatch.setattr(models, "hessian_term", singular_hessian(self.DT))
        before = joint.gain()
        obs = Observation(models.INTERVEHICLE, 0, 1, rng.standard_normal(3),
                          0, dt=self.DT)
        with pytest.raises(UpdateSingularError):
            joint.update(obs, with_curvature=False)
        np.testing.assert_array_equal(joint.gain(), before)

    def test_distributed_origin_refuses(self, world, noise, monkeypatch,
                                        caplog):
        rng = np.random.default_rng(31)
        n = 3
        _, nodes = make_network(rng, n, world, noise, k0=np.eye(15 * n))
        monkeypatch.setattr(models, "hessian_term", singular_hessian(self.DT))
        cols = [nd.k_col.copy() for nd in nodes]
        poses = [nd.state.pose_matrix() for nd in nodes]
        obs = Observation(models.INTERVEHICLE, 1, 2, rng.standard_normal(3),
                          0, dt=self.DT)
        bus = harness.MessageBus()
        with caplog.at_level("WARNING", logger="meswarm.distributed"):
            harness._distributed_update(nodes, obs, 0, bus)
        skips = [rec for rec in caplog.records
                 if "skipping" in rec.getMessage()]
        assert len(skips) == 1 and skips[0].name == "meswarm.distributed"
        for nd, col, pose in zip(nodes, cols, poses):
            np.testing.assert_array_equal(nd.k_col, col)
            np.testing.assert_array_equal(nd.state.pose_matrix(), pose)
        assert [rec["type"] for rec in bus.records] == (
            ["propagation_factor"] * n
            + ["peer_state_request", "peer_state_reply", "update_broadcast"])
        assert bus.records[-1]["gain"] is None


    def test_refused_update_keeps_observation_clock(self, world, noise,
                                                    monkeypatch):
        rng = np.random.default_rng(32)
        joint, nodes = make_network(rng, 2, world, noise, k0=np.eye(30))
        refused = Observation(models.LANDMARK, 0, 0, rng.standard_normal(3),
                              0)
        with monkeypatch.context() as m:
            m.setattr(models, "hessian_term", singular_hessian(
                noise.nominal_period(models.LANDMARK)))
            with pytest.raises(UpdateSingularError):
                joint.update(refused, with_curvature=False)
            assert run_update(nodes, refused).gain is None
        propagate_pair(joint, nodes, rng, 10)
        obs = Observation(models.LANDMARK, 0, 0, rng.standard_normal(3),
                          joint.t_ns)
        expected = joint.observation_period(obs)
        assert expected == noise.nominal_period(models.LANDMARK)
        assert run_update(nodes, obs).dt == expected


class TestDenseOracle:
    """The low-rank step reproduces (I + dt K E)^-1 K in both filters."""

    @pytest.mark.parametrize("n,kind", [
        (1, models.LANDMARK), (2, models.LANDMARK), (3, models.LANDMARK),
        (2, models.INTERVEHICLE), (3, models.INTERVEHICLE)])
    def test_matches_dense_step(self, world, noise, n, kind):
        rng = np.random.default_rng(40 + n)
        for trial in range(5):
            k0 = random_spd(rng, n * STATE_DOF, scale=0.002)
            joint, nodes = make_network(rng, n, world, noise, k0=k0)
            states = joint.estimate()
            observer = int(rng.integers(n))
            subject = (int(rng.integers(2)) if kind == models.LANDMARK
                       else (observer + 1 + int(rng.integers(n - 1))) % n)
            y = models.predict(states, Observation(kind, observer, subject,
                                                   np.zeros(3), 0), world)
            obs = Observation(kind, observer, subject,
                              y + 0.05 * rng.standard_normal(3), 0, dt=0.1)
            e = models.hessian_term(states, obs, world, noise, 0.1)
            _, r = models.residual(states, obs, world, noise, 0.1)
            k_ref, psi = dense_update(k0, e, r, 0.1)
            x_ref = [compose(x, group_exp(psi[i * STATE_DOF:(i + 1) * STATE_DOF]))
                     for i, x in enumerate(states)]

            joint.update(obs, with_curvature=False)
            run_update(nodes, obs)
            np.testing.assert_allclose(joint.gain(), k_ref, rtol=0, atol=1e-12)
            kj = joint.gain()
            for i, (x, ref) in enumerate(zip(joint.estimate(), x_ref)):
                np.testing.assert_allclose(x.pose_matrix(), ref.pose_matrix(),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(x.gyro_bias, ref.gyro_bias,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(x.accel_bias, ref.accel_bias,
                                           rtol=0, atol=1e-12)
                col = kj[:, i * STATE_DOF:(i + 1) * STATE_DOF]
                np.testing.assert_allclose(nodes[i].k_col, col, rtol=0,
                                           atol=1e-12)
                np.testing.assert_allclose(nodes[i].state.pose_matrix(),
                                           ref.pose_matrix(), rtol=0,
                                           atol=1e-12)


def drive_pair(joint, nodes, rng, ticks, update_every):
    """Run the joint filter and the node network on the same inputs."""
    n = len(nodes)
    for k in range(1, ticks + 1):
        t_ns = k * TICK_NS
        imu = [ImuSample(0.3 * rng.standard_normal(3),
                         0.3 * rng.standard_normal(3), (k - 1) * TICK_NS)
               for _ in range(n)]
        joint.propagate(imu, DT)
        for i, nd in enumerate(nodes):
            nd.propagate_local(imu[i], DT)
        if k % update_every:
            continue
        step = k // update_every
        if n == 1 or step % 2:
            observer = step % n
            subject = step % 2  # landmark id
            kind = models.LANDMARK
        else:
            observer = step % n
            subject = (observer + 1) % n
            kind = models.INTERVEHICLE
        y = models.predict(joint.estimate(),
                           Observation(kind, observer, subject,
                                       np.zeros(3), t_ns),
                           joint.world)
        y = y + 0.01 * rng.standard_normal(3)
        obs = Observation(kind, observer, subject, y, t_ns)
        joint.update(obs, with_curvature=False)
        run_update(nodes, obs)


class TestFullEquivalence:
    def test_single_vehicle_matches_joint(self, world, noise):
        rng = np.random.default_rng(14)
        joint, nodes = make_network(rng, 1, world, noise)
        drive_pair(joint, nodes, rng, ticks=100, update_every=20)
        np.testing.assert_allclose(nodes[0].k_col, joint.gain(), atol=1e-10)
        np.testing.assert_allclose(nodes[0].state.pose_matrix(),
                                   joint.estimate()[0].pose_matrix(),
                                   atol=1e-10)

    def test_two_vehicles_match_joint(self, world, noise):
        rng = np.random.default_rng(15)
        joint, nodes = make_network(rng, 2, world, noise)
        drive_pair(joint, nodes, rng, ticks=200, update_every=20)
        kj = joint.gain()
        for i, nd in enumerate(nodes):
            col = kj[:, i * STATE_DOF:(i + 1) * STATE_DOF]
            np.testing.assert_allclose(nd.k_col, col, atol=1e-8)
            np.testing.assert_allclose(
                nd.state.pose_matrix(),
                joint.estimate()[i].pose_matrix(), atol=1e-8)
            np.testing.assert_allclose(nd.state.gyro_bias,
                                       joint.estimate()[i].gyro_bias,
                                       atol=1e-8)

    def test_three_vehicles_match_joint(self, world, noise):
        rng = np.random.default_rng(16)
        joint, nodes = make_network(rng, 3, world, noise)
        drive_pair(joint, nodes, rng, ticks=120, update_every=15)
        kj = joint.gain()
        for i, nd in enumerate(nodes):
            col = kj[:, i * STATE_DOF:(i + 1) * STATE_DOF]
            np.testing.assert_allclose(nd.k_col, col, atol=1e-8)
            np.testing.assert_allclose(
                nd.state.pose_matrix(),
                joint.estimate()[i].pose_matrix(), atol=1e-8)

    def test_same_tick_second_update_uses_zero_span_factors(self, world, noise):
        rng = np.random.default_rng(17)
        joint, nodes = make_network(rng, 2, world, noise)
        imu = [ImuSample(np.zeros(3), np.zeros(3), 0) for _ in range(2)]
        joint.propagate(imu, DT)
        for i, nd in enumerate(nodes):
            nd.propagate_local(imu[i], DT)
        for lm in (0, 1):
            y = models.predict_landmark(joint.estimate()[0],
                                        joint.world.landmark(lm)) + 0.01
            obs = Observation(models.LANDMARK, 0, lm, y, TICK_NS, dt=0.1)
            joint.update(obs, with_curvature=False)
            msgs = exchange_factors(nodes)
            if lm == 1:
                assert all(m.start_tick == m.end_tick for m in msgs)
            bc = nodes[0].originate_update(obs)
            for nd in nodes:
                nd.apply_update(bc)
        kj = joint.gain()
        for i, nd in enumerate(nodes):
            np.testing.assert_allclose(
                nd.k_col, kj[:, i * STATE_DOF:(i + 1) * STATE_DOF], atol=1e-9)


class TestSharedEngine:
    """Both filters run the same per-vehicle step on any update schedule."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           coupled=st.booleans(),
           epochs=st.lists(st.tuples(
               st.integers(0, 25),
               st.sampled_from([models.LANDMARK, models.INTERVEHICLE])),
               min_size=1, max_size=5),
           tail=st.integers(0, 25), data=st.data())
    def test_joint_matches_nodes(self, world, noise, seed, n, coupled, epochs,
                                 tail, data):
        rng = np.random.default_rng(seed)
        k0 = random_spd(rng, n * STATE_DOF, scale=0.002) if coupled else None
        joint, nodes = make_network(rng, n, world, noise, k0=k0)
        for span, kind in epochs:  # span 0: a second update on the same tick
            propagate_pair(joint, nodes, rng, span)
            observer = data.draw(st.integers(0, n - 1))
            if kind == models.INTERVEHICLE and n > 1:
                subject = (observer + data.draw(st.integers(1, n - 1))) % n
            else:
                kind, subject = models.LANDMARK, data.draw(st.integers(0, 1))
            y = models.predict(joint.estimate(),
                               Observation(kind, observer, subject,
                                           np.zeros(3), joint.t_ns), world)
            obs = Observation(kind, observer, subject,
                              y + 0.01 * rng.standard_normal(3), joint.t_ns,
                              dt=0.1)
            joint.update(obs, with_curvature=False)
            run_update(nodes, obs)
            assert_nodes_match_joint(joint, nodes, 1e-10)
        # gain() brings the cross blocks up to date as a factor exchange does
        propagate_pair(joint, nodes, rng, tail)
        exchange_factors(nodes)
        assert_nodes_match_joint(joint, nodes, 1e-10)

    def test_single_vehicle_makes_no_expm_call(self, world, noise,
                                               monkeypatch):
        calls = []

        def counting_expm(a):
            calls.append(a.shape)
            return sla.expm(a)

        monkeypatch.setattr(joint_module, "expm", counting_expm)
        rng = np.random.default_rng(50)
        for n in (1, 2):
            calls.clear()
            joint, _ = make_network(rng, n, world, noise)
            for k in range(40):
                joint.propagate([ImuSample(rng.standard_normal(3),
                                           rng.standard_normal(3), joint.t_ns)
                                 for _ in range(n)], DT)
                if k == 19:
                    joint.update(Observation(models.LANDMARK, 0, 0,
                                             rng.standard_normal(3),
                                             joint.t_ns, dt=0.1))
            # one factor per vehicle and tick once there are cross blocks
            assert len(calls) == (0 if n == 1 else 40 * n)


class TestNodeInit:
    def test_wrong_column_shape(self, world, noise):
        with pytest.raises(ValueError):
            VehicleNode(0, 2, identity_state(), np.eye(15), world, noise)

    def test_asymmetric_diag_block(self, world, noise):
        col = np.zeros((15, 15))
        col[:] = np.eye(15)
        col[0, 1] = 0.5
        with pytest.raises(ValueError):
            VehicleNode(0, 1, identity_state(), col, world, noise)

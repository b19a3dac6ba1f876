import base64
import collections
import functools
import json
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import harness, joint as joint_module, models
from meswarm.distributed import (WIRE_VERSION, PeerStateReply,
                                 PeerStateRequest, PropagationFactor,
                                 SynchronizationError, UpdateBroadcast,
                                 VehicleNode, encode_message)
from meswarm.joint import (JointFilter, UpdateSingularError, _blocks,
                          block_diag_prior)
from meswarm.kernels import expm
from meswarm.lie import (STATE_DOF, VehicleState, compose, group_exp,
                         make_state, stack_states)
from meswarm.models import ImuSample, NoiseModel, Observation, WorldConfig
from test_acceptance import scenario_noise, scenario_sources, scenario_world
from test_joint import assert_refused_alike, joint_gain
from test_lie import identity_state, pose_matrix
from test_models import dense_hessian, dense_residual, stack_samples

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


def columns(k, n):
    """(n, 15n, 15) stack of the 15n x 15 columns of a joint gain."""
    return k.reshape(n * STATE_DOF, n, STATE_DOF).swapaxes(0, 1)


def make_network(rng, n, world, noise, k0=None):
    states = [random_state(rng) for _ in range(n)]
    if k0 is None:
        blocks = [random_spd(rng, STATE_DOF, scale=0.02) for _ in range(n)]
        k0 = block_diag_prior(blocks)
    joint = JointFilter(states, k0, world, noise)
    nodes = VehicleNode(states, columns(k0, n), world, noise)
    return joint, nodes


def tick_nodes(nodes, imu, dt=DT):
    """One IMU tick of the network: each node hands in its own sample."""
    for v, u in enumerate(imu):
        nodes.propagate_local(v, u, dt)


def exchange_factors(nodes):
    msgs = nodes.emit_propagation_factors()
    for msg in msgs:
        nodes.absorb_propagation_factor(msg)
    return msgs


def run_update(nodes, obs):
    exchange_factors(nodes)
    reply = None
    if obs.kind == models.INTERVEHICLE:
        PeerStateRequest(obs.observer, obs.subject)  # what goes on the wire
        reply = nodes.peer_state_reply(obs.subject)
    bc = nodes.originate_update(obs, reply)
    nodes.apply_update(bc)
    return bc


def propagate_pair(joint, nodes, rng, ticks):
    """Feed the joint filter and every node the same random IMU ticks."""
    for _ in range(ticks):
        imu = [ImuSample(0.3 * rng.standard_normal(3),
                         0.3 * rng.standard_normal(3), joint.t_ns)
               for _ in range(nodes.n)]
        joint.propagate(stack_samples(imu), DT)
        tick_nodes(nodes, imu)


def own_blocks(nodes):
    """A copy of every node's own diagonal block, (n, 15, 15)."""
    ar = np.arange(nodes.n)
    return nodes.k_col.reshape(nodes.n, nodes.n, STATE_DOF, STATE_DOF)[ar, ar]


def assert_nodes_match_joint(joint, nodes, atol):
    kj = joint_gain(joint)
    for i, x in enumerate(joint.estimate()):
        col = kj[:, i * STATE_DOF:(i + 1) * STATE_DOF]
        nd = nodes.state[i]
        np.testing.assert_allclose(nodes.k_col[i], col, rtol=0, atol=atol)
        np.testing.assert_allclose(pose_matrix(nd), pose_matrix(x),
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(nd.gyro_bias, x.gyro_bias,
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(nd.accel_bias, x.accel_bias,
                                   rtol=0, atol=atol)


def assert_nodes_equal_joint(joint, nodes):
    """The nodes' gain and estimates are the joint filter's, bit for bit."""
    assert_same_bits(joint_gain(nodes), joint_gain(joint))
    for name in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
        assert_same_bits(getattr(nodes.state, name),
                         getattr(joint.state, name))


def assert_same_bits(a, b):
    """a is b's float64 array, entry for entry in its bits: signed zeros
    and NaN payloads included."""
    assert a.dtype == np.float64 and a.shape == np.shape(b)
    assert a.tobytes() == np.ascontiguousarray(b, dtype="<f8").tobytes()


def assert_same_message(back, msg):
    """back is msg, its arrays bit for bit."""
    assert type(back) is type(msg)
    for name in msg.__dataclass_fields__:
        a, b = getattr(back, name), getattr(msg, name)
        if name == "state":
            for part in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
                assert_same_bits(getattr(a, part), getattr(b, part))
        elif isinstance(b, np.ndarray):
            assert_same_bits(a, b)
        else:
            assert a == b, name


def _mat(m):
    return np.asarray(m, dtype=float).tolist()


def dict_body(msg, tick, array=_mat):
    """A message's fields as a bus-log body with every array as
    `array(a)`: by default nested float lists, for comparing two buses'
    payloads with a tolerance."""
    if isinstance(msg, PropagationFactor):
        body = {"type": "propagation_factor", "sender": msg.sender,
                "lam": array(msg.lam),
                "start_tick": msg.start_tick, "end_tick": msg.end_tick}
    elif isinstance(msg, PeerStateRequest):
        body = {"type": "peer_state_request", "requester": msg.requester,
                "target": msg.target}
    elif isinstance(msg, PeerStateReply):
        body = {"type": "peer_state_reply", "sender": msg.sender,
                "state": {"rot": array(msg.state.rot),
                          "pos": array(msg.state.pos),
                          "vel": array(msg.state.vel),
                          "gyro_bias": array(msg.state.gyro_bias),
                          "accel_bias": array(msg.state.accel_bias)},
                "k_col": array(msg.k_col)}
    else:
        body = {"type": "update_broadcast", "origin": msg.origin,
                "kind": msg.kind, "subject": msg.subject, "dt": msg.dt,
                "t_ns": msg.t_ns, "r": array(msg.r),
                "gain": None if msg.gain is None else array(msg.gain)}
    body["v"] = WIRE_VERSION
    body["tick"] = tick
    return body


def wire_array(a):
    """The wire-v4 object of an array, as a dict."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"b64": base64.b64encode(a).decode("ascii"), "shape": list(a.shape)}


def reference_line(msg, tick):
    """The bytes a bus-log line must have: json.dumps with sorted keys of
    the message's body, every array as its wire-v4 object."""
    return json.dumps(dict_body(msg, tick, wire_array), sort_keys=True)


def decode_array(obj):
    """The float64 array of a wire-v4 array object."""
    raw = base64.b64decode(obj["b64"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"])


def decode_message(body):
    """Inverse of encode_message: the wire message a bus-log line holds."""
    if body.get("v") != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {body.get('v')!r}")
    kind = body["type"]
    if kind == "propagation_factor":
        return PropagationFactor(body["sender"], decode_array(body["lam"]),
                                 body["start_tick"], body["end_tick"])
    if kind == "peer_state_request":
        return PeerStateRequest(body["requester"], body["target"])
    if kind == "peer_state_reply":
        st = body["state"]
        state = VehicleState(*(decode_array(st[part]) for part in
                               ("rot", "pos", "vel", "gyro_bias",
                                "accel_bias")))
        return PeerStateReply(body["sender"], state,
                              decode_array(body["k_col"]))
    if kind == "update_broadcast":
        gain = body["gain"]
        return UpdateBroadcast(
            body["origin"], body["kind"], body["subject"], body["dt"],
            body["t_ns"], decode_array(body["r"]),
            None if gain is None else decode_array(gain))
    raise ValueError(f"unknown message type {kind!r}")


def strict_body(line):
    """A bus-log line parsed as strict JSON, checking that the keys of
    every object in it are sorted."""
    def no_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    def sorted_object(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    return json.loads(line, parse_constant=no_constant,
                      object_pairs_hook=sorted_object)


# bit patterns of the entries a decimal encoding loses or spells
# non-standardly: NaNs with payloads, infinities, signed zeros, subnormals
# and extreme magnitudes
SPECIAL_BITS = [np.float64(x).view(np.uint64).item() for x in (
    np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
    2.2250738585072e-308, 1e300, -1e300, 1.0 / 3.0)] + [
    0x7FF0000000000001, 0xFFF8000000000ABC]


@st.composite
def float_arrays(draw, shape):
    """float64 arrays of `shape`: random 64-bit patterns with drawn
    entries set to special bit patterns or to arbitrary floats."""
    size = int(np.prod(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = np.frombuffer(rng.bytes(8 * size), dtype=np.uint64).copy()
    value = st.one_of(st.sampled_from(SPECIAL_BITS),
                      st.floats().map(
                          lambda x: np.float64(x).view(np.uint64).item()))
    for i, b in draw(st.lists(st.tuples(st.integers(0, size - 1), value),
                              max_size=16)):
        bits[i] = b
    return bits.view(np.float64).reshape(shape)


@st.composite
def wire_messages(draw):
    """A wire message of any type, for a network of 1 to 3 nodes."""
    n = draw(st.integers(1, 3))
    node = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["factor", "request", "reply", "broadcast"]))
    if kind == "factor":
        start = draw(st.integers(0, 10**6))
        return PropagationFactor(draw(node),
                                 draw(float_arrays((STATE_DOF, STATE_DOF))),
                                 start, start + draw(st.integers(0, 400)))
    if kind == "request":
        return PeerStateRequest(draw(node), draw(node))
    if kind == "reply":
        state = VehicleState(draw(float_arrays((3, 3))),
                             *(draw(float_arrays((3,))) for _ in range(4)))
        return PeerStateReply(draw(node), state, draw(float_arrays(
            (n * STATE_DOF, models.UPDATE_SLOTS))))
    obs_kind = draw(st.sampled_from([models.LANDMARK, models.INTERVEHICLE]))
    m = models.UPDATE_SLOTS * (1 if obs_kind == models.LANDMARK else 2)
    gain = draw(st.one_of(st.none(), float_arrays((n * STATE_DOF, m))))
    return UpdateBroadcast(draw(node), obs_kind, draw(st.integers(0, 5)),
                           draw(st.floats(1e-3, 10.0)),
                           draw(st.integers(0, 2**63 - 1)),
                           draw(float_arrays((m,))), gain)


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
            body = json.loads(encode_message(msg, 7))
            assert body["v"] == 4 and body["tick"] == 7
            assert_same_message(decode_message(body), msg)
        assert decode_message(json.loads(encode_message(msgs[-1], 0))).gain \
            is None
        assert json.loads(encode_message(msgs[0], 0))["lam"]["shape"] == [
            15, 15]

    def test_v1_update_broadcast_rejected(self):
        body = {"type": "update_broadcast", "origin": 0, "kind": "landmark",
                "dt": 0.1, "t_ns": 0, "r": [0.0] * 15,
                "s": np.eye(15).tolist(), "v": 1}
        with pytest.raises(ValueError, match="wire version 1"):
            decode_message(body)

    def test_v2_peer_state_reply_rejected(self):
        body = json.loads(encode_message(
            PeerStateReply(1, identity_state(), np.zeros((30, 15))), 0))
        body["v"] = 2
        with pytest.raises(ValueError, match="wire version 2"):
            decode_message(body)

    @settings(max_examples=150, deadline=None)
    @given(msg=wire_messages(), tick=st.integers(0, 2**31 - 1))
    def test_line_is_strict_sorted_json_and_bit_exact(self, msg, tick):
        """Every line parses as strict JSON with its keys sorted at every
        level, and decodes to the message, arrays bit for bit."""
        line = encode_message(msg, tick)
        assert "\n" not in line
        body = strict_body(line)
        assert body["v"] == 4 and body["tick"] == tick
        assert_same_message(decode_message(body), msg)

    @settings(max_examples=150, deadline=None)
    @given(msg=wire_messages(), tick=st.integers(0, 2**63 - 1))
    def test_line_is_json_dumps_of_the_body(self, msg, tick):
        """The template writes json.dumps(body, sort_keys=True), byte for
        byte: separators, key order and the spelling of every number."""
        assert encode_message(msg, tick) == reference_line(msg, tick)

    @pytest.mark.parametrize("field", ["tick", "sender", "t_ns"])
    def test_numpy_integer_refused_as_json_dumps_refuses_it(self, field):
        tick = np.int64(3) if field == "tick" else 3
        if field == "t_ns":
            msg = UpdateBroadcast(0, models.LANDMARK, 1, 0.1, np.int64(7),
                                  np.zeros(6), None)
        else:
            msg = PropagationFactor(
                np.int64(1) if field == "sender" else 1, np.eye(15), 0, 2)
        with pytest.raises(TypeError) as want:
            reference_line(msg, tick)
        with pytest.raises(TypeError) as got:
            encode_message(msg, tick)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("msg, tick", [
        (PeerStateRequest(True, False), 0),
        (PeerStateRequest(0, 1), True),
        (UpdateBroadcast(1, models.INTERVEHICLE, 0, float("nan"), 5,
                         np.ones(12), None), 4),
        (UpdateBroadcast(1, models.LANDMARK, 0, float("inf"), 5,
                         np.ones(6), None), 4),
        (UpdateBroadcast(1, models.LANDMARK, 0, -float("inf"), 5,
                         np.ones(6), None), 4),
        (UpdateBroadcast(1, models.LANDMARK, 0, np.float64(0.1), 5,
                         np.ones(6), None), 4),
        (UpdateBroadcast(1, "gossip", 0, 0.1, 5, np.ones(6), None), 4),
        (PropagationFactor(0, np.eye(15), 1.5, 2), 2**63 - 1),
    ])
    def test_values_outside_the_fast_cases_render_as_json_dumps(self, msg,
                                                                 tick):
        """A bool, a non-finite or numpy float, an unknown kind and a float
        where an int belongs: each spelled as json.dumps spells it."""
        assert encode_message(msg, tick) == reference_line(msg, tick)

    def test_subclass_encodes_as_its_base(self):
        class Factor(PropagationFactor):
            pass

        class Request(PeerStateRequest):
            pass

        lam = np.arange(225.0).reshape(15, 15)
        assert encode_message(Factor(1, lam, 3, 9), 9) == encode_message(
            PropagationFactor(1, lam, 3, 9), 9)
        assert encode_message(Request(0, 1), 2) == encode_message(
            PeerStateRequest(0, 1), 2)

    def test_non_message_refused(self):
        with pytest.raises(TypeError, match="not a wire message: "
                                            "<class 'dict'>"):
            encode_message({"type": "peer_state_request"}, 0)

    def test_version_check(self):
        with pytest.raises(ValueError):
            decode_message({"type": "peer_state_request", "v": 99})

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            decode_message({"type": "gossip", "v": 1})


def coupled_network(rng, n, world, noise):
    """A network whose prior has non-zero cross blocks, so its nodes keep
    propagation factors from the first tick."""
    return make_network(rng, n, world, noise,
                        k0=random_spd(rng, n * STATE_DOF, scale=0.002))


class TestFactors:
    def test_single_tick_factor(self, world, noise):
        rng = np.random.default_rng(1)
        _, nodes = coupled_network(rng, 2, world, noise)
        imu = [ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0)
               for _ in range(2)]
        a = models.a_check_single(nodes.state, stack_samples(imu))
        tick_nodes(nodes, imu)
        msgs = nodes.emit_propagation_factors()
        for v, msg in enumerate(msgs):
            np.testing.assert_array_equal(msg.lam, expm(a * DT)[v])
            assert (msg.sender, msg.start_tick, msg.end_tick) == (v, 0, 1)

    def test_ordered_product_oracle(self, world, noise):
        rng = np.random.default_rng(2)
        _, nodes = coupled_network(rng, 2, world, noise)
        expected = np.eye(STATE_DOF)
        for k in range(5):
            imu = [ImuSample(rng.standard_normal(3), rng.standard_normal(3),
                             k * TICK_NS) for _ in range(2)]
            a = models.a_check_single(nodes.state, stack_samples(imu))
            expected = expm(a * DT) @ expected
            tick_nodes(nodes, imu)
        np.testing.assert_array_equal(nodes.lam_acc, expected)

    def test_emit_resets_accumulator(self, world, noise):
        rng = np.random.default_rng(3)
        _, nodes = make_network(rng, 1, world, noise)
        nodes.propagate_local(0, ImuSample(np.zeros(3), np.zeros(3), 0), DT)
        nodes.emit_propagation_factors()
        np.testing.assert_array_equal(nodes.lam_acc[0], np.eye(STATE_DOF))
        (msg,) = nodes.emit_propagation_factors()
        assert msg.start_tick == msg.end_tick == 1

    def test_zero_span_absorb_is_noop(self, world, noise):
        rng = np.random.default_rng(4)
        _, nodes = make_network(rng, 2, world, noise)
        for _ in range(3):
            tick_nodes(nodes, [ImuSample(np.zeros(3), np.zeros(3), 0)] * 2)
        nodes.emit_propagation_factors()
        nodes.emit_propagation_factors()
        before = nodes.k_col.copy()
        nodes.absorb_propagation_factor(
            PropagationFactor(1, random_spd(rng, 15), 3, 3))
        np.testing.assert_array_equal(nodes.k_col, before)

    def test_span_mismatch_raises(self, world, noise):
        rng = np.random.default_rng(5)
        _, nodes = make_network(rng, 2, world, noise)
        nodes.emit_propagation_factors()
        peer = PropagationFactor(1, np.eye(15), 0, 3)
        with pytest.raises(SynchronizationError):
            nodes.absorb_propagation_factor(peer)

    def test_incomplete_tick_refuses_exchange(self, world, noise):
        rng = np.random.default_rng(5)
        _, nodes = make_network(rng, 2, world, noise)
        u = ImuSample(np.zeros(3), np.zeros(3), 0)
        nodes.propagate_local(0, u, DT)
        with pytest.raises(SynchronizationError):
            nodes.propagate_local(0, u, DT)
        with pytest.raises(SynchronizationError):
            nodes.emit_propagation_factors()
        nodes.propagate_local(1, u, DT)
        assert nodes.tick == 1 and nodes.t_ns == TICK_NS

    def test_emitted_factor_keeps_its_values(self, world, noise):
        """A factor message holds a view of the nodes' factor stack, which
        later ticks and absorbs rebind but never write."""
        rng = np.random.default_rng(6)
        _, nodes = coupled_network(rng, 3, world, noise)

        def ticks(count):
            for _ in range(count):
                tick_nodes(nodes, [ImuSample(rng.standard_normal(3),
                                             rng.standard_normal(3), 0)
                                   for _ in range(3)])

        ticks(4)
        kept = nodes.lam_acc.copy()
        msgs = exchange_factors(nodes)
        for _ in range(2):
            ticks(3)
            exchange_factors(nodes)
        for msg, lam in zip(msgs, kept):
            np.testing.assert_array_equal(msg.lam, lam)


class TestPropagationEquivalence:
    def test_diag_blocks_match_joint_over_200_ticks(self, world, noise):
        rng = np.random.default_rng(6)
        joint, nodes = make_network(rng, 2, world, noise)
        for k in range(200):
            imu = [ImuSample(0.3 * rng.standard_normal(3),
                             0.3 * rng.standard_normal(3), k * TICK_NS)
                   for _ in range(2)]
            joint.propagate(stack_samples(imu), DT)
            tick_nodes(nodes, imu)
        kj = joint_gain(joint)
        for i in range(2):
            sl = slice(i * STATE_DOF, (i + 1) * STATE_DOF)
            np.testing.assert_array_equal(nodes.k_col[i][sl, :], kj[sl, sl])
            np.testing.assert_array_equal(pose_matrix(nodes.state[i]),
                                          pose_matrix(joint.estimate()[i]))

    def test_zero_dt_rejected(self, world, noise):
        """The node twin of the joint filter's test: a period that is not a
        positive finite number is refused before the node's sample is
        taken, so the tick can still complete."""
        rng = np.random.default_rng(9)
        _, nodes = make_network(rng, 2, world, noise)
        before = nodes.k_col.copy(), nodes.state
        imu = [ImuSample(np.zeros(3), np.zeros(3), 0)] * 2
        for dt in (0.0, -DT, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                nodes.propagate_local(1, imu[1], dt)
        assert_same_bits(nodes.k_col, before[0])
        assert nodes.state is before[1]
        assert (nodes.tick, nodes.t_ns) == (0, 0)
        tick_nodes(nodes, imu)
        assert (nodes.tick, nodes.t_ns) == (1, TICK_NS)

    @pytest.mark.parametrize("field", ["gyro", "accel"])
    @pytest.mark.parametrize("shape", [(2,), (), (1, 3)],
                             ids=["pair", "scalar", "row"])
    def test_malformed_sample_refused_before_the_tick(self, world, noise,
                                                      field, shape):
        """A gyro or accel that is not a 3-vector is refused before the
        node counts as ticked, so its corrected retry completes the tick
        as if the bad sample had never come: a (2,) one once left the node
        ticked (its retry "ticked twice") and a scalar one was copied to
        all three axes."""
        rng = np.random.default_rng(10)
        joint, nodes = make_network(rng, 2, world, noise)
        imu = [ImuSample(0.3 * rng.standard_normal(3),
                         0.3 * rng.standard_normal(3), 0) for _ in range(2)]
        bad = imu[1]._replace(**{field: np.full(shape, 0.1)})
        with pytest.raises(ValueError, match="node 1 needs a 3-vector IMU "
                           "sample"):
            nodes.propagate_local(1, bad, DT)
        assert nodes._pending == {}
        tick_nodes(nodes, imu)
        joint.propagate(stack_samples(imu), DT)
        assert (nodes.tick, nodes.t_ns) == (1, TICK_NS)
        assert_nodes_equal_joint(joint, nodes)


def dense_update(k, e, r, dt):
    """Oracle: the full-system step (I + dt K E)^-1 K and its state increment."""
    k_new = np.linalg.solve(np.eye(len(k)) + dt * (k @ e), k)
    k_new = 0.5 * (k_new + k_new.T)
    return k_new, dt * (k_new @ r)


class TestUpdates:
    def test_zero_innovation_broadcast(self, world, noise):
        rng = np.random.default_rng(7)
        _, nodes = make_network(rng, 2, world, noise)
        y = models.predict_landmark(nodes.state[0], world.landmark(0))
        obs = Observation(models.LANDMARK, 0, 0, y, 0)
        bc = nodes.originate_update(obs)
        assert bc.r.shape == (6,) and bc.gain.shape == (30, 6)
        np.testing.assert_array_equal(bc.r, 0.0)
        # the gain still contracts through the quadratic term
        assert np.linalg.norm(bc.gain) > 0.0

    def test_landmark_system_matches_full_assembly(self, world, noise):
        rng = np.random.default_rng(8)
        joint, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.LANDMARK, 0, 1,
                          rng.standard_normal(3), 0)
        bc = nodes.originate_update(obs)  # no peer traffic needed
        e = dense_hessian(joint.estimate(), obs, world, noise, 0.1)
        _, r = dense_residual(joint.estimate(), obs, world, noise, 0.1)
        k = joint_gain(joint)
        ix = models.update_indices(models.LANDMARK, 0, 1)
        np.testing.assert_array_equal(bc.r, r[ix])
        k_ref, _ = dense_update(k, e, r, 0.1)
        np.testing.assert_allclose(k - bc.gain @ k[ix, :], k_ref, atol=1e-10)

    def test_intervehicle_requires_peer_reply(self, world, noise):
        rng = np.random.default_rng(9)
        _, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.INTERVEHICLE, 0, 1,
                          rng.standard_normal(3), 0)
        with pytest.raises(ValueError):
            nodes.originate_update(obs)
        with pytest.raises(ValueError):
            nodes.originate_update(obs, nodes.peer_state_reply(0))

    def test_only_observer_originates(self, world, noise):
        """The broadcast comes from the observing node, and an observer
        outside the network has no node to originate it."""
        rng = np.random.default_rng(10)
        _, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.LANDMARK, 1, 0, np.zeros(3), 0)
        assert nodes.originate_update(obs).origin == 1
        with pytest.raises(ValueError):
            nodes.originate_update(
                Observation(models.LANDMARK, 2, 0, np.zeros(3), 0))

    def test_columns_stay_c_contiguous(self, world, noise):
        """propagate_local writes the diagonal blocks through a reshape of
        k_col that is a view only while k_col is C-contiguous."""
        rng = np.random.default_rng(12)
        _, nodes = make_network(rng, 3, world, noise)
        for kind, subject in [(models.LANDMARK, 1), (models.INTERVEHICLE, 2),
                              (models.LANDMARK, 0)]:
            before = own_blocks(nodes)
            tick_nodes(nodes, [ImuSample(rng.standard_normal(3),
                                         rng.standard_normal(3), 0)] * 3)
            assert nodes.k_col.flags.c_contiguous
            assert not np.array_equal(own_blocks(nodes), before)
            bc = run_update(nodes, Observation(kind, 0, subject,
                                               rng.standard_normal(3),
                                               nodes.t_ns))
            assert bc.gain is not None
            assert nodes.k_col.flags.c_contiguous

    def test_apply_rejects_time_mismatch(self, world, noise):
        rng = np.random.default_rng(11)
        _, nodes = make_network(rng, 1, world, noise)
        bc = UpdateBroadcast(0, models.LANDMARK, 0, 0.1, TICK_NS,
                             np.zeros(6), np.zeros((15, 6)))
        with pytest.raises(ValueError):
            nodes.apply_update(bc)

    @pytest.mark.parametrize("kind,subject,text", [
        ("bogus", -1, "unknown observation kind 'bogus'"),
        (models.INTERVEHICLE, 0, "a vehicle cannot observe its own marker")],
        ids=["unknown-kind", "self-observation"])
    def test_apply_refuses_a_source_no_observation_has(self, world, noise,
                                                       kind, subject, text):
        """A broadcast is refused, before any node moves, with the text
        Observation refuses its source with: an unknown kind was once
        applied as two vehicles' update, subject -1 wrapping around to
        vehicle 2's rows of k_col."""
        rng = np.random.default_rng(13)
        _, nodes = make_network(rng, 3, world, noise)
        msg = UpdateBroadcast(0, kind, subject, 0.1, nodes.t_ns,
                              np.ones(12), np.ones((45, 12)))
        before = nodes.k_col.copy(), pose_matrix(nodes.state)
        with pytest.raises(models.ObservationError, match=f"^{text}$"):
            nodes.apply_update(msg)
        assert_same_bits(nodes.k_col, before[0])
        assert_same_bits(pose_matrix(nodes.state), before[1])

    def test_singular_system_skipped(self, world, noise, caplog):
        rng = np.random.default_rng(12)
        _, nodes = make_network(rng, 1, world, noise)
        before = nodes.k_col.copy()
        pose = pose_matrix(nodes.state)
        bc = UpdateBroadcast(0, models.LANDMARK, 0, 0.1, 0,
                             np.ones(6), None)
        with caplog.at_level("WARNING"):
            nodes.apply_update(bc)
        np.testing.assert_array_equal(nodes.k_col, before)
        np.testing.assert_array_equal(pose_matrix(nodes.state), pose)
        # the origin refused and said so; receivers stay silent
        assert "skipping" not in caplog.text


def singular_hessian(dt):
    """Update terms whose m x m Hessian term makes I + dt E_ii K_ii zero
    when K_ii = I."""
    def update_terms(states, obs, world, noise, _dt):
        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
        _, r_ix = models.residual(states, obs, world, noise, _dt)
        return r_ix, -np.eye(len(ix)) / dt
    return update_terms


class TestSingularGate:
    def test_joint_raises(self, world, noise, monkeypatch):
        rng = np.random.default_rng(30)
        joint, _ = make_network(rng, 2, world, noise, k0=np.eye(30))
        monkeypatch.setattr(models, "update_terms", singular_hessian(
            noise.nominal_period(models.INTERVEHICLE)))
        before = joint_gain(joint)
        obs = Observation(models.INTERVEHICLE, 0, 1, rng.standard_normal(3),
                          0)
        with pytest.raises(UpdateSingularError):
            joint.update(obs)
        np.testing.assert_array_equal(joint_gain(joint), before)

    def test_distributed_origin_refuses(self, world, noise, monkeypatch,
                                        caplog):
        rng = np.random.default_rng(31)
        n = 3
        _, nodes = make_network(rng, n, world, noise, k0=np.eye(15 * n))
        monkeypatch.setattr(models, "update_terms", singular_hessian(
            noise.nominal_period(models.INTERVEHICLE)))
        cols = nodes.k_col.copy()
        poses = pose_matrix(nodes.state)
        obs = Observation(models.INTERVEHICLE, 1, 2, rng.standard_normal(3),
                          0)
        bus = harness.MessageBus()
        with caplog.at_level("WARNING", logger="meswarm.distributed"):
            harness._distributed_update(nodes, obs, 0, bus)
        skips = [rec for rec in caplog.records
                 if "skipping" in rec.getMessage()]
        assert len(skips) == 1 and skips[0].name == "meswarm.distributed"
        np.testing.assert_array_equal(nodes.k_col, cols)
        np.testing.assert_array_equal(pose_matrix(nodes.state), poses)
        assert [type(msg) for _, msg in bus.records] == (
            [PropagationFactor] * n
            + [PeerStateRequest, PeerStateReply, UpdateBroadcast])
        assert bus.records[-1][1].gain is None


    def test_refused_update_keeps_observation_clock(self, world, noise,
                                                    monkeypatch):
        rng = np.random.default_rng(32)
        joint, nodes = make_network(rng, 2, world, noise, k0=np.eye(30))
        refused = Observation(models.LANDMARK, 0, 0, rng.standard_normal(3),
                              0)
        with monkeypatch.context() as m:
            m.setattr(models, "update_terms", singular_hessian(
                noise.nominal_period(models.LANDMARK)))
            with pytest.raises(UpdateSingularError):
                joint.update(refused)
            assert run_update(nodes, refused).gain is None
        propagate_pair(joint, nodes, rng, 10)
        obs = Observation(models.LANDMARK, 0, 0, rng.standard_normal(3),
                          joint.t_ns)
        assert run_update(nodes, obs).dt == noise.nominal_period(
            models.LANDMARK)
        # the joint filter took the same first-arrival period
        joint.update(obs)
        assert_nodes_match_joint(joint, nodes, 1e-12)


# a power of two, so that dt E_ii reproduces the chosen update system
GATE_DT = 0.125

# (system entry (0, 0), entry (1, 2), the verdict's text or None if accepted)
GATE_CASES = {
    "cond_5e11": (1.0 / 5e11, 0.0, None),
    "cond_2e12": (1.0 / 2e12, 0.0, "condition ~2.00e+12 exceeds 1e+12"),
    "singular": (0.0, 0.0, "update system is singular"),
    "nan": (1.0, np.nan, "update system is not finite"),
    "inf": (1.0, np.inf, "update system is not finite"),
}


def gate_system(m, case):
    """The m x m update system of a gate case: diag(d, 1, ..., 1), whose
    1-norm condition number is 1/d, with one extra entry at (1, 2)."""
    d, extra, _ = GATE_CASES[case]
    s = np.eye(m)
    s[0, 0] = d
    s[1, 2] = extra
    return s


def gate_hessian(case):
    """Update terms with a zero residual whose system I + dt E_ii K_ii is
    gate_system(m, case) when K_ii = I and dt = GATE_DT."""
    def update_terms(states, obs, world, noise, dt):
        assert dt == GATE_DT
        m = len(models.update_indices(obs.kind, obs.observer, obs.subject))
        return np.zeros(m), (gate_system(m, case) - np.eye(m)) / GATE_DT
    return update_terms


class TestGateVerdict:
    """joint.update_inverse refuses an update system whose 1-norm condition
    number exceeds COND_LIMIT = 1e12, that is exactly singular or that is
    not finite; the joint filter raises with its verdict and the origin
    node logs it and broadcasts no gain."""

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    @pytest.mark.parametrize("m", [6, 12, 90])
    def test_gate(self, m, case):
        rng = np.random.default_rng(m)
        # signed, permuted and scaled rows keep the 1-norm condition number
        # exact; the scale keeps both norms of its product from being 1
        signs = rng.choice([-1.0, 1.0], (m, 1))
        s = gate_system(m, case)[rng.permutation(m)] * signs * 1024.0
        text = GATE_CASES[case][2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if text is None:
                inv = joint_module.update_inverse(s)
                np.testing.assert_allclose(inv @ s, np.eye(m), atol=1e-9)
            else:
                with pytest.raises(UpdateSingularError, match=re.escape(text)):
                    joint_module.update_inverse(s)

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    @pytest.mark.parametrize("kind,subject", [(models.LANDMARK, 1),
                                              (models.INTERVEHICLE, 1)])
    def test_joint_and_origin_agree(self, world, kind, subject, case,
                                    monkeypatch, caplog):
        noise = NoiseModel(dt_landmark=GATE_DT, dt_intervehicle=GATE_DT)
        joint, nodes = make_network(np.random.default_rng(41), 2, world,
                                    noise, k0=np.eye(30))
        monkeypatch.setattr(models, "update_terms", gate_hessian(case))
        obs = Observation(kind, 0, subject, np.zeros(3), 0)
        reply = (nodes.peer_state_reply(subject)
                 if kind == models.INTERVEHICLE else None)
        text = GATE_CASES[case][2]
        before = joint_gain(joint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with caplog.at_level("WARNING", logger="meswarm.distributed"):
                bc = nodes.originate_update(obs, reply)
            if text is None:
                joint.update(obs)
            else:
                with pytest.raises(UpdateSingularError, match=re.escape(text)):
                    joint.update(obs)
        skips = [rec.getMessage() for rec in caplog.records
                 if "skipping" in rec.getMessage()]
        if text is None:
            assert bc.gain is not None and not skips
            assert not np.array_equal(joint_gain(joint), before)
        else:
            assert bc.gain is None
            assert len(skips) == 1 and text in skips[0]
            np.testing.assert_array_equal(joint_gain(joint), before)


class TestOneModelEvaluation:
    """Each update evaluates the observation model once, in both filters."""

    @pytest.mark.parametrize("kind", [models.LANDMARK, models.INTERVEHICLE])
    def test_terms_run_once_per_update(self, world, noise, kind,
                                       monkeypatch):
        rng = np.random.default_rng(50)
        joint, nodes = make_network(rng, 2, world, noise)
        terms = models._terms
        calls = []

        def counted(states, obs, *args):
            calls.append(obs.kind)
            return terms(states, obs, *args)

        monkeypatch.setattr(models, "_terms", counted)
        subject = 1 if kind == models.INTERVEHICLE else 0
        obs = Observation(kind, 0, subject, rng.standard_normal(3), 0)
        joint.update(obs)
        assert calls == [kind]
        run_update(nodes, obs)
        assert calls == [kind, kind]


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
            y = models.predict(states, kind, observer, subject, world)
            obs = Observation(kind, observer, subject,
                              y + 0.05 * rng.standard_normal(3), 0)
            e = dense_hessian(states, obs, world, noise, 0.1)
            _, r = dense_residual(states, obs, world, noise, 0.1)
            k_ref, psi = dense_update(k0, e, r, 0.1)
            x_ref = [compose(x, group_exp(psi[i * STATE_DOF:(i + 1) * STATE_DOF]))
                     for i, x in enumerate(states)]

            joint.update(obs)
            run_update(nodes, obs)
            np.testing.assert_allclose(joint_gain(joint), k_ref, rtol=0, atol=1e-12)
            kj = joint_gain(joint)
            for i, (x, ref) in enumerate(zip(joint.estimate(), x_ref)):
                np.testing.assert_allclose(pose_matrix(x), pose_matrix(ref),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(x.gyro_bias, ref.gyro_bias,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(x.accel_bias, ref.accel_bias,
                                           rtol=0, atol=1e-12)
                col = kj[:, i * STATE_DOF:(i + 1) * STATE_DOF]
                np.testing.assert_allclose(nodes.k_col[i], col, rtol=0,
                                           atol=1e-12)
                np.testing.assert_allclose(pose_matrix(nodes.state[i]),
                                           pose_matrix(ref), rtol=0,
                                           atol=1e-12)


def drive_pair(joint, nodes, rng, ticks, update_every):
    """Run the joint filter and the node network on the same inputs."""
    n = nodes.n
    for k in range(1, ticks + 1):
        t_ns = k * TICK_NS
        imu = [ImuSample(0.3 * rng.standard_normal(3),
                         0.3 * rng.standard_normal(3), (k - 1) * TICK_NS)
               for _ in range(n)]
        joint.propagate(stack_samples(imu), DT)
        tick_nodes(nodes, imu)
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
        y = models.predict(joint.estimate(), kind, observer, subject,
                           joint.world)
        y = y + 0.01 * rng.standard_normal(3)
        obs = Observation(kind, observer, subject, y, t_ns)
        joint.update(obs)
        run_update(nodes, obs)


class TestFullEquivalence:
    def test_single_vehicle_matches_joint(self, world, noise):
        rng = np.random.default_rng(14)
        joint, nodes = make_network(rng, 1, world, noise)
        drive_pair(joint, nodes, rng, ticks=100, update_every=20)
        np.testing.assert_allclose(nodes.k_col[0], joint_gain(joint), atol=1e-10)
        np.testing.assert_allclose(pose_matrix(nodes.state[0]),
                                   pose_matrix(joint.estimate()[0]),
                                   atol=1e-10)

    def test_two_vehicles_match_joint(self, world, noise):
        rng = np.random.default_rng(15)
        joint, nodes = make_network(rng, 2, world, noise)
        drive_pair(joint, nodes, rng, ticks=200, update_every=20)
        assert_nodes_match_joint(joint, nodes, 1e-8)

    def test_three_vehicles_match_joint(self, world, noise):
        rng = np.random.default_rng(16)
        joint, nodes = make_network(rng, 3, world, noise)
        drive_pair(joint, nodes, rng, ticks=120, update_every=15)
        assert_nodes_match_joint(joint, nodes, 1e-8)

    def test_same_tick_second_update_uses_zero_span_factors(self, world, noise):
        rng = np.random.default_rng(17)
        joint, nodes = make_network(rng, 2, world, noise)
        imu = [ImuSample(np.zeros(3), np.zeros(3), 0) for _ in range(2)]
        joint.propagate(stack_samples(imu), DT)
        tick_nodes(nodes, imu)
        for lm in (0, 1):
            y = models.predict_landmark(joint.estimate()[0],
                                        joint.world.landmark(lm)) + 0.01
            obs = Observation(models.LANDMARK, 0, lm, y, TICK_NS)
            joint.update(obs)
            msgs = exchange_factors(nodes)
            if lm == 1:
                assert all(m.start_tick == m.end_tick for m in msgs)
            nodes.apply_update(nodes.originate_update(obs))
        kj = joint_gain(joint)
        for i in range(2):
            np.testing.assert_allclose(
                nodes.k_col[i], kj[:, i * STATE_DOF:(i + 1) * STATE_DOF],
                atol=1e-9)


class TestSharedEngine:
    """Both filters run the same per-vehicle step on any update schedule.
    From a prior with a non-zero cross block both hold the gain as the
    same column stack from tick 0 and run the same four functions on it
    (propagate_vehicle, absorb_factor, gain_correction, apply_correction),
    so they agree bit for bit.  From a block-diagonal prior the joint
    filter's landmark rounds symmetrise each block, which the nodes do not,
    so the two agree to within rounding."""

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
        check = (assert_nodes_equal_joint if coupled and n > 1 else
                 functools.partial(assert_nodes_match_joint, atol=1e-10))
        updated = set()
        for span, kind in epochs:  # span 0: a second update on the same tick
            propagate_pair(joint, nodes, rng, span)
            observer = data.draw(st.integers(0, n - 1))
            if kind == models.INTERVEHICLE and n > 1:
                subject = (observer + data.draw(st.integers(1, n - 1))) % n
            else:
                kind, subject = models.LANDMARK, data.draw(st.integers(0, 1))
            y = models.predict(joint.estimate(), kind, observer, subject,
                               world)
            obs = Observation(kind, observer, subject,
                              y + 0.01 * rng.standard_normal(3), joint.t_ns)
            if (kind, observer, subject, joint.t_ns) in updated:
                continue  # the observation clock refuses a repeated stamp
            updated.add((kind, observer, subject, joint.t_ns))
            joint.update(obs)
            run_update(nodes, obs)
            check(joint, nodes)
        # joint_gain brings the cross blocks up to date as a factor exchange
        # does
        propagate_pair(joint, nodes, rng, tail)
        exchange_factors(nodes)
        check(joint, nodes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factors_start_with_the_first_cross_block(self, world, noise, n,
                                                      monkeypatch):
        """The joint filter keeps propagation factors, one stacked expm call
        per tick, only once a cross block can be non-zero: from the first
        tick for a prior with a non-zero cross block, otherwise from the
        first applied inter-vehicle update.  Landmark updates keep the gain
        block diagonal, and a refused inter-vehicle update starts nothing."""
        calls = []

        def counting_expm(a):
            calls.append(a.shape)
            return sla.expm(a)

        def non_finite_terms(states, obs, world, noise, dt):
            m = len(models.update_indices(obs.kind, obs.observer,
                                          obs.subject))
            return np.zeros(m), np.full((m, m), np.nan)

        monkeypatch.setattr(joint_module, "expm", counting_expm)
        rng = np.random.default_rng(50 + n)

        def ticks(joint, count):
            for _ in range(count):
                joint.propagate(stack_samples(
                    [ImuSample(rng.standard_normal(3), rng.standard_normal(3),
                               joint.t_ns) for _ in range(n)]), DT)

        def observe(joint, kind, observer, subject):
            joint.update(Observation(kind, observer, subject,
                                     rng.standard_normal(3), joint.t_ns))

        joint, _ = make_network(rng, n, world, noise)
        for v in range(n):
            ticks(joint, 10)
            observe(joint, models.LANDMARK, v, v % 2)
        ticks(joint, 10)
        assert calls == []
        if n == 1:
            return
        with monkeypatch.context() as m:
            m.setattr(models, "update_terms", non_finite_terms)
            with pytest.raises(UpdateSingularError):
                observe(joint, models.INTERVEHICLE, 0, 1)
        ticks(joint, 10)
        assert calls == []
        observe(joint, models.INTERVEHICLE, 0, 1)
        ticks(joint, 20)
        observe(joint, models.LANDMARK, 0, 0)
        ticks(joint, 20)
        assert calls == [(n, STATE_DOF, STATE_DOF)] * 40

        calls.clear()
        joint, _ = make_network(
            rng, n, world, noise,
            k0=random_spd(rng, n * STATE_DOF, scale=0.002))
        ticks(joint, 20)
        assert calls == [(n, STATE_DOF, STATE_DOF)] * 20


class TestNodeEconomy:
    """The nodes do per tick and per update only the work the joint filter
    does: no factor before a cross block can be non-zero, one view of the
    own diagonal blocks, and an empty span's factors built once per tick."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factors_start_with_the_first_cross_block(self, world, noise, n,
                                                      monkeypatch):
        """The node twin of TestSharedEngine's test: one stacked expm call
        per tick, from the first tick for a prior with a non-zero cross
        block, otherwise from the first applied inter-vehicle broadcast;
        landmark broadcasts and a refused inter-vehicle one start nothing,
        and the factors emitted before then are the identity."""
        calls = []

        def counting_expm(a):
            calls.append(a.shape)
            return sla.expm(a)

        def non_finite_terms(states, obs, world, noise, dt):
            m = len(models.update_indices(obs.kind, obs.observer,
                                          obs.subject))
            return np.zeros(m), np.full((m, m), np.nan)

        monkeypatch.setattr(joint_module, "expm", counting_expm)
        rng = np.random.default_rng(60 + n)

        def ticks(nodes, count):
            for _ in range(count):
                tick_nodes(nodes, [ImuSample(rng.standard_normal(3),
                                             rng.standard_normal(3),
                                             nodes.t_ns) for _ in range(n)])

        def observe(nodes, kind, observer, subject):
            return run_update(nodes, Observation(
                kind, observer, subject, rng.standard_normal(3), nodes.t_ns))

        _, nodes = make_network(rng, n, world, noise)
        for v in range(n):
            ticks(nodes, 10)
            assert observe(nodes, models.LANDMARK, v, v % 2).gain is not None
        ticks(nodes, 10)
        for msg in exchange_factors(nodes):
            assert msg.end_tick > msg.start_tick
            assert_same_bits(msg.lam, np.eye(STATE_DOF))
        assert calls == []
        if n == 1:
            return
        with monkeypatch.context() as m:
            m.setattr(models, "update_terms", non_finite_terms)
            assert observe(nodes, models.INTERVEHICLE, 0, 1).gain is None
        ticks(nodes, 10)
        assert calls == []
        assert observe(nodes, models.INTERVEHICLE, 0, 1).gain is not None
        ticks(nodes, 20)
        observe(nodes, models.LANDMARK, 0, 0)
        ticks(nodes, 20)
        assert calls == [(n, STATE_DOF, STATE_DOF)] * 40

        calls.clear()
        _, nodes = coupled_network(rng, n, world, noise)
        ticks(nodes, 20)
        assert calls == [(n, STATE_DOF, STATE_DOF)] * 20

    @pytest.mark.parametrize("coupled", [False, True])
    def test_absorb_multiplies_only_once_factors_are_kept(self, world,
                                                          noise, coupled):
        """While the nodes keep no factors, absorbing one multiplies
        nothing: a NaN factor over a non-empty span leaves every column's
        bits as they were, where a product with the zero cross block would
        make it NaN, as it does once factors are kept."""
        rng = np.random.default_rng(8)
        make = coupled_network if coupled else make_network
        _, nodes = make(rng, 3, world, noise)
        tick_nodes(nodes, [ImuSample(np.zeros(3), np.zeros(3), 0)] * 3)
        nodes.emit_propagation_factors()
        before = nodes.k_col.copy()
        nodes.absorb_propagation_factor(
            PropagationFactor(1, np.full((STATE_DOF, STATE_DOF), np.nan),
                              0, 1))
        if coupled:
            assert np.isnan(nodes.k_col[0, 15:30]).all()
        else:
            assert_same_bits(nodes.k_col, before)

    @pytest.mark.parametrize("n", [2, 3])
    def test_at_most_2n_factor_messages_per_epoch_tick(self, n):
        """An epoch tick's first exchange builds n factors and its second
        builds the empty span's n, which every later exchange of the tick
        delivers again: at most 2n distinct factor messages per tick,
        while n factors are still delivered per update."""
        noise = scenario_noise()
        sources = scenario_sources(n, noise, 5)
        cfg = harness.ScheduleConfig(duration_s=0.5, seed=5)
        res = harness.run_schedule(cfg, "distributed", sources,
                                   scenario_world(n), noise)
        factors, updates = {}, collections.Counter()
        for tick, msg in res.bus_records:
            if isinstance(msg, PropagationFactor):
                factors.setdefault(tick, []).append(msg)
            elif isinstance(msg, UpdateBroadcast):
                updates[tick] += 1
        assert factors.keys() == updates.keys() and len(updates) == 5
        for tick, msgs in factors.items():
            assert updates[tick] > 2
            assert len(msgs) == n * updates[tick]
            assert len({id(msg) for msg in msgs}) <= 2 * n
            # every exchange after the first of the tick has an empty span
            for k in range(n, len(msgs), n):
                assert msgs[k].start_tick == msgs[k].end_tick == tick
                assert msgs[k] is msgs[n + k % n]

    def test_own_blocks_follow_the_joint_gain_every_tick(self, world, noise):
        """k_col's own diagonal blocks are current after every tick, not
        only at exchanges: the joint gain's diagonal bit for bit before the
        first update, and within criterion 5's 1e-8 after it."""
        rng = np.random.default_rng(70)
        joint, nodes = make_network(rng, 3, world, noise)
        ar = np.arange(3)
        updated = False
        for k in range(1, 121):
            propagate_pair(joint, nodes, rng, 1)
            expected = _blocks(joint_gain(joint), 3)[ar, ar]
            if updated:
                np.testing.assert_allclose(own_blocks(nodes), expected,
                                           rtol=0, atol=1e-8)
            else:
                assert_same_bits(own_blocks(nodes), expected)
            if k % 15 == 0:
                kind = models.INTERVEHICLE if k % 30 else models.LANDMARK
                observer = (k // 15) % 3
                subject = (observer + 1) % 3 if kind == models.INTERVEHICLE \
                    else observer % 2
                y = models.predict(joint.estimate(), kind, observer, subject,
                                   world) + 0.01 * rng.standard_normal(3)
                obs = Observation(kind, observer, subject, y, joint.t_ns)
                joint.update(obs)
                run_update(nodes, obs)
                updated = True


class TestVehicleIndexRefused:
    """A vehicle index outside 0..n-1, a negative one included, raises
    ValueError naming it and n before anything is applied, where numpy
    would otherwise wrap it around to another vehicle."""

    N = 3

    def network(self, world, noise):
        rng = np.random.default_rng(80)
        joint, nodes = make_network(rng, self.N, world, noise)
        propagate_pair(joint, nodes, rng, 2)
        return joint, nodes

    @staticmethod
    def refused(index):
        return pytest.raises(ValueError, match=rf" {index} is not a vehicle "
                             rf"of the network \(n = 3\)$")

    @pytest.mark.parametrize("index", [-1, 3])
    @pytest.mark.parametrize("role", ["observer", "landmark observer",
                                      "subject"])
    def test_joint_update(self, world, noise, role, index):
        """The joint filter refuses the whole call, and the observing node
        the observation, alike."""
        joint, nodes = self.network(world, noise)
        good = Observation(models.LANDMARK, 0, 0, np.zeros(3), joint.t_ns)
        if role == "subject":
            bad = Observation(models.INTERVEHICLE, 0, index, np.zeros(3),
                              joint.t_ns)
        else:
            kind = (models.INTERVEHICLE if role == "observer"
                    else models.LANDMARK)
            bad = Observation(kind, index, 1, np.zeros(3), joint.t_ns)
        assert_refused_alike(
            ValueError, rf" {index} is not a vehicle of the network "
            rf"\(n = 3\)$",
            (joint, lambda: joint.update(good, bad)),
            (nodes, lambda: nodes.originate_update(bad)))
        assert joint._last_obs_ns == nodes._last_obs_ns == {}

    @pytest.mark.parametrize("index", [-1, 3])
    def test_originate_update_subject(self, world, noise, index):
        _, nodes = self.network(world, noise)
        reply = PeerStateReply(index, nodes.state[0], np.zeros((45, 6)))
        with self.refused(index):
            nodes.originate_update(Observation(
                models.INTERVEHICLE, 0, index, np.zeros(3), nodes.t_ns),
                reply)
        assert nodes._last_obs_ns == {}

    @pytest.mark.parametrize("index", [-1, 3])
    def test_peer_state_reply(self, world, noise, index):
        _, nodes = self.network(world, noise)
        with self.refused(index):
            nodes.peer_state_reply(index)

    @pytest.mark.parametrize("index", [-1, 3])
    @pytest.mark.parametrize("field", ["origin", "subject"])
    def test_apply_update(self, world, noise, field, index):
        _, nodes = self.network(world, noise)
        origin, subject = (index, 1) if field == "origin" else (0, index)
        msg = UpdateBroadcast(origin, models.INTERVEHICLE, subject, 0.1,
                              nodes.t_ns, np.ones(12), np.ones((45, 12)))
        before = nodes.k_col.copy(), pose_matrix(nodes.state)
        with self.refused(index):
            nodes.apply_update(msg)
        assert_same_bits(nodes.k_col, before[0])
        assert_same_bits(pose_matrix(nodes.state), before[1])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_absorb_propagation_factor(self, world, noise, index):
        _, nodes = self.network(world, noise)
        (msg, *_) = nodes.emit_propagation_factors()
        before = nodes.k_col.copy()
        with self.refused(index):
            nodes.absorb_propagation_factor(PropagationFactor(
                index, 2 * msg.lam, msg.start_tick, msg.end_tick))
        assert_same_bits(nodes.k_col, before)


class TestNodeInit:
    """The nodes refuse a prior as the joint filter does (tests/test_joint
    TestInit): joint.Network makes the check for both."""

    def test_wrong_column_shape(self, world, noise):
        """Too few columns, and 15n x 15n of entries in columns of the
        wrong width, which side by side would look square."""
        for k_col in (np.eye(15)[None], np.ones((3, 30, 10))):
            with pytest.raises(ValueError, match=(
                    "^K0 has the wrong shape for the vehicle count$")):
                VehicleNode([identity_state()] * 2, k_col, world, noise)

    def test_asymmetric_diag_block(self, world, noise):
        col = np.eye(15)[None].copy()
        col[0, 0, 1] = 0.5
        assert_refused_alike(
            ValueError, "^K0 must be symmetric$",
            (None, lambda: VehicleNode([identity_state()], col, world,
                                       noise)),
            (None, lambda: JointFilter([identity_state()], col[0], world,
                                       noise)))


# -- the per-node oracle ------------------------------------------------------

class OracleNode:
    """One vehicle's node on its own: its state, its 15n x 15 column and its
    factor, advanced by its own calls.  The stacked network must reproduce
    n of these, message by message.  A node keeps its factor from the first
    tick if `factors` (the network's prior has a non-zero cross block),
    otherwise from the first applied inter-vehicle broadcast, and emits the
    identity until then.

    The node's state, diagonal block and factor carry a leading axis of
    one, so that its arithmetic is the stacked kernels' (test_stacked.py
    checks those against the one-vehicle kernels): the comparison then
    holds at 1e-12 also where the filter loses definiteness and amplifies
    any rounding difference."""

    def __init__(self, vehicle_id, n, state, k_col, world, noise, factors):
        self.id = vehicle_id
        self.factors = factors
        self.n = n
        self.state = stack_states([state])
        self.k_col = np.array(k_col, dtype=float)
        self.world = world
        self.noise = noise
        self._noise_term = models.imu_noise_term(noise)
        self.lam_acc = np.eye(STATE_DOF)[None]
        self.lam_start_tick = 0
        self.tick = 0
        self.t_ns = 0
        self._last_obs_ns = {}

    def propagate_local(self, u, dt):
        sl = slice(self.id * STATE_DOF, (self.id + 1) * STATE_DOF)
        self.state, kd, lam = joint_module.propagate_vehicle(
            self.state, self.k_col[None, sl, :],
            self.lam_acc if self.factors else None,
            stack_samples([u]), dt, self.world, self._noise_term)
        self.k_col[sl, :] = kd[0]
        if self.factors:
            self.lam_acc = lam
        self.tick += 1
        self.t_ns += int(round(dt * 1e9))

    def emit_propagation_factor(self):
        msg = PropagationFactor(self.id, self.lam_acc[0].copy(),
                                self.lam_start_tick, self.tick)
        self.lam_acc = np.eye(STATE_DOF)[None]
        self.lam_start_tick = self.tick
        return msg

    def absorb_propagation_factor(self, own, peer):
        assert (own.start_tick, own.end_tick) == (peer.start_tick,
                                                   peer.end_tick)
        if own.start_tick == own.end_tick:
            return
        sl = slice(peer.sender * STATE_DOF, (peer.sender + 1) * STATE_DOF)
        self.k_col[sl, :] = peer.lam @ self.k_col[sl, :] @ own.lam.T

    def peer_state_reply(self):
        return PeerStateReply(self.id, self.state[0],
                              self.k_col[:, :models.UPDATE_SLOTS].copy())

    def originate_update(self, obs, peer_reply=None):
        states = {self.id: self.state[0]}
        cols = [self.k_col[:, :models.UPDATE_SLOTS]]
        if obs.kind == models.INTERVEHICLE:
            states[obs.subject] = peer_reply.state
            cols.append(peer_reply.k_col)
        key = (obs.kind, obs.observer, obs.subject)
        dt = self.noise.effective_period(obs.kind, self._last_obs_ns.get(key),
                                         obs.t_ns)
        r_ix, e_ii = models.update_terms(states, obs, self.world, self.noise,
                                         dt)
        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
        try:
            gain = joint_module.gain_correction(np.hstack(cols), ix, e_ii, dt)
        except UpdateSingularError:
            gain = None
        else:
            self._last_obs_ns[key] = obs.t_ns
        return UpdateBroadcast(self.id, obs.kind, obs.subject, dt, obs.t_ns,
                               r_ix, gain)

    def apply_update(self, msg):
        assert msg.t_ns == self.t_ns
        if msg.gain is None:
            return
        ix = models.update_indices(msg.kind, msg.origin, msg.subject)
        self.k_col = self.k_col - msg.gain @ self.k_col[ix, :]
        psi = msg.dt * (self.k_col[ix, :].T @ msg.r)
        self.state = compose(self.state, group_exp(psi[None]))
        if msg.kind == models.INTERVEHICLE:
            self.factors = True


def oracle_update(nodes, obs, tick, bus):
    """The per-node exchange: n factors, n(n-1) absorbs, n applies."""
    factors = [bus.deliver(tick, nd.emit_propagation_factor()) for nd in nodes]
    for nd in nodes:
        for msg in factors:
            if msg.sender != nd.id:
                nd.absorb_propagation_factor(factors[nd.id], msg)
    reply = None
    if obs.kind == models.INTERVEHICLE:
        bus.deliver(tick, PeerStateRequest(obs.observer, obs.subject))
        reply = bus.deliver(tick, nodes[obs.subject].peer_state_reply())
    bc = bus.deliver(tick, nodes[obs.observer].originate_update(obs, reply))
    for nd in nodes:
        nd.apply_update(bc)


def wire_key(body):
    """What identifies a bus record: its type, sender and span."""
    return (body["type"], body.get("sender", body.get("origin")),
            body.get("requester"), body.get("start_tick"),
            body.get("end_tick"), body.get("kind"), body.get("subject"))


def assert_same_payload(a, b, tol):
    """Two encoded messages' numbers agree within tol, absolute or
    relative, and are None where the other is."""
    if isinstance(b, dict):
        assert a.keys() == b.keys()
        for key in b:
            assert_same_payload(a[key], b[key], tol)
    elif b is None or isinstance(b, str):
        assert a == b
    else:
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)


UPDATE_TERMS = models.update_terms
TOL = 1e-12


def resync(oracle, nodes):
    """Set every oracle node to the stacked network's node."""
    for v, nd in enumerate(oracle):
        nd.k_col = nodes.k_col[v].copy()
        nd.state = stack_states([nodes.state[v]])
        nd.lam_acc = nodes.lam_acc[v][None].copy()


class TestStackedAgainstOracle:
    """The stacked network reproduces n independent per-node oracles on the
    harness's schedule: the same messages, columns, states and errors.

    The two round differently in the last bit now and then (kernels.expm
    picks its degree from the largest norm in a stack), and where the
    filter loses definiteness its updates amplify such a bit without
    bound.  So the oracle restarts from the network's nodes after every
    update: each comparison covers the ticks since the last update and one
    update's exchange, from equal inputs, and agrees within TOL, absolute
    or relative.  A run that diverges (it can, at low observation rates)
    amplifies even one update's rounding past that, and is discarded at
    the update where its gain or its errors leave the working range."""

    IMU_HZ = 200.0
    TICKS = 200
    DIVERGED = 10.0  # gain entries, or position or velocity errors


    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           landmark_hz=st.sampled_from([1.0, 2.0, 10.0]),
           intervehicle_hz=st.sampled_from([1.0, 2.0, 10.0]),
           dropout_landmark=st.sampled_from([0.0, 0.3]),
           dropout_intervehicle=st.sampled_from([0.0, 0.3]),
           coupled=st.booleans(), singular_at=st.none() | st.integers(0, 30))
    def test_messages_columns_states_and_errors(
            self, monkeypatch, seed, n, landmark_hz, intervehicle_hz,
            dropout_landmark, dropout_intervehicle, coupled, singular_at):
        rng = np.random.default_rng(seed)
        dt = 1.0 / self.IMU_HZ
        dt_ns = int(round(1e9 * dt))
        noise = NoiseModel(b_gyro=0.005 * np.eye(3), b_accel=0.02 * np.eye(3),
                           b_gyro_bias=1e-5 * np.eye(3),
                           b_accel_bias=1e-4 * np.eye(3),
                           d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3), dt_imu=dt)
        world = WorldConfig(landmarks={0: np.array([2.0, 0.0, 1.0]),
                                       1: np.array([-1.0, 2.0, 0.5])},
                            markers={v: 0.05 * np.eye(3)[v % 3]
                                     for v in range(n)})
        sources = [harness.SyntheticSource(
            harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                              rot_scale=0.3), noise, v, seed)
            for v in range(n)]
        for src in sources:
            src.prepare(self.TICKS, dt)
        prior = harness.PriorConfig()
        est0 = [harness._perturbed_prior(src.truth_at_tick(0), prior, rng)
                for src in sources]
        k0 = block_diag_prior([prior.k0_block()] * n)
        if coupled:
            sd = np.sqrt(np.diag(k0))
            a = 0.3 * rng.standard_normal((n * STATE_DOF, n * STATE_DOF))
            k0 = sd[:, None] * (np.eye(n * STATE_DOF)
                                + a @ a.T / (n * STATE_DOF)) * sd
        stacked = VehicleNode(est0, columns(k0, n), world, noise)
        oracle = [OracleNode(v, n, est0[v],
                             k0[:, v * STATE_DOF:(v + 1) * STATE_DOF],
                             world, noise, factors=coupled and n > 1)
                  for v in range(n)]

        # a non-finite Hessian term makes the origin refuse its update
        refused = set()

        def terms(states, obs, *args):
            r_ix, e_ii = UPDATE_TERMS(states, obs, *args)
            if (obs.kind, obs.observer, obs.subject, obs.t_ns) in refused:
                e_ii = np.full_like(e_ii, np.nan)
            return r_ix, e_ii

        monkeypatch.setattr(models, "update_terms", terms)
        apply_update = stacked.apply_update

        def apply_checked(msg):
            before = stacked.k_col.copy(), pose_matrix(stacked.state)
            apply_update(msg)
            if msg.gain is None:
                np.testing.assert_array_equal(stacked.k_col, before[0])
                np.testing.assert_array_equal(pose_matrix(stacked.state),
                                              before[1])

        stacked.apply_update = apply_checked

        channels = [(models.LANDMARK, landmark_hz, dropout_landmark,
                     [(v, lm) for v in range(n) for lm in world.landmarks]),
                    (models.INTERVEHICLE, intervehicle_hz,
                     dropout_intervehicle,
                     [(a, b) for a in range(n) for b in range(n) if a != b])]
        events = {}
        for kind, rate, p, pairs in channels:
            for tick in harness._observation_ticks(rate, self.IMU_HZ,
                                                   self.TICKS):
                events.setdefault(tick, []).extend(
                    (kind, a, b, p) for a, b in pairs)

        bus_s, bus_o = harness.MessageBus(), harness.MessageBus()
        shape = (self.TICKS + 1, n)
        est_s, est_o = (VehicleState(np.empty(shape + (3, 3)),
                                     *(np.empty(shape + (3,))
                                       for _ in range(4)))
                        for _ in range(2))
        harness._store(est_s, 0, stacked.state)
        harness._store(est_o, 0, stack_states([nd.state[0] for nd in oracle]))
        updates = 0
        for tick in range(1, self.TICKS + 1):
            imu = [src.imu_at_tick(tick - 1) for src in sources]
            tick_nodes(stacked, imu, dt)
            for nd, u in zip(oracle, imu):
                nd.propagate_local(u, dt)
            truths = [src.truth_at_tick(tick) for src in sources]
            truth_pos = np.array([x.pos for x in truths])
            truth_vel = np.array([x.vel for x in truths])
            for kind, a, b, p in events.get(tick, ()):
                if p > 0.0 and rng.random() < p:
                    continue
                obs = harness.synthesize_observation(
                    truths, world, kind, a, b, noise.d_matrix(kind), rng,
                    tick * dt_ns)
                if updates == singular_at:
                    refused.add((kind, a, b, obs.t_ns))
                updates += 1
                harness._distributed_update(stacked, obs, tick, bus_s)
                oracle_update(oracle, obs, tick, bus_o)
                assume(max(np.abs(stacked.k_col).max(),
                           np.abs(stacked.state.pos - truth_pos).max(),
                           np.abs(stacked.state.vel - truth_vel).max())
                       < self.DIVERGED)
                for v, nd in enumerate(oracle):
                    np.testing.assert_allclose(stacked.k_col[v], nd.k_col,
                                               rtol=TOL, atol=TOL)
                np.testing.assert_allclose(
                    pose_matrix(stacked.state),
                    pose_matrix(stack_states([nd.state[0] for nd in oracle])),
                    rtol=TOL, atol=TOL)
                resync(oracle, stacked)
            harness._store(est_s, tick, stacked.state)
            harness._store(est_o, tick,
                           stack_states([nd.state[0] for nd in oracle]))

        bodies_s = [dict_body(msg, tick) for tick, msg in bus_s.records]
        bodies_o = [dict_body(msg, tick) for tick, msg in bus_o.records]
        assert [wire_key(b) for b in bodies_s] == [
            wire_key(b) for b in bodies_o]
        for a, b in zip(bodies_s, bodies_o):
            assert_same_payload(a, b, TOL)
        forced = [b for b in bodies_s if b["type"] == "update_broadcast"
                  and (b["kind"], b["origin"], b["subject"], b["t_ns"])
                  in refused]
        assert len(forced) == len(refused) <= 1
        assert all(b["gain"] is None for b in forced)
        np.testing.assert_allclose(pose_matrix(est_s), pose_matrix(est_o),
                                   rtol=TOL, atol=TOL)
        truth = VehicleState(*(np.stack([getattr(src.truth, name)
                                         for src in sources], axis=1)
                               for name in ("rot", "pos", "vel", "gyro_bias",
                                            "accel_bias")))
        rows_s = harness.metrics_row(0.0, 0, est_s, truth)
        rows_o = harness.metrics_row(0.0, 0, est_o, truth)
        for name in ("pos_err", "rot_err", "vel_err", "gyro_bias_err",
                     "accel_bias_err"):
            np.testing.assert_allclose(getattr(rows_s, name),
                                       getattr(rows_o, name), rtol=TOL,
                                       atol=TOL)

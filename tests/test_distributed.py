import base64
import collections
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
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
from meswarm.lie import (STATE_DOF, VehicleState, compose, group_exp,
                         make_state, stack_states)
from meswarm.models import ImuSample, NoiseModel, Observation, WorldConfig
from test_acceptance import scenario_noise, scenario_sources, scenario_world
from test_joint import assert_refused_alike, joint_gain
from test_lie import identity_state, pose_matrix
from test_models import (dense_hessian, dense_residual, per_item,
                         stack_samples)

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
    nodes = VehicleNode(states, k0, world, noise)
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
    """One observation as a round of its own: its exchange, and the
    broadcast applied at once."""
    exchange_factors(nodes)
    reply = None
    if obs.kind == models.INTERVEHICLE:
        PeerStateRequest(obs.observer, obs.subject)  # what goes on the wire
        reply = nodes.peer_state_reply(obs.subject)
    (bc,) = nodes.originate_update([obs], [reply])
    nodes.apply_update([bc], [reply])
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
                "lam": None if msg.lam is None else array(msg.lam),
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
                "k_col": None if msg.k_col is None else array(msg.k_col)}
    else:
        body = {"type": "update_broadcast", "origin": msg.origin,
                "kind": msg.kind, "subject": msg.subject, "dt": msg.dt,
                "t_ns": msg.t_ns, "r": array(msg.r), "e": array(msg.e),
                "e_first": array(msg.e_first),
                "cols": None if msg.cols is None else array(msg.cols)}
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
        lam = body["lam"]
        return PropagationFactor(body["sender"],
                                 None if lam is None else decode_array(lam),
                                 body["start_tick"], body["end_tick"])
    if kind == "peer_state_request":
        return PeerStateRequest(body["requester"], body["target"])
    if kind == "peer_state_reply":
        st = body["state"]
        state = VehicleState(*(decode_array(st[part]) for part in
                               ("rot", "pos", "vel", "gyro_bias",
                                "accel_bias")))
        k_col = body["k_col"]
        return PeerStateReply(body["sender"], state,
                              None if k_col is None else decode_array(k_col))
    if kind == "update_broadcast":
        cols = body["cols"]
        return UpdateBroadcast(
            body["origin"], body["kind"], body["subject"], body["dt"],
            body["t_ns"], *(decode_array(body[name])
                            for name in ("r", "e", "e_first")),
            None if cols is None else decode_array(cols))
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
        # a factor over an empty span carries no matrix
        start = draw(st.integers(0, 10**6))
        span = draw(st.just(0) | st.integers(1, 400))
        lam = (None if span == 0
               else draw(float_arrays((STATE_DOF, STATE_DOF))))
        return PropagationFactor(draw(node), lam, start, start + span)
    if kind == "request":
        return PeerStateRequest(draw(node), draw(node))
    # update columns that crossed the bus earlier in the round are None
    cols = st.none() | float_arrays((n * STATE_DOF, models.UPDATE_SLOTS))
    if kind == "reply":
        state = VehicleState(draw(float_arrays((3, 3))),
                             *(draw(float_arrays((3,))) for _ in range(4)))
        return PeerStateReply(draw(node), state, draw(cols))
    obs_kind = draw(st.sampled_from([models.LANDMARK, models.INTERVEHICLE]))
    m = models.UPDATE_SLOTS * (1 if obs_kind == models.LANDMARK else 2)
    return UpdateBroadcast(draw(node), obs_kind, draw(st.integers(0, 5)),
                           draw(st.floats(1e-3, 10.0)),
                           draw(st.integers(0, 2**63 - 1)),
                           draw(float_arrays((m,))),
                           draw(float_arrays((m, m))),
                           draw(float_arrays((m, m))), draw(cols))


class TestWire:
    def test_roundtrip_all_types(self, world, noise):
        rng = np.random.default_rng(0)
        st = random_state(rng)
        col = rng.standard_normal((30, models.UPDATE_SLOTS))
        msgs = [
            PropagationFactor(1, rng.standard_normal((15, 15)), 3, 9),
            PropagationFactor(2, None, 9, 9),
            PeerStateRequest(0, 1),
            PeerStateReply(1, st, col),
            PeerStateReply(0, st, None),
            UpdateBroadcast(0, models.LANDMARK, 2, 0.1, 5_000_000,
                            rng.standard_normal(6),
                            rng.standard_normal((6, 6)),
                            rng.standard_normal((6, 6)),
                            rng.standard_normal((30, 6))),
            UpdateBroadcast(0, models.INTERVEHICLE, 1, 0.1, 5_000_000,
                            rng.standard_normal(12),
                            rng.standard_normal((12, 12)),
                            rng.standard_normal((12, 12)),
                            rng.standard_normal((30, 6))),
            UpdateBroadcast(1, models.INTERVEHICLE, 0, 0.1, 5_000_000,
                            rng.standard_normal(12),
                            rng.standard_normal((12, 12)),
                            rng.standard_normal((12, 12)), None),
        ]
        for msg in msgs:
            body = json.loads(encode_message(msg, 7))
            assert body["v"] == WIRE_VERSION == 8 and body["tick"] == 7
            assert_same_message(decode_message(body), msg)
        # columns that crossed the bus earlier in the round are null
        assert json.loads(encode_message(msgs[-1], 0))["cols"] is None
        assert json.loads(encode_message(msgs[4], 0))["k_col"] is None
        later = json.loads(encode_message(msgs[-2], 0))
        assert later["e"]["shape"] == later["e_first"]["shape"] == [12, 12]
        assert json.loads(encode_message(msgs[0], 0))["lam"]["shape"] == [
            15, 15]
        assert json.loads(encode_message(msgs[1], 0))["lam"] is None

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
        assert body["v"] == 8 and body["tick"] == tick
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
                                  np.zeros(6), np.eye(6), np.eye(6), None)
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
                         np.ones(12), np.eye(12), np.eye(12), None), 4),
        (UpdateBroadcast(1, models.LANDMARK, 0, float("inf"), 5,
                         np.ones(6), np.eye(6), np.eye(6), None), 4),
        (UpdateBroadcast(1, models.LANDMARK, 0, -float("inf"), 5,
                         np.ones(6), np.eye(6), np.eye(6), None), 4),
        (UpdateBroadcast(1, models.LANDMARK, 0, np.float64(0.1), 5,
                         np.ones(6), np.eye(6), np.eye(6), None), 4),
        (UpdateBroadcast(1, "gossip", 0, 0.1, 5, np.ones(6), np.eye(6),
                         np.eye(6), None), 4),
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
        a = models.a_check_single(models.imu_error(nodes.state,
                                                   stack_samples(imu)))
        tick_nodes(nodes, imu)
        msgs = nodes.emit_propagation_factors()
        for v, msg in enumerate(msgs):
            # one tick's transition, Phi = I + A dt
            np.testing.assert_array_equal(msg.lam, np.eye(STATE_DOF)
                                          + DT * a[v])
            assert (msg.sender, msg.start_tick, msg.end_tick) == (v, 0, 1)

    def test_ordered_product_oracle(self, world, noise):
        rng = np.random.default_rng(2)
        _, nodes = coupled_network(rng, 2, world, noise)
        expected = np.eye(STATE_DOF)
        for k in range(5):
            imu = [ImuSample(rng.standard_normal(3), rng.standard_normal(3),
                             k * TICK_NS) for _ in range(2)]
            a = models.a_check_single(models.imu_error(nodes.state,
                                                       stack_samples(imu)))
            expected = expected + DT * (a @ expected)
            tick_nodes(nodes, imu)
        # the ordered product of the ticks' transitions Phi = I + A dt,
        # each applied as lam + dt A lam
        np.testing.assert_array_equal(nodes.lam_acc, expected)

    def test_emit_resets_accumulator(self, world, noise):
        rng = np.random.default_rng(3)
        _, nodes = make_network(rng, 1, world, noise)
        nodes.propagate_local(0, ImuSample(np.zeros(3), np.zeros(3), 0), DT)
        nodes.emit_propagation_factors()
        np.testing.assert_array_equal(nodes.lam_acc[0], np.eye(STATE_DOF))
        (msg,) = nodes.emit_propagation_factors()
        assert msg.start_tick == msg.end_tick == 1 and msg.lam is None

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

    @pytest.mark.parametrize("lam", [None, np.eye(14), np.ones((15, 14)),
                                     np.ones(15), np.ones((2, 15, 15)),
                                     np.float64(1.0)])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_malformed_factor_refused(self, world, noise, lam, coupled):
        """A factor over a non-empty span whose lam is not 15 x 15, None
        included, raises ValueError naming its sender and span before any
        column, factor or state moves."""
        rng = np.random.default_rng(5)
        make = coupled_network if coupled else make_network
        _, nodes = make(rng, 2, world, noise)
        tick_nodes(nodes, [ImuSample(np.ones(3), np.ones(3), 0)] * 2)
        nodes.emit_propagation_factors()
        before = (nodes.k_col.copy(), nodes.lam_acc.copy(),
                  pose_matrix(nodes.state))
        with pytest.raises(ValueError, match=(
                r"^factor from 1 over ticks 0\.\.1 needs lam of shape "
                r"\(15, 15\), got ")):
            nodes.absorb_propagation_factor(PropagationFactor(1, lam, 0, 1))
        assert_same_bits(nodes.k_col, before[0])
        assert_same_bits(nodes.lam_acc, before[1])
        assert_same_bits(pose_matrix(nodes.state), before[2])

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
        with pytest.raises(ValueError, match=r"^node 1 needs IMU rows of "
                           r"shape \(3,\)"):
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


def dense_fallback_update(states, obs, world, noise, dt, k):
    """dense_update with the first-order fallback: where the second-order
    step leaves K indefinite (one dense Cholesky), the step with the Hessian
    term at zero innovation, F^T M F.  Returns the gain, the state
    increment and whether it fell back."""
    _, r = dense_residual(states, obs, world, noise, dt)
    still = models.predict(states, obs.kind, obs.observer, obs.subject, world)
    for y in (obs.y, still):
        e = dense_hessian(states, dataclasses.replace(obs, y=y), world,
                          noise, dt)
        k_new, psi = dense_update(k, e, r, dt)
        if np.linalg.eigvalsh(k_new)[0] > 0.0:
            break
    return k_new, psi, y is still


# the refusal text of a broadcast whose r, e, e_first or cols is misshaped
SHAPES = "shapes"
BAD_PERIOD = "broadcast period must be positive and finite: "

# (kind, the fields a case changes in a well-formed broadcast, the start of
# its refusal's text); "reply" is the (sender, k_col shape) of the reply
# handed over with the broadcast, or None for none
MALFORMED = {
    "short-r": (models.LANDMARK, {"r": np.ones(5)}, SHAPES),
    "wide-gain": (models.LANDMARK, {"cols": np.ones((45, 12))}, SHAPES),
    "short-gain": (models.LANDMARK, {"cols": np.ones((30, 6))}, SHAPES),
    "short-r-no-cols": (models.LANDMARK, {"r": np.ones(5), "cols": None},
                        SHAPES),
    "iv-short-r": (models.INTERVEHICLE, {"r": np.ones(6)}, SHAPES),
    "iv-narrow-gain": (models.INTERVEHICLE, {"e": np.ones((12, 6))},
                       SHAPES),
    "iv-column-r": (models.INTERVEHICLE, {"r": np.ones((12, 1))}, SHAPES),
    "iv-flat-gain": (models.INTERVEHICLE, {"cols": np.ones(45 * 6)},
                     SHAPES),
    "wide-e": (models.LANDMARK, {"e": np.ones((12, 12))}, SHAPES),
    "no-e-first": (models.LANDMARK, {"e_first": None}, SHAPES),
    "iv-short-e-first": (models.INTERVEHICLE, {"e_first": np.ones((6, 6))},
                         SHAPES),
    "dt-zero": (models.LANDMARK, {"dt": 0.0}, BAD_PERIOD),
    "dt-negative": (models.LANDMARK, {"dt": -0.1}, BAD_PERIOD),
    "dt-nan": (models.LANDMARK, {"dt": float("nan")}, BAD_PERIOD),
    "iv-dt-inf": (models.INTERVEHICLE, {"dt": float("inf")}, BAD_PERIOD),
    "iv-no-cols-dt-nan": (models.INTERVEHICLE, {"dt": float("nan"),
                                                "cols": None}, BAD_PERIOD),
    "iv-no-reply": (models.INTERVEHICLE, {"reply": None},
                    "inter-vehicle broadcast needs the reply of its subject "
                    "1, got the reply of None$"),
    "iv-reply-of-origin": (models.INTERVEHICLE, {"reply": (0, (45, 6))},
                           "inter-vehicle broadcast needs the reply of its "
                           "subject 1, got the reply of 0$"),
    "iv-reply-narrow-column": (models.INTERVEHICLE, {"reply": (1, (45, 3))},
                               r"reply of 1 needs k_col of shape \(45, 6\) "
                               r"or None, got \(45, 3\)$"),
    "landmark-with-reply": (models.LANDMARK, {"reply": (1, (45, 6))},
                            "landmark broadcast takes no peer reply, got the "
                            "reply of 1$"),
    # a round that ends without a vehicle's update columns
    "no-cols": (models.LANDMARK, {"cols": None},
                "round at 0 ns ended without the update columns of vehicle "
                "0$"),
    "iv-reply-without-column": (models.INTERVEHICLE, {"reply": (1, None)},
                                "round at 0 ns ended without the update "
                                "columns of vehicle 1$"),
}


class TestUpdates:
    def test_zero_innovation_broadcast(self, world, noise):
        rng = np.random.default_rng(7)
        _, nodes = make_network(rng, 2, world, noise)
        y = models.predict_landmark(nodes.state[0], world.landmark(0))
        obs = Observation(models.LANDMARK, 0, 0, y, 0)
        before = nodes.k_col.copy(), pose_matrix(nodes.state)
        bc = run_update(nodes, obs)
        assert bc.r.shape == (6,) and bc.cols.shape == (30, 6)
        assert bc.e.shape == bc.e_first.shape == (6, 6)
        np.testing.assert_array_equal(bc.r, 0.0)
        np.testing.assert_array_equal(pose_matrix(nodes.state), before[1])
        # the gain still contracts through the quadratic term
        assert np.linalg.norm(nodes.k_col[0]) < np.linalg.norm(before[0][0])

    def test_landmark_system_matches_full_assembly(self, world, noise):
        rng = np.random.default_rng(8)
        joint, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.LANDMARK, 0, 1,
                          rng.standard_normal(3), 0)
        k = joint_gain(joint)
        k_ref, psi, first = dense_fallback_update(joint.estimate(), obs, world,
                                                  noise, 0.1, k)
        # no peer traffic needed; a round of one
        bc = run_update(nodes, obs)
        # the broadcast's terms are the dense assembly's on the update slots
        ix = models.update_indices(models.LANDMARK, 0, 1)
        _, r = dense_residual(joint.estimate(), obs, world, noise, 0.1)
        np.testing.assert_allclose(bc.r, r[ix], atol=1e-10)
        np.testing.assert_allclose(joint_gain(nodes), k_ref, atol=1e-10)
        want = [compose(x, group_exp(psi[i * STATE_DOF:(i + 1) * STATE_DOF]))
                for i, x in enumerate(joint.estimate())]
        np.testing.assert_allclose(pose_matrix(nodes.state),
                                   pose_matrix(stack_states(want)), atol=1e-10)
        assert nodes.fallbacks == ({models.LANDMARK: 1} if first else {})

    def test_intervehicle_requires_peer_reply(self, world, noise):
        rng = np.random.default_rng(9)
        _, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.INTERVEHICLE, 0, 1,
                          rng.standard_normal(3), 0)
        with pytest.raises(ValueError):
            nodes.originate_update([obs], [None])
        with pytest.raises(ValueError):
            nodes.originate_update([obs], [nodes.peer_state_reply(0)])

    def test_only_observer_originates(self, world, noise):
        """The broadcast comes from the observing node, and an observer
        outside the network has no node to originate it."""
        rng = np.random.default_rng(10)
        _, nodes = make_network(rng, 2, world, noise)
        obs = Observation(models.LANDMARK, 1, 0, np.zeros(3), 0)
        assert nodes.originate_update([obs], [None])[0].origin == 1
        with pytest.raises(ValueError):
            nodes.originate_update(
                [Observation(models.LANDMARK, 2, 0, np.zeros(3), 0)], [None])

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
            assert bc.cols is not None
            assert nodes.k_col.flags.c_contiguous

    def test_apply_rejects_time_mismatch(self, world, noise):
        rng = np.random.default_rng(11)
        _, nodes = make_network(rng, 1, world, noise)
        bc = UpdateBroadcast(0, models.LANDMARK, 0, 0.1, TICK_NS,
                             np.zeros(6), np.zeros((6, 6)), np.zeros((6, 6)),
                             np.zeros((15, 6)))
        with pytest.raises(ValueError):
            nodes.apply_update([bc], [None])

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
                              np.ones(12), np.eye(12), np.eye(12),
                              np.ones((45, 6)))
        before = nodes.k_col.copy(), pose_matrix(nodes.state)
        with pytest.raises(models.ObservationError, match=f"^{text}$"):
            nodes.apply_update([msg], [None])
        assert_same_bits(nodes.k_col, before[0])
        assert_same_bits(pose_matrix(nodes.state), before[1])

    @pytest.mark.parametrize("kind,change,text", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_apply_refuses_a_misshaped_broadcast(self, world, noise, kind,
                                                 change, text):
        """A broadcast is refused before any node moves if its r is not
        (m,), its e and e_first are not (m, m), its cols are neither None
        nor (15n, 6), its dt is not positive and finite (the round's terms
        scale by it at every node), or it comes without the reply of its
        subject for an inter-vehicle update (or with a reply whose k_col
        is neither None nor (15n, 6)), or with a reply for a landmark
        update: a 5-entry r once moved every column and then failed in the
        retraction.  A round that ends without the update columns of one
        of its vehicles is refused as a whole.  The broadcast without the
        case's change is applied."""
        rng = np.random.default_rng(14)
        _, nodes = make_network(rng, 3, world, noise)
        m = 6 if kind == models.LANDMARK else 12
        fields = {"r": np.ones(m), "cols": np.ones((45, 6)),
                  "e": np.eye(m), "e_first": np.eye(m), "dt": 0.1,
                  "reply": (1, (45, 6)) if m == 12 else None}

        def apply(fields):
            reply = fields["reply"]
            if reply is not None:
                sender, shape = reply
                reply = PeerStateReply(sender, nodes.state[sender],
                                       None if shape is None
                                       else np.ones(shape))
            nodes.apply_update([UpdateBroadcast(
                0, kind, 0 if m == 6 else 1, fields["dt"], nodes.t_ns,
                fields["r"], fields["e"], fields["e_first"],
                fields["cols"])], [reply])

        before = (nodes.k_col.copy(), nodes.lam_acc.copy(),
                  pose_matrix(nodes.state))
        if text == SHAPES:
            text = (rf"{kind} broadcast needs r of shape \({m},\), e and "
                    rf"e_first of shape \({m}, {m}\) and cols of shape "
                    rf"\(45, 6\) or None, got ")
        with pytest.raises(ValueError, match=f"^{text}"):
            apply({**fields, **change})
        assert_same_bits(nodes.k_col, before[0])
        assert_same_bits(nodes.lam_acc, before[1])
        assert_same_bits(pose_matrix(nodes.state), before[2])
        assert not nodes._coupled
        apply(fields)
        assert not np.array_equal(nodes.k_col, before[0])

    def test_singular_system_skipped(self, world, noise, caplog):
        """A round whose system the gate refuses is left out at every node
        and logged once: dt E_ii = -I on K_ii = I makes it zero."""
        rng = np.random.default_rng(12)
        _, nodes = make_network(rng, 1, world, noise, k0=np.eye(15))
        before = nodes.k_col.copy()
        pose = pose_matrix(nodes.state)
        bc = UpdateBroadcast(0, models.LANDMARK, 0, 0.1, 0, np.ones(6),
                             -np.eye(6) / 0.1, np.zeros((6, 6)),
                             nodes.k_col[0, :, :6].copy())
        with caplog.at_level("WARNING"):
            nodes.apply_update([bc], [None])
        np.testing.assert_array_equal(nodes.k_col, before)
        np.testing.assert_array_equal(pose_matrix(nodes.state), pose)
        skips = [rec for rec in caplog.records
                 if "skipping" in rec.getMessage()]
        assert len(skips) == 1 and "update system is singular" in (
            skips[0].getMessage())
        assert nodes._last_obs_ns == {} and nodes.rounds == {}


def singular_hessian(dt):
    """Update terms whose m x m Hessian term makes I + dt E_ii K_ii zero
    when K_ii = I, for an observation or a stack of them, with the true
    residual entries."""
    def update_terms(states, obs, world, noise, _dt):
        r_ix, e_ii, _ = UPDATE_TERMS(states, obs, world, noise, _dt)
        m = e_ii.shape[-1]
        return (r_ix, np.broadcast_to(-np.eye(m) / dt, e_ii.shape).copy(),
                np.zeros_like(e_ii))
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
        """The nodes leave a refused round out, with one warning: the
        exchange still delivers its messages, the broadcast its terms."""
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
            harness._distributed_round(nodes, [obs], 0, bus)
        skips = [rec for rec in caplog.records
                 if "skipping" in rec.getMessage()]
        assert len(skips) == 1 and skips[0].name == "meswarm.distributed"
        np.testing.assert_array_equal(nodes.k_col, cols)
        np.testing.assert_array_equal(pose_matrix(nodes.state), poses)
        assert [type(msg) for _, msg in bus.records] == (
            [PropagationFactor] * n
            + [PeerStateRequest, PeerStateReply, UpdateBroadcast])
        assert bus.records[-1][1].cols is not None
        np.testing.assert_array_equal(bus.records[-1][1].e,
                                      -np.eye(12) / 0.1)
        assert nodes._last_obs_ns == {} and nodes.rounds == {}


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
            run_update(nodes, refused)
        assert joint._last_obs_ns == nodes._last_obs_ns == {}
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
        return (np.zeros(m), (gate_system(m, case) - np.eye(m)) / GATE_DT,
                np.zeros((m, m)))
    return per_item(update_terms)


class TestGateVerdict:
    """joint.update_inverse refuses an update system whose 1-norm condition
    number exceeds COND_LIMIT = 1e12, that is exactly singular or that is
    not finite; the joint filter raises with its verdict and the nodes log
    it and leave the round out."""

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
                nodes.apply_update(nodes.originate_update([obs], [reply]),
                                   [reply])
            if text is None:
                joint.update(obs)
            else:
                with pytest.raises(UpdateSingularError, match=re.escape(text)):
                    joint.update(obs)
        skips = [rec.getMessage() for rec in caplog.records
                 if "skipping" in rec.getMessage()]
        if text is None:
            assert not skips
            assert not np.array_equal(joint_gain(joint), before)
        else:
            assert len(skips) == 1 and text in skips[0]
            np.testing.assert_array_equal(joint_gain(joint), before)
        assert_nodes_equal_joint(joint, nodes)


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


class TestRoundOrigination:
    """The nodes originate a round in one call: one evaluation of the
    observation model per round, each broadcast the terms its observation
    gets alone, the update columns in the messages that carried them one
    observation at a time, and a refused round leaves nothing behind."""

    def test_one_call_per_round(self, monkeypatch):
        """An epoch of six vehicles and three landmarks is 3 landmark and
        5 inter-vehicle rounds: 8 originate_update calls and 8 model
        evaluations for its 48 broadcasts."""
        calls, terms = [], models._terms
        originate = VehicleNode.originate_update

        def counted_terms(states, obs, *args):
            calls.append(("terms", obs.kind))
            return terms(states, obs, *args)

        def counted_origin(self, observations, replies):
            calls.append(("origin", len(observations)))
            return originate(self, observations, replies)

        monkeypatch.setattr(models, "_terms", counted_terms)
        monkeypatch.setattr(VehicleNode, "originate_update", counted_origin)
        noise = scenario_noise()
        cfg = harness.ScheduleConfig(duration_s=0.1, seed=3)
        result = harness.run_schedule(cfg, harness.MODE_DISTRIBUTED,
                                      scenario_sources(6, noise, 3),
                                      scenario_world(6), noise)
        assert calls == ([("origin", 6), ("terms", models.LANDMARK)] * 3
                         + [("origin", 6), ("terms", models.INTERVEHICLE)]
                         * 5)
        assert sum(isinstance(msg, UpdateBroadcast)
                   for _, msg in result.bus_records) == 48

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           coupled=st.booleans(), data=st.data())
    def test_broadcasts_equal_single_calls(self, seed, n, coupled, data):
        """Every broadcast of a round from joint.epoch_rounds, of either
        kind, at random states, gains and periods, carries the period and
        the terms, bit for bit, of models.update_terms on its observation
        alone given {observer: own state, subject: reply.state}; each
        vehicle's update columns ride in the first reply or broadcast of
        the round, in exchange order, and every later one carries None."""
        rng = np.random.default_rng(seed)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        world = WorldConfig(
            landmarks={lm: rng.standard_normal(3) for lm in range(3)},
            markers={v: 0.05 * rng.standard_normal(3) for v in range(n)})
        k0 = (random_spd(rng, n * STATE_DOF, scale=0.002) if coupled
              else None)
        _, nodes = make_network(rng, n, world, noise, k0=k0)
        sources = ([(models.LANDMARK, v, lm) for v in range(n)
                    for lm in range(3)]
                   + [(models.INTERVEHICLE, a, b) for a in range(n)
                      for b in range(n) if a != b])
        keep = data.draw(st.lists(st.booleans(), min_size=len(sources),
                                  max_size=len(sources)), label="keep")
        sources = [src for src, k in zip(sources, keep) if k]
        assume(sources)
        group = data.draw(st.sampled_from(
            joint_module.epoch_rounds(sources, n)), label="round")
        # a source's last arrival, or none: the period is the nominal one,
        # the time since, or its cap
        last = {}
        for i in group:
            gap = data.draw(st.none() | st.integers(1, 2 * 10**9))
            if gap is not None:
                last[sources[i]] = -gap
        nodes._last_obs_ns.update(last)
        observations = [Observation(*sources[i], rng.standard_normal(3), 0)
                        for i in group]
        states, k_col = nodes.state, nodes.k_col.copy()
        bus = harness.MessageBus()
        harness._distributed_round(nodes, observations, 0, bus)

        msgs = [msg for _, msg in bus.records
                if not isinstance(msg, PropagationFactor)]
        seen = set()
        for obs in observations:
            reply = None
            if obs.kind == models.INTERVEHICLE:
                request, reply, bc = msgs[:3]
                del msgs[:3]
                assert request == PeerStateRequest(obs.observer, obs.subject)
                assert reply.sender == obs.subject
                assert_same_bits(reply.state.rot, states.rot[obs.subject])
                assert_same_bits(reply.state.pos, states.pos[obs.subject])
                carried = [(reply.k_col, obs.subject), (bc.cols, obs.observer)]
            else:
                bc = msgs.pop(0)
                carried = [(bc.cols, obs.observer)]
            for cols, v in carried:
                if v in seen:
                    assert cols is None
                else:
                    assert_same_bits(cols, k_col[v, :, :models.UPDATE_SLOTS])
                    seen.add(v)
            key = (obs.kind, obs.observer, obs.subject)
            dt = noise.effective_period(obs.kind, last.get(key), 0)
            alone = {obs.observer: states[obs.observer]}
            if reply is not None:
                alone[obs.subject] = reply.state
            r, e, e_first = models.update_terms(alone, obs, world, noise, dt)
            assert (bc.origin, bc.kind, bc.subject, bc.t_ns) == (
                obs.observer, obs.kind, obs.subject, 0)
            assert type(bc.dt) is float and bc.dt == dt
            for got, want in ((bc.r, r), (bc.e, e), (bc.e_first, e_first)):
                assert_same_bits(got, want)
        assert msgs == []

    def test_refused_observation_leaves_nothing_staged(self, world, noise):
        """A round with an observation the nodes refuse raises before any
        exchange runs or any message is built or delivered, and takes no
        update column: the nodes keep every bit and tick on, and the round
        without it leaves them equal to the joint filter, bit for bit."""
        rng = np.random.default_rng(70)
        joint, nodes = make_network(rng, 2, world, noise)
        propagate_pair(joint, nodes, rng, 3)
        good = Observation(models.LANDMARK, 0, 0, rng.standard_normal(3),
                           nodes.t_ns)
        unknown = Observation(models.LANDMARK, 1, 99, np.zeros(3),
                              nodes.t_ns)
        bus = harness.MessageBus()
        before = (nodes.k_col.copy(), pose_matrix(nodes.state),
                  nodes.lam_acc.copy())
        span = nodes.lam_start_tick
        with pytest.raises(models.ObservationError,
                           match="^unknown landmark index 99$"):
            harness._distributed_round(nodes, [good, unknown], nodes.tick,
                                       bus)
        assert bus.records == []
        assert nodes._sent == set()
        after = (nodes.k_col, pose_matrix(nodes.state), nodes.lam_acc)
        for a, b in zip(before, after):
            assert_same_bits(a, b)
        assert nodes.lam_start_tick == span
        harness._distributed_round(nodes, [good], nodes.tick, bus)
        joint.update(good)
        assert_nodes_equal_joint(joint, nodes)
        propagate_pair(joint, nodes, rng, 2)
        assert_nodes_equal_joint(joint, nodes)

    def test_refused_reply_gives_the_columns_back(self, world, noise):
        """A reply that is not the subject's is refused as it is read, and
        the update columns the round's earlier replies and broadcasts took
        are given back: the next round sends them again."""
        rng = np.random.default_rng(71)
        _, nodes = make_network(rng, 2, world, noise)
        ab, ba = (Observation(models.INTERVEHICLE, a, b,
                              rng.standard_normal(3), 0)
                  for a, b in ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="needs the reply of its "
                                             "subject 0, got the reply of 1"):
            nodes.originate_update([ab, ba], (nodes.peer_state_reply(1)
                                              for _ in range(2)))
        assert nodes._sent == set()
        reply = nodes.peer_state_reply(1)
        (bc,) = nodes.originate_update([ab], [reply])
        assert reply.k_col is not None and bc.cols is not None

    def test_round_of_one_kind(self, world, noise):
        rng = np.random.default_rng(72)
        _, nodes = make_network(rng, 2, world, noise)
        lm = Observation(models.LANDMARK, 0, 0, np.zeros(3), 0)
        iv = Observation(models.INTERVEHICLE, 1, 0, np.zeros(3), 0)
        with pytest.raises(ValueError, match="^a round holds observations "
                                             "of one kind"):
            nodes.originate_update([lm, iv], [None, None])
        assert nodes._sent == set()


def round_observations(nodes, sources, world, rng):
    """An observation of each source at the nodes' time: its noise-free
    measurement at the nodes' estimate, plus 1 cm of noise."""
    return [Observation(*src, models.predict(nodes.estimate(), *src, world)
                        + 0.01 * rng.standard_normal(3), nodes.t_ns)
            for src in sources]


def originate_round(nodes, observations):
    """A round's exchanges and broadcasts, as harness._distributed_round
    runs them, without applying it: (broadcasts, replies)."""
    replies = []

    def read():
        for obs in observations:
            exchange_factors(nodes)
            replies.append(nodes.peer_state_reply(obs.subject)
                           if obs.kind == models.INTERVEHICLE else None)
            yield replies[-1]

    return nodes.originate_update(observations, read()), replies


def corrupt_round(nodes, case, broadcasts, replies, data):
    """The round with one message corrupted by `case`, a key of MALFORMED
    (its shapes of n = 3 scaled to the nodes' n) or "mixed-kind", and the
    start of the refusal's text, a regex.  The message is drawn from those
    the case changes: for a missing update column, one that carries it."""
    n, slots = nodes.n, nodes.n * STATE_DOF
    broadcasts, replies = list(broadcasts), list(replies)
    if case == "mixed-kind":
        i = data.draw(st.integers(0, len(broadcasts) - 1), label="message")
        bc = broadcasts[i]
        if bc.kind == models.LANDMARK:
            kind, subject, m = models.INTERVEHICLE, (bc.origin + 1) % n, 12
            replies[i] = PeerStateReply(subject, nodes.state[subject],
                                        np.ones((slots, 6)))
        else:
            kind, subject, m = models.LANDMARK, 0, 6
            replies[i] = None
        broadcasts[i] = UpdateBroadcast(bc.origin, kind, subject, bc.dt,
                                        bc.t_ns, np.ones(m), np.eye(m),
                                        np.eye(m), np.ones((slots, 6)))
        kinds = [b.kind for b in broadcasts]
        other = next(k for k in kinds if k != kinds[0])
        return broadcasts, replies, (f"a round holds observations of one "
                                     f"kind, got {kinds[0]} and {other}$")

    def scaled(a):
        shape = tuple({45: slots, 30: slots - 15, 270: 6 * slots}.get(d, d)
                      for d in np.shape(a))
        return None if a is None else np.ones(shape)

    kind, change, text = MALFORMED[case]
    if case == "no-cols":
        carried = [bc.cols for bc in broadcasts]
    elif case == "iv-reply-without-column":
        carried = [reply.k_col for reply in replies]
    else:
        carried = broadcasts
    i = data.draw(st.sampled_from([i for i, a in enumerate(carried)
                                   if a is not None]), label="message")
    bc = broadcasts[i]
    broadcasts[i] = dataclasses.replace(bc, **{
        name: value if name == "dt" else scaled(value)
        for name, value in change.items() if name != "reply"})
    sender = None
    if change.get("reply") is not None:
        # MALFORMED's sender 0 is the origin, 1 the subject or, for a
        # landmark, another vehicle
        sender, shape = change["reply"]
        sender = (bc.origin if sender == 0 else bc.subject
                  if kind == models.INTERVEHICLE else (bc.origin + 1) % n)
        replies[i] = PeerStateReply(sender, nodes.state[sender],
                                    None if shape is None
                                    else scaled(np.empty(shape)))
    elif "reply" in change:
        replies[i] = None
    m = 6 if kind == models.LANDMARK else 12
    missing = f"round at {nodes.t_ns} ns ended without the update columns "
    needs = "inter-vehicle broadcast needs the reply of its subject"
    return broadcasts, replies, {
        SHAPES: rf"{kind} broadcast needs r of shape \({m},\), e and "
                rf"e_first of shape \({m}, {m}\) and cols of shape "
                rf"\({slots}, 6\) or None, got ",
        "iv-no-reply": f"{needs} {bc.subject}, got the reply of None$",
        "iv-reply-of-origin": f"{needs} {bc.subject}, got the reply of "
                              f"{bc.origin}$",
        "iv-reply-narrow-column": rf"reply of {bc.subject} needs k_col of "
                                  rf"shape \({slots}, 6\) or None, got "
                                  rf"\({slots}, 3\)$",
        "landmark-with-reply": f"landmark broadcast takes no peer reply, "
                               f"got the reply of {sender}$",
        "no-cols": f"{missing}of vehicle {bc.origin}$",
        "iv-reply-without-column": f"{missing}of vehicle {bc.subject}$",
    }.get(text if text == SHAPES else case, text)


def node_bits(nodes):
    """Every array and the observation clock a refused round must keep."""
    return ([nodes.k_col.copy(), nodes.lam_acc.copy()]
            + [getattr(nodes.state, name).copy()
               for name in ("rot", "pos", "vel", "gyro_bias", "accel_bias")],
            dict(nodes._last_obs_ns))


# (case, the kind of the round it corrupts): MALFORMED's cases, and a
# broadcast of the other kind in a round of either kind
ATOMIC_CASES = ([(case, kind) for case, (kind, _, _) in MALFORMED.items()]
                + [("mixed-kind", models.LANDMARK),
                   ("mixed-kind", models.INTERVEHICLE)])


class TestRoundAtomicity:
    @pytest.mark.parametrize("case,kind", ATOMIC_CASES,
                             ids=[f"{case}-{kind}" if case == "mixed-kind"
                                  else case for case, kind in ATOMIC_CASES])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           coupled=st.booleans(), data=st.data())
    def test_a_refused_message_refuses_its_round(self, case, kind, seed, n,
                                                 coupled, data):
        """A round of `kind` from a random epoch, with one message
        corrupted as in test_apply_refuses_a_misshaped_broadcast or
        replaced by one of the other kind, is refused with that message's
        text before anything moves: every node keeps its column, state,
        factor and observation clock bit for bit, and no update column
        counts as sent.  The nodes then apply the round as it was sent,
        equal to the joint filter bit for bit, tick on, and apply the next
        round equal to it too."""
        rng = np.random.default_rng(seed)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        world = WorldConfig(
            landmarks={lm: rng.standard_normal(3) for lm in range(3)},
            markers={v: 0.05 * rng.standard_normal(3) for v in range(n)})
        k0 = (random_spd(rng, n * STATE_DOF, scale=0.002) if coupled
              else None)
        joint, nodes = make_network(rng, n, world, noise, k0=k0)
        propagate_pair(joint, nodes, rng, 2)
        sources = ([(models.LANDMARK, v, lm) for v in range(n)
                    for lm in range(3)]
                   + [(models.INTERVEHICLE, a, b) for a in range(n)
                      for b in range(n) if a != b])
        keep = data.draw(st.lists(st.booleans(), min_size=len(sources),
                                  max_size=len(sources)), label="keep")
        sources = [src for src, k in zip(sources, keep) if k]
        rounds = [[sources[i] for i in group]
                  for group in joint_module.epoch_rounds(sources, n)
                  if sources[group[0]][0] == kind
                  and (case != "mixed-kind" or len(group) > 1)]
        assume(rounds)
        group = data.draw(st.sampled_from(rounds), label="round")
        observations = round_observations(nodes, group, world, rng)
        broadcasts, replies = originate_round(nodes, observations)
        bad, bad_replies, text = corrupt_round(nodes, case, broadcasts,
                                               replies, data)
        arrays, clock = node_bits(nodes)
        with pytest.raises(ValueError, match=f"^{text}"):
            nodes.apply_update(bad, bad_replies)
        after, after_clock = node_bits(nodes)
        for a, b in zip(after, arrays):
            assert_same_bits(a, b)
        assert after_clock == clock and nodes._sent == set()

        nodes.apply_update(broadcasts, replies)
        joint.update(*observations)
        assert_nodes_equal_joint(joint, nodes)
        propagate_pair(joint, nodes, rng, 2)
        observations = round_observations(nodes, group, world, rng)
        harness._distributed_round(nodes, observations, nodes.tick,
                                   harness.MessageBus())
        joint.update(*observations)
        assert_nodes_equal_joint(joint, nodes)
        assert nodes._last_obs_ns == joint._last_obs_ns


class TestEmptyRound:
    """A round with no observation is refused with a ValueError that names
    it, and leaves the nodes as any refused round leaves them."""

    TEXT = "^a round holds at least one observation, got an empty round$"

    def network(self, world, noise):
        rng = np.random.default_rng(35)
        joint, nodes = make_network(rng, 2, world, noise)
        propagate_pair(joint, nodes, rng, 2)
        observations = round_observations(
            nodes, [(models.INTERVEHICLE, 0, 1), (models.INTERVEHICLE, 1, 0)],
            world, rng)
        return joint, nodes, observations

    def test_originate_update(self, world, noise):
        """Refused before any reply is read: the update columns a caller's
        earlier replies sent in the round stay sent."""
        joint, nodes, observations = self.network(world, noise)
        nodes.peer_state_reply(1)
        arrays, clock = node_bits(nodes)
        sent = set(nodes._sent)
        with pytest.raises(ValueError, match=self.TEXT):
            nodes.originate_update([], [])
        after, after_clock = node_bits(nodes)
        for a, b in zip(after, arrays):
            assert_same_bits(a, b)
        assert after_clock == clock and nodes._sent == sent == {1}
        nodes._sent = set()
        broadcasts, replies = originate_round(nodes, observations)
        nodes.apply_update(broadcasts, replies)
        joint.update(*observations)
        assert_nodes_equal_joint(joint, nodes)

    def test_apply_update(self, world, noise):
        """Refused before anything moves; the round is over, so no update
        column counts as sent, and the next round applies as the joint
        filter does."""
        joint, nodes, observations = self.network(world, noise)
        broadcasts, replies = originate_round(nodes, observations)
        arrays, clock = node_bits(nodes)
        with pytest.raises(ValueError, match=self.TEXT):
            nodes.apply_update([], [])
        after, after_clock = node_bits(nodes)
        for a, b in zip(after, arrays):
            assert_same_bits(a, b)
        assert after_clock == clock and nodes._sent == set()
        broadcasts, replies = originate_round(nodes, observations)
        nodes.apply_update(broadcasts, replies)
        joint.update(*observations)
        assert_nodes_equal_joint(joint, nodes)


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
            nodes.apply_update(nodes.originate_update([obs], [None]), [None])
        kj = joint_gain(joint)
        for i in range(2):
            np.testing.assert_allclose(
                nodes.k_col[i], kj[:, i * STATE_DOF:(i + 1) * STATE_DOF],
                atol=1e-9)


def counting_factor_steps(monkeypatch):
    """The shapes of the factor stacks the tick steps advance, one entry
    per propagate_vehicle call given a factor, as the filters make them."""
    calls = []
    step = joint_module.propagate_vehicle

    def counted(state, kdiag, lam, *args):
        if lam is not None:
            calls.append(lam.shape)
        return step(state, kdiag, lam, *args)

    monkeypatch.setattr(joint_module, "propagate_vehicle", counted)
    return calls


class TestSharedEngine:
    """Both filters run the same per-vehicle step on any update schedule:
    both hold the gain as the same column stack and apply every round
    through the same Network code (the diagonal-block rounds while
    uncoupled, propagate_vehicle, absorb_factor, round_system,
    gain_correction and apply_correction otherwise), so they agree bit for
    bit, from a block-diagonal prior as from a coupled one."""

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
        check = assert_nodes_equal_joint
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
        """The joint filter keeps propagation factors, one stacked factor
        step per tick, only once a cross block can be non-zero: from the
        first tick for a prior with a non-zero cross block, otherwise from
        the first applied inter-vehicle update.  Landmark updates keep the
        gain block diagonal, and a refused inter-vehicle update starts
        nothing."""
        calls = counting_factor_steps(monkeypatch)

        @per_item
        def non_finite_terms(states, obs, world, noise, dt):
            m = len(models.update_indices(obs.kind, obs.observer,
                                          obs.subject))
            return np.zeros(m), np.full((m, m), np.nan), np.zeros((m, m))

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
        """The node twin of TestSharedEngine's test: one stacked factor
        step per tick, from the first tick for a prior with a non-zero
        cross block, otherwise from the first applied inter-vehicle
        round; landmark rounds and a refused inter-vehicle one start
        nothing, and the factors emitted before then are the identity."""
        calls = counting_factor_steps(monkeypatch)

        @per_item
        def non_finite_terms(states, obs, world, noise, dt):
            m = len(models.update_indices(obs.kind, obs.observer,
                                          obs.subject))
            return np.zeros(m), np.full((m, m), np.nan), np.zeros((m, m))

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
            assert observe(nodes, models.LANDMARK, v, v % 2).cols is not None
        ticks(nodes, 10)
        for msg in exchange_factors(nodes):
            assert msg.end_tick > msg.start_tick
            assert_same_bits(msg.lam, np.eye(STATE_DOF))
        for msg in exchange_factors(nodes):
            assert msg.end_tick == msg.start_tick and msg.lam is None
        assert calls == []
        if n == 1:
            return
        with monkeypatch.context() as m:
            m.setattr(models, "update_terms", non_finite_terms)
            observe(nodes, models.INTERVEHICLE, 0, 1)
        assert not nodes._coupled
        ticks(nodes, 10)
        assert calls == []
        assert observe(nodes, models.INTERVEHICLE, 0, 1).cols is not None
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
            (nodes, lambda: nodes.originate_update([bad], [None])))
        assert joint._last_obs_ns == nodes._last_obs_ns == {}

    @pytest.mark.parametrize("index", [-1, 3])
    def test_originate_update_subject(self, world, noise, index):
        _, nodes = self.network(world, noise)
        reply = PeerStateReply(index, nodes.state[0], np.zeros((45, 6)))
        with self.refused(index):
            nodes.originate_update([Observation(
                models.INTERVEHICLE, 0, index, np.zeros(3), nodes.t_ns)],
                [reply])
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
                              nodes.t_ns, np.ones(12), np.eye(12), np.eye(12),
                              np.ones((45, 6)))
        before = nodes.k_col.copy(), pose_matrix(nodes.state)
        with self.refused(index):
            nodes.apply_update([msg], [None])
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
        """A prior of one vehicle for two, and the prior's columns, which
        the nodes once took and hold 15n x 15n entries too."""
        for k0 in (np.eye(15), np.ones((2, 30, 15))):
            with pytest.raises(ValueError, match=(
                    "^K0 has the wrong shape for the vehicle count$")):
                VehicleNode([identity_state()] * 2, k0, world, noise)

    def test_asymmetric_diag_block(self, world, noise):
        k0 = np.eye(15)
        k0[0, 1] = 0.5
        assert_refused_alike(
            ValueError, "^K0 must be symmetric$",
            (None, lambda: VehicleNode([identity_state()], k0, world,
                                       noise)),
            (None, lambda: JointFilter([identity_state()], k0, world,
                                       noise)))


# -- the per-node oracle ------------------------------------------------------

class OracleNode:
    """One vehicle's node on its own: its state, its 15n x 15 column and its
    factor, advanced by its own calls.  The stacked network must reproduce
    n of these, message by message.  A node keeps its factor from the first
    tick if `factors` (the network's prior has a non-zero cross block),
    otherwise from the first applied inter-vehicle round, and emits the
    identity until then.

    It stages a round's broadcasts and, at the round's end, applies the
    round to its own column from the messages alone: each vehicle's update
    columns as the first reply or broadcast of the round carried them, and
    the round's terms summed densely onto its slots.  While its factor is
    not kept, a landmark round is each observer's one-vehicle update of
    its own diagonal block, symmetrised; otherwise the round is one update
    K+ = K - kc x K[ix, :], with x and w from gain_correction with dt = 1
    and the first-order terms where the second-order K_ii S has a
    non-positive eigenvalue (numpy's eigvalsh, not the filters' Cholesky).
    A round any of whose systems the gate refuses is left out.

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
        self.staged = []
        self.sent = False

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
        empty = self.lam_start_tick == self.tick
        msg = PropagationFactor(self.id,
                                None if empty else self.lam_acc[0].copy(),
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

    def update_columns(self):
        """The node's update columns, once per round."""
        if self.sent:
            return None
        self.sent = True
        return self.k_col[:, :models.UPDATE_SLOTS].copy()

    def peer_state_reply(self):
        return PeerStateReply(self.id, self.state[0], self.update_columns())

    def originate_update(self, obs, peer_reply=None):
        states = {self.id: self.state[0]}
        if obs.kind == models.INTERVEHICLE:
            states[obs.subject] = peer_reply.state
        key = (obs.kind, obs.observer, obs.subject)
        dt = self.noise.effective_period(obs.kind, self._last_obs_ns.get(key),
                                         obs.t_ns)
        r_ix, e_ii, e_first = models.update_terms(states, obs, self.world,
                                                  self.noise, dt)
        return UpdateBroadcast(self.id, obs.kind, obs.subject, dt, obs.t_ns,
                               r_ix, e_ii, e_first, self.update_columns())

    def apply_update(self, msg, peer_reply=None, round_end=True):
        assert msg.t_ns == self.t_ns
        self.staged.append((msg, peer_reply))
        if round_end:
            staged, self.staged, self.sent = self.staged, [], False
            if self.apply_round(staged):
                for msg, _ in staged:
                    if msg.origin == self.id:
                        self._last_obs_ns[msg.kind, msg.origin,
                                          msg.subject] = msg.t_ns

    @staticmethod
    def correction(k_ii, e, e_first, dt, r):
        """gain_correction's x and w, the first-order ones where the
        second-order K_ii S has a non-positive eigenvalue."""
        x, w, _ = joint_module.gain_correction(k_ii, e, dt, r)
        if np.linalg.eigvalsh(k_ii + dt * k_ii @ e @ k_ii)[0] <= 0.0:
            x, w, _ = joint_module.gain_correction(k_ii, e_first, dt, r)
        return x, w

    def apply_round(self, staged):
        """Apply a staged round to the node's column; whether it applied."""
        cols = {}
        for msg, reply in staged:
            if msg.cols is not None:
                cols.setdefault(msg.origin, msg.cols)
            if reply is not None and reply.k_col is not None:
                cols.setdefault(reply.sender, reply.k_col)
        sl = slice(self.id * STATE_DOF, (self.id + 1) * STATE_DOF)
        try:
            if staged[0][0].kind == models.LANDMARK and not self.factors:
                own = None
                for msg, _ in staged:
                    v = slice(msg.origin * STATE_DOF,
                              msg.origin * STATE_DOF + models.UPDATE_SLOTS)
                    x, w = self.correction(cols[msg.origin][v], msg.e,
                                           msg.e_first, msg.dt, msg.r)
                    if msg.origin == self.id:
                        own = msg.dt, x, w
                if own is not None:
                    dt, x, w = own
                    k = self.k_col[sl, :]
                    psi = dt * (k[:, :models.UPDATE_SLOTS] @ w)
                    k = k - dt * (k[:, :models.UPDATE_SLOTS] @ x) @ k[
                        :models.UPDATE_SLOTS, :]
                    self.k_col[sl, :] = 0.5 * (k + k.T)
                    self.state = compose(self.state, group_exp(psi[None]))
                return True
            vehicles = sorted(cols)
            slots = {v: range(models.UPDATE_SLOTS * i,
                              models.UPDATE_SLOTS * (i + 1))
                     for i, v in enumerate(vehicles)}
            m = models.UPDATE_SLOTS * len(vehicles)
            r, e, e_first = np.zeros(m), np.zeros((m, m)), np.zeros((m, m))
            for msg, _ in staged:
                p = [i for v in models.update_vehicles(
                    msg.kind, msg.origin, msg.subject) for i in slots[v]]
                r[p] += msg.dt * msg.r
                e[np.ix_(p, p)] += msg.dt * msg.e
                e_first[np.ix_(p, p)] += msg.dt * msg.e_first
            ix = [v * STATE_DOF + i for v in vehicles
                  for i in range(models.UPDATE_SLOTS)]
            kc = np.hstack([cols[v] for v in vehicles])
            x, w = self.correction(kc[ix], e, e_first, 1.0, r)
        except UpdateSingularError:
            return False
        psi = self.k_col[ix, :].T @ w
        self.k_col = self.k_col - (kc @ x) @ self.k_col[ix, :]
        self.state = compose(self.state, group_exp(psi[None]))
        if staged[0][0].kind == models.INTERVEHICLE:
            self.factors = True
        return True


def oracle_update(nodes, obs, tick, bus, round_end=True):
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
        nd.apply_update(bc, reply, round_end)


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


def oracle_scenario(rng, n, seed, dt):
    """TestStackedAgainstOracle's noise, two landmarks, markers and n
    synthetic sources, their trajectories drawn from rng."""
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
        harness.SinusoidTrajectory.random(rng, pos_scale=0.6, rot_scale=0.3),
        noise, v, seed) for v in range(n)]
    return noise, world, sources


def item18_runs(caplog):
    """ROADMAP item 18's case in every mode: n=2, seed 2, landmarks at
    1 Hz, inter-vehicle at 10 Hz, 10 s of TestStackedAgainstOracle's
    scenario.  Returns each mode's RunResult and warnings."""
    cfg = harness.ScheduleConfig(duration_s=10.0, landmark_rate_hz=1.0,
                                 intervehicle_rate_hz=10.0, seed=2)
    results, warned = {}, {}
    for mode in harness.MODES:
        noise, world, sources = oracle_scenario(np.random.default_rng(2), 2,
                                                2, 1.0 / cfg.imu_rate_hz)
        caplog.clear()
        with caplog.at_level("WARNING", logger="meswarm"):
            results[mode] = harness.run_schedule(cfg, mode, sources, world,
                                                 noise, record_bus=False)
        warned[mode] = [rec.getMessage() for rec in caplog.records]
    return results, warned


def test_run_result_reports_fallbacks_alike(caplog):
    """RunResult.fallbacks is the filter's count of first-order
    corrections per kind, in every mode: on item 18's case the coupled
    filters fall back 3 times, once per inter-vehicle round, and
    `central` and `distributed` report the same counts and the same
    rounds; `none` counts its landmark observations one by one, and
    applies the same 20 landmark rounds."""
    results, _ = item18_runs(caplog)
    counts = {mode: res.fallbacks for mode, res in results.items()}
    assert counts["central"] == counts["distributed"] == {
        models.INTERVEHICLE: 3}
    assert counts["none"] == {models.LANDMARK: 2}
    assert results["central"].rounds == results["distributed"].rounds == {
        models.LANDMARK: 20, models.INTERVEHICLE: 100}
    assert results["none"].rounds == {models.LANDMARK: 20}


def test_item18_case_stays_on_track(caplog):
    """Item 18's case, which one observation at a time drove to a 58 m
    peak with four lost-definiteness warnings in `central`: with an
    epoch's inter-vehicle observations in rounds of both directions of a
    pair, both coupled modes peak below 3 m, warn about nothing, beat
    `none` on the mean and give the same rows bit for bit."""
    results, warned = item18_runs(caplog)
    for mode in (harness.MODE_CENTRAL, harness.MODE_DISTRIBUTED):
        pos = results[mode].rows["pos_err"]
        assert pos.max() < 3.0, mode
        assert pos.mean() < results["none"].rows["pos_err"].mean(), mode
        assert not warned[mode], mode
    assert results["central"].rows.tobytes() == (
        results["distributed"].rows.tobytes())


class TestStackedAgainstOracle:
    """The stacked network reproduces n independent per-node oracles on the
    harness's schedule, an epoch's exchanges in its rounds: the same
    messages, columns, states and errors.

    The two may round differently in the last bit now and then, and an
    update with a large innovation amplifies such a bit.  So the oracle
    restarts from the network's nodes after every round: each comparison
    covers the ticks since the last round and one round's exchanges, from
    equal inputs, and agrees within TOL, absolute or relative.  A run that diverges (it can, at low observation rates)
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
        noise, world, sources = oracle_scenario(rng, n, seed, dt)
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
        stacked = VehicleNode(est0, k0, world, noise)
        oracle = [OracleNode(v, n, est0[v],
                             k0[:, v * STATE_DOF:(v + 1) * STATE_DOF],
                             world, noise, factors=coupled and n > 1)
                  for v in range(n)]

        # a non-finite Hessian term makes the nodes refuse its round; the
        # oracle builds one observation's terms, the network a round's stack
        refused = set()

        def terms(states, obs, *args):
            r_ix, e_ii, e_first = UPDATE_TERMS(states, obs, *args)
            hit = [(obs.kind, a, b, obs.t_ns) in refused
                   for a, b in zip(np.ravel(obs.observer).tolist(),
                                   np.ravel(obs.subject).tolist())]
            hit = np.reshape(hit, np.shape(obs.observer) + (1, 1))
            return r_ix, np.where(hit, np.nan, e_ii), e_first

        monkeypatch.setattr(models, "update_terms", terms)

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
            batch = []
            for kind, a, b, p in events.get(tick, ()):
                if p > 0.0 and rng.random() < p:
                    continue
                (obs,) = harness.synthesize_observation(
                    stack_states(truths), world, kind, [(a, b)],
                    noise.d_matrix(kind), [rng], tick * dt_ns)
                if updates == singular_at:
                    refused.add((kind, a, b, obs.t_ns))
                updates += 1
                batch.append(obs)
            for group in joint_module.epoch_rounds(
                    [(obs.kind, obs.observer, obs.subject) for obs in batch],
                    n):
                harness._distributed_round(stacked, [batch[i] for i in group],
                                           tick, bus_s)
                for i in group:
                    oracle_update(oracle, batch[i], tick, bus_o,
                                  i == group[-1])
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
        assert all(np.isnan(b["e"]).all() for b in forced)
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

"""The decentralised filter: one node per vehicle, run as stacked arrays.

The nodes are the joint filter split across the vehicles: VehicleNode is
a meswarm.joint.Network, as JointFilter is, starts from the same 15n x 15n
prior, holds the network state as the joint filter holds it and runs the
same steps of meswarm.joint; what the nodes add is the wire.  Each node
owns its own state estimate and one 15n x 15 column slice of the joint
gain matrix.
Between observations nodes run silently, accumulating a propagation
factor.  Each observation is one exchange: the factors are exchanged, the
target of an inter-vehicle observation replies with its state, and the
observing node broadcasts the observation's model terms, which it builds
from its own state and the reply's.  An epoch's exchanges run round by
round (meswarm.joint.epoch_rounds), one call each way: the observers
originate a round's broadcasts in one call, its terms one stacked model
evaluation, and every node applies the whole round, its broadcasts and
replies, in one call through the same Network code as the joint filter.
A vehicle's update columns cross the bus once per round, in the first
reply or broadcast of the round that would carry them.

The simulation holds all n nodes of a network in one VehicleNode, with the
node axis leading, and advances them together: one stacked propagation
call per tick, one batched product per absorbed factor, one stacked model
evaluation for a round's broadcasts, and one batched column update and
retraction per round.  The data flow stays per node:
node v reads only its own column, its own state and the wire messages.
"""

import json
import logging
from binascii import b2a_base64
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite

import numpy as np

from . import models
from .joint import (Network, UpdateSingularError, absorb_factor,
                    check_vehicle, identity_factors)
from .lie import STATE_DOF, VehicleState, stack_states

log = logging.getLogger(__name__)

WIRE_VERSION = 8


class SynchronizationError(RuntimeError):
    """Propagation-factor epochs do not line up between two nodes."""


# -- wire messages -----------------------------------------------------------

@dataclass(frozen=True)
class PropagationFactor:
    sender: int
    lam: np.ndarray        # 15x15 accumulated factor, None over an empty
                           # span (start_tick == end_tick)
    start_tick: int
    end_tick: int


@dataclass(frozen=True)
class PeerStateRequest:
    requester: int
    target: int


@dataclass(frozen=True)
class PeerStateReply:
    sender: int
    state: VehicleState
    k_col: np.ndarray      # 15n x 6: the update slots of the sender's
                           # column, None if they crossed the bus earlier
                           # in the round


@dataclass(frozen=True)
class UpdateBroadcast:
    """An observation's update, as its origin sends it to every node: its
    period and its model terms at the estimate before the round, which
    every node sums with the round's other terms (joint.round_system).
    r, e and e_first may view the stacked term arrays of the round, which
    no one writes.
    The update columns of a round's vehicles cross the bus once per round,
    in the first reply or broadcast that would carry them."""

    origin: int
    kind: str
    subject: int           # landmark index, or target vehicle
    dt: float
    t_ns: int
    r: np.ndarray          # m entries r_ix
    e: np.ndarray          # m x m second-order term E_ii
    e_first: np.ndarray    # m x m first-order term sym(F^T M F)
    cols: np.ndarray       # 15n x 6: the update slots of the origin's
                           # column, None if they crossed the bus earlier
                           # in the round


# the JSON text of the two observation kinds, rendered once
_KIND_TEXT = {k: json.dumps(k)
              for k in (models.LANDMARK, models.INTERVEHICLE)}


def _scalar(x):
    """JSON text of a scalar field, as json.dumps writes it: the repr of a
    plain int or a finite float, the text of a known observation kind, and
    json.dumps itself for anything else (it spells a bool, NaN or Infinity
    its own way and refuses a numpy integer)."""
    if type(x) is int or (type(x) is float and isfinite(x)):
        return repr(x)
    if type(x) is str and x in _KIND_TEXT:
        return _KIND_TEXT[x]
    return json.dumps(x)


@lru_cache(maxsize=None)
def _shape(shape):
    """JSON text of an array shape, rendered once per shape."""
    return json.dumps(shape)


def _arr(a):
    """JSON text of an array: the object {"b64", "shape"}, where "b64" is
    the standard base64 of its float64 entries, little-endian, in C order.
    The text is exact, signed zeros and NaN payloads included, and costs
    under 11 characters and no formatting call per entry, where a decimal
    list costs about 20 and one shortest-repr call per entry."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return (f'{{"b64": "{b2a_base64(a, newline=False).decode("ascii")}", '
            f'"shape": {_shape(a.shape)}}}')


def _opt(a):
    """JSON text of an array field that may be None (null)."""
    return "null" if a is None else _arr(a)


def encode_message(msg, tick):
    """The canonical bus-log line of a message delivered at `tick`.

    The line is byte for byte json.dumps(body, sort_keys=True) of the body
    with every array as its {"b64", "shape"} object (see _arr), "tick" and
    the wire version "v"; an empty span's factor, whose lam is None, and
    update columns that crossed the bus earlier in their round are written
    null.  It is rendered from one fixed template per message type, its
    keys written in sorted order, so the only generic call left is
    json.dumps of a value outside the fast cases of _scalar, and a value
    json.dumps refuses raises its TypeError.  No array entry is written as
    a decimal, so no NaN or Infinity appears in a line unless `dt` is one.
    """
    if isinstance(msg, PropagationFactor):
        return (f'{{"end_tick": {_scalar(msg.end_tick)}, '
                f'"lam": {_opt(msg.lam)}, '
                f'"sender": {_scalar(msg.sender)}, '
                f'"start_tick": {_scalar(msg.start_tick)}, '
                f'"tick": {_scalar(tick)}, '
                f'"type": "propagation_factor", "v": {WIRE_VERSION}}}')
    if isinstance(msg, PeerStateRequest):
        return (f'{{"requester": {_scalar(msg.requester)}, '
                f'"target": {_scalar(msg.target)}, '
                f'"tick": {_scalar(tick)}, '
                f'"type": "peer_state_request", "v": {WIRE_VERSION}}}')
    if isinstance(msg, PeerStateReply):
        st = msg.state
        return (f'{{"k_col": {_opt(msg.k_col)}, '
                f'"sender": {_scalar(msg.sender)}, '
                f'"state": {{"accel_bias": {_arr(st.accel_bias)}, '
                f'"gyro_bias": {_arr(st.gyro_bias)}, '
                f'"pos": {_arr(st.pos)}, "rot": {_arr(st.rot)}, '
                f'"vel": {_arr(st.vel)}}}, '
                f'"tick": {_scalar(tick)}, '
                f'"type": "peer_state_reply", "v": {WIRE_VERSION}}}')
    if isinstance(msg, UpdateBroadcast):
        return (f'{{"cols": {_opt(msg.cols)}, "dt": {_scalar(msg.dt)}, '
                f'"e": {_arr(msg.e)}, "e_first": {_arr(msg.e_first)}, '
                f'"kind": {_scalar(msg.kind)}, '
                f'"origin": {_scalar(msg.origin)}, "r": {_arr(msg.r)}, '
                f'"subject": {_scalar(msg.subject)}, '
                f'"t_ns": {_scalar(msg.t_ns)}, "tick": {_scalar(tick)}, '
                f'"type": "update_broadcast", "v": {WIRE_VERSION}}}')
    raise TypeError(f"not a wire message: {type(msg)!r}")


# -- the nodes ----------------------------------------------------------------

class VehicleNode(Network):
    """The n nodes of a decentralised network, stacked along a leading axis;
    a Network, as the joint filter is.

    Node v's state is ``state[v]``, its 15n x 15 gain column
    ``k_col[v]`` (k_col is (n, 15n, 15)) and its accumulated propagation
    factor ``lam_acc[v]``.  The nodes advance together, as the joint filter
    advances its vehicles: each node writes its own IMU sample into the
    tick's (n, 3) rows and the tick's last one makes the network's tick
    step for all of them, reading and writing every own diagonal block
    through one view of k_col; each delivered factor is absorbed by all the
    other nodes in one call; and a round is one call each way,
    originate_update for its broadcasts and apply_update at every node.
    Each step keeps the per-node data flow: node v reads only its own
    column, its own state, the keys of its own observations in the
    observation clock and the wire messages.

    The nodes start from the 15n x 15n prior k0, which Network checks and
    splits into the columns.  Factors are kept under the network's
    coupling rule: from the first tick for a prior with a non-zero cross
    block, otherwise from the first applied inter-vehicle round, which
    every node applies.  Until then every cross block is exactly zero, no
    factor advances, and the nodes emit identity factors, which absorb
    into a zero block as exactly zero.
    """

    def __init__(self, states, k0, world, noise):
        super().__init__(states, k0, world, noise)
        n = self.n
        self.lam_start_tick = 0
        # every node's last emitted factor, which it pairs with a peer's
        self._own = identity_factors(n)
        self._own_span = (0, 0)
        # (tick, messages): the factor messages of an empty span at that
        # tick, delivered again to every later exchange in the tick
        self._empty = (None, ())
        self.tick = 0
        # the tick's IMU rows, row v written by node v, and the period of
        # every node that has ticked in the current tick
        self._gyro = np.empty((n, 3))
        self._accel = np.empty((n, 3))
        self._pending = {}
        # the vehicles whose update columns have crossed the bus in the
        # round being originated
        self._sent = set()

    # -- propagation ---------------------------------------------------------

    def propagate_local(self, v, u, dt):
        """Node v's IMU tick: its own sample u over the period dt.

        The nodes tick together.  Each writes its own sample into the
        tick's IMU rows, and the call that completes the tick advances
        every node's state, own diagonal gain block and factor by the
        network's tick step, the step the joint filter takes for its
        vehicles.  A period that is not positive and finite, and a gyro or
        accel that is not a 3-vector, are refused by Network._check_imu
        before the node counts as ticked.
        """
        self._check_imu(u, dt, (3,), v)
        check_vehicle("node", v, self.n)
        if v in self._pending:
            raise SynchronizationError(
                f"node {v} ticked twice before tick {self.tick + 1} ended")
        self._pending[v] = dt
        self._gyro[v] = u.gyro
        self._accel[v] = u.accel
        if len(self._pending) < self.n:
            return self
        periods = set(self._pending.values())
        self._pending = {}
        if len(periods) > 1:
            raise SynchronizationError("nodes ticked with different periods")
        self._tick(models.ImuSample(self._gyro, self._accel, self.t_ns), dt)
        self.tick += 1
        return self

    def emit_propagation_factors(self):
        """Every node's factor message, in node order; each node keeps its
        own to pair with the peers' factors it absorbs.  A factor over an
        empty span carries no matrix (lam None), since absorbing it moves
        nothing; its messages are built once per tick and handed to every
        later exchange in that tick.  Over a non-empty span the messages
        hold views of the factor stack, which is only ever rebound, never
        written, so a bus that renders its log after the run reads the
        factors as delivered."""
        if self._pending:
            raise SynchronizationError(
                f"factors requested while tick {self.tick + 1} is incomplete")
        span = (self.lam_start_tick, self.tick)
        self._own, self._own_span = self.lam_acc, span
        if span[0] == span[1]:
            if self._empty[0] != self.tick:
                self._empty = (self.tick, tuple(
                    PropagationFactor(v, None, *span) for v in range(self.n)))
            return self._empty[1]
        msgs = tuple(PropagationFactor(v, self.lam_acc[v], *span)
                     for v in range(self.n))
        self.lam_acc = identity_factors(self.n)
        self.lam_start_tick = self.tick
        return msgs

    def absorb_propagation_factor(self, peer):
        """Bring every other node's cross block for the sender up to the
        current tick: node v sets block j of its column to
        lam_j K_jv lam_v^T with its own emitted factor lam_v.  A factor over
        an empty span moves nothing, and its lam is not read.  Over a
        non-empty span a lam that is not 15 x 15 (None included) is refused
        before anything moves.  While the nodes keep no factors every cross
        block is +0, which the identity factors would map to +0 again, so
        nothing is multiplied."""
        check_vehicle("factor sender", peer.sender, self.n)
        span = (peer.start_tick, peer.end_tick)
        if span != self._own_span:
            raise SynchronizationError(
                f"factor span {peer.start_tick}..{peer.end_tick} from "
                f"{peer.sender} does not match the nodes' own span "
                f"{self._own_span[0]}..{self._own_span[1]}")
        if peer.start_tick == peer.end_tick:
            return self
        if np.shape(peer.lam) != (STATE_DOF, STATE_DOF):
            got = None if peer.lam is None else np.shape(peer.lam)
            raise ValueError(
                f"factor from {peer.sender} over ticks {peer.start_tick}.."
                f"{peer.end_tick} needs lam of shape ({STATE_DOF}, "
                f"{STATE_DOF}), got {got}")
        if not self._coupled:
            return self
        absorb_factor(self.k_col, peer.sender, self._others[peer.sender],
                      peer.lam, self._own)
        return self

    # -- updates --------------------------------------------------------------

    def _update_columns(self, v):
        """A fresh copy of node v's update columns, the first 6 of its
        column, or None if they crossed the bus earlier in the round."""
        if v in self._sent:
            return None
        self._sent.add(v)
        return self.k_col[v, :, :models.UPDATE_SLOTS].copy()

    def peer_state_reply(self, v):
        """Node v's answer to a peer state request: its state and its
        update columns, unless they crossed the bus earlier in the round.
        Its state views the state arrays, which every step replaces and
        none writes in place, and its columns are a copy; so the reply
        stays as delivered for a bus that renders its log after the run."""
        check_vehicle("replying node", v, self.n)
        return PeerStateReply(v, self.state[v], self._update_columns(v))

    def originate_update(self, observations, replies):
        """Build a round's update broadcasts, each at its observer.

        `observations` is one round (joint.epoch_rounds), all of one kind,
        in round order, and `replies` holds each one's peer state reply,
        None for a landmark observation; it is read one reply at a time,
        in step with the observations.  Item i reads only its observer's
        own state and the state its reply carried.  The periods come from
        the observation clock, and the model terms (r_ix, E_ii, E_first),
        at the estimate before the round, from one models.update_terms
        call on the round's stack, each item the bits its observation
        gets alone; nothing is solved.  A broadcast's r, e and e_first
        view those stacked arrays, which no one writes.

        A broadcast carries a fresh copy of its origin's update columns
        unless they crossed the bus earlier in the round.  Each reply is
        read before its observation's broadcast takes its origin's
        columns, so a caller that builds every reply as it is read, as
        harness.run_schedule does, puts each vehicle's columns in the
        first reply or broadcast of the round that would carry them.

        The round (_check_one_kind: not empty, one kind) and each
        observation (Network._check_observation) are checked before the
        first reply is read, and each reply as it is read (_check_reply).
        A refused round raises before any broadcast is built and gives
        back the update columns its replies took.
        """
        _check_one_kind(observations)
        for obs in observations:
            self._check_observation(obs)
        sent = set(self._sent)
        peers, cols = [], []
        try:
            for obs, reply in zip(observations, replies, strict=True):
                self._check_reply(obs.kind, obs.subject, reply, "observation")
                if reply is not None:
                    peers.append(reply.state)
                cols.append(self._update_columns(obs.observer))
        except BaseException:
            self._sent = sent
            raise
        stack = models.stack_observations(observations)
        states = _RoundStates(stack, self.state[stack.observer],
                              stack_states(peers) if peers else None)
        periods = [self._period(obs) for obs in observations]
        r, e, e_first = models.update_terms(states, stack, self.world,
                                            self.noise, np.array(periods))
        return [UpdateBroadcast(obs.observer, obs.kind, obs.subject, dt,
                                obs.t_ns, r[i], e[i], e_first[i], cols[i])
                for i, (obs, dt) in enumerate(zip(observations, periods))]

    def _check_reply(self, kind, subject, reply, what):
        """Refuse a peer state reply that the exchange of an observation of
        `kind` and `subject` cannot have: an inter-vehicle one needs its
        subject's reply, whose k_col is None or (15n, 6), and a landmark
        one takes none.  `what` names the observation's item in the
        text: the observation, or its broadcast."""
        if kind == models.INTERVEHICLE:
            sender = None if reply is None else reply.sender
            if sender != subject:
                raise ValueError(
                    f"inter-vehicle {what} needs the reply of its subject "
                    f"{subject}, got the reply of {sender}")
            slots = (self.n * STATE_DOF, models.UPDATE_SLOTS)
            if reply.k_col is not None and np.shape(reply.k_col) != slots:
                raise ValueError(
                    f"reply of {sender} needs k_col of shape {slots} or "
                    f"None, got {np.shape(reply.k_col)}")
        elif reply is not None:
            raise ValueError(f"{kind} {what} takes no peer reply, got the "
                             f"reply of {reply.sender}")

    def apply_update(self, broadcasts, replies):
        """Apply one round at every node: its broadcasts in round order and
        each one's peer state reply (None for a landmark), as
        originate_update returns and reads them.

        Each vehicle's update columns are the first its round's replies and
        broadcasts carried; the round goes through Network._apply_round, as
        in the joint filter, and the first applied inter-vehicle round
        starts the nodes' factors.  A round whose summed system the gate
        refuses is logged once and left out.  An empty round is refused
        (_check_one_kind), and one refused message refuses the whole round
        before anything moves: a second kind (_check_one_kind), an origin,
        kind or inter-vehicle subject no observation could have, a stamp
        other than the nodes' time, a dt not positive and finite, an r not
        (m,), e or e_first not (m, m), cols neither None nor (15n, 6), a
        reply that is not the inter-vehicle subject's (_check_reply) or
        that comes with a landmark, and a round without the columns of one
        of its vehicles.
        Applied or refused, the round is over: the next one sends every
        vehicle's columns again."""
        self._sent = set()
        _check_one_kind(broadcasts)
        slots = (self.n * STATE_DOF, models.UPDATE_SLOTS)
        cols = {}
        for msg, reply in zip(broadcasts, replies, strict=True):
            check_vehicle("broadcast origin", msg.origin, self.n)
            models.check_source(msg.kind, msg.origin, msg.subject)
            if msg.kind == models.INTERVEHICLE:
                check_vehicle("inter-vehicle subject", msg.subject, self.n)
            if msg.t_ns != self.t_ns:
                raise ValueError(
                    f"nodes at {self.t_ns} ns got update for {msg.t_ns} ns")
            if not 0.0 < msg.dt < inf:
                raise ValueError(f"broadcast period must be positive and "
                                 f"finite: {msg.dt}")
            m = len(models.update_indices(msg.kind, msg.origin, msg.subject))
            if (np.shape(msg.r) != (m,) or np.shape(msg.e) != (m, m)
                    or np.shape(msg.e_first) != (m, m)
                    or msg.cols is not None and np.shape(msg.cols) != slots):
                raise ValueError(
                    f"{msg.kind} broadcast needs r of shape ({m},), e and "
                    f"e_first of shape ({m}, {m}) and cols of shape {slots} "
                    f"or None, got {np.shape(msg.r)}, {np.shape(msg.e)}, "
                    f"{np.shape(msg.e_first)} and {_shape_of(msg.cols)}")
            self._check_reply(msg.kind, msg.subject, reply, "broadcast")
            if msg.cols is not None:
                cols.setdefault(msg.origin, msg.cols)
            if reply is not None and reply.k_col is not None:
                cols.setdefault(reply.sender, reply.k_col)
        sources = [(msg.kind, msg.origin, msg.subject) for msg in broadcasts]
        for source in sources:
            for v in models.update_vehicles(*source):
                if v not in cols:
                    raise ValueError(f"round at {self.t_ns} ns ended without "
                                     f"the update columns of vehicle {v}")
        dt = np.array([msg.dt for msg in broadcasts])
        terms = tuple(np.array([getattr(msg, name) for msg in broadcasts])
                      for name in ("r", "e", "e_first"))
        try:
            self._apply_round(sources, dt, terms, cols)
        except UpdateSingularError as exc:
            log.warning("nodes: %s, skipping round of %d %s updates at "
                        "t=%d ns", exc, len(broadcasts), sources[0][0],
                        self.t_ns)
        return self


def _check_one_kind(items):
    """Refuse a round, its observations or its broadcasts, that is empty or
    holds more than one observation kind."""
    if not items:
        raise ValueError("a round holds at least one observation, got an "
                         "empty round")
    for item in items:
        if item.kind != items[0].kind:
            raise ValueError(f"a round holds observations of one kind, "
                             f"got {items[0].kind} and {item.kind}")


class _RoundStates:
    """The states a round's stacked model terms read, item by item:
    models.update_terms indexes them by the stack's observer array, which
    gives each observer's own state, and by its subject array, which gives
    the state each subject's reply carried."""

    def __init__(self, stack, own, peers):
        self._stack, self._own, self._peers = stack, own, peers

    def __getitem__(self, vehicles):
        if vehicles is self._stack.observer:
            return self._own
        if vehicles is self._stack.subject:
            return self._peers
        raise KeyError(vehicles)


def _shape_of(a):
    """An array field's shape, or None for a field that is None."""
    return None if a is None else np.shape(a)

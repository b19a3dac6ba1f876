"""The decentralised filter: one node per vehicle, run as stacked arrays.

The nodes are the joint filter split across the vehicles: VehicleNode is
a meswarm.joint.Network, as JointFilter is, starts from the same 15n x 15n
prior, holds the network state as the joint filter holds it and runs the
same steps of meswarm.joint; what the nodes add is the wire.  Each node
owns its own state estimate and one 15n x 15 column slice of the joint
gain matrix.
Between observations nodes run silently, accumulating a propagation
factor; when an observation is originated the factors are exchanged, the
originating node solves the m x m update system once and broadcasts its
own update columns with the system's solution and the residual through
it, and every node forms the low-rank gain correction from them (and,
for an inter-vehicle update, from the target's columns in the exchange's
peer state reply) and applies it locally.

The simulation holds all n nodes of a network in one VehicleNode, with the
node axis leading, and advances them together: one stacked propagation
call per tick, one batched product per absorbed factor, and one batched
column update and retraction per broadcast.  The data flow stays per node:
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
from .lie import STATE_DOF, VehicleState

log = logging.getLogger(__name__)

WIRE_VERSION = 7


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
    k_col: np.ndarray      # 15n x 6: the update slots of the sender's column


@dataclass(frozen=True)
class UpdateBroadcast:
    """An update, as its origin sends it to every node.  A node forms the
    gain correction G = dt kc x (joint.correction_matrix) from the update
    columns kc = K[:, ix]: `cols` for a landmark update, and `cols` beside
    the k_col of the exchange's PeerStateReply for an inter-vehicle one.
    The target's columns cross the bus once, in the reply."""

    origin: int
    kind: str
    subject: int           # landmark index, or target vehicle
    dt: float
    t_ns: int
    r: np.ndarray          # m entries w = S^-1 r_ix (joint.gain_correction),
                           # zeros if refused
    cols: np.ndarray       # 15n x 6: the update slots of the origin's
                           # column, None if refused
    x: np.ndarray          # m x m S^-1 E_ii (S^-1 E_first on a fallback),
                           # None if refused


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


def encode_message(msg, tick):
    """The canonical bus-log line of a message delivered at `tick`.

    The line is byte for byte json.dumps(body, sort_keys=True) of the body
    with every array as its {"b64", "shape"} object (see _arr), "tick" and
    the wire version "v"; an empty span's factor, whose lam is None, and
    a refused broadcast's cols and x are written null.  It is rendered
    from one fixed template per message type, its keys written in sorted
    order, so the only generic call left is json.dumps of a value outside
    the fast cases of _scalar, and a value json.dumps refuses raises its
    TypeError.  No array entry is written as a decimal, so no NaN or
    Infinity appears in a line unless `dt` is one.
    """
    if isinstance(msg, PropagationFactor):
        lam = "null" if msg.lam is None else _arr(msg.lam)
        return (f'{{"end_tick": {_scalar(msg.end_tick)}, '
                f'"lam": {lam}, '
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
        return (f'{{"k_col": {_arr(msg.k_col)}, '
                f'"sender": {_scalar(msg.sender)}, '
                f'"state": {{"accel_bias": {_arr(st.accel_bias)}, '
                f'"gyro_bias": {_arr(st.gyro_bias)}, '
                f'"pos": {_arr(st.pos)}, "rot": {_arr(st.rot)}, '
                f'"vel": {_arr(st.vel)}}}, '
                f'"tick": {_scalar(tick)}, '
                f'"type": "peer_state_reply", "v": {WIRE_VERSION}}}')
    if isinstance(msg, UpdateBroadcast):
        cols = "null" if msg.cols is None else _arr(msg.cols)
        x = "null" if msg.x is None else _arr(msg.x)
        return (f'{{"cols": {cols}, "dt": {_scalar(msg.dt)}, '
                f'"kind": {_scalar(msg.kind)}, '
                f'"origin": {_scalar(msg.origin)}, "r": {_arr(msg.r)}, '
                f'"subject": {_scalar(msg.subject)}, '
                f'"t_ns": {_scalar(msg.t_ns)}, "tick": {_scalar(tick)}, '
                f'"type": "update_broadcast", "v": {WIRE_VERSION}, '
                f'"x": {x}}}')
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
    other nodes in one call; and one call applies a broadcast to every
    node.  Each step keeps the per-node data flow: node v reads only its
    own column, its own state, the keys of its own observations in the
    observation clock and the wire messages.

    The nodes start from the 15n x 15n prior k0, which Network checks and
    splits into the columns.  Factors are kept under the network's
    coupling rule: from the first tick for a prior with a non-zero cross
    block, otherwise from the first applied inter-vehicle broadcast, which
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

    def peer_state_reply(self, v):
        """Node v's answer to a peer state request.  Its state views the
        state arrays, which every step replaces and none writes in place,
        and its columns are a copy; so the reply stays as delivered for a
        bus that renders its log after the run."""
        check_vehicle("replying node", v, self.n)
        return PeerStateReply(v, self.state[v],
                              self.k_col[v, :, :models.UPDATE_SLOTS].copy())

    def originate_update(self, obs, peer_reply=None):
        """Build the update broadcast for an observation, at its observer.

        The observing node reads its own state and column and, for an
        inter-vehicle observation, the target's reply.  From them it builds
        the m x m K_ii only, its own update slots and the reply's at the
        slots ix, and its correction is the network's
        (Network._correction): the second-order one, or the first-order one
        where that would leave the gain indefinite, as the joint filter
        decides it.  The broadcast carries a fresh copy of its own update
        slots as `cols`, and the m x m x and w; G is formed where it is
        applied.  An update whose small system is singular,
        ill-conditioned or not finite is refused here, once for the
        network: the broadcast carries no cols and no x, and every node
        leaves its column and state alone.  An observation the network
        refuses (Network._check_observation) is refused before anything
        moves, as the joint filter refuses it.
        """
        self._check_observation(obs)
        v = obs.observer
        # the model terms read only the vehicles the observation involves
        states = {v: self.state[v]}
        if obs.kind == models.INTERVEHICLE:
            if peer_reply is None or peer_reply.sender != obs.subject:
                raise ValueError("inter-vehicle update needs the target's "
                                 "state and gain column first")
            states[obs.subject] = peer_reply.state
        key, dt, ix, terms = self._terms(obs, states)
        own = self.k_col[v, :, :models.UPDATE_SLOTS]
        # K[ix, ix]: the observer's update slots at ix, then the target's
        k_ii = own[ix]
        if obs.kind == models.INTERVEHICLE:
            k_ii = np.concatenate((k_ii, peer_reply.k_col[ix]), axis=1)
        try:
            x, r = self._correction(obs.kind, k_ii, dt, terms)
        except UpdateSingularError as exc:
            # a refused update leaves the source's observation clock alone,
            # as in the joint filter
            log.warning("node %d: %s, skipping update at t=%d ns",
                        v, exc, obs.t_ns)
            cols, x, r = None, None, np.zeros(len(ix))
        else:
            cols = own.copy()
            self._last_obs_ns[key] = obs.t_ns
        return UpdateBroadcast(v, obs.kind, obs.subject, dt, obs.t_ns, r,
                               cols, x)

    def apply_update(self, msg, peer_reply=None):
        """Apply a broadcast update to every node's column and state, with
        the peer state reply of its exchange for an inter-vehicle update:
        G = dt kc x from the update columns kc (`cols`, beside the reply's
        k_col for an inter-vehicle update), a retraction by
        dt k_col[ix, :]^T r, from the columns before the update, and
        k_col <- k_col - G k_col[ix, :], in one stacked step
        (joint.apply_correction).  The first applied inter-vehicle
        broadcast starts the nodes' factors (Network._apply).
        A broadcast is refused before anything moves if its origin, kind
        or inter-vehicle subject is one no observation could have, its
        stamp is not the nodes' time, its dt is not positive and finite,
        its r is not (m,), its cols and x are not both None or both arrays
        of shapes (15n, 6) and (m, m), or if an inter-vehicle broadcast
        comes without the reply of its subject, whose k_col is (15n, 6),
        or a landmark broadcast with a reply."""
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
        ix = models.update_indices(msg.kind, msg.origin, msg.subject)
        m, slots = len(ix), (self.n * STATE_DOF, models.UPDATE_SLOTS)
        refused = msg.cols is None and msg.x is None
        if np.shape(msg.r) != (m,) or not refused and (
                np.shape(msg.cols) != slots or np.shape(msg.x) != (m, m)):
            raise ValueError(
                f"{msg.kind} broadcast needs r of shape ({m},), and cols of "
                f"shape {slots} and x of shape ({m}, {m}) or both None, got "
                f"{np.shape(msg.r)}, {_shape_of(msg.cols)} and "
                f"{_shape_of(msg.x)}")
        if msg.kind == models.INTERVEHICLE:
            sender = None if peer_reply is None else peer_reply.sender
            if sender != msg.subject:
                raise ValueError(
                    f"inter-vehicle broadcast needs the reply of its subject "
                    f"{msg.subject}, got the reply of {sender}")
            if np.shape(peer_reply.k_col) != slots:
                raise ValueError(
                    f"reply of {sender} needs k_col of shape {slots}, got "
                    f"{_shape_of(peer_reply.k_col)}")
        elif peer_reply is not None:
            raise ValueError(f"{msg.kind} broadcast takes no peer reply, "
                             f"got the reply of {peer_reply.sender}")
        if not refused:
            kc = msg.cols if msg.kind == models.LANDMARK else np.concatenate(
                (msg.cols, peer_reply.k_col), axis=1)
            self._apply(msg.kind, ix, kc, msg.x, msg.dt, msg.r)
        return self


def _shape_of(a):
    """An array field's shape, or None for a field that is None."""
    return None if a is None else np.shape(a)

"""The decentralised filter: one node per vehicle, run as stacked arrays.

The nodes are the joint filter split across the vehicles: VehicleNode is
a meswarm.joint.Network, as JointFilter is, and runs the same steps of
meswarm.joint; what the nodes add is the wire.  Each node owns its own
state estimate and one 15n x 15 column slice of the joint gain matrix.
Between observations nodes run silently, accumulating a propagation
factor; when an observation is originated the factors are exchanged, the
originating node computes the low-rank gain correction once and broadcasts
it with the residual, and every node applies them locally.

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
from .joint import (_WRONG_SHAPE, Network, UpdateSingularError,
                    absorb_factor, apply_correction, check_vehicle,
                    gain_correction, identity_factors)
from .lie import STATE_DOF, VehicleState

log = logging.getLogger(__name__)

WIRE_VERSION = 4


class SynchronizationError(RuntimeError):
    """Propagation-factor epochs do not line up between two nodes."""


# -- wire messages -----------------------------------------------------------

@dataclass(frozen=True)
class PropagationFactor:
    sender: int
    lam: np.ndarray        # 15x15 accumulated factor
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
    origin: int
    kind: str
    subject: int           # landmark index, or target vehicle
    dt: float
    t_ns: int
    r: np.ndarray          # m residual entries at models.update_indices
    gain: np.ndarray       # 15n x m gain correction G, None if refused


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
    the wire version "v".  It is rendered from one fixed template per
    message type, its keys written in sorted order, so the only generic
    call left is json.dumps of a value outside the fast cases of _scalar,
    and a value json.dumps refuses raises its TypeError.  No array entry
    is written as a decimal, so no NaN or Infinity appears in a line
    unless `dt` is one.
    """
    if isinstance(msg, PropagationFactor):
        return (f'{{"end_tick": {_scalar(msg.end_tick)}, '
                f'"lam": {_arr(msg.lam)}, '
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
        gain = "null" if msg.gain is None else _arr(msg.gain)
        return (f'{{"dt": {_scalar(msg.dt)}, "gain": {gain}, '
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
    other nodes in one call; and one call applies a broadcast to every
    node.  Each step keeps the per-node data flow: node v reads only its
    own column, its own state, the keys of its own observations in the
    observation clock and the wire messages.

    Factors are kept under the network's coupling rule: from the first tick
    for a prior with a non-zero cross block, otherwise from the first
    applied inter-vehicle broadcast, which every node applies.  Until then
    every cross block is exactly zero, no factor is exponentiated, and the
    nodes emit identity factors, which absorb into a zero block as exactly
    zero.
    """

    def __init__(self, states, k_col, world, noise):
        n = len(states)
        if np.shape(k_col) != (n, n * STATE_DOF, STATE_DOF):
            raise ValueError(_WRONG_SHAPE)
        # the columns side by side: the prior, which Network checks
        super().__init__(states, np.hstack(k_col), world, noise)
        self.lam_acc = identity_factors(n)
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
        accel that is not a 3-vector, are refused before the node counts
        as ticked.
        """
        if not 0.0 < dt < inf:
            raise ValueError(f"IMU period must be positive and finite: {dt}")
        check_vehicle("node", v, self.n)
        if v in self._pending:
            raise SynchronizationError(
                f"node {v} ticked twice before tick {self.tick + 1} ended")
        gyro, accel = np.asarray(u.gyro), np.asarray(u.accel)
        if gyro.shape != (3,) or accel.shape != (3,):
            raise ValueError(f"node {v} needs a 3-vector IMU sample, got "
                             f"{gyro.shape} and {accel.shape}")
        self._pending[v] = dt
        self._gyro[v] = gyro
        self._accel[v] = accel
        if len(self._pending) < self.n:
            return self
        periods = set(self._pending.values())
        self._pending = {}
        if len(periods) > 1:
            raise SynchronizationError("nodes ticked with different periods")
        lam = self._tick(models.ImuSample(self._gyro, self._accel, self.t_ns),
                         dt, self.lam_acc if self._coupled else None)
        if lam is not None:
            self.lam_acc = lam
        self.tick += 1
        return self

    def emit_propagation_factors(self):
        """Every node's factor message, in node order; each node keeps its
        own to pair with the peers' factors it absorbs.  The messages hold
        views of the factor stack, which is only ever rebound, never
        written; so over an empty span, where the stack is still the
        identity, the nodes keep accumulating into it, and a bus that
        renders its log after the run reads the factors as delivered.  An
        empty span's messages are built once per tick and handed to every
        later exchange in that tick."""
        if self._pending:
            raise SynchronizationError(
                f"factors requested while tick {self.tick + 1} is incomplete")
        span = (self.lam_start_tick, self.tick)
        self._own, self._own_span = self.lam_acc, span
        if span[0] == span[1]:
            if self._empty[0] != self.tick:
                self._empty = (self.tick, self._messages(span))
            return self._empty[1]
        msgs = self._messages(span)
        self.lam_acc = identity_factors(self.n)
        self.lam_start_tick = self.tick
        return msgs

    def _messages(self, span):
        return tuple(PropagationFactor(v, self.lam_acc[v], *span)
                     for v in range(self.n))

    def absorb_propagation_factor(self, peer):
        """Bring every other node's cross block for the sender up to the
        current tick: node v sets block j of its column to
        lam_j K_jv lam_v^T with its own emitted factor lam_v.  While the
        nodes keep no factors every cross block is +0, which the identity
        factors would map to +0 again, so nothing is multiplied."""
        check_vehicle("factor sender", peer.sender, self.n)
        span = (peer.start_tick, peer.end_tick)
        if span != self._own_span:
            raise SynchronizationError(
                f"factor span {peer.start_tick}..{peer.end_tick} from "
                f"{peer.sender} does not match the nodes' own span "
                f"{self._own_span[0]}..{self._own_span[1]}")
        if peer.start_tick == peer.end_tick or not self._coupled:
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
        inter-vehicle observation, the target's reply.  An update whose
        small system is singular, ill-conditioned or not finite is refused
        here, once for the network: the broadcast carries no gain
        correction and every node leaves its column and state alone.  An
        observation the network refuses (Network._check_observation) is
        refused before anything moves, as the joint filter refuses it.
        """
        self._check_observation(obs)
        v = obs.observer
        # the model terms read only the vehicles the observation involves
        states = {v: self.state[v]}
        # K[:, ix]: the update slots of the observer's column, then the target's
        cols = [self.k_col[v, :, :models.UPDATE_SLOTS]]
        if obs.kind == models.INTERVEHICLE:
            if peer_reply is None or peer_reply.sender != obs.subject:
                raise ValueError("inter-vehicle update needs the target's "
                                 "state and gain column first")
            states[obs.subject] = peer_reply.state
            cols.append(peer_reply.k_col)
        key, dt, ix, r_ix, e_ii = self._terms(obs, states)
        try:
            gain = gain_correction(np.hstack(cols), ix, e_ii, dt)
        except UpdateSingularError as exc:
            # a refused update leaves the source's observation clock alone,
            # as in the joint filter
            log.warning("node %d: %s, skipping update at t=%d ns",
                        v, exc, obs.t_ns)
            gain = None
        else:
            self._last_obs_ns[key] = obs.t_ns
        return UpdateBroadcast(v, obs.kind, obs.subject, dt, obs.t_ns,
                               r_ix, gain)

    def apply_update(self, msg):
        """Apply a broadcast update to every node's column and state:
        k_col <- k_col - G k_col[ix, :] and a retraction by
        dt k_col[ix, :]^T r, in one stacked step.  The first applied
        inter-vehicle broadcast starts the nodes' factors.  A broadcast
        whose origin, kind or inter-vehicle subject no observation could
        have, or whose stamp is not the nodes' time, is refused before
        anything moves."""
        check_vehicle("broadcast origin", msg.origin, self.n)
        models.check_source(msg.kind, msg.origin, msg.subject)
        if msg.kind == models.INTERVEHICLE:
            check_vehicle("inter-vehicle subject", msg.subject, self.n)
        if msg.t_ns != self.t_ns:
            raise ValueError(
                f"nodes at {self.t_ns} ns got update for {msg.t_ns} ns")
        if msg.gain is None:
            return self
        ix = models.update_indices(msg.kind, msg.origin, msg.subject)
        self.state = apply_correction(self.state, self.k_col, msg.kind, ix,
                                      msg.gain, msg.dt, msg.r)
        if msg.kind == models.INTERVEHICLE:
            self._coupled = True
        return self

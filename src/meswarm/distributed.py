"""The decentralised filter: one node per vehicle, run as stacked arrays.

Each node owns its own state estimate and one 15n x 15 column slice of the
joint gain matrix.  Between observations nodes run silently, accumulating a
propagation factor; when an observation is originated the factors are
exchanged, the originating node computes the low-rank gain correction once
and broadcasts it with the residual, and every node applies them locally:
the same low-rank update the joint filter applies.

The simulation holds all n nodes of a network in one VehicleNode, with the
node axis leading, and advances them together: one stacked propagation
call per tick, one batched product per absorbed factor, and one batched
column update and retraction per broadcast.  The data flow stays per node:
node v reads only its own column, its own state and the wire messages.
"""

import base64
import json
import logging
from dataclasses import dataclass

import numpy as np

from . import models
from .joint import (UpdateSingularError, gain_correction, identity_factors,
                    propagate_vehicle)
from .lie import STATE_DOF, VehicleState, retract, stack_states

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


def _obj(**fields):
    """A JSON object of rendered values, its keys sorted as
    json.dumps(sort_keys=True) sorts them; every key is a plain name."""
    return "{" + ", ".join(f'"{k}": {fields[k]}' for k in sorted(fields)) + "}"


def _arr(a):
    """JSON text of an array: the object {"b64", "shape"}, where "b64" is
    the standard base64 of its float64 entries, little-endian, in C order.
    The text is exact, signed zeros and NaN payloads included, and costs
    under 11 characters and no formatting call per entry, where a decimal
    list costs about 20 and one shortest-repr call per entry."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return _obj(b64=f'"{base64.b64encode(a).decode("ascii")}"',
                shape=json.dumps(a.shape))


def encode_message(msg, tick):
    """The canonical bus-log line of a message delivered at `tick`.

    Rendered straight from the message's fields, it is byte for byte
    json.dumps(body, sort_keys=True) of the body with every array as its
    {"b64", "shape"} object (see _arr), "tick" and the wire version "v".
    The line is strict JSON: no array entry is written as a decimal, so no
    NaN or Infinity appears in it.
    """
    num = json.dumps
    if isinstance(msg, PropagationFactor):
        body = dict(type='"propagation_factor"', sender=num(msg.sender),
                    lam=_arr(msg.lam), start_tick=num(msg.start_tick),
                    end_tick=num(msg.end_tick))
    elif isinstance(msg, PeerStateRequest):
        body = dict(type='"peer_state_request"',
                    requester=num(msg.requester), target=num(msg.target))
    elif isinstance(msg, PeerStateReply):
        st = msg.state
        body = dict(type='"peer_state_reply"', sender=num(msg.sender),
                    state=_obj(rot=_arr(st.rot), pos=_arr(st.pos),
                               vel=_arr(st.vel),
                               gyro_bias=_arr(st.gyro_bias),
                               accel_bias=_arr(st.accel_bias)),
                    k_col=_arr(msg.k_col))
    elif isinstance(msg, UpdateBroadcast):
        body = dict(type='"update_broadcast"', origin=num(msg.origin),
                    kind=num(msg.kind), subject=num(msg.subject),
                    dt=num(msg.dt), t_ns=num(msg.t_ns), r=_arr(msg.r),
                    gain="null" if msg.gain is None else _arr(msg.gain))
    else:
        raise TypeError(f"not a wire message: {type(msg)!r}")
    return _obj(**body, tick=num(tick), v=num(WIRE_VERSION))


# -- the nodes ----------------------------------------------------------------

class VehicleNode:
    """The n nodes of a decentralised network, stacked along a leading axis.

    Node v's state is ``state[v]``, its 15n x 15 gain column ``k_col[v]``
    (k_col is (n, 15n, 15)) and its accumulated propagation factor
    ``lam_acc[v]``.  The nodes advance together, as the joint filter
    advances its vehicles: each node hands in its own IMU sample and the
    tick's last one propagates all of them in one stacked call; each
    delivered factor is absorbed by all the other nodes in one call; and
    one call applies a broadcast to every node.  Each step keeps the
    per-node data flow: node v reads only its own column, its own state and
    the wire messages.
    """

    def __init__(self, states, k_col, world, noise):
        n = len(states)
        k_col = np.array(k_col, dtype=float, order="C")
        if k_col.shape != (n, n * STATE_DOF, STATE_DOF):
            raise ValueError("gain columns have the wrong shape")
        self.n = n
        self._ar = np.arange(n)
        # the nodes other than j, which absorb j's factor
        self._others = [np.delete(self._ar, j) for j in range(n)]
        diag = self._diag(k_col)
        if not np.allclose(diag, diag.swapaxes(-1, -2), rtol=1e-9, atol=0.0):
            raise ValueError("own diagonal gain blocks must be symmetric")
        self.state = stack_states(states)
        self.k_col = k_col
        self.world = world
        self.noise = noise
        self._noise_term = models.imu_noise_term(noise)
        self.lam_acc = identity_factors(self.n)
        self.lam_start_tick = 0
        # every node's last emitted factor, which it pairs with a peer's
        self._own = identity_factors(self.n)
        self._own_span = (0, 0)
        self.tick = 0
        self.t_ns = 0
        # (sample, period) per node that has ticked in the current tick
        self._pending = {}
        # last applied arrival per (kind, observer, subject); node v reads
        # only the keys of its own observations
        self._last_obs_ns = {}

    def _diag(self, k_col):
        """Every node's own diagonal block, node v's at block v of k_col[v]."""
        return k_col.reshape(self.n, self.n, STATE_DOF, STATE_DOF)[
            self._ar, self._ar]

    def estimate(self):
        """Per-node states; later steps never change them in place."""
        return [self.state[v] for v in range(self.n)]

    # -- propagation ---------------------------------------------------------

    def propagate_local(self, v, u, dt):
        """Node v's IMU tick: its own sample u over the period dt.

        The nodes tick together.  Each hands in its own sample, and the
        call that completes the tick advances every node's state, own
        diagonal gain block and factor in one stacked call, the call the
        joint filter makes for its vehicles.
        """
        if dt <= 0.0:
            raise ValueError("IMU period must be positive")
        if not 0 <= v < self.n:
            raise ValueError(f"no node {v} to tick")
        if v in self._pending:
            raise SynchronizationError(
                f"node {v} ticked twice before tick {self.tick + 1} ended")
        self._pending[v] = (u, dt)
        if len(self._pending) < self.n:
            return self
        samples, periods = zip(*(self._pending[w] for w in range(self.n)))
        self._pending = {}
        if len(set(periods)) > 1:
            raise SynchronizationError("nodes ticked with different periods")
        self.state, kd, self.lam_acc = propagate_vehicle(
            self.state, self._diag(self.k_col), self.lam_acc,
            models.stack_samples(samples), dt, self.world, self._noise_term)
        # the reshape splits the row axis only, so it is a view of k_col
        self.k_col.reshape(self.n, self.n, STATE_DOF, STATE_DOF)[
            self._ar, self._ar] = kd
        self.tick += 1
        self.t_ns += int(round(dt * 1e9))
        return self

    def emit_propagation_factors(self):
        """Every node's factor message, in node order; each node keeps its
        own to pair with the peers' factors it absorbs.  The messages hold
        views of the factor stack, which is only ever rebound, never
        written; so over an empty span, where the stack is still the
        identity, the nodes keep accumulating into it, and a bus that
        renders its log after the run reads the factors as delivered."""
        if self._pending:
            raise SynchronizationError(
                f"factors requested while tick {self.tick + 1} is incomplete")
        span = (self.lam_start_tick, self.tick)
        msgs = [PropagationFactor(v, self.lam_acc[v], *span)
                for v in range(self.n)]
        self._own, self._own_span = self.lam_acc, span
        if span[0] != span[1]:
            self.lam_acc = identity_factors(self.n)
            self.lam_start_tick = self.tick
        return msgs

    def absorb_propagation_factor(self, peer):
        """Bring every other node's cross block for the sender up to the
        current tick: node v sets block j of its column to
        lam_j K_vj lam_v^T with its own emitted factor lam_v."""
        span = (peer.start_tick, peer.end_tick)
        if span != self._own_span:
            raise SynchronizationError(
                f"factor span {peer.start_tick}..{peer.end_tick} from "
                f"{peer.sender} does not match the nodes' own span "
                f"{self._own_span[0]}..{self._own_span[1]}")
        if peer.start_tick == peer.end_tick:
            return self
        j = peer.sender
        others = self._others[j]
        sl = slice(j * STATE_DOF, (j + 1) * STATE_DOF)
        self.k_col[others, sl, :] = (peer.lam @ self.k_col[others, sl, :]
                                     @ self._own[others].swapaxes(-1, -2))
        return self

    # -- updates --------------------------------------------------------------

    def peer_state_reply(self, v):
        """Node v's answer to a peer state request.  Its state views the
        state arrays, which every step replaces and none writes in place,
        and its columns are a copy; so the reply stays as delivered for a
        bus that renders its log after the run."""
        return PeerStateReply(v, self.state[v],
                              self.k_col[v, :, :models.UPDATE_SLOTS].copy())

    def originate_update(self, obs, peer_reply=None):
        """Build the update broadcast for an observation, at its observer.

        The observing node reads its own state and column and, for an
        inter-vehicle observation, the target's reply.  An update whose
        small system is singular, ill-conditioned or not finite is refused
        here, once for the network: the broadcast carries no gain
        correction and every node leaves its column and state alone.
        """
        v = obs.observer
        if not 0 <= v < self.n:
            raise ValueError(f"no node {v} to originate")
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

        key = (obs.kind, obs.observer, obs.subject)
        dt = self.noise.effective_period(obs.kind, self._last_obs_ns.get(key),
                                         obs.t_ns)

        r_ix, e_ii = models.update_terms(states, obs, self.world, self.noise,
                                         dt)

        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
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
        dt k_col[ix, :]^T r, in one stacked step."""
        if msg.t_ns != self.t_ns:
            raise ValueError(
                f"nodes at {self.t_ns} ns got update for {msg.t_ns} ns")
        if msg.gain is None:
            return self
        ix = models.update_indices(msg.kind, msg.origin, msg.subject)
        if msg.kind == models.LANDMARK:
            # one vehicle's slots are one range of rows: a view, which the
            # in-place update keeps current, instead of two gathers
            ix = slice(ix[0], ix[-1] + 1)
        # in place: no new (n, 15n, 15) array per broadcast, and k_col keeps
        # its C-contiguous layout
        self.k_col -= msg.gain @ self.k_col[:, ix, :]
        psi = msg.dt * (self.k_col[:, ix, :].swapaxes(-1, -2) @ msg.r)
        self.state = retract(self.state, psi)
        return self

"""Per-vehicle nodes implementing the decoupled filter.

Each node owns its own state estimate and one 15n x 15 column slice of the
joint gain matrix.  Between observations nodes run silently, accumulating a
propagation factor; when an observation is originated the factors are
exchanged, the originating node computes the low-rank gain correction once
and broadcasts it with the residual, and every node applies them locally.
The curvature correction of the centralised filter is deliberately dropped
here, since it would need the full gain inverse.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import models
from .joint import UpdateSingularError, gain_correction, propagate_vehicle
from .lie import STATE_DOF, VehicleState, compose, group_exp, identity_state

log = logging.getLogger(__name__)

WIRE_VERSION = 3


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


def _mat(m):
    return np.asarray(m, dtype=float).tolist()


def encode_message(msg):
    """Canonical JSON-compatible encoding used for bus logs and replay."""
    if isinstance(msg, PropagationFactor):
        body = {"type": "propagation_factor", "sender": msg.sender,
                "lam": _mat(msg.lam),
                "start_tick": msg.start_tick, "end_tick": msg.end_tick}
    elif isinstance(msg, PeerStateRequest):
        body = {"type": "peer_state_request", "requester": msg.requester,
                "target": msg.target}
    elif isinstance(msg, PeerStateReply):
        body = {"type": "peer_state_reply", "sender": msg.sender,
                "state": {"rot": _mat(msg.state.rot), "pos": _mat(msg.state.pos),
                          "vel": _mat(msg.state.vel),
                          "gyro_bias": _mat(msg.state.gyro_bias),
                          "accel_bias": _mat(msg.state.accel_bias)},
                "k_col": _mat(msg.k_col)}
    elif isinstance(msg, UpdateBroadcast):
        body = {"type": "update_broadcast", "origin": msg.origin,
                "kind": msg.kind, "subject": msg.subject, "dt": msg.dt,
                "t_ns": msg.t_ns, "r": _mat(msg.r),
                "gain": None if msg.gain is None else _mat(msg.gain)}
    else:
        raise TypeError(f"not a wire message: {type(msg)!r}")
    body["v"] = WIRE_VERSION
    return body


def decode_message(body):
    if body.get("v") != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {body.get('v')!r}")
    kind = body["type"]
    if kind == "propagation_factor":
        return PropagationFactor(body["sender"], np.array(body["lam"]),
                                 body["start_tick"], body["end_tick"])
    if kind == "peer_state_request":
        return PeerStateRequest(body["requester"], body["target"])
    if kind == "peer_state_reply":
        st = body["state"]
        state = VehicleState(np.array(st["rot"]), np.array(st["pos"]),
                             np.array(st["vel"]), np.array(st["gyro_bias"]),
                             np.array(st["accel_bias"]))
        return PeerStateReply(body["sender"], state, np.array(body["k_col"]))
    if kind == "update_broadcast":
        gain = body["gain"]
        return UpdateBroadcast(
            body["origin"], body["kind"], body["subject"], body["dt"],
            body["t_ns"], np.array(body["r"]),
            None if gain is None else np.array(gain))
    raise ValueError(f"unknown message type {kind!r}")


# -- the node -----------------------------------------------------------------

class VehicleNode:
    """One vehicle's independent estimator in the decentralised filter."""

    def __init__(self, vehicle_id, n, state, k_col, world, noise):
        k_col = np.asarray(k_col, dtype=float)
        if k_col.shape != (n * STATE_DOF, STATE_DOF):
            raise ValueError("gain column has the wrong shape")
        diag = self._block(k_col, vehicle_id)
        if not np.allclose(diag, diag.T, rtol=1e-9, atol=0.0):
            raise ValueError("own diagonal gain block must be symmetric")
        self.id = vehicle_id
        self.n = n
        self.state = state
        self.k_col = k_col.copy()
        self.world = world
        self.noise = noise
        self.lam_acc = np.eye(STATE_DOF)
        self.lam_start_tick = 0
        self.tick = 0
        self.t_ns = 0
        self._last_obs_ns = {}

    @staticmethod
    def _block(k_col, j):
        return k_col[j * STATE_DOF:(j + 1) * STATE_DOF, :]

    # -- propagation ---------------------------------------------------------

    def propagate_local(self, u, dt):
        """One IMU tick: state, own diagonal gain block, and the factor."""
        if dt <= 0.0:
            raise ValueError("IMU period must be positive")
        sl = slice(self.id * STATE_DOF, (self.id + 1) * STATE_DOF)
        self.state, self.k_col[sl, :], self.lam_acc = propagate_vehicle(
            self.state, self.k_col[sl, :], self.lam_acc, u, dt, self.world,
            self.noise)
        self.tick += 1
        self.t_ns += int(round(dt * 1e9))
        return self

    def emit_propagation_factor(self):
        msg = PropagationFactor(self.id, self.lam_acc.copy(),
                                self.lam_start_tick, self.tick)
        self.lam_acc = np.eye(STATE_DOF)
        self.lam_start_tick = self.tick
        return msg

    def absorb_propagation_factor(self, own, peer):
        """Bring the cross block for the peer up to the current tick."""
        if (own.start_tick, own.end_tick) != (peer.start_tick, peer.end_tick):
            raise SynchronizationError(
                f"node {self.id}: factor span {peer.start_tick}..{peer.end_tick} "
                f"from {peer.sender} does not match own span "
                f"{own.start_tick}..{own.end_tick}")
        if own.start_tick == own.end_tick:
            return self
        j = peer.sender
        sl = slice(j * STATE_DOF, (j + 1) * STATE_DOF)
        self.k_col[sl, :] = peer.lam @ self.k_col[sl, :] @ own.lam.T
        return self

    # -- updates --------------------------------------------------------------

    def peer_state_reply(self):
        return PeerStateReply(self.id, self.state,
                              self.k_col[:, :models.UPDATE_SLOTS].copy())

    def originate_update(self, obs, peer_reply=None):
        """Build the update broadcast for an observation made by this node.

        An update whose small system is singular, ill-conditioned or not
        finite is refused here, once for the network: the broadcast carries
        no gain correction and every node leaves its column and state alone.
        """
        if obs.observer != self.id:
            raise ValueError("only the observing vehicle can originate")
        states = [identity_state()] * self.n
        states[self.id] = self.state
        # K[:, ix]: the update slots of the observer's column, then the target's
        cols = [self.k_col[:, :models.UPDATE_SLOTS]]
        if obs.kind == models.INTERVEHICLE:
            if peer_reply is None or peer_reply.sender != obs.subject:
                raise ValueError("inter-vehicle update needs the target's "
                                 "state and gain column first")
            states[obs.subject] = peer_reply.state
            cols.append(peer_reply.k_col)

        key = (obs.kind, obs.observer, obs.subject)
        dt = obs.dt if obs.dt is not None else self.noise.effective_period(
            obs.kind, self._last_obs_ns.get(key), obs.t_ns)

        e = models.hessian_term(states, obs, self.world, self.noise, dt)
        _, r = models.residual(states, obs, self.world, self.noise, dt)

        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
        try:
            gain = gain_correction(np.hstack(cols), ix, e[ix][:, ix], dt)
        except UpdateSingularError as exc:
            # a refused update leaves the source's observation clock alone,
            # as in the joint filter
            log.warning("node %d: %s, skipping update at t=%d ns",
                        self.id, exc, obs.t_ns)
            gain = None
        else:
            self._last_obs_ns[key] = obs.t_ns
        return UpdateBroadcast(self.id, obs.kind, obs.subject, dt, obs.t_ns,
                               r[ix], gain)

    def apply_update(self, msg):
        """Apply a broadcast update to the local column and state."""
        if msg.t_ns != self.t_ns:
            raise ValueError(
                f"node {self.id} at {self.t_ns} ns got update for {msg.t_ns} ns")
        if msg.gain is None:
            return self
        ix = models.update_indices(msg.kind, msg.origin, msg.subject)
        self.k_col = self.k_col - msg.gain @ self.k_col[ix, :]
        psi = msg.dt * (self.k_col[ix, :].T @ msg.r)
        self.state = compose(self.state, group_exp(psi))
        return self

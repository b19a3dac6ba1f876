"""Centralised discrete-time minimum-energy filter over the whole network.

IMU ticks propagate the estimate through the group exponential and the gain
matrix through its Riccati flow; landmark and inter-vehicle observations are
applied sequentially as discrete low-rank updates, except that while the
gain is block diagonal, which the filter then holds as its diagonal blocks
only, a tick's landmark updates of different vehicles, which commute
exactly, are applied together in rounds on those blocks.  A coupled gain is
held and updated as the decentralised nodes hold and update theirs.
"""

import collections
import itertools
import logging
import math

import numpy as np

from . import models
from .kernels import _eye, expm
from .lie import STATE_DOF, retract, stack_states

log = logging.getLogger(__name__)

# Threshold on the update system's 1-norm condition number; beyond this the
# update is reported as singular instead of silently applied.  It gates the
# m x m system of the low-rank update (m = 6 or 12).
COND_LIMIT = 1e12


class UpdateSingularError(RuntimeError):
    """The discrete gain update system is numerically singular."""


def propagate_vehicle(state, kdiag, lam, u, dt, world, noise_term):
    """One IMU tick of a stack of vehicles, on a leading axis n.

    Shared by the joint filter and the nodes, each advancing all n
    vehicles in one call.  Advances the estimate through the group
    exponential, the 15x15 diagonal gain block by a forward-Euler Riccati
    step that keeps it exactly symmetric, and the accumulated propagation
    factor lam <- expm(a dt) lam that later brings the vehicle's cross
    blocks up to date; lam stays None for a caller that keeps no factor.
    `noise_term` is models.imu_noise_term(noise), constant for a run.
    Returns the new (state, kdiag, lam).
    """
    a = models.a_check_single(state, u)
    ak = a @ kdiag
    kd = kdiag + dt * (ak + ak.swapaxes(-1, -2) + noise_term)
    if lam is not None:
        lam = expm(a * dt) @ lam
    drift = models.lambda_single(state, u, world)
    return retract(state, dt * drift), kd, lam


def absorb_factor(k_col, j, others, lam_j, own):
    """K_jv <- lam_j K_jv lam_v^T in place, in every column v of the
    (n, 15n, 15) stack k_col but j's (`others`), with own[v] column v's
    factor: vehicle j's factor brings its cross blocks up to date."""
    sl = slice(j * STATE_DOF, (j + 1) * STATE_DOF)
    k_col[others, sl, :] = (lam_j @ k_col[others, sl, :]
                            @ own[others].swapaxes(-1, -2))


def apply_correction(state, k_col, kind, ix, g, dt, r):
    """k_col <- k_col - G k_col[:, ix, :] in place on every column, and the
    state retracted by psi = dt k_col[:, ix, :]^T r, which is returned."""
    if kind == models.LANDMARK:
        # one vehicle's slots are one range of rows: a view, which the
        # in-place update keeps current, instead of two gathers
        ix = slice(ix[0], ix[-1] + 1)
    # in place: no new (n, 15n, 15) array per update, and k_col keeps its
    # C-contiguous layout
    k_col -= g @ k_col[:, ix, :]
    return retract(state, dt * (k_col[:, ix, :].swapaxes(-1, -2) @ r))


def diagonal_blocks(k_col):
    """Block v of column v for every v: a writeable (n, 15, 15) view of a
    C-contiguous column stack (the reshape splits the row axis only)."""
    n = len(k_col)
    return np.einsum("ii...->i...", k_col.reshape(n, n, STATE_DOF, STATE_DOF))


def _check_spd(k, name="K0"):
    if not np.allclose(k, k.T, rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


def _still_definite(m, t_ns):
    """Whether m is positive definite, by one Cholesky; logs the loss."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        log.warning("gain matrix lost positive definiteness at t=%d ns", t_ns)
        return False
    return True


def check_vehicle(role, v, n):
    """Refuse a vehicle index outside 0..n-1, a negative one included,
    before it can index (and wrap around) any per-vehicle array."""
    if not 0 <= v < n:
        raise ValueError(f"{role} {v} is not a vehicle of the network "
                         f"(n = {n})")


def identity_factors(n):
    """n identity propagation factors, (n, 15, 15): no tick absorbed yet."""
    return np.broadcast_to(np.eye(STATE_DOF), (n, STATE_DOF, STATE_DOF)).copy()


def _blocks(k, n):
    """(n, n, 15, 15) view of the 15x15 blocks of a 15n x 15n matrix."""
    return k.reshape(n, STATE_DOF, n, STATE_DOF).swapaxes(1, 2)


class JointFilter:
    """Single-writer state machine holding the joint estimate and gain.

    The estimate is one stacked VehicleState, leading axis n for every n,
    one included.  While every cross block of the gain is zero (no
    propagation factor kept), the gain is held only as its (n, 15, 15)
    stack of diagonal blocks: propagation advances it, landmark updates
    act on it block by block, and no 15n x 15n array is formed.  The first
    applied inter-vehicle update couples the gain; from then on, and from
    the start for a prior with a non-zero cross block, it is held as the
    nodes' (n, 15n, 15) column stack self.k_col, with each vehicle's
    propagation factor.  Between updates only the diagonal blocks and the
    factors move, and the cross blocks are brought up to the current tick
    before the next update.  A block-diagonal filter that sees only
    landmark updates (`none`, or a single vehicle) never exponentiates.
    """

    def __init__(self, states, k0, world, noise):
        k0 = np.asarray(k0, dtype=float)
        n = len(states)
        if k0.shape != (n * STATE_DOF, n * STATE_DOF):
            raise ValueError("K0 has the wrong shape for the vehicle count")
        _check_spd(k0)
        self.n = n
        self.state = stack_states(states)
        self.world = world
        self.noise = noise
        self.t_ns = 0
        self._noise_term = models.imu_noise_term(noise)
        # last-observation time per (kind, observer, subject)
        self._last_obs_ns = {}
        self._ar = np.arange(n)
        # the vehicles other than j, whose columns absorb j's factor
        self._others = [np.delete(self._ar, j) for j in range(n)]
        # a landmark update's slots within its observer's diagonal block,
        # for each item of a round
        self._block_ix = np.broadcast_to(np.arange(models.UPDATE_SLOTS),
                                         (n, models.UPDATE_SLOTS))
        blocks = _blocks(k0, n)
        if blocks[~np.eye(n, dtype=bool)].any():
            self._couple(np.hsplit(k0, n))
        else:
            # uncoupled: the diagonal blocks are the whole gain, and no
            # factor is kept, since lam_i 0 lam_j^T is exactly 0
            self.k_col = None
            self._kdiag = blocks[self._ar, self._ar]
            self._lam = None
        # whether the gain has propagated since the last update
        self._stale = False
        # whether the gain is known positive definite (checked at __init__);
        # once lost it is checked again only when the gain is next rebuilt
        self._definite = True

    def _couple(self, k_col):
        """Hold the gain as its column stack from now on, as a node does."""
        self.k_col = np.ascontiguousarray(k_col, dtype=float)
        self._kdiag = diagonal_blocks(self.k_col)
        self._lam = identity_factors(self.n)

    # -- accessors -----------------------------------------------------------

    def estimate(self):
        """Per-vehicle states; later steps never change them in place."""
        return [self.state[i] for i in range(self.n)]

    # -- IMU propagation -----------------------------------------------------

    def propagate(self, u, dt):
        """Advance one IMU tick over the common period dt.

        u is one ImuSample stacked over vehicles: gyro and accel (n, 3),
        row v vehicle v's sample.  Only the estimates, the diagonal gain
        blocks and the factors move here, for all vehicles in one call; the
        cross blocks are brought up to date at the next update.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"IMU period must be positive and finite: {dt}")
        if u.gyro.shape != (self.n, 3) or u.accel.shape != (self.n, 3):
            raise ValueError(f"need (n, 3) = ({self.n}, 3) IMU rows, got "
                             f"{u.gyro.shape} and {u.accel.shape}")
        self.state, self._kdiag[...], self._lam = propagate_vehicle(
            self.state, self._kdiag, self._lam, u, dt, self.world,
            self._noise_term)
        self._stale = True
        self.t_ns += int(round(dt * 1e9))
        return self

    # -- measurement updates ---------------------------------------------------

    def update(self, *observations):
        """Apply one tick's observations, in event order, at the current
        filter time, each weighed by the period since its source's last
        applied arrival.

        Every observation must carry the filter time: a stale or a future
        stamp raises ValueError naming both, before any is applied; so
        does an observer, or an inter-vehicle subject, outside 0..n-1, and
        an unknown landmark index raises ObservationError.

        While the gain is uncoupled (every cross block zero, no factor
        kept), a landmark update touches only its observer's diagonal
        block, so the landmark updates of different vehicles commute
        exactly.  The landmark observations that lead the call are then
        applied in rounds on the (n, 15, 15) diagonal blocks: round d holds
        each vehicle's d-th of them, in call order, and goes through the
        update algebra once, a round of one included, with its items'
        model terms built in one call.  Each item gets the bits it would
        get alone, so the gain, the estimates and the observation clock
        are those of one observation per call.  Every observation after
        the leading landmarks is applied alone on the column stack, which
        the first applied inter-vehicle update builds, as the nodes apply
        it, after each vehicle's factor is absorbed as in an exchange.  A
        refused update raises the verdict of its round's first refused
        observation, in call order, before any of that round is applied;
        earlier rounds stay applied.

        The gain's positive definiteness is checked where it can be lost,
        and a loss is logged once, as a warning; the update is applied
        either way.  The propagated gain gets one Cholesky when it is
        rebuilt at an epoch's first update: one of the 15n x 15n matrix of
        the columns, or one stacked 15 x 15 one per diagonal block while
        uncoupled.  A low-rank update keeps a definite K definite iff the
        m x m matrix K_ii + dt K_ii E_ii K_ii is, with K_ii = K[ix, ix]
        before the update: (K+)^-1 = K^-1 + dt E, and congruence with
        K^1/2 plus AB and BA sharing their non-zero eigenvalues reduce the
        test to the ix block.  A round tests its items as one stack.  Once
        lost, definiteness is checked again at the next rebuild.
        """
        for obs in observations:
            if obs.t_ns != self.t_ns:
                when = "before" if obs.t_ns < self.t_ns else "after"
                raise ValueError(f"observation at {obs.t_ns} ns is {when} "
                                 f"filter time {self.t_ns} ns")
            check_vehicle("observer", obs.observer, self.n)
            if obs.kind == models.INTERVEHICLE:
                check_vehicle("inter-vehicle subject", obs.subject, self.n)
            else:
                self.world.landmark(obs.subject)
        if not observations:
            return self
        if self._stale:
            if self._lam is None:
                self._definite = _still_definite(self._kdiag, self.t_ns)
            else:
                for j, others in enumerate(self._others):
                    absorb_factor(self.k_col, j, others, self._lam[j],
                                  self._lam)
                self._lam = identity_factors(self.n)
                # the columns side by side: the 15n x 15n gain
                self._definite = _still_definite(np.hstack(self.k_col),
                                                 self.t_ns)
            self._stale = False
        lead = []
        if self._lam is None:
            lead = list(itertools.takewhile(
                lambda obs: obs.kind == models.LANDMARK, observations))
        rounds, rank = {}, collections.Counter()
        for obs in lead:
            rounds.setdefault(rank[obs.observer], []).append(obs)
            rank[obs.observer] += 1
        for group in rounds.values():
            self._update_round(group)
        for obs in observations[len(lead):]:
            self._update_one(obs)
        return self

    def _update_one(self, obs):
        """One observation on the column stack, as the nodes apply it.  On
        an uncoupled gain (an inter-vehicle update) the columns are built
        from the diagonal blocks and kept once the update is accepted."""
        key = (obs.kind, obs.observer, obs.subject)
        dt = self.noise.effective_period(obs.kind, self._last_obs_ns.get(key),
                                         obs.t_ns)
        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
        r_ix, e_ii = models.update_terms(self.state, obs, self.world,
                                         self.noise, dt)

        k_col = self.k_col
        if k_col is None:
            k_col = np.array(np.hsplit(block_diag_prior(self._kdiag), self.n))
        # K[:, ix]: the observer's update slots, then the subject's
        cols = [k_col[obs.observer, :, :models.UPDATE_SLOTS]]
        if obs.kind == models.INTERVEHICLE:
            cols.append(k_col[obs.subject, :, :models.UPDATE_SLOTS])
        kc = np.hstack(cols)
        g = gain_correction(kc, ix, e_ii, dt)
        if self.k_col is None:
            self._couple(k_col)
        if self._definite:
            k_ii = kc[ix, :]
            self._definite = _still_definite(
                k_ii + dt * (k_ii @ e_ii @ k_ii), obs.t_ns)
        self.state = apply_correction(self.state, self.k_col, obs.kind, ix,
                                      g, dt, r_ix)
        self._last_obs_ns[key] = obs.t_ns

    def _update_round(self, group):
        """At most one landmark observation per vehicle on the uncoupled
        gain, on the observers' diagonal blocks only, each item on a
        leading round axis.  An observer's update slots are the first
        UPDATE_SLOTS of its block, and its rank update and psi vanish
        outside that block, so each item is the one-vehicle update of its
        block: K_vv -= G_v K_vv[0:6, :], symmetrised, psi_v = dt K_vv[:, 0:6]
        r_v.  The items' terms come from one model call; a round of one
        passes its observation as it is."""
        v = np.array([obs.observer for obs in group])
        keys = [(obs.kind, obs.observer, obs.subject) for obs in group]
        dt = np.array([self.noise.effective_period(
            models.LANDMARK, self._last_obs_ns.get(key), self.t_ns)
            for key in keys])
        if len(group) == 1:
            terms = models.update_terms(self.state, group[0], self.world,
                                        self.noise, float(dt[0]))
        else:
            terms = models.update_terms(
                self.state, models.stack_observations(group), self.world,
                self.noise, dt)
        m = models.UPDATE_SLOTS
        r_ix = np.reshape(terms[0], (len(group), m))
        e_ii = np.reshape(terms[1], (len(group), m, m))

        kv = self._kdiag[v]
        g = gain_correction(kv[..., :m], self._block_ix[:len(group)], e_ii,
                            dt)
        if self._definite:
            k_ii = kv[:, :m, :m]
            self._definite = _still_definite(
                k_ii + dt[:, None, None] * (k_ii @ e_ii @ k_ii), self.t_ns)
        kv -= g @ kv[:, :m, :]
        kv += kv.swapaxes(-1, -2)
        kv *= 0.5
        self._kdiag[v] = kv

        # K_vv[:, 0:6] row-major: BLAS forms each entry of psi as one dot
        # product of its row with r_v, whatever the row's place in a block
        psi = np.zeros((self.n, STATE_DOF))
        psi[v] = dt[:, None] * (kv[..., :m] @ r_ix[..., None])[..., 0]
        self.state = retract(self.state, psi)
        for key in keys:
            self._last_obs_ns[key] = self.t_ns


def _one_norm(m):
    """||m||_1, the largest column sum of |m|, by the ufunc reductions
    that ndarray.sum and .max wrap; one per matrix of a stack."""
    return np.maximum.reduce(np.add.reduce(np.abs(m), axis=-2), axis=-1)


def _rows(kc, ix):
    """kc[i][ix[i], :] for every item i of a stack, as one (R, m, m)
    array laid out as each kc[ix, :] is."""
    return kc[np.arange(len(ix))[:, None], ix]


def update_inverse(s):
    """Inverse of an update system, refused when it is not finite (a
    non-finite K makes it so; gain_correction refuses a non-finite E_ii
    first), exactly singular, or its 1-norm condition number
    ||S||_1 ||S^-1||_1 exceeds COND_LIMIT.

    The column-sum reduction that gives ||S||_1 is NaN or inf exactly when
    an entry is, so it also serves as the finiteness check.  With m = 6 or
    12 the exact condition number costs two such reductions.  A stack of
    systems (R, m, m) is inverted in one call, each item as it would be
    alone; if any item is refused, the items are gated one by one, so the
    first refused one, in stack order, raises its own verdict.  Raises
    UpdateSingularError.
    """
    if s.ndim > 2:
        norm = _one_norm(s)
        if np.isfinite(norm).all():
            try:
                inv = np.linalg.inv(s)
            except np.linalg.LinAlgError:
                pass
            else:
                if (norm * _one_norm(inv) <= COND_LIMIT).all():
                    return inv
        return np.array([update_inverse(item) for item in s])
    norm = _one_norm(s)
    if not math.isfinite(norm):
        raise UpdateSingularError("update system is not finite")
    try:
        inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        raise UpdateSingularError("update system is singular") from None
    cond = norm * _one_norm(inv)
    if not cond <= COND_LIMIT:
        raise UpdateSingularError(
            f"update system condition ~{cond:.2e} exceeds {COND_LIMIT:.0e}")
    return inv


def gain_correction(kc, ix, e_ii, dt):
    """Low-rank form of the discrete gain update (Woodbury identity).

    With E vanishing outside the indices ix and kc = K[:, ix],
    (I + dt K E)^-1 K = K - G K[ix, :] where

        G = dt kc (I + dt E_ii kc[ix, :])^-1 E_ii,

    a 15n x m matrix (m = len(ix)).  The m x m system has the determinant of
    the full one (Sylvester) and is refused by the same gate,
    update_inverse.  A non-finite E_ii is refused first, before it enters a
    product where 0 * inf would warn; the verdict is update_inverse's.

    Every argument may carry one leading axis of R updates, kc (R, 15n, m),
    ix (R, m), e_ii (R, m, m) and dt (R,): each item gets the products and
    the verdict it would get alone, and the first refused item, in stack
    order, raises.  Raises UpdateSingularError.
    """
    if kc.ndim > 2:
        if not np.isfinite(e_ii).all():
            # gated one by one, so an earlier item's verdict comes first
            return np.array([gain_correction(*item)
                             for item in zip(kc, ix, e_ii, dt)])
        dt = dt[:, None, None]
        k_ii = _rows(kc, ix)
    else:
        if not np.isfinite(e_ii).all():
            raise UpdateSingularError("update system is not finite")
        k_ii = kc[ix, :]
    s = _eye(ix.shape[-1]) + dt * (e_ii @ k_ii)
    return dt * (kc @ (update_inverse(s) @ e_ii))


def block_diag_prior(k0_blocks):
    """The block-diagonal 15n x 15n gain of n per-vehicle 15x15 blocks, as
    a joint prior is built and an uncoupled gain is read out."""
    n = len(k0_blocks)
    k = np.zeros((n * STATE_DOF, n * STATE_DOF))
    ar = np.arange(n)
    _blocks(k, n)[ar, ar] = k0_blocks
    return k

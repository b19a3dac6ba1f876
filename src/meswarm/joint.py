"""Centralised discrete-time minimum-energy filter over the whole network.

IMU ticks propagate the estimate through the group exponential and the gain
matrix through its Riccati flow; landmark and inter-vehicle observations are
applied sequentially as discrete low-rank updates.
"""

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


def identity_factors(n):
    """n identity propagation factors, (n, 15, 15): no tick absorbed yet."""
    return np.broadcast_to(np.eye(STATE_DOF), (n, STATE_DOF, STATE_DOF)).copy()


def _blocks(k, n):
    """(n, n, 15, 15) view of the 15x15 blocks of a 15n x 15n matrix."""
    return k.reshape(n, STATE_DOF, n, STATE_DOF).swapaxes(1, 2)


class JointFilter:
    """Single-writer state machine holding the joint estimate and gain.

    The estimate is one stacked VehicleState, leading axis n for every n,
    one included.  Between updates only the diagonal gain blocks move, kept
    as an (n, 15, 15) stack, and each vehicle's propagation factor; the
    full gain is brought up to the current tick before the next update.
    """

    def __init__(self, states, k0, world, noise):
        k0 = np.asarray(k0, dtype=float)
        n = len(states)
        if k0.shape != (n * STATE_DOF, n * STATE_DOF):
            raise ValueError("K0 has the wrong shape for the vehicle count")
        _check_spd(k0)
        self.n = n
        self.state = stack_states(states)
        self.k = k0.copy()
        self.world = world
        self.noise = noise
        self.t_ns = 0
        self._noise_term = models.imu_noise_term(noise)
        # last-observation time per (kind, observer, subject)
        self._last_obs_ns = {}
        self._ar = np.arange(n)
        # the propagated diagonal blocks; None while they are those of
        # self.k, read once by the next propagate
        self._kdiag = None
        # per-vehicle propagation factors since the cross blocks were last
        # brought up to date, as each node keeps its own; a single vehicle
        # has no cross blocks and keeps none
        self._lam = None if n == 1 else identity_factors(self.n)
        self._stale = False
        # whether the gain is known positive definite (checked at __init__);
        # once lost it is checked again only when the gain is next rebuilt
        self._definite = True

    def _diag_blocks(self):
        return _blocks(self.k, self.n)[self._ar, self._ar]

    # -- accessors -----------------------------------------------------------

    def estimate(self):
        """Per-vehicle states; later steps never change them in place."""
        return [self.state[i] for i in range(self.n)]

    def gain(self):
        """The joint gain brought up to the current tick.

        The diagonal blocks are the propagated ones, and K_ij becomes
        lam_i K_ij lam_j^T for i < j and K_ji its transpose, the expression
        each node applies when it absorbs a peer's factor.  The filter
        itself is left unchanged.
        """
        k = self.k.copy()
        if not self._stale:
            return k
        blocks = _blocks(k, self.n)
        if self._lam is not None:
            lam = self._lam
            upper = np.triu_indices(self.n, 1)
            kij = lam[upper[0]] @ blocks[upper] @ lam[upper[1]].swapaxes(-1, -2)
            blocks[upper] = kij
            blocks[upper[::-1]] = kij.swapaxes(-1, -2)
        blocks[self._ar, self._ar] = self._kdiag
        return k

    # -- IMU propagation -----------------------------------------------------

    def propagate(self, u, dt):
        """Advance one IMU tick over the common period dt.

        u is one ImuSample stacked over vehicles: gyro and accel (n, 3),
        row v vehicle v's sample (models.stack_samples builds one from n
        samples).  Only the estimates, the diagonal gain blocks and the
        factors move here, for all vehicles in one call; the full gain is
        brought up to date at the next update.
        """
        if dt <= 0.0:
            raise ValueError("IMU period must be positive")
        if u.gyro.shape != (self.n, 3) or u.accel.shape != (self.n, 3):
            raise ValueError(f"need (n, 3) = ({self.n}, 3) IMU rows, got "
                             f"{u.gyro.shape} and {u.accel.shape}")
        if self._kdiag is None:
            self._kdiag = self._diag_blocks()
        self.state, self._kdiag, self._lam = propagate_vehicle(
            self.state, self._kdiag, self._lam, u, dt, self.world,
            self._noise_term)
        self._stale = True
        self.t_ns += int(round(dt * 1e9))
        return self

    # -- measurement updates ---------------------------------------------------

    def update(self, obs):
        """Apply one observation at the current filter time, weighed by the
        period since its source's last applied arrival.

        The gain's positive definiteness is checked where it can be lost,
        and a loss is logged once, as a warning; the update is applied
        either way.  The propagated gain gets one dense Cholesky when it is
        rebuilt at an epoch's first update.  A low-rank update keeps a
        definite K definite iff the m x m matrix K_ii + dt K_ii E_ii K_ii
        is, with K_ii = K[ix, ix] before the update: (K+)^-1 = K^-1 + dt E,
        and congruence with K^1/2 plus AB and BA sharing their non-zero
        eigenvalues reduce the test to the ix block.  Once lost,
        definiteness is checked again at the next rebuild.
        """
        if obs.t_ns < self.t_ns:
            raise ValueError(
                f"observation at {obs.t_ns} ns is before filter time {self.t_ns} ns")
        if self._stale:
            self.k = self.gain()
            if self._lam is not None:
                self._lam = identity_factors(self.n)
            self._stale = False
            self._definite = _still_definite(self.k, obs.t_ns)
        key = (obs.kind, obs.observer, obs.subject)
        dt = self.noise.effective_period(obs.kind, self._last_obs_ns.get(key),
                                         obs.t_ns)
        ix = models.update_indices(obs.kind, obs.observer, obs.subject)
        r_ix, e_ii = models.update_terms(self.state, obs, self.world,
                                         self.noise, dt)

        kc = self.k[:, ix]
        g = gain_correction(kc, ix, e_ii, dt)
        if self._definite:
            k_ii = kc[ix, :]
            self._definite = _still_definite(
                k_ii + dt * (k_ii @ e_ii @ k_ii), obs.t_ns)
        # in place, as _sym(k - g k[ix, :]): nothing else holds self.k
        k = self.k
        k -= g @ k[ix, :]
        k += k.T
        k *= 0.5
        self._kdiag = None

        # psi = dt K r, and r vanishes outside ix
        psi = dt * (self.k[:, ix] @ r_ix)
        self.state = retract(self.state, psi.reshape(self.n, STATE_DOF))
        self._last_obs_ns[key] = obs.t_ns
        return self


def _one_norm(m):
    """||m||_1, the largest column sum of |m|, by the ufunc reductions
    that ndarray.sum and .max wrap."""
    return np.maximum.reduce(np.add.reduce(np.abs(m), axis=0))


def update_inverse(s):
    """Inverse of an update system, refused when it is not finite (a
    non-finite K makes it so; gain_correction refuses a non-finite E_ii
    first), exactly singular, or its 1-norm condition number
    ||S||_1 ||S^-1||_1 exceeds COND_LIMIT.

    The column-sum reduction that gives ||S||_1 is NaN or inf exactly when
    an entry is, so it also serves as the finiteness check.  With m = 6 or
    12 the exact condition number costs two such reductions.  Raises
    UpdateSingularError.
    """
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
    Raises UpdateSingularError.
    """
    if not np.isfinite(e_ii).all():
        raise UpdateSingularError("update system is not finite")
    s = _eye(len(ix)) + dt * (e_ii @ kc[ix, :])
    return dt * (kc @ (update_inverse(s) @ e_ii))


def block_diag_prior(k0_blocks):
    """Joint prior gain from independent per-vehicle 15x15 blocks."""
    n = len(k0_blocks)
    k = np.zeros((n * STATE_DOF, n * STATE_DOF))
    ar = np.arange(n)
    _blocks(k, n)[ar, ar] = k0_blocks
    return k

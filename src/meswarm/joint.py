"""Centralised discrete-time minimum-energy filter over the whole network.

IMU ticks propagate the estimate through the group exponential and the gain
matrix through its Riccati flow; landmark and inter-vehicle observations are
applied sequentially as discrete updates, optionally with the curvature
correction of the underlying connection.
"""

import logging
import warnings

import numpy as np
import scipy.linalg as sla

from . import models
from .kernels import expm
from .lie import STATE_DOF, compose, group_exp, network_adjoint_from_vector

log = logging.getLogger(__name__)

# Condition-number threshold on the update system; beyond this the update is
# reported as singular instead of silently applied.  Without curvature it
# gates the m x m system of the low-rank update (m = 6 or 12).
COND_LIMIT = 1e12


class UpdateSingularError(RuntimeError):
    """The discrete gain update system is numerically singular."""


def _sym(m):
    return 0.5 * (m + m.T)


def propagate_vehicle(state, kdiag, lam, u, dt, world, noise):
    """One vehicle's IMU tick, shared by the joint filter and the nodes.

    Advances the estimate through the group exponential, the 15x15 diagonal
    gain block by a symmetrised forward-Euler Riccati step, and the
    accumulated propagation factor lam <- expm(a dt) lam that later brings
    the vehicle's cross blocks up to date; lam stays None for a caller that
    keeps no factor.  Returns the new (state, kdiag, lam).
    """
    a = models.a_check_single(state, u)
    b = models.b_check_single(noise)
    bwb = noise.w_inverse_scale() * (b @ b.T)
    kd = kdiag + dt * (a @ kdiag + kdiag @ a.T + bwb)
    if lam is not None:
        lam = expm(a * dt) @ lam
    drift = models.lambda_single(state, u, world)
    return compose(state, group_exp(dt * drift)), _sym(kd), lam


def _check_spd(k, name="K0"):
    if not np.allclose(k, k.T, rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


class JointFilter:
    """Single-writer state machine holding the joint estimate and gain."""

    def __init__(self, states, k0, world, noise):
        k0 = np.asarray(k0, dtype=float)
        n = len(states)
        if k0.shape != (n * STATE_DOF, n * STATE_DOF):
            raise ValueError("K0 has the wrong shape for the vehicle count")
        _check_spd(k0)
        self.n = n
        self.states = list(states)
        self.k = k0.copy()
        self.world = world
        self.noise = noise
        self.t_ns = 0
        # last-observation time per (kind, observer, subject)
        self._last_obs_ns = {}
        # per-vehicle propagation factors since the cross blocks were last
        # brought up to date, as each node keeps its own; a single vehicle
        # has no cross blocks and keeps none
        self._lams = ([None] if n == 1
                      else [np.eye(STATE_DOF) for _ in range(n)])
        self._cross_stale = False

    # -- accessors -----------------------------------------------------------

    def estimate(self):
        return list(self.states)

    def gain(self):
        """The joint gain, every cross block brought up to the current tick.

        K_ij becomes lam_i K_ij lam_j^T for i < j and K_ji its transpose, the
        expression each node applies when it absorbs a peer's factor.  The
        filter itself is left unchanged.
        """
        k = self.k.copy()
        if self._cross_stale:
            d = STATE_DOF
            for i in range(self.n):
                si = slice(i * d, (i + 1) * d)
                for j in range(i + 1, self.n):
                    sj = slice(j * d, (j + 1) * d)
                    kij = self._lams[i] @ k[si, sj] @ self._lams[j].T
                    k[si, sj] = kij
                    k[sj, si] = kij.T
        return k

    # -- IMU propagation -----------------------------------------------------

    def propagate(self, imu, dt):
        """Advance one IMU tick: one sample per vehicle, common period dt.

        Only the estimates, the diagonal gain blocks and the factors move
        here; the cross blocks are brought up to date at the next update.
        """
        if dt <= 0.0:
            raise ValueError("IMU period must be positive")
        if len(imu) != self.n:
            raise ValueError("need one IMU sample per vehicle")
        d = STATE_DOF
        for i in range(self.n):
            sl = slice(i * d, (i + 1) * d)
            self.states[i], self.k[sl, sl], self._lams[i] = propagate_vehicle(
                self.states[i], self.k[sl, sl], self._lams[i], imu[i], dt,
                self.world, self.noise)
        self._cross_stale = self.n > 1
        self.t_ns += int(round(dt * 1e9))
        return self

    # -- measurement updates ---------------------------------------------------

    def observation_period(self, obs):
        """Effective inter-arrival period for this observation's source."""
        if obs.dt is not None:
            return obs.dt
        key = (obs.kind, obs.observer, obs.subject)
        return self.noise.effective_period(obs.kind,
                                           self._last_obs_ns.get(key), obs.t_ns)

    def update(self, obs, with_curvature=True):
        """Apply one observation at the current filter time."""
        if obs.t_ns < self.t_ns:
            raise ValueError(
                f"observation at {obs.t_ns} ns is before filter time {self.t_ns} ns")
        if self._cross_stale:
            self.k = self.gain()
            self._lams = [np.eye(STATE_DOF) for _ in range(self.n)]
            self._cross_stale = False
        dt = self.observation_period(obs)
        e = models.hessian_term(self.states, obs, self.world, self.noise, dt)
        _, r = models.residual(self.states, obs, self.world, self.noise, dt)

        if with_curvature:
            ad = network_adjoint_from_vector(self.k @ r, self.n)
            # general solve: the gain may be symmetric indefinite after a
            # strongly curved update, and the correction is still well defined
            inner = e + _sym(np.linalg.solve(self.k, ad))
            # the curvature term fills the whole matrix: dense solve
            s = np.eye(self.n * STATE_DOF) + dt * (self.k @ inner)
            self.k = _sym(sla.lu_solve(_factor(s), self.k))
        else:
            ix = models.update_indices(obs.kind, obs.observer, obs.subject)
            g = gain_correction(self.k[:, ix], ix, e[ix][:, ix], dt)
            self.k = _sym(self.k - g @ self.k[ix, :])
        try:
            np.linalg.cholesky(self.k)
        except np.linalg.LinAlgError:
            log.warning("gain matrix lost positive definiteness at t=%d ns",
                        obs.t_ns)

        psi = dt * (self.k @ r)
        self.states = [
            compose(x, group_exp(psi[i * STATE_DOF:(i + 1) * STATE_DOF]))
            for i, x in enumerate(self.states)
        ]
        self._last_obs_ns[(obs.kind, obs.observer, obs.subject)] = obs.t_ns
        return self


def _factor(s):
    """LU factors of an update system, refused when near singular."""
    if not np.all(np.isfinite(s)):
        raise UpdateSingularError("update system is not finite")
    with warnings.catch_warnings():
        # an exactly singular system is reported by the condition gate below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(s, check_finite=False)
    rcond, _ = sla.lapack.dgecon(lu, np.linalg.norm(s, 1), norm="1")
    if rcond < 1.0 / COND_LIMIT:
        raise UpdateSingularError(
            f"update system condition ~{1.0 / max(rcond, 1e-300):.2e} "
            f"exceeds {COND_LIMIT:.0e}")
    return lu, piv


def gain_correction(kc, ix, e_ii, dt):
    """Low-rank form of the discrete gain update (Woodbury identity).

    With E vanishing outside the indices ix and kc = K[:, ix],
    (I + dt K E)^-1 K = K - G K[ix, :] where

        G = dt kc (I + dt E_ii kc[ix, :])^-1 E_ii,

    a 15n x m matrix (m = len(ix)).  The m x m system has the determinant of
    the full one (Sylvester) and is refused by the same condition gate.
    Raises UpdateSingularError.
    """
    s = np.eye(len(ix)) + dt * (e_ii @ kc[ix, :])
    return dt * (kc @ sla.lu_solve(_factor(s), e_ii))


def block_diag_prior(k0_blocks):
    """Joint prior gain from independent per-vehicle 15x15 blocks."""
    return sla.block_diag(*k0_blocks)

"""The joint (centralised) minimum-energy filter, and the network core it
shares with the decentralised nodes of meswarm.distributed.

Network, the base of both filters, holds the network state once: the
estimate, the gain as the (n, 15n, 15) stack of its columns, the
propagation factors and the coupling.  It makes once the decisions both
filters make: which priors, IMU samples and observations are refused, when
the gain is coupled, what one IMU tick does, which period and model terms
an observation gets, how an epoch's observations split into rounds
(epoch_rounds), which correction a round gets (the second-order one, or
the first-order one where the second-order one would leave the gain
indefinite) and how it is applied.  The algebra both run is here as
functions: propagate_vehicle, absorb_factor and apply_correction on the
column stack, round_system, which sums a round's terms onto its slots,
and gain_correction with its gate, update_inverse, and correction_matrix,
which forms the G of a stack of one-vehicle updates.

An epoch is applied in rounds.  A round is a set of observations
linearised at one estimate and applied as one update: landmark round d
holds each vehicle's d-th landmark observation of the epoch, and the
inter-vehicle rounds follow a fixed round-robin table of disjoint vehicle
pairs, each round holding both directions of its pairs.  Summed, a round's
terms give the information-form update K+ = (K^-1 + sum dt E)^-1 through
one m x m system, one correction of every column and one retraction.

JointFilter is the centralised form.  IMU ticks propagate the estimate
through the group exponential and the whole gain through one first-order
transition, Phi = I + A dt per vehicle: K <- Phi K Phi^T + dt Q, a
congruence plus a positive semidefinite term, so propagation keeps the
gain positive definite; each epoch's observations are applied round by
round, while the gain is block diagonal a landmark round on the diagonal
blocks only.
"""

import collections
import functools
import logging
import math

import numpy as np

from . import models
from .kernels import _eye
from .lie import STATE_DOF, retract, stack_states, tangent_parts

log = logging.getLogger(__name__)

# Threshold on the update system's 1-norm condition number; beyond this the
# update is reported as singular instead of silently applied.  It gates the
# m x m system of the low-rank update (m = 6 per vehicle of a round).
COND_LIMIT = 1e12


class UpdateSingularError(RuntimeError):
    """The discrete gain update system is numerically singular."""


def propagate_vehicle(state, kdiag, lam, u, dt, world, noise_term):
    """One IMU tick of a stack of vehicles, on a leading axis n.

    Shared by the joint filter and the nodes, each advancing all n
    vehicles in one call.  The IMU error e = u - bias is formed once
    (models.imu_error), and the drift's linearisation A and the drift
    both read it.  The estimate is retracted by dt times the drift, whose
    rotation, position and velocity parts are all a tick moves: the
    biases never drift, so the retraction gets no bias part and carries
    them through.  The gain advances through the transition
    Phi = I + A dt: the 15x15 diagonal block to Phi K Phi^T + dt Q,
    written as K + dt (H + H^T + Q) with H = A (K + dt/2 (A K)^T) so that
    it stays exactly symmetric, and the accumulated propagation factor to
    lam + dt A lam = Phi lam, which later brings the vehicle's cross blocks
    up to date (K_ij <- lam_i K_ij lam_j^T); lam stays None for a caller
    that keeps no factor.  The whole gain thus moves by a congruence plus
    a positive semidefinite term.  `noise_term` is
    models.imu_noise_term(noise), constant for a run, or its copies over
    the stack, which Network holds.  Returns the new (state, kdiag, lam).
    """
    e = models.imu_error(state, u)
    a = models.a_check_single(e)
    # one contiguous copy of a strided stack of blocks serves the products
    k = np.ascontiguousarray(kdiag)
    h = a @ (k + (0.5 * dt) * (a @ k).swapaxes(-1, -2))
    kd = k + dt * (h + h.swapaxes(-1, -2) + noise_term)
    if lam is not None:
        lam = lam + dt * (a @ lam)
    inc = dt * models.lambda_single(state, e, world)
    # the position and velocity parts as the columns retract takes
    pv = inc[1:].transpose(tuple(range(1, inc.ndim)) + (0,))
    return retract(state, inc[0], pv), kd, lam


def absorb_factor(k_col, j, others, lam_j, own):
    """K_jv <- lam_j K_jv lam_v^T in place, in every column v of the
    (n, 15n, 15) stack k_col but j's (`others`), with own[v] column v's
    factor: vehicle j's factor brings its cross blocks up to date."""
    sl = slice(j * STATE_DOF, (j + 1) * STATE_DOF)
    k_col[others, sl, :] = (lam_j @ k_col[others, sl, :]
                            @ own[others].swapaxes(-1, -2))


def correction_matrix(kc, x, dt):
    """The gain corrections G = dt kc x of a stack of R one-vehicle
    updates (gain_correction), kc (R, 15, m), x (R, m, m) and dt (R,), as
    a landmark round on the diagonal blocks forms them."""
    return dt[:, None, None] * (kc @ x)


def apply_correction(state, k_col, ix, kc, x, w):
    """One round's update of every column and estimate, dt folded into its
    system (round_system): k_col <- k_col - G k_col[:, ix, :] in place,
    with G = kc x, and the state, which is returned, retracted by
    psi = K+[:, ix] r, formed as k_col[:, ix, :]^T w from the columns
    before the update.  G is formed before any column moves, from the
    update columns kc = K[:, ix] and x = S^-1 E, and w = S^-1 r
    (gain_correction's x and w with dt = 1; K+[:, ix] = K[:, ix] S^-1)."""
    g = kc @ x
    rows = k_col[:, ix, :]
    psi = rows.swapaxes(-1, -2) @ w
    # in place: no new (n, 15n, 15) array per round, and k_col keeps its
    # C-contiguous layout
    k_col -= g @ rows
    return retract(state, *tangent_parts(psi))


@functools.lru_cache(maxsize=None)
def _pair_table(n):
    """The inter-vehicle rounds of an n-vehicle epoch, by the circle
    method: {(a, b): (round, place)} for every pair a < b, with its round
    and its place in that round.  Vehicle 0 stays put while the others
    rotate; for odd n a vacant seat gives each vehicle one round off.  So
    every pair meets once, in n - 1 rounds of disjoint pairs for even n
    and in n for odd n."""
    seats = list(range(n + n % 2))
    table = {}
    for rnd in range(len(seats) - 1):
        pairs = sorted(tuple(sorted((seats[i], seats[-1 - i])))
                       for i in range(len(seats) // 2))
        for place, pair in enumerate(p for p in pairs if p[1] < n):
            table[pair] = (rnd, place)
        seats = seats[:1] + seats[-1:] + seats[1:-1]
    return table


def epoch_rounds(sources, n):
    """An epoch's observations split into rounds, as index lists into
    `sources`, the (kind, observer, subject) of each observation, in
    application order.

    Landmark round d holds each vehicle's d-th landmark observation, in
    the order given; the landmark rounds come first.  Then the
    inter-vehicle rounds of the fixed round-robin table (_pair_table), in
    table order, each holding both directions of its pairs, pair by pair,
    (a, b) then (b, a) with a < b; a source given twice goes to the same
    round of a later pass of the table.  Splitting a split epoch gives its
    rounds again, so a decoder of the bus log, which holds an epoch's
    observations in round order, recovers them.  The split is made once
    per distinct tuple of sources (_split_epoch), and each call gets lists
    of its own."""
    return [list(group) for group in _split_epoch(tuple(sources), n)]


# a run without dropout meets one tuple of sources per distinct set of
# channels due at an epoch; dropout can meet any subset, so the cache is
# bounded
@functools.lru_cache(maxsize=256)
def _split_epoch(sources, n):
    """epoch_rounds' split of a tuple of sources, as a tuple of tuples, so
    that the cached split cannot be changed."""
    table = _pair_table(n)
    rank, rounds = collections.Counter(), {}
    for i, (kind, observer, subject) in enumerate(sources):
        if kind == models.LANDMARK:
            key, order = (0, rank[observer], 0), i
            rank[observer] += 1
        else:
            rnd, place = table[tuple(sorted((observer, subject)))]
            key = (1, rank[kind, observer, subject], rnd)
            order = (place, observer > subject)
            rank[kind, observer, subject] += 1
        rounds.setdefault(key, []).append((order, i))
    return tuple(tuple(i for _, i in sorted(items))
                 for _, items in sorted(rounds.items()))


# a run without dropout meets 3 + n - 1 distinct rounds; dropout can meet
# any subset of them, so the cache is bounded
@functools.lru_cache(maxsize=256)
def _round_layout(sources):
    """A round's vehicles, ascending, its slots ix into the 15n slots of
    the gain (each vehicle's update slots, in vehicle order), and the
    places of its observations' terms in the round's: the entries of r,
    then of the flattened m x m system, observation after observation."""
    vehicles = sorted({v for kind, observer, subject in sources
                       for v in models.update_vehicles(kind, observer,
                                                       subject)})
    seat = {v: i for i, v in enumerate(vehicles)}
    slots = np.arange(models.UPDATE_SLOTS)
    ix = np.concatenate([v * STATE_DOF + slots for v in vehicles])
    places = [np.concatenate([seat[v] * models.UPDATE_SLOTS + slots
                              for v in models.update_vehicles(*src)])
              for src in sources]
    flat = [(p[:, None] * len(ix) + p).ravel() for p in places]
    return tuple(vehicles), ix, np.concatenate(places), np.concatenate(flat)


def round_system(sources, dt, terms, cols):
    """One round as one update: its slots ix, its update columns
    kc = K[:, ix] (15n x m) and its terms (r, e, e_first) summed onto the
    round's slots with each observation's period folded in: dt r_ix,
    dt E_ii and dt E_first, added in the order of `sources`.

    `sources` holds each observation's (kind, observer, subject), dt (R,)
    its periods and terms its (r_ix, e_ii, e_first) stacked, (R, m_i) and
    (R, m_i, m_i); cols[v] is vehicle v's 15n x 6 update columns, a view
    of a filter's own column or the copy a message carried.
    gain_correction with dt = 1 then gives the update
    (K^-1 + sum dt E)^-1 and its state increment K+ sum dt r; both
    filters, and a reader of the bus log, build a round here."""
    vehicles, ix, at_r, at_e = _round_layout(tuple(sources))
    m = len(ix)
    d = np.asarray(dt)[:, None]
    r_ix, e_ii, e_first = terms
    r = np.zeros(m)
    np.add.at(r, at_r, (d * r_ix).ravel())
    e, f = np.zeros(m * m), np.zeros(m * m)
    np.add.at(e, at_e, (d[..., None] * e_ii).ravel())
    np.add.at(f, at_e, (d[..., None] * e_first).ravel())
    kc = np.concatenate([cols[v] for v in vehicles], axis=1)
    return ix, kc, (r, e.reshape(m, m), f.reshape(m, m))


def _definite(m):
    """Whether m, or every matrix of a stack m, is positive definite, by
    one Cholesky."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_spd(k):
    if not np.allclose(k, k.T, rtol=1e-9, atol=0.0):
        raise ValueError("K0 must be symmetric")
    if not _definite(k):
        raise ValueError("K0 must be positive definite")


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


class Network:
    """The base of JointFilter and distributed.VehicleNode: the network
    state, which both hold this way only, and the decisions both make,
    each made here once.

    It holds the stacked estimate (leading axis n), the filter time, the
    observation clock (the last applied arrival per (kind, observer,
    subject)), the gain and the propagation factors.  The gain starts from
    the 15n x 15n prior k0, which is checked as it is given and then split
    into its (n, 15n, 15) columns k_col, column v vehicle v's, with the
    diagonal blocks as the writeable view _kdiag.  It is coupled iff a
    cross block is non-zero, from the start for such a prior, otherwise
    from the first applied inter-vehicle update.  Until then the cross
    blocks are never written, and the factors lam_acc stay the identity,
    since lam_i 0 lam_j^T is exactly 0.  A refused prior, IMU sample or
    observation raises before anything moves, a prior or an observation
    with the same text in both filters.  `rounds` counts, per observation
    kind, the applied rounds, and `fallbacks` the corrections that took
    their first-order term (Network._correction): one per round, or one
    per observation of a landmark round on the diagonal blocks.
    """

    def __init__(self, states, k0, world, noise):
        n = len(states)
        k0 = np.asarray(k0, dtype=float)
        if k0.shape != (n * STATE_DOF, n * STATE_DOF):
            raise ValueError("K0 has the wrong shape for the vehicle count")
        _check_spd(k0)
        self.n = n
        self.state = stack_states(states)
        self.world = world
        self.noise = noise
        # one copy per vehicle: added to the stacked blocks in numpy's loop
        # for operands of one shape, which skips a broadcast's setup
        self._noise_term = np.tile(models.imu_noise_term(noise), (n, 1, 1))
        self.t_ns = 0
        self._last_obs_ns = {}
        # the vehicles other than j, whose columns absorb j's factor
        self._others = [np.delete(np.arange(n), j) for j in range(n)]
        # the prior's columns, copied once into one C-contiguous stack
        self.k_col = np.array(np.hsplit(k0, n))
        blocks = self.k_col.reshape(n, n, STATE_DOF, STATE_DOF)
        # every vehicle's diagonal block, block v of column v: a writeable
        # view (the reshape splits the row axis only), so a tick's blocks
        # land in k_col in place
        self._kdiag = np.einsum("ii...->i...", blocks)
        self._coupled = bool(blocks[~np.eye(n, dtype=bool)].any())
        # every vehicle's propagation factor since its cross blocks were
        # last brought up to date
        self.lam_acc = identity_factors(n)
        self.rounds = collections.Counter()
        self.fallbacks = collections.Counter()

    def estimate(self):
        """Per-vehicle states; later steps never change them in place."""
        return [self.state[v] for v in range(self.n)]

    def _check_imu(self, u, dt, shape, node=None):
        """Refuse a period that is not positive and finite, and a gyro or
        accel, an array or a nested list, that is not of `shape`: (n, 3)
        for the joint filter, (3,) for a node."""
        if not 0.0 < dt < math.inf:
            raise ValueError(f"IMU period must be positive and finite: {dt}")
        gyro, accel = np.asarray(u.gyro).shape, np.asarray(u.accel).shape
        if gyro != shape or accel != shape:
            who = "the joint filter" if node is None else f"node {node}"
            raise ValueError(f"{who} needs IMU rows of shape {shape}, got "
                             f"{gyro} and {accel}")

    def _tick(self, u, dt):
        """One IMU tick of every vehicle over the period dt, u holding the
        (n, 3) rows: the estimates, the diagonal gain blocks and, while
        coupled, the factors advance in one call, and so does the filter
        time."""
        self.state, self._kdiag[...], lam = propagate_vehicle(
            self.state, self._kdiag, self.lam_acc if self._coupled else None,
            u, dt, self.world, self._noise_term)
        if self._coupled:
            self.lam_acc = lam
        self.t_ns += int(round(dt * 1e9))

    def _check_observation(self, obs):
        """Refuse an observation that does not carry the filter time (a
        ValueError naming both stamps), whose observer or inter-vehicle
        subject is outside 0..n-1 (a ValueError), or whose landmark is
        unknown (an ObservationError)."""
        if obs.t_ns != self.t_ns:
            when = "before" if obs.t_ns < self.t_ns else "after"
            raise ValueError(f"observation at {obs.t_ns} ns is {when} "
                             f"filter time {self.t_ns} ns")
        check_vehicle("observer", obs.observer, self.n)
        if obs.kind == models.INTERVEHICLE:
            check_vehicle("inter-vehicle subject", obs.subject, self.n)
        else:
            self.world.landmark(obs.subject)

    def _period(self, obs):
        """The observation's period: the time since its source's last
        applied arrival, under NoiseModel's rules."""
        return self.noise.effective_period(
            obs.kind, self._last_obs_ns.get((obs.kind, obs.observer,
                                             obs.subject)), obs.t_ns)

    def _correction(self, kind, k_ii, dt, terms):
        """gain_correction's (x, w) for an update of `kind` with model
        terms (r_ix, e_ii, e_first) (k_ii and dt as gain_correction takes
        them), or for a stack of them, as each item would get them alone.

        The gate refuses the second-order system E_ii first.  Then the
        m x m test: an update whose K_ii S is not positive definite would
        leave the gain indefinite, so it takes its first-order term
        E_first = sym(F^T M F) instead, positive semidefinite, which keeps
        the gain definite, and is counted in fallbacks[kind].  A stack is
        tested by one Cholesky of the stack, and item by item only when
        that fails."""
        r_ix, e_ii, e_first = terms
        x, w, test = gain_correction(k_ii, e_ii, dt, r_ix)
        if _definite(test):
            return x, w
        if k_ii.ndim == 2:
            x, w, _ = gain_correction(k_ii, e_first, dt, r_ix)
            self.fallbacks[kind] += 1
            return x, w
        lost = np.array([not _definite(item) for item in test])
        x[lost], w[lost], _ = gain_correction(k_ii[lost], e_first[lost],
                                              dt[lost], r_ix[lost])
        self.fallbacks[kind] += int(np.count_nonzero(lost))
        return x, w

    def _apply_round(self, sources, dt, terms, cols):
        """Apply one round (epoch_rounds) to every column and estimate, all
        of its observations linearised at the estimate before it: each
        observation's (kind, observer, subject) in `sources`, its period in
        dt (R,) and its model terms (r_ix, e_ii, e_first) stacked in
        `terms`, and cols[v] vehicle v's update columns (round_system).

        While the gain is uncoupled a landmark round goes on the diagonal
        blocks (_update_blocks).  Otherwise the round is one update on the
        column stack: round_system's summed system through one
        Network._correction with dt = 1, the m x m test deciding for the
        whole round, then one apply_correction; an inter-vehicle round
        couples the gain.  A refused round raises UpdateSingularError
        before anything moves.  An applied round sets the observation
        clock of every source to the filter time and is counted in
        rounds[kind]."""
        kind = sources[0][0]
        if kind == models.LANDMARK and not self._coupled:
            self._update_blocks([obs for _, obs, _ in sources], dt, terms)
        else:
            ix, kc, system = round_system(sources, dt, terms, cols)
            x, w = self._correction(kind, kc[ix], 1.0, system)
            self.state = apply_correction(self.state, self.k_col, ix, kc,
                                          x, w)
            if kind == models.INTERVEHICLE:
                self._coupled = True
        self.rounds[kind] += 1
        for source in sources:
            self._last_obs_ns[source] = self.t_ns

    def _update_blocks(self, observers, dt, terms):
        """A landmark round on the uncoupled gain, on the observers'
        diagonal blocks only, each item on a leading round axis.  An
        observer's update slots are the first UPDATE_SLOTS of its block,
        and its rank update and psi vanish outside that block, so each item
        is the one-vehicle update of its block, its correction and its
        first-order verdict its own: psi_v = dt K_vv[:, 0:6] w_v, then
        K_vv -= G_v K_vv[0:6, :], symmetrised, with G_v = dt_v K_vv[:, 0:6]
        x_v (correction_matrix).  Each vehicle observes at most once in a
        round."""
        v = np.array(observers)
        if len(set(observers)) < len(observers):
            raise ValueError(f"a landmark round holds one observation per "
                             f"vehicle, got observers {observers}")
        m = models.UPDATE_SLOTS
        kv = self._kdiag[v]
        x, w = self._correction(models.LANDMARK, kv[:, :m, :m], dt, terms)
        g = correction_matrix(kv[..., :m], x, dt)
        # K_vv[:, 0:6] row-major: BLAS forms each entry of psi as one dot
        # product of its row with w_v, whatever the row's place in a block
        psi = np.zeros((self.n, STATE_DOF))
        psi[v] = dt[:, None] * (kv[..., :m] @ w[..., None])[..., 0]
        kv -= g @ kv[:, :m, :]
        kv += kv.swapaxes(-1, -2)
        kv *= 0.5
        self._kdiag[v] = kv
        self.state = retract(self.state, *tangent_parts(psi))


class JointFilter(Network):
    """Single-writer state machine over the joint estimate and gain, held
    as Network holds them, as the nodes hold theirs.

    Between epochs only the diagonal blocks and, while coupled, the
    factors move; the cross blocks are brought up to the current tick
    before the next epoch's first round.  While the gain is uncoupled,
    landmark rounds act on the diagonal blocks only, and no 15n x 15n
    array is formed.  A block-diagonal filter that sees only landmark
    observations (`none`, or a single vehicle) keeps no propagation
    factor.
    """

    def __init__(self, states, k0, world, noise):
        super().__init__(states, k0, world, noise)
        # whether the gain has propagated since the last update
        self._stale = False

    # -- IMU propagation -----------------------------------------------------

    def propagate(self, u, dt):
        """Advance one IMU tick over the common period dt.

        u is one ImuSample stacked over vehicles: gyro and accel (n, 3),
        row v vehicle v's sample.  Only the estimates, the diagonal gain
        blocks and the factors move here, for all vehicles in one call; the
        cross blocks are brought up to date at the next update.
        """
        self._check_imu(u, dt, (self.n, 3))
        self._tick(u, dt)
        self._stale = True
        return self

    # -- measurement updates ---------------------------------------------------

    def update(self, *observations):
        """Apply one epoch's observations at the current filter time, each
        weighed by the period since its source's last applied arrival.

        Every observation is checked by Network._check_observation before
        any is applied: a stale or a future stamp, an observer or an
        inter-vehicle subject outside 0..n-1, and an unknown landmark index
        refuse the whole call.

        The observations are applied in rounds (epoch_rounds): each
        vehicle's d-th landmark observation in landmark round d, then the
        inter-vehicle observations in the rounds of disjoint pairs.  A
        round's model terms are built from the estimate before it, in one
        call on the round's stack of either kind, and the round goes through
        Network._apply_round: while the gain is uncoupled a landmark round
        on the diagonal blocks, item by item as one stack, otherwise one
        update on the column stack, as the nodes apply it.  A refused round
        raises its verdict before any of it is applied; earlier rounds stay
        applied.

        The propagated gain gets one Cholesky when it is rebuilt at an
        epoch's first round: one of the 15n x 15n matrix of the columns
        after each vehicle's factor is absorbed as in an exchange, or one
        stacked 15 x 15 one per diagonal block while uncoupled; a gain
        found indefinite there is logged as a warning, and the epoch runs
        on.
        """
        for obs in observations:
            self._check_observation(obs)
        if not observations:
            return self
        if self._stale:
            gain = self._kdiag
            if self._coupled:
                for j, others in enumerate(self._others):
                    absorb_factor(self.k_col, j, others, self.lam_acc[j],
                                  self.lam_acc)
                self.lam_acc = identity_factors(self.n)
                # the columns side by side: the 15n x 15n gain
                gain = np.hstack(self.k_col)
            if not _definite(gain):
                log.warning("gain matrix lost positive definiteness at "
                            "t=%d ns", self.t_ns)
            self._stale = False
        sources = [(obs.kind, obs.observer, obs.subject)
                   for obs in observations]
        for group in epoch_rounds(sources, self.n):
            self._update_round([observations[i] for i in group])
        return self

    def _update_round(self, group):
        """One round of observations, its model terms built from the
        estimate before it in one call on the round's stack, through
        Network._apply_round with the filter's own update columns."""
        dt = np.array([self._period(obs) for obs in group])
        terms = models.update_terms(self.state,
                                    models.stack_observations(group),
                                    self.world, self.noise, dt)
        self._apply_round([(obs.kind, obs.observer, obs.subject)
                           for obs in group], dt, terms,
                          self.k_col[:, :, :models.UPDATE_SLOTS])


def _one_norm(m):
    """||m||_1, the largest column sum of |m|, by the ufunc reductions
    that ndarray.sum and .max wrap; one per matrix of a stack."""
    return np.maximum.reduce(np.add.reduce(np.abs(m), axis=-2), axis=-1)


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


def gain_correction(k_ii, e_ii, dt, r_ix):
    """Low-rank form of the discrete gain update (Woodbury identity), the
    residual through its system, and its definiteness test.

    With E vanishing outside the indices ix, kc = K[:, ix] and
    k_ii = K[ix, ix], (I + dt K E)^-1 K = K - G K[ix, :] where

        G = dt kc x,    x = S^-1 E_ii,    S = I + dt E_ii k_ii,

    G a 15n x m matrix (m = len(ix)).  This returns the m x m x,
    symmetrised, with w = S^-1 r_ix and k_ii S; whoever applies the update
    forms G from its update columns kc (correction_matrix, or
    apply_correction for a round, whose dt is folded into its terms and
    passed as 1).  Since K+[:, ix] =
    kc S^-1, the state increment dt K+[:, ix] r_ix is dt kc w: formed from
    the gain before the update, it loses none of the digits that
    K - G K[ix, :] cancels when dt E_ii K_ii is large.  The update keeps a
    definite K definite iff k_ii S = K_ii + dt K_ii E_ii K_ii is positive
    definite ((K+)^-1 = K^-1 + dt E; congruence with K^1/2, and AB and BA
    sharing their non-zero eigenvalues, reduce the test to the ix block).
    The m x m system has the determinant of the full one (Sylvester) and
    is refused by the same gate, update_inverse.  A non-finite E_ii is
    refused first, before it enters a product where 0 * inf would warn;
    the verdict is update_inverse's.

    Every argument may carry one leading axis of R updates, k_ii
    (R, m, m), e_ii (R, m, m), dt (R,) and r_ix (R, m): each item gets the
    products and the verdict it would get alone, and the first refused
    item, in stack order, raises.  Raises UpdateSingularError.
    """
    if k_ii.ndim > 2:
        if not np.isfinite(e_ii).all():
            # gated one by one, so an earlier item's verdict comes first
            return tuple(map(np.array, zip(*(
                gain_correction(*item)
                for item in zip(k_ii, e_ii, dt, r_ix)))))
        dt = dt[:, None, None]
    elif not np.isfinite(e_ii).all():
        raise UpdateSingularError("update system is not finite")
    s = _eye(k_ii.shape[-1]) + dt * (e_ii @ k_ii)
    inv = update_inverse(s)
    x = inv @ e_ii
    # symmetric in exact arithmetic; the inverse leaves it asymmetric by
    # about cond(S) eps, which G K[ix, :] would carry into the whole gain
    x = 0.5 * (x + x.swapaxes(-1, -2))
    return x, (inv @ r_ix[..., None])[..., 0], k_ii @ s


def block_diag_prior(k0_blocks):
    """The block-diagonal 15n x 15n gain of n per-vehicle 15x15 blocks, as
    a joint prior is built."""
    n = len(k0_blocks)
    k = np.zeros((n * STATE_DOF, n * STATE_DOF))
    ar = np.arange(n)
    _blocks(k, n)[ar, ar] = k0_blocks
    return k

"""Rounds: an epoch's observations applied as a few updates.

`JointFilter.update` splits an epoch into rounds (joint.epoch_rounds): each
vehicle's d-th landmark observation in landmark round d, then the
inter-vehicle observations in the rounds of disjoint vehicle pairs of a
fixed round-robin table.  While every cross block of the joint gain is
zero, a landmark round goes on the (n, 15, 15) diagonal blocks, each
observation on a leading round axis with its own correction; otherwise a
round is one update of the column stack.  These tests tie an epoch in one
call bit for bit to its rounds in successive calls (and, in `none`, to one
observation per call), and within rounding to a dense gain updated round
by round in information form, check the round table, check that `none`
never forms a 15n x 15n array, pin the number of gate calls per epoch, and
check the stacked gate's verdicts.
"""

import collections
import logging
import re
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meswarm import harness, joint, models
from meswarm.harness import ScheduleConfig, _observation_ticks, run_schedule
from meswarm.joint import JointFilter, UpdateSingularError
from meswarm.lie import STATE_DOF, retract, stack_states, tangent_parts
from meswarm.models import Observation, WorldConfig
from test_acceptance import scenario_noise, scenario_sources, scenario_world
from test_distributed import GATE_DT, gate_system
from test_joint import joint_gain

LANDMARKS = (np.array([2.0, 0.0, 1.0]), np.array([-1.0, 2.0, 0.5]),
             np.array([0.0, -2.0, 1.5]), np.array([1.5, 1.5, -0.5]))


@contextmanager
def joint_warnings():
    """The messages logged on meswarm.joint while the block runs."""
    messages = []

    class Keep(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    logger = logging.getLogger("meswarm.joint")
    handler = Keep(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def run_recorded(split, mode, n, n_landmarks, rate_hz, dropout,
                 seed, refuse_tick):
    """One run of the scheduler with the joint filter recording, after each
    update call, its gain, estimate, observation clock and fallback counts.
    With split the filter takes the call's rounds (joint.epoch_rounds) in
    successive calls, in `none` each observation in a call of its own.
    At refuse_tick, the first landmark observation that dropout keeps
    carries a NaN, which the gate refuses.  Returns (records, warnings,
    refusal text or None, rows or None, whether a NaN was sent, the number
    of distinct stamps observations were synthesised at: the update calls
    the run made)."""
    noise = scenario_noise()
    world = WorldConfig(
        landmarks=dict(enumerate(LANDMARKS[:n_landmarks])),
        markers=scenario_world(n).markers)
    cfg = ScheduleConfig(imu_rate_hz=100.0, landmark_rate_hz=rate_hz,
                         intervehicle_rate_hz=rate_hz, duration_s=1.5,
                         dropout_landmark=dropout, seed=seed)
    records = []

    class Recording(JointFilter):
        def update(self, *observations):
            try:
                if not split:
                    JointFilter.update(self, *observations)
                elif mode == harness.MODE_NONE:
                    for obs in observations:
                        JointFilter.update(self, obs)
                else:
                    for group in joint.epoch_rounds(
                            [(obs.kind, obs.observer, obs.subject)
                             for obs in observations], self.n):
                        JointFilter.update(self, *(observations[i]
                                                   for i in group))
            finally:
                records.append((joint_gain(self), self.state,
                                dict(self._last_obs_ns),
                                dict(self.fallbacks)))
            return self

    synthesize = harness.synthesize_observation
    poisoned, stamps = [], set()

    def refusing(truths, world, kind, sources, d, rngs, t_ns):
        stamps.add(t_ns)
        batch = synthesize(truths, world, kind, sources, d, rngs, t_ns)
        if (refuse_tick is not None and t_ns == refuse_tick * 10_000_000
                and not poisoned):
            obs = batch[0]
            poisoned.append(obs)
            batch[0] = Observation(kind, obs.observer, obs.subject,
                                   np.full(3, np.nan), t_ns)
        return batch

    text = rows = None
    with pytest.MonkeyPatch.context() as m, joint_warnings() as logged:
        m.setattr(harness, "JointFilter", Recording)
        m.setattr(harness, "synthesize_observation", refusing)
        try:
            rows = run_schedule(cfg, mode, scenario_sources(n, noise, seed),
                                world, noise, record_bus=False).rows
        except UpdateSingularError as exc:
            text = str(exc)
    return records, logged, text, rows, bool(poisoned), len(stamps)


class TestRoundsEqualOnePerCall:
    """An epoch in one call gives the gain, estimates, observation clock,
    fallback counts, warnings and refusal text of its rounds in successive
    calls, bit for bit, in `central`, and of one observation per call in
    `none`, whose landmark rounds on the diagonal blocks give each
    observation the bits it would get alone."""

    @settings(max_examples=25, deadline=None)
    @given(mode=st.sampled_from([harness.MODE_NONE, harness.MODE_CENTRAL]),
           n=st.integers(1, 5), n_landmarks=st.integers(1, 4),
           rate_hz=st.sampled_from([2.0, 10.0]),
           dropout=st.sampled_from([0.0, 0.3, 0.7]),
           seed=st.integers(0, 2**16),
           refuse=st.none() | st.integers(0, 2))
    # sparse epochs of five vehicles fall back to first-order updates
    @example(mode=harness.MODE_NONE, n=5, n_landmarks=3, rate_hz=2.0,
             dropout=0.0, seed=7, refuse=None)
    @example(mode=harness.MODE_CENTRAL, n=5, n_landmarks=3, rate_hz=2.0,
             dropout=0.3, seed=7, refuse=None)
    # a refusal in the first round of a later epoch
    @example(mode=harness.MODE_NONE, n=4, n_landmarks=2, rate_hz=10.0,
             dropout=0.0, seed=3, refuse=2)
    # dropout removes all three observations of one vehicle, one landmark
    # at 2 Hz: no update call, and the runs still compare
    @example(mode=harness.MODE_NONE, n=1, n_landmarks=1, rate_hz=2.0,
             dropout=0.7, seed=94, refuse=None)
    def test_same_bits(self, mode, n, n_landmarks, rate_hz, dropout, seed,
                       refuse):
        epochs = _observation_ticks(rate_hz, 100.0, 150)
        refuse_tick = None if refuse is None else epochs[refuse]
        rounds = run_recorded(False, mode, n, n_landmarks, rate_hz, dropout,
                              seed, refuse_tick)
        single = run_recorded(True, mode, n, n_landmarks, rate_hz, dropout,
                              seed, refuse_tick)
        records, logged, text, rows, poisoned, stamps = rounds
        # one update call per epoch that synthesised an observation
        assert len(records) == len(single[0]) == stamps
        for (k, state, clock, fallbacks), (k1, state1, clock1,
                                           fallbacks1) in zip(records,
                                                              single[0]):
            np.testing.assert_array_equal(k, k1)
            for name in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
                np.testing.assert_array_equal(getattr(state, name),
                                              getattr(state1, name))
            assert clock == clock1
            assert fallbacks == fallbacks1
        assert logged == single[1]
        assert text == single[2]
        # a run may also be refused on its own, identically in both
        assert text is not None or not poisoned
        if text is None:
            np.testing.assert_array_equal(rows, single[3])

    def test_examples_cover_warnings(self):
        """The explicit examples above do exercise the definiteness
        verdict: both runs fall back to first-order updates, and neither
        finds its gain indefinite."""
        for mode, dropout in ((harness.MODE_NONE, 0.0),
                              (harness.MODE_CENTRAL, 0.3)):
            records, logged, _, _, _, _ = run_recorded(False, mode, 5, 3, 2.0,
                                                       dropout, 7, None)
            assert sum(records[-1][3].values()) > 0
            assert not any("lost positive definiteness" in m for m in logged)


class DensePerRound:
    """The update algebra on a dense 15n x 15n gain, round by round in
    information form: the diagonal blocks propagate through
    propagate_vehicle, and an epoch splits into the filters' rounds
    (joint.epoch_rounds), each round one update

        K+ = (K^-1 + sum dt E)^-1 = (I + K sum dt E)^-1 K,
        psi = K+ sum dt r,

    its terms embedded in the 15n slots and summed, all of them evaluated
    at the estimate before the round, and K+ symmetrised.  The sum takes
    the second-order terms E_ii unless K+ fails a dense 15n x 15n
    Cholesky, the first-order terms then (the filters decide it by their
    m x m test).  While no cross block can be non-zero a landmark round is
    its observations one by one (`one`), each deciding its own term, as
    the filters' rounds on the diagonal blocks do.  Per-vehicle propagation
    factors are kept once a cross block can be non-zero (from the start
    for such a prior, otherwise from the first inter-vehicle round), and
    the first round after a propagation rebuilds the cross blocks densely:
    K_ij becomes lam_i K_ij lam_j^T for i < j and K_ji its transpose.  So
    it serves runs with inter-vehicle rounds too, as an oracle independent
    of the column stack both filters hold a coupled gain in and of their
    low-rank algebra.  Records its gain after every update call, and
    counts its rounds per kind in `rounds` and its first-order ones in
    `fallbacks`, as the filters do."""

    def __init__(self, states, k0, world, noise):
        self.n = len(states)
        self.state = stack_states(states)
        self.k = np.array(k0, dtype=float)
        self.world, self.noise = world, noise
        self.noise_term = models.imu_noise_term(noise)
        self.clock = {}
        self.gains = []
        off = ~np.eye(self.n, dtype=bool)
        self.lam = (joint.identity_factors(self.n)
                    if joint._blocks(self.k, self.n)[off].any() else None)
        self.stale = False
        self.rounds = collections.Counter()
        self.fallbacks = collections.Counter()

    def propagate(self, u, dt):
        ar = np.arange(self.n)
        blocks = joint._blocks(self.k, self.n)
        self.state, blocks[ar, ar], self.lam = joint.propagate_vehicle(
            self.state, blocks[ar, ar], self.lam, u, dt, self.world,
            self.noise_term)
        self.stale = True
        return self

    def update(self, *observations):
        if observations and self.stale:
            if self.lam is not None:
                blocks = joint._blocks(self.k, self.n)
                upper = np.triu_indices(self.n, 1)
                kij = (self.lam[upper[0]] @ blocks[upper]
                       @ self.lam[upper[1]].swapaxes(-1, -2))
                blocks[upper] = kij
                blocks[upper[::-1]] = kij.swapaxes(-1, -2)
                self.lam = joint.identity_factors(self.n)
            self.stale = False
        for group in joint.epoch_rounds(
                [(obs.kind, obs.observer, obs.subject)
                 for obs in observations], self.n):
            rnd = [observations[i] for i in group]
            self.rounds[rnd[0].kind] += 1
            if rnd[0].kind == models.LANDMARK and self.lam is None:
                for obs in rnd:
                    self.one(obs)
            else:
                self.round(rnd)
        self.gains.append(self.k.copy())
        return self

    def one(self, obs):
        """One observation on its own, in low-rank form: psi = dt K[:, ix]
        w, then K+ = sym(K - G K[ix, :]), (G, w) from the second-order term
        unless that K+ fails a dense Cholesky.  psi takes K[:, ix]
        row-major, so BLAS forms each entry as one dot product of its row
        with w, wherever the row sits, as the filters' block rounds do; the
        information form's dense solve would round the gain of these runs
        past 1e-12."""
        key = (obs.kind, obs.observer, obs.subject)
        dt = self.noise.effective_period(obs.kind, self.clock.get(key),
                                         obs.t_ns)
        ix = models.update_indices(*key)
        r_ix, *terms = models.update_terms(self.state, obs, self.world,
                                           self.noise, dt)
        for first_order, e in enumerate(terms):
            x, w, _ = joint.gain_correction(self.k[np.ix_(ix, ix)], e, dt,
                                            r_ix)
            k = models._sym(self.k - dt * (self.k[:, ix] @ x) @ self.k[ix, :])
            try:
                np.linalg.cholesky(k)
            except np.linalg.LinAlgError:
                continue
            break
        self.fallbacks[obs.kind] += first_order
        psi = dt * (np.ascontiguousarray(self.k[:, ix]) @ w)
        self.k = k
        self.state = retract(self.state,
                             *tangent_parts(psi.reshape(self.n, STATE_DOF)))
        self.clock[key] = obs.t_ns

    def round(self, rnd):
        dim = self.n * STATE_DOF
        r, terms = np.zeros(dim), (np.zeros((dim, dim)), np.zeros((dim, dim)))
        for obs in rnd:
            key = (obs.kind, obs.observer, obs.subject)
            dt = self.noise.effective_period(obs.kind, self.clock.get(key),
                                             obs.t_ns)
            ix = models.update_indices(*key)
            r_ix, *e_ii = models.update_terms(self.state, obs, self.world,
                                              self.noise, dt)
            r[ix] += dt * r_ix
            for total, e in zip(terms, e_ii):
                total[np.ix_(ix, ix)] += dt * e
        for first_order, e in enumerate(terms):
            k = np.linalg.solve(np.eye(dim) + self.k @ e, self.k)
            try:
                np.linalg.cholesky(models._sym(k))
            except np.linalg.LinAlgError:
                continue
            break
        self.fallbacks[rnd[0].kind] += first_order
        self.k = models._sym(k)
        self.state = retract(self.state,
                             *tangent_parts((k @ r).reshape(self.n,
                                                            STATE_DOF)))
        for obs in rnd:
            self.clock[obs.kind, obs.observer, obs.subject] = obs.t_ns
        if rnd[0].kind == models.INTERVEHICLE and self.lam is None:
            self.lam = joint.identity_factors(self.n)

    def estimate(self):
        return [self.state[i] for i in range(self.n)]


def none_run(filter_class, n, n_landmarks, rate_hz, dropout, seed):
    """A `none` run of the scheduler on filter_class; returns the filter
    and the rows, or the filter and the refusal's text."""
    noise = scenario_noise()
    world = WorldConfig(
        landmarks=dict(enumerate(LANDMARKS[:n_landmarks])),
        markers=scenario_world(n).markers)
    cfg = ScheduleConfig(imu_rate_hz=100.0, landmark_rate_hz=rate_hz,
                         duration_s=1.5, dropout_landmark=dropout, seed=seed)
    made = []

    def make(*args):
        made.append(filter_class(*args))
        return made[0]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "JointFilter", make)
        try:
            rows = run_schedule(cfg, harness.MODE_NONE,
                                scenario_sources(n, noise, seed), world,
                                noise, record_bus=False).rows
        except UpdateSingularError as exc:
            return made[0], str(exc)
    return made[0], rows


class TestBlocksEqualDense:
    """The uncoupled filter's block rounds against a dense gain updated in
    information form: `none` rows and every gain after an update call
    within 1e-12, every cross block exactly zero, and a refusal in the
    same place."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 5), n_landmarks=st.integers(1, 4),
           rate_hz=st.sampled_from([1.0, 2.0, 10.0]),
           dropout=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**16))
    def test_none_within_rounding_of_dense(self, n, n_landmarks, rate_hz,
                                           dropout, seed):
        gains = []

        class Recording(JointFilter):
            def update(self, *observations):
                try:
                    JointFilter.update(self, *observations)
                finally:
                    gains.append(joint_gain(self))
                return self

        flt, rows = none_run(Recording, n, n_landmarks, rate_hz, dropout,
                             seed)
        dense, want = none_run(DensePerRound, n, n_landmarks, rate_hz,
                               dropout, seed)
        # never coupled, and no factor ever exponentiated
        assert not flt._coupled
        np.testing.assert_array_equal(flt.lam_acc,
                                      joint.identity_factors(n))
        assert len(gains) == len(dense.gains)
        off = ~np.eye(n, dtype=bool)
        for k, k_dense in zip(gains, dense.gains):
            assert not joint._blocks(k, n)[off].any()
            np.testing.assert_allclose(k, k_dense, rtol=0, atol=1e-12)
        if isinstance(want, str):
            assert rows == want
            return
        for name in ("pos_err", "rot_err", "vel_err", "gyro_bias_err",
                     "accel_bias_err"):
            np.testing.assert_allclose(rows[name], want[name], rtol=0,
                                       atol=1e-12)


class TestNoDenseWork:
    """The cost guard of the block rounds: in `none` no propagate or update
    call allocates as much as one 15n x 15n array, so none builds one or
    forms one as a product.  Measured by tracemalloc, which sees numpy's
    array buffers; at n = 20 the joint gain is 720 kB, twenty times one
    (n, 15, 15) stack."""

    def test_none_never_forms_a_joint_sized_array(self):
        n = 20
        peaks = {"propagate": 0, "update": 0}

        def measured(name, call):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peaks[name] = max(peaks[name],
                              tracemalloc.get_traced_memory()[1] - base)
            return result

        class Measured(JointFilter):
            def propagate(self, u, dt):
                return measured("propagate",
                                lambda: JointFilter.propagate(self, u, dt))

            def update(self, *observations):
                return measured("update",
                                lambda: JointFilter.update(self,
                                                           *observations))

        noise = scenario_noise()
        cfg = ScheduleConfig(imu_rate_hz=100.0, landmark_rate_hz=10.0,
                             duration_s=0.3, seed=4)
        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(harness, "JointFilter", Measured)
                run_schedule(cfg, harness.MODE_NONE,
                             scenario_sources(n, noise, 4),
                             scenario_world(n), noise, record_bus=False)
        finally:
            tracemalloc.stop()
        joint_bytes = (n * STATE_DOF) ** 2 * 8
        assert 0 < peaks["update"] < joint_bytes
        assert 0 < peaks["propagate"] < joint_bytes


class TestGateCallsPerEpoch:
    """The cost guard: rounds go through the gate once per round, so a
    change that falls back to one update at a time fails here, not only in
    the benchmark.  Six vehicles and three landmarks make 48 observations
    an epoch, and 3 + 5 rounds."""

    @staticmethod
    def gate_calls(mode, n=6, ticks=60):
        """(observations, gate calls, stacked items) per update call of a
        200 Hz run with both channels at 10 Hz and three landmarks."""
        calls = []
        gate = joint.update_inverse

        def counted(s):
            calls.append(s.shape[0] if s.ndim > 2 else 1)
            return gate(s)

        per_call = []

        class Counting(JointFilter):
            def update(self, *observations):
                before = len(calls)
                JointFilter.update(self, *observations)
                per_call.append((len(observations), len(calls) - before,
                                 sum(calls[before:])))
                return self

        noise = scenario_noise()
        cfg = ScheduleConfig(duration_s=ticks / 200.0, seed=1)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(joint, "update_inverse", counted)
            m.setattr(harness, "JointFilter", Counting)
            run_schedule(cfg, mode, scenario_sources(n, noise, 1),
                         scenario_world(n), noise, record_bus=False)
        return per_call

    def test_none_one_gate_call_per_round(self):
        # 6 vehicles x 3 landmarks: 3 rounds of 6
        assert self.gate_calls(harness.MODE_NONE) == [(18, 3, 18)] * 3

    def test_central_rounds_until_the_first_intervehicle_update(self):
        # the first epoch's landmarks in 3 stacked rounds of 6 on the
        # diagonal blocks, its 30 inter-vehicle observations in 5 rounds of
        # three pairs; afterwards 3 + 5 rounds, each one m x m system
        assert self.gate_calls(harness.MODE_CENTRAL) == (
            [(48, 3 + 5, 18 + 5)] + [(48, 3 + 5, 3 + 5)] * 2)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_round_table_meets_every_pair_once(self, n):
        """The round-robin table: n - 1 rounds of disjoint pairs for even
        n, n for odd n, every pair in exactly one round, both directions
        together, (a, b) before (b, a) for a < b; and splitting the
        rounds' concatenation again gives the same rounds."""
        sources = ([(models.LANDMARK, v, lm) for v in range(n)
                    for lm in range(2)]
                   + [(models.INTERVEHICLE, a, b) for a in range(n)
                      for b in range(n) if a != b])
        rounds = joint.epoch_rounds(sources, n)
        kinds = [{sources[i][0] for i in group} for group in rounds]
        assert kinds[:2] == [{models.LANDMARK}] * 2
        assert all(kind == {models.INTERVEHICLE} for kind in kinds[2:])
        assert len(rounds) - 2 == (0 if n == 1 else n - 1 + n % 2)
        met = collections.Counter()
        for group in rounds[2:]:
            obs = [sources[i][1:] for i in group]
            assert obs[::2] == [tuple(sorted(o)) for o in obs[::2]]
            assert obs[1::2] == [o[::-1] for o in obs[::2]]
            vehicles = [v for o in obs[::2] for v in o]
            assert len(set(vehicles)) == len(vehicles)
            met.update(obs[::2])
        assert set(met.values()) <= {1} and len(met) == n * (n - 1) // 2
        again = joint.epoch_rounds([sources[i] for group in rounds
                                    for i in group], n)
        flat = [i for group in rounds for i in group]
        assert [[flat[i] for i in group] for group in again] == rounds

    def test_cached_split_survives_its_callers(self):
        """A split is made once per distinct tuple of sources; a caller
        that changes the rounds it got changes no later call's, which
        equal a split made afresh."""
        n = 4
        sources = ([(models.LANDMARK, v, 0) for v in range(n)]
                   + [(models.INTERVEHICLE, a, b) for a in range(n)
                      for b in range(n) if a != b])
        fresh = [list(group) for group in
                 joint._split_epoch.__wrapped__(tuple(sources), n)]
        used = joint.epoch_rounds(sources, n)
        assert used == fresh
        used[0].reverse()
        used[-1].append(99)
        del used[1]
        hits = joint._split_epoch.cache_info().hits
        assert joint.epoch_rounds(list(sources), n) == fresh
        assert joint._split_epoch.cache_info().hits == hits + 1


class TestStackedGate:
    """update_inverse and gain_correction on a stack: each item's inverse
    and verdict as alone, and the first refused item, in stack order,
    raises its own verdict."""

    @staticmethod
    def systems(cases, m=6):
        return np.array([gate_system(m, case) for case in cases])

    @pytest.mark.parametrize("cases,text", [
        (("cond_5e11", "cond_2e12", "singular", "nan"),
         "condition ~2.00e+12 exceeds 1e+12"),
        (("cond_5e11", "singular", "cond_2e12"), "update system is singular"),
        (("cond_5e11", "inf", "singular"), "update system is not finite"),
    ])
    def test_first_refused_item_raises(self, cases, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UpdateSingularError, match=re.escape(text)):
                joint.update_inverse(self.systems(cases))

    def test_accepted_stack_equals_single_calls(self):
        rng = np.random.default_rng(5)
        s = np.eye(6) + 0.3 * rng.standard_normal((4, 6, 6))
        s[1] = gate_system(6, "cond_5e11")
        inv = joint.update_inverse(s)
        for item, want in zip(inv, s):
            np.testing.assert_array_equal(item, joint.update_inverse(want))

    @staticmethod
    def corrections(cases):
        """gain_correction's arguments for landmark updates on K = I,
        whose systems are the cases' gate systems."""
        e_ii = (TestStackedGate.systems(cases) - np.eye(6)) / GATE_DT
        return (np.broadcast_to(np.eye(6), e_ii.shape), e_ii,
                np.full(len(cases), GATE_DT), np.ones((len(cases), 6)))

    @pytest.mark.parametrize("cases,text", [
        (("cond_5e11", "singular", "nan"), "update system is singular"),
        (("cond_5e11", "nan", "singular"), "update system is not finite"),
    ])
    def test_correction_raises_first_refused_item(self, cases, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UpdateSingularError, match=re.escape(text)):
                joint.gain_correction(*self.corrections(cases))

    def test_correction_stack_equals_single_calls(self):
        rng = np.random.default_rng(6)
        n, r = 4, 3
        k = np.zeros((15 * n, 15 * n))
        for v in range(n):
            b = rng.standard_normal((15, 15))
            k[15 * v:15 * v + 15, 15 * v:15 * v + 15] = 0.1 * b @ b.T
        ix = np.array([models.update_indices(models.LANDMARK, v, 0)
                       for v in (0, 2, 3)])
        b = rng.standard_normal((r, 6, 6))
        e_ii = b @ b.swapaxes(-1, -2)
        dt = np.array([0.1, 0.05, 0.2])
        r_ix = rng.standard_normal((r, 6))
        k_ii = np.array([k[np.ix_(i, i)] for i in ix])
        stacked = joint.gain_correction(k_ii, e_ii, dt, r_ix)
        # G of the stack, as a landmark round forms it, and of each item
        g = joint.correction_matrix(k[:, ix].transpose(1, 0, 2), stacked[0],
                                    dt)
        for i in range(r):
            single = joint.gain_correction(k_ii[i], e_ii[i], float(dt[i]),
                                           r_ix[i])
            for got, want in zip(stacked, single):
                np.testing.assert_array_equal(got[i], want)
            np.testing.assert_array_equal(g[i], joint.correction_matrix(
                k[:, ix[i]][None], single[0][None], dt[i:i + 1])[0])

"""Rounds: a tick's landmark updates on an uncoupled gain applied together.

While every cross block of the joint gain is zero, `JointFilter` holds the
gain as its (n, 15, 15) diagonal blocks, and `update` applies the landmark
observations that lead a call in rounds on those blocks, each vehicle's d-th
observation in round d, on a leading round axis.  These tests tie that path
bit for bit to one observation per call and within rounding to a dense gain
updated one observation at a time, check that `none` never forms a
15n x 15n array, pin the number of gate calls per epoch, and check the
stacked gate's verdicts.
"""

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
from meswarm.lie import STATE_DOF, retract, stack_states
from meswarm.models import Observation, WorldConfig
from test_acceptance import scenario_noise, scenario_sources, scenario_world
from test_distributed import GATE_CASES, GATE_DT, gate_system
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


def run_recorded(one_per_call, mode, n, n_landmarks, rate_hz, dropout,
                 seed, refuse_tick):
    """One run of the scheduler with the joint filter recording, after each
    update call, its gain, estimate and observation clock.  With
    one_per_call the filter takes the call's observations one at a time.
    At refuse_tick, the first landmark observation that dropout keeps
    carries a NaN, which the gate refuses.  Returns (records, warnings,
    refusal text or None, rows or None, whether a NaN was sent)."""
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
                if one_per_call:
                    for obs in observations:
                        JointFilter.update(self, obs)
                else:
                    JointFilter.update(self, *observations)
            finally:
                records.append((joint_gain(self), self.state,
                                dict(self._last_obs_ns)))
            return self

    synthesize = harness.synthesize_observation
    poisoned = []

    def refusing(truths, world, kind, observer, subject, d, rng, t_ns):
        obs = synthesize(truths, world, kind, observer, subject, d, rng, t_ns)
        if (refuse_tick is not None and t_ns == refuse_tick * 10_000_000
                and not poisoned):
            poisoned.append(obs)
            return Observation(kind, observer, subject, np.full(3, np.nan),
                               t_ns)
        return obs

    text = rows = None
    with pytest.MonkeyPatch.context() as m, joint_warnings() as logged:
        m.setattr(harness, "JointFilter", Recording)
        m.setattr(harness, "synthesize_observation", refusing)
        try:
            rows = run_schedule(cfg, mode, scenario_sources(n, noise, seed),
                                world, noise, record_bus=False).rows
        except UpdateSingularError as exc:
            text = str(exc)
    return records, logged, text, rows, bool(poisoned)


class TestRoundsEqualOnePerCall:
    """Rounds give the gain, estimates, observation clock, warnings and
    refusal text of one observation per call, bit for bit, in `none` and
    in `central` (whose first inter-vehicle epoch starts with rounds)."""

    @settings(max_examples=25, deadline=None)
    @given(mode=st.sampled_from([harness.MODE_NONE, harness.MODE_CENTRAL]),
           n=st.integers(1, 5), n_landmarks=st.integers(1, 4),
           rate_hz=st.sampled_from([2.0, 10.0]),
           dropout=st.sampled_from([0.0, 0.3, 0.7]),
           seed=st.integers(0, 2**16),
           refuse=st.none() | st.integers(0, 2))
    # sparse epochs of five vehicles lose definiteness and warn
    @example(mode=harness.MODE_NONE, n=5, n_landmarks=3, rate_hz=2.0,
             dropout=0.0, seed=7, refuse=None)
    @example(mode=harness.MODE_CENTRAL, n=5, n_landmarks=3, rate_hz=2.0,
             dropout=0.3, seed=7, refuse=None)
    # a refusal in the first round of a later epoch
    @example(mode=harness.MODE_NONE, n=4, n_landmarks=2, rate_hz=10.0,
             dropout=0.0, seed=3, refuse=2)
    # dropout removes all three observations of one vehicle, one landmark
    # at 2 Hz: no update call, which the first assertion refuses; such a
    # draw can also come up at random (CHANGES.md, FOUND)
    @example(mode=harness.MODE_NONE, n=1, n_landmarks=1, rate_hz=2.0,
             dropout=0.7, seed=94, refuse=None).xfail(
        raises=AssertionError, reason="no observation survives dropout")
    def test_same_bits(self, mode, n, n_landmarks, rate_hz, dropout, seed,
                       refuse):
        epochs = _observation_ticks(rate_hz, 100.0, 150)
        refuse_tick = None if refuse is None else epochs[refuse]
        rounds = run_recorded(False, mode, n, n_landmarks, rate_hz, dropout,
                              seed, refuse_tick)
        single = run_recorded(True, mode, n, n_landmarks, rate_hz, dropout,
                              seed, refuse_tick)
        records, logged, text, rows, poisoned = rounds
        assert len(records) == len(single[0]) > 0
        for (k, state, clock), (k1, state1, clock1) in zip(records,
                                                            single[0]):
            np.testing.assert_array_equal(k, k1)
            for name in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
                np.testing.assert_array_equal(getattr(state, name),
                                              getattr(state1, name))
            assert clock == clock1
        assert logged == single[1]
        assert text == single[2]
        # a run may also be refused on its own, identically in both
        assert text is not None or not poisoned
        if text is None:
            np.testing.assert_array_equal(rows, single[3])

    def test_examples_cover_warnings(self):
        """The explicit examples above do exercise the definiteness
        verdict: both runs warn."""
        for mode, dropout in ((harness.MODE_NONE, 0.0),
                              (harness.MODE_CENTRAL, 0.3)):
            _, logged, _, _, _ = run_recorded(False, mode, 5, 3, 2.0, dropout,
                                           7, None)
            assert any("lost positive definiteness" in m for m in logged)


class DenseOneAtATime:
    """The joint filter's algebra on a dense 15n x 15n gain, one
    observation at a time: the diagonal blocks propagate through
    propagate_vehicle, and each update is K+ = sym(K - G K[ix, :]) with
    psi = dt K+[:, ix] r.  Per-vehicle propagation factors are kept once a
    cross block can be non-zero (from the start for such a prior,
    otherwise from the first inter-vehicle update), and the first update
    after a propagation rebuilds the cross blocks densely: K_ij becomes
    lam_i K_ij lam_j^T for i < j and K_ji its transpose.  So it serves
    runs with inter-vehicle updates too, as an oracle independent of the
    column stack both filters hold a coupled gain in.  Records its gain
    after every update call.

    psi takes K+[:, ix] row-major, so BLAS forms each entry as one dot
    product of its row with r, wherever the row sits; column-major, as
    K+[:, ix] comes out of the index, the entries of the last rows of a
    block take other roundings in a block than in the dense matrix, and
    an indefinite gain amplifies such a last-bit change to 5e-9 in the
    rows of some of these draws."""

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
        for obs in observations:
            key = (obs.kind, obs.observer, obs.subject)
            dt = self.noise.effective_period(obs.kind, self.clock.get(key),
                                             obs.t_ns)
            ix = models.update_indices(obs.kind, obs.observer, obs.subject)
            r_ix, e_ii = models.update_terms(self.state, obs, self.world,
                                             self.noise, dt)
            g = joint.gain_correction(self.k[:, ix], ix, e_ii, dt)
            self.k = models._sym(self.k - g @ self.k[ix, :])
            psi = dt * (np.ascontiguousarray(self.k[:, ix]) @ r_ix)
            self.state = retract(self.state, psi.reshape(self.n, STATE_DOF))
            self.clock[key] = obs.t_ns
            if obs.kind == models.INTERVEHICLE and self.lam is None:
                self.lam = joint.identity_factors(self.n)
        self.gains.append(self.k.copy())
        return self

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
    """The uncoupled filter's block rounds against a dense gain updated one
    observation at a time: `none` rows and every gain after an update call
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
        dense, want = none_run(DenseOneAtATime, n, n_landmarks, rate_hz,
                               dropout, seed)
        assert flt._lam is None and flt.k_col is None
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
    the benchmark."""

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
        # the first epoch's landmarks in 3 rounds, its 30 inter-vehicle
        # observations one at a time; afterwards one call per observation
        assert self.gate_calls(harness.MODE_CENTRAL) == (
            [(48, 3 + 30, 48)] + [(48, 48, 48)] * 2)


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
    def corrections(cases, n=3):
        """gain_correction's arguments for landmark updates of vehicles
        0..R-1 on K = I, whose systems are the cases' gate systems."""
        k = np.eye(15 * n)
        ix = np.array([models.update_indices(models.LANDMARK, v, 0)
                       for v in range(len(cases))])
        kc = k[:, ix].transpose(1, 0, 2)
        e_ii = (TestStackedGate.systems(cases) - np.eye(6)) / GATE_DT
        return kc, ix, e_ii, np.full(len(cases), GATE_DT)

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
        kc = k[:, ix].transpose(1, 0, 2)
        g = joint.gain_correction(kc, ix, e_ii, dt)
        for i in range(r):
            np.testing.assert_array_equal(
                g[i], joint.gain_correction(k[:, ix[i]], ix[i], e_ii[i],
                                            float(dt[i])))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import models
from meswarm.kernels import skew
from meswarm.lie import (STATE_DOF, compose, group_exp, make_state,
                         stack_states)
from meswarm.models import (ImuSample, NoiseModel, Observation,
                            ObservationError, WorldConfig, a_check_single,
                            b_check_single, imu_error, lambda_single,
                            predict_intervehicle, predict_landmark)
from test_lie import adjoint_matrix_from_vector, identity_state


def random_state(rng):
    rot = ScipyRotation.random(random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    return make_state(rot, rng.standard_normal(3), rng.standard_normal(3),
                      0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))


def stack_samples(samples):
    """One ImuSample stacked over vehicles, leading axis n, from one sample
    per vehicle, as JointFilter.propagate takes it; it carries the first
    sample's stamp."""
    return ImuSample(np.array([s.gyro for s in samples]),
                     np.array([s.accel for s in samples]), samples[0].t_ns)


def per_item(update_terms):
    """A stand-in for models.update_terms written for one observation,
    made to take a stack of them (stack_observations) with dt (R,), as
    the joint filter passes every round: each item gets the stand-in's
    terms alone, stacked on a leading axis."""
    def stacked(states, obs, world, noise, dt):
        if np.ndim(obs.observer) == 0:
            return update_terms(states, obs, world, noise, dt)
        return tuple(map(np.array, zip(*(
            update_terms(states, Observation(obs.kind, a, b, y, obs.t_ns),
                         world, noise, d)
            for a, b, y, d in zip(obs.observer.tolist(),
                                  obs.subject.tolist(), obs.y,
                                  dt.tolist())))))
    return stacked


def random_imu(rng, t_ns=0):
    return ImuSample(rng.standard_normal(3), rng.standard_normal(3), t_ns)


def a_check(x, u):
    """The drift's linearisation at state x under sample u."""
    return a_check_single(imu_error(x, u))


def drift_vector(x, u, world):
    """The drift as a fifteen-entry tangent vector: lambda_single's parts,
    rotation then position and velocity, and zero bias rates."""
    rate, pos, vel = lambda_single(x, imu_error(x, u), world)
    return np.concatenate((rate, pos, vel, np.zeros(x.pos.shape[:-1] + (6,))),
                          axis=-1)


def dense_residual(states, obs, world, noise, dt):
    """Weighted innovation and the 15n residual, scattered from the m
    entries models.residual returns at update_indices."""
    ix = models.update_indices(obs.kind, obs.observer, obs.subject)
    s, r_ix = models.residual(states, obs, world, noise, dt)
    r = np.zeros(len(states) * STATE_DOF)
    r[ix] = r_ix
    return s, r


def dense_hessian(states, obs, world, noise, dt):
    """The 15n x 15n Hessian term, scattered from the m x m block
    models.hessian_term returns at update_indices."""
    ix = models.update_indices(obs.kind, obs.observer, obs.subject)
    dim = len(states) * STATE_DOF
    e = np.zeros((dim, dim))
    e[np.ix_(ix, ix)] = models.hessian_term(states, obs, world, noise, dt)
    return e


@pytest.fixture
def world():
    return WorldConfig(landmarks={0: np.array([1.0, 0.0, 0.0]),
                                  1: np.array([0.0, 2.0, 1.0])},
                       markers={1: np.array([0.1, 0.0, 0.0])})


@pytest.fixture
def noise():
    return NoiseModel()


class TestLambda:
    def test_stationary_equilibrium(self, world):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        x = make_state(x.rot, x.pos, np.zeros(3), x.gyro_bias, x.accel_bias)
        u = ImuSample(x.gyro_bias.copy(),
                      x.accel_bias + x.rot.T @ world.gravity, 0)
        np.testing.assert_allclose(lambda_single(x, imu_error(x, u), world),
                                   0.0, atol=1e-15)

    def test_direct_substitution(self, world):
        x = make_state(np.eye(3), np.zeros(3), [1.0, 0.0, 0.0])
        u = ImuSample(np.zeros(3), np.zeros(3), 0)
        drift = lambda_single(x, imu_error(x, u), world)
        # rows w, R^T v and f - R^T g
        np.testing.assert_allclose(drift, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                           [0.0, 0.0, -9.81]])

    def test_formula_oracle(self, world):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, u = random_state(rng), random_imu(rng)
            drift = lambda_single(x, imu_error(x, u), world)
            # rotation, position and velocity rates only: no bias slots
            assert drift.shape == (3, 3)
            rate, pos, vel = drift
            np.testing.assert_allclose(rate, u.gyro - x.gyro_bias, atol=1e-14)
            np.testing.assert_allclose(pos, x.rot.T @ x.vel, atol=1e-14)
            np.testing.assert_allclose(
                vel, u.accel - x.accel_bias - x.rot.T @ world.gravity,
                atol=1e-14)

    def test_imu_error_is_the_bias_corrected_sample(self):
        rng = np.random.default_rng(21)
        x, u = random_state(rng), random_imu(rng)
        np.testing.assert_array_equal(
            imu_error(x, u), np.concatenate((u.gyro - x.gyro_bias,
                                             u.accel - x.accel_bias)))


class TestBCheck:
    def test_identity_blocks(self):
        b = b_check_single(NoiseModel())
        col = b[:, 0]
        expected = np.zeros(15)
        expected[0] = -1.0
        np.testing.assert_array_equal(col, expected)

    def test_zero_blocks(self):
        z = np.zeros((3, 3))
        b = b_check_single(NoiseModel(b_gyro=z, b_accel=z,
                                      b_gyro_bias=z, b_accel_bias=z))
        np.testing.assert_array_equal(b, 0.0)

    def test_blockwise_assembly_oracle(self):
        rng = np.random.default_rng(2)
        nm = NoiseModel(b_gyro=rng.standard_normal((3, 3)),
                        b_accel=rng.standard_normal((3, 3)),
                        b_gyro_bias=rng.standard_normal((3, 3)),
                        b_accel_bias=rng.standard_normal((3, 3)))
        b = b_check_single(nm)
        for _ in range(100):
            d = rng.standard_normal(12)
            expected = np.concatenate([
                -nm.b_gyro @ d[0:3], np.zeros(3), -nm.b_accel @ d[3:6],
                nm.b_gyro_bias @ d[6:9], nm.b_accel_bias @ d[9:12]])
            np.testing.assert_allclose(b @ d, expected, atol=1e-14)


class TestPredictions:
    def test_landmark_identity_pose(self):
        x = identity_state()
        np.testing.assert_array_equal(predict_landmark(x, [1.0, 2.0, 3.0]),
                                      [1.0, 2.0, 3.0])

    def test_landmark_quarter_turn(self):
        r = ScipyRotation.from_rotvec([0, 0, np.pi / 2]).as_matrix()
        x = make_state(r, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(predict_landmark(x, [1.0, 0.0, 0.0]),
                                   [0.0, -1.0, 0.0], atol=1e-15)

    def test_landmark_formula_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = random_state(rng)
            l = rng.standard_normal(3)
            np.testing.assert_allclose(predict_landmark(x, l),
                                       x.rot.T @ (l - x.pos), atol=1e-14)

    def test_intervehicle_translation_only(self):
        xa = identity_state()
        xb = make_state(np.eye(3), [1.0, -1.0, 0.5], np.zeros(3))
        np.testing.assert_array_equal(
            predict_intervehicle(xa, xb, np.zeros(3)), [1.0, -1.0, 0.5])

    def test_intervehicle_marker_only(self):
        xa = identity_state()
        xb = identity_state()
        np.testing.assert_array_equal(
            predict_intervehicle(xa, xb, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_intervehicle_formula_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            xa, xb = random_state(rng), random_state(rng)
            m = rng.standard_normal(3)
            expected = xa.rot.T @ (xb.rot @ m + xb.pos - xa.pos)
            np.testing.assert_allclose(predict_intervehicle(xa, xb, m),
                                       expected, atol=1e-14)


class TestACheck:
    def test_equilibrium_inputs(self):
        rng = np.random.default_rng(5)
        x = random_state(rng)
        u = ImuSample(x.gyro_bias.copy(), x.accel_bias.copy(), 0)
        a = a_check(x, u)
        expected = np.zeros((15, 15))
        expected[0:3, 9:12] = -np.eye(3)
        expected[3:6, 6:9] = np.eye(3)
        expected[6:9, 12:15] = -np.eye(3)
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_depends_only_on_biases(self):
        rng = np.random.default_rng(6)
        x1, x2 = random_state(rng), random_state(rng)
        x2 = make_state(x2.rot, x2.pos, x2.vel, x1.gyro_bias, x1.accel_bias)
        u = random_imu(rng)
        np.testing.assert_array_equal(a_check(x1, u), a_check(x2, u))

    def test_finite_difference_oracle(self, world):
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(100):
            x, u = random_state(rng), random_imu(rng)
            d1 = np.zeros((15, 15))
            for k in range(15):
                q = eps * np.eye(15)[k]
                plus = drift_vector(compose(x, group_exp(q)), u, world)
                minus = drift_vector(compose(x, group_exp(-q)), u, world)
                d1[:, k] = (plus - minus) / (2 * eps)
            lam = drift_vector(x, u, world)
            expected = d1 - adjoint_matrix_from_vector(lam)
            np.testing.assert_allclose(a_check(x, u), expected, atol=1e-5)


def hand_assembled_f_landmark(states, alpha, l):
    n = len(states)
    blocks = []
    for j in range(n):
        if j == alpha:
            h = states[alpha].rot.T @ (l - states[alpha].pos)
            blocks.append(np.hstack([skew(h), -np.eye(3), np.zeros((3, 9))]))
        else:
            blocks.append(np.zeros((3, 15)))
    return np.hstack(blocks)


def hand_assembled_f_intervehicle(states, alpha, beta, m):
    n = len(states)
    rab = states[alpha].rot.T @ states[beta].rot
    h = states[alpha].rot.T @ (states[beta].rot @ m + states[beta].pos
                               - states[alpha].pos)
    blocks = []
    for j in range(n):
        if j == alpha:
            blocks.append(np.hstack([skew(h), -np.eye(3), np.zeros((3, 9))]))
        elif j == beta:
            blocks.append(np.hstack([-rab @ skew(m), rab, np.zeros((3, 9))]))
        else:
            blocks.append(np.zeros((3, 15)))
    return np.hstack(blocks)


class TestResiduals:
    def test_landmark_zero_innovation(self, world, noise):
        rng = np.random.default_rng(8)
        states = [random_state(rng), random_state(rng)]
        y = predict_landmark(states[0], world.landmark(0))
        obs = Observation(models.LANDMARK, 0, 0, y, 0)
        s, r = dense_residual(states, obs, world, noise, 0.1)
        np.testing.assert_allclose(s, 0.0, atol=1e-15)
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_landmark_hand_assembled(self, noise):
        world = WorldConfig(landmarks={0: np.array([1.0, 0.0, 0.0])})
        states = [identity_state()]
        y = np.array([1.0, 1.0, 0.0])
        obs = Observation(models.LANDMARK, 0, 0, y, 0)
        s, r = dense_residual(states, obs, world, noise, 0.1)
        f = hand_assembled_f_landmark(states, 0, world.landmark(0))
        m = noise.measurement_weight(models.LANDMARK, 0.1)
        expected_s = m @ (y - np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(s, expected_s, atol=1e-14)
        np.testing.assert_allclose(r, f.T @ expected_s, atol=1e-14)

    def test_landmark_block_sparsity(self, world, noise):
        rng = np.random.default_rng(9)
        states = [random_state(rng) for _ in range(3)]
        obs = Observation(models.LANDMARK, 1, 0, rng.standard_normal(3), 0)
        _, r = dense_residual(states, obs, world, noise, 0.1)
        np.testing.assert_array_equal(r[0:15], 0.0)
        np.testing.assert_array_equal(r[30:45], 0.0)

    def test_unknown_landmark_rejected(self, world, noise):
        states = [identity_state()]
        obs = Observation(models.LANDMARK, 0, 99, np.zeros(3), 0)
        with pytest.raises(ObservationError):
            dense_residual(states, obs, world, noise, 0.1)

    def test_intervehicle_zero_innovation(self, world, noise):
        rng = np.random.default_rng(10)
        states = [random_state(rng), random_state(rng)]
        y = predict_intervehicle(states[0], states[1], world.marker(1))
        obs = Observation(models.INTERVEHICLE, 0, 1, y, 0)
        s, r = dense_residual(states, obs, world, noise, 0.1)
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_intervehicle_hand_assembled(self, world, noise):
        rng = np.random.default_rng(11)
        for _ in range(30):
            states = [random_state(rng) for _ in range(3)]
            y = rng.standard_normal(3)
            obs = Observation(models.INTERVEHICLE, 2, 1, y, 0)
            s, r = dense_residual(states, obs, world, noise, 0.1)
            f = hand_assembled_f_intervehicle(states, 2, 1, world.marker(1))
            np.testing.assert_allclose(r, f.T @ s, atol=1e-13)

    def test_self_observation_rejected(self):
        with pytest.raises(ObservationError):
            Observation(models.INTERVEHICLE, 1, 1, np.zeros(3), 0)

    def test_identical_orientations_give_identity_block(self, world, noise):
        rng = np.random.default_rng(12)
        rot = ScipyRotation.random(random_state=np.random.RandomState(3)).as_matrix()
        states = [make_state(rot, rng.standard_normal(3), np.zeros(3)),
                  make_state(rot, rng.standard_normal(3), np.zeros(3))]
        obs = Observation(models.INTERVEHICLE, 0, 1, rng.standard_normal(3),
                          0)
        world = WorldConfig(markers={1: np.zeros(3)})
        s, r_ix = models.residual(states, obs, world, noise, 0.1)
        # the target's position block of F is R_ab = I, so r there is s
        np.testing.assert_allclose(r_ix[9:12], s, atol=1e-12)


def hessian_landmark_oracle(states, obs, world, noise, dt):
    n = len(states)
    l = world.landmark(obs.subject)
    m = noise.measurement_weight(models.LANDMARK, dt)
    s = m @ (obs.y - predict_landmark(states[obs.observer], l))
    f = hand_assembled_f_landmark(states, obs.observer, l)
    g = np.zeros((3, 15 * n))
    g[:, obs.observer * 15:obs.observer * 15 + 3] = skew(s)
    gtf = g.T @ f
    return 0.5 * (gtf + gtf.T) + f.T @ m @ f


def hessian_intervehicle_oracle(states, obs, world, noise, dt):
    n = len(states)
    a, b = obs.observer, obs.subject
    m_b = world.marker(b)
    m = noise.measurement_weight(models.INTERVEHICLE, dt)
    rab = states[a].rot.T @ states[b].rot
    s = m @ (obs.y - predict_intervehicle(states[a], states[b], m_b))
    f = hand_assembled_f_intervehicle(states, a, b, m_b)
    ga = np.zeros((3, 15 * n))
    ga[:, a * 15:a * 15 + 3] = skew(s)
    gb = np.zeros((3, 15 * n))
    gb[:, b * 15:b * 15 + 3] = skew(rab.T @ s)
    lb = np.zeros((3, 15 * n))
    lb[:, b * 15:b * 15 + 3] = -skew(m_b)
    lb[:, b * 15 + 3:b * 15 + 6] = np.eye(3)
    core = ga.T @ f + ga.T @ rab @ lb - gb.T @ lb
    return 0.5 * (core + core.T) + f.T @ m @ f


class TestHessianTerms:
    def test_landmark_zero_innovation_is_psd(self, world, noise):
        rng = np.random.default_rng(13)
        states = [random_state(rng), random_state(rng)]
        y = predict_landmark(states[0], world.landmark(1))
        obs = Observation(models.LANDMARK, 0, 1, y, 0)
        e = dense_hessian(states, obs, world, noise, 0.1)
        assert np.min(np.linalg.eigvalsh(e)) >= -1e-10

    def test_landmark_symmetry_exact(self, world, noise):
        rng = np.random.default_rng(14)
        states = [random_state(rng) for _ in range(2)]
        obs = Observation(models.LANDMARK, 1, 0, rng.standard_normal(3), 0)
        e = dense_hessian(states, obs, world, noise, 0.07)
        np.testing.assert_array_equal(e, e.T)

    def test_landmark_assembly_oracle(self, world, noise):
        rng = np.random.default_rng(15)
        for _ in range(30):
            states = [random_state(rng) for _ in range(3)]
            obs = Observation(models.LANDMARK, 2, 1, rng.standard_normal(3),
                              0)
            e = dense_hessian(states, obs, world, noise, 0.1)
            np.testing.assert_allclose(
                e, hessian_landmark_oracle(states, obs, world, noise, 0.1),
                atol=1e-12)

    def test_intervehicle_zero_innovation_is_psd(self, world, noise):
        rng = np.random.default_rng(16)
        states = [random_state(rng), random_state(rng)]
        y = predict_intervehicle(states[0], states[1], world.marker(1))
        obs = Observation(models.INTERVEHICLE, 0, 1, y, 0)
        e = dense_hessian(states, obs, world, noise, 0.1)
        assert np.min(np.linalg.eigvalsh(e)) >= -1e-10

    def test_intervehicle_block_sparsity(self, world, noise):
        rng = np.random.default_rng(17)
        states = [random_state(rng) for _ in range(4)]
        obs = Observation(models.INTERVEHICLE, 0, 1, rng.standard_normal(3),
                          0)
        e = dense_hessian(states, obs, world, noise, 0.1)
        np.testing.assert_array_equal(e[30:, :], 0.0)
        np.testing.assert_array_equal(e[:, 30:], 0.0)

    def test_intervehicle_assembly_oracle(self, world, noise):
        rng = np.random.default_rng(18)
        for _ in range(30):
            states = [random_state(rng) for _ in range(3)]
            obs = Observation(models.INTERVEHICLE, 1, 2,
                              rng.standard_normal(3), 0)
            e = dense_hessian(states, obs, world, noise, 0.04)
            np.testing.assert_array_equal(e, e.T)
            np.testing.assert_allclose(
                e,
                hessian_intervehicle_oracle(states, obs, world, noise, 0.04),
                atol=1e-12)

    def test_fmf_part_is_psd(self, world, noise):
        rng = np.random.default_rng(19)
        states = [random_state(rng) for _ in range(2)]
        y = rng.standard_normal(3)
        h = predict_intervehicle(states[0], states[1], world.marker(1))
        # the second-order part is linear in the innovation, so the mean
        # over y and its mirror image 2h - y leaves F^T M F
        e = [models.hessian_term(states, Observation(models.INTERVEHICLE, 0,
                                                     1, yy, 0),
                                 world, noise, 0.1) for yy in (y, 2.0 * h - y)]
        assert np.min(np.linalg.eigvalsh(0.5 * (e[0] + e[1]))) >= -1e-10


# Largest entry gap between the m-slot terms and the dense oracles, relative
# to max(1, largest oracle entry).  Over 12,000 random draws of the property
# below the worst ratio seen was 1.2e-15 (E) and 0 (r); the bound leaves 16x
# headroom and is 50x tighter than rtol=1e-12 on the largest entries.  A
# per-entry atol does not fit: E_ii reaches 4.7e4 on some draws, and entries
# that cancel to about 0 then differ from the oracle by 1e-12.
SCALED_GAP = 2e-14


def scaled_gap(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


class TestUpdateSparsity:
    """The m-slot terms rest on E and r vanishing outside update_indices."""

    @staticmethod
    def terms(seed, n, intervehicle, observer, subject):
        """m-slot E, dense oracle E, m-slot r, dense oracle r, ix and the
        mask outside ix, for one draw."""
        rng = np.random.default_rng(seed)
        world = WorldConfig(
            landmarks={i: rng.standard_normal(3) for i in range(3)},
            markers={v: 0.1 * rng.standard_normal(3) for v in range(n)})
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        states = [random_state(rng) for _ in range(n)]
        kind = models.INTERVEHICLE if intervehicle else models.LANDMARK
        y = rng.standard_normal(3)
        dt = float(rng.uniform(0.01, 1.0))
        obs = Observation(kind, observer, subject, y, 0)
        ix = models.update_indices(kind, observer, subject)
        outside = np.ones(n * STATE_DOF, dtype=bool)
        outside[ix] = False
        if kind == models.LANDMARK:
            e = hessian_landmark_oracle(states, obs, world, noise, dt)
            f = hand_assembled_f_landmark(states, observer,
                                          world.landmark(subject))
        else:
            e = hessian_intervehicle_oracle(states, obs, world, noise, dt)
            f = hand_assembled_f_intervehicle(states, observer, subject,
                                              world.marker(subject))
        s, r_ix = models.residual(states, obs, world, noise, dt)
        return (models.hessian_term(states, obs, world, noise, dt), e, r_ix,
                f.T @ s, ix, outside)

    def check(self, seed, n, intervehicle, observer, subject):
        e_ix, e, r_ix, r, ix, outside = self.terms(seed, n, intervehicle,
                                                   observer, subject)
        assert np.all(e[outside, :] == 0.0)
        assert np.all(e[:, outside] == 0.0)
        assert np.all(r[outside] == 0.0)
        assert scaled_gap(e_ix, e[np.ix_(ix, ix)]) <= SCALED_GAP
        assert scaled_gap(r_ix, r[ix]) <= SCALED_GAP

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           intervehicle=st.booleans(), data=st.data())
    def test_exactly_zero_outside_update_indices(self, seed, n, intervehicle,
                                                  data):
        observer = data.draw(st.integers(0, n - 1), label="observer")
        if intervehicle and n > 1:
            subject = data.draw(st.sampled_from(
                [v for v in range(n) if v != observer]), label="subject")
        else:
            intervehicle = False
            subject = data.draw(st.integers(0, 2), label="landmark")
        self.check(seed, n, intervehicle, observer, subject)

    def test_large_hessian_draw(self):
        """A draw whose E_ii entries reach 4.7e4: the scale-aware bound
        holds, and a 1e-10 relative change of its largest entry breaks it."""
        self.check(243, 4, True, 0, 2)
        e_ix, e, _, _, ix, _ = self.terms(243, 4, True, 0, 2)
        want = e[np.ix_(ix, ix)]
        assert np.max(np.abs(want)) > 4e4
        bad = e_ix.copy()
        i = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
        bad[i] *= 1.0 + 1e-10
        assert scaled_gap(bad, want) > SCALED_GAP

    def test_indices_are_rotation_and_position_slots(self):
        np.testing.assert_array_equal(
            models.update_indices(models.LANDMARK, 2, 0), np.arange(30, 36))
        np.testing.assert_array_equal(
            models.update_indices(models.INTERVEHICLE, 1, 0),
            np.r_[15:21, 0:6])


class TestUpdateTerms:
    """The filters' one model evaluation per update returns exactly what
    residual and hessian_term, checked above against the oracles, return,
    and as its first-order part exactly hessian_term at zero innovation
    (y = h, where the second-order part is exactly zero)."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), intervehicle=st.booleans())
    def test_equals_residual_and_hessian_term(self, seed, intervehicle):
        rng = np.random.default_rng(seed)
        world = WorldConfig(landmarks={0: rng.standard_normal(3)},
                            markers={1: 0.1 * rng.standard_normal(3)})
        states = [random_state(rng) for _ in range(2)]
        kind = models.INTERVEHICLE if intervehicle else models.LANDMARK
        obs = Observation(kind, 0, int(intervehicle), rng.standard_normal(3),
                          0)
        noise, dt = NoiseModel(), float(rng.uniform(0.01, 1.0))
        r_ix, e_ii, e_first = models.update_terms(states, obs, world, noise,
                                                  dt)
        _, r_want = models.residual(states, obs, world, noise, dt)
        e_want = models.hessian_term(states, obs, world, noise, dt)
        np.testing.assert_array_equal(r_ix, r_want)
        np.testing.assert_array_equal(e_ii, e_want)
        h = models.predict(states, kind, 0, obs.subject, world)
        still = Observation(kind, 0, obs.subject, h, 0)
        np.testing.assert_array_equal(
            e_first, models.hessian_term(states, still, world, noise, dt))
        assert np.linalg.eigvalsh(e_first)[0] >= -1e-12 * np.abs(
            e_first).max()


class TestStackedLandmarkTerms:
    """update_terms on a stack of R landmark observations (one per
    observer, as a round of the joint filter holds them) equals R single
    calls, bit for bit, and refuses an unknown landmark index."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), data=st.data())
    def test_stack_equals_single_calls(self, seed, n, scale, data):
        rng = np.random.default_rng(seed)
        r = data.draw(st.integers(1, n), label="items")
        world = WorldConfig(landmarks={i: scale * rng.standard_normal(3)
                                       for i in range(4)})
        d = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        noise = NoiseModel(d_landmark=d)
        states = stack_states([random_state(rng) for _ in range(n)])
        group = [Observation(models.LANDMARK, int(v), int(rng.integers(4)),
                             scale * rng.standard_normal(3), 0)
                 for v in rng.permutation(n)[:r]]
        dt = rng.uniform(0.01, 1.0, r)
        r_ix, e_ii, e_first = models.update_terms(
            states, models.stack_observations(group), world, noise, dt)
        assert r_ix.shape == (r, 6)
        assert e_ii.shape == e_first.shape == (r, 6, 6)
        for i, obs in enumerate(group):
            want = models.update_terms(states, obs, world, noise,
                                       float(dt[i]))
            np.testing.assert_array_equal(r_ix[i], want[0])
            np.testing.assert_array_equal(e_ii[i], want[1])
            np.testing.assert_array_equal(e_first[i], want[2])

    def test_unknown_landmark_refused(self):
        world = WorldConfig(landmarks={0: np.ones(3)})
        states = stack_states([make_state(np.eye(3), np.zeros(3),
                                          np.zeros(3))] * 2)
        group = [Observation(models.LANDMARK, v, lm, np.zeros(3), 0)
                 for v, lm in ((0, 0), (1, 7))]
        with pytest.raises(ObservationError, match="unknown landmark index 7"):
            models.update_terms(states, models.stack_observations(group),
                                world, NoiseModel(), np.full(2, 0.1))


class TestStackedIntervehicleTerms:
    """update_terms on a stack of R inter-vehicle observations (a round of
    disjoint pairs in both directions, as the joint filter builds it)
    equals R single calls bit for bit, each given only the two states it
    involves, as a node's originate_update gives them; and a stack with a
    self-observation is refused as a single one is."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), data=st.data())
    def test_stack_equals_single_calls(self, seed, n, scale, data):
        rng = np.random.default_rng(seed)
        pairs = data.draw(st.integers(1, n // 2), label="pairs")
        world = WorldConfig(markers={
            v: 0.1 * scale * rng.standard_normal(3)
            for v in range(n) if rng.random() < 0.7})
        d = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        noise = NoiseModel(d_intervehicle=d)
        states = stack_states([random_state(rng) for _ in range(n)])
        seats = rng.permutation(n)[:2 * pairs].tolist()
        group = [Observation(models.INTERVEHICLE, a, b,
                             scale * rng.standard_normal(3), 0)
                 for a, b in zip(seats[::2], seats[1::2])
                 for a, b in ((a, b), (b, a))]
        dt = rng.uniform(0.01, 1.0, len(group))
        r_ix, e_ii, e_first = models.update_terms(
            states, models.stack_observations(group), world, noise, dt)
        assert r_ix.shape == (len(group), 12)
        assert e_ii.shape == e_first.shape == (len(group), 12, 12)
        for i, obs in enumerate(group):
            views = {obs.observer: states[obs.observer],
                     obs.subject: states[obs.subject]}
            want = models.update_terms(views, obs, world, noise,
                                       float(dt[i]))
            np.testing.assert_array_equal(r_ix[i], want[0])
            np.testing.assert_array_equal(e_ii[i], want[1])
            np.testing.assert_array_equal(e_first[i], want[2])

    def test_marker_of_an_index_array(self):
        world = WorldConfig(markers={0: [1.0, 2.0, 3.0], 2: [4.0, 5.0, 6.0]})
        np.testing.assert_array_equal(
            world.marker(np.array([2, 1, 0, 2])),
            [[4.0, 5.0, 6.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0],
             [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(world.marker(1), np.zeros(3))

    @pytest.mark.parametrize("observer,subject", [
        (1, 1), ([0, 1], [1, 1]), ([2, 0, 1], [0, 2, 1]), ([3], [3])],
        ids=["single", "second-item", "last-item", "one-item"])
    def test_self_observation_refused(self, observer, subject):
        observer, subject = np.asarray(observer), np.asarray(subject)
        y = np.zeros(observer.shape + (3,))
        with pytest.raises(ObservationError,
                           match="^a vehicle cannot observe its own marker$"):
            Observation(models.INTERVEHICLE, observer, subject, y, 0)

    def test_stack_of_distinct_pairs_accepted(self):
        obs = Observation(models.INTERVEHICLE, np.array([0, 1]),
                          np.array([1, 0]), np.zeros((2, 3)), 0)
        assert obs.observer.shape == (2,)


def hstack_landmark_terms(states, obs, world, noise, dt):
    """The landmark term builder as first written, by hstack: the oracle of
    models._landmark_terms."""
    l = world.landmark(obs.subject)
    m = noise.measurement_weight(models.LANDMARK, dt)
    h = predict_landmark(states[obs.observer], l)
    s = m @ (obs.y - h)
    f = np.hstack((skew(h), -np.eye(3)))
    g = np.hstack((skew(s), np.zeros((3, 3))))
    return m, s, f, g.T @ f


def hstack_intervehicle_terms(states, obs, world, noise, dt):
    """The inter-vehicle term builder as first written, by hstack: the
    oracle of models._intervehicle_terms."""
    z3, eye3 = np.zeros((3, 3)), np.eye(3)
    x_a, x_b = states[obs.observer], states[obs.subject]
    m_b = world.marker(obs.subject)
    m = noise.measurement_weight(models.INTERVEHICLE, dt)
    r_ab = x_a.rot.T @ x_b.rot
    h = predict_intervehicle(x_a, x_b, m_b)
    s = m @ (obs.y - h)
    f = np.hstack((skew(h), -eye3, -r_ab @ skew(m_b), r_ab))
    ga = np.hstack((skew(s), z3, z3, z3))
    gb = np.hstack((z3, z3, skew(r_ab.T @ s), z3))
    lb = np.hstack((z3, z3, -skew(m_b), eye3))
    return m, s, f, ga.T @ f + ga.T @ (r_ab @ lb) - gb.T @ lb


class TestTermBuilders:
    """The stack-free term builders fill F and the second-order core in
    place; every entry equals the hstack assembly's, to the last bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), intervehicle=st.booleans(),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           dt=st.floats(1e-3, 10.0))
    def test_equal_the_hstack_assembly(self, seed, intervehicle, scale, dt):
        rng = np.random.default_rng(seed)
        world = WorldConfig(
            landmarks={0: scale * rng.standard_normal(3)},
            markers={1: 0.1 * scale * rng.standard_normal(3)})
        d = rng.standard_normal((2, 3, 3)) + 3.0 * np.eye(3)
        noise = NoiseModel(d_landmark=d[0], d_intervehicle=d[1])
        states = [random_state(rng) for _ in range(2)]
        kind = models.INTERVEHICLE if intervehicle else models.LANDMARK
        obs = Observation(kind, 0, int(intervehicle),
                          scale * rng.standard_normal(3), 0)
        oracle = (hstack_intervehicle_terms if intervehicle
                  else hstack_landmark_terms)
        got = models._terms(states, obs, world, noise, dt)
        want = oracle(states, obs, world, noise, dt)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


class TestNoiseModel:
    def test_singular_d_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(d_landmark=np.zeros((3, 3)))

    @pytest.mark.parametrize("name", ["b_gyro", "b_accel", "b_gyro_bias",
                                      "b_accel_bias", "d_landmark",
                                      "d_intervehicle"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_entry_names_its_field(self, name, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            NoiseModel(**{name: m})

    @pytest.mark.parametrize("name", ["dt_imu", "dt_landmark",
                                      "dt_intervehicle"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.005, True])
    def test_bad_period_names_its_field(self, name, bad):
        with pytest.raises(ValueError, match=(
                f"^{name} must be a positive finite number, got ")):
            NoiseModel(**{name: bad})

    def test_measurement_weight_scaling(self):
        nm = NoiseModel(d_landmark=0.5 * np.eye(3))
        m = nm.measurement_weight(models.LANDMARK, 0.2)
        np.testing.assert_allclose(m, (1 / 0.2) * 4.0 * np.eye(3))

    def test_effective_period_rules(self):
        nm = NoiseModel(dt_landmark=0.1)
        assert nm.effective_period(models.LANDMARK, None, 10**9) == 0.1
        assert nm.effective_period(models.LANDMARK, 0, 2 * 10**8) == pytest.approx(0.2)
        # dropout cap at 10x nominal
        assert nm.effective_period(models.LANDMARK, 0, 10**10) == pytest.approx(1.0)
        with pytest.raises(ObservationError):
            nm.effective_period(models.LANDMARK, 5, 5)

    def test_lambda_shift_invariance(self):
        world = WorldConfig()
        rng = np.random.default_rng(20)
        x = random_state(rng)
        u = random_imu(rng)
        shifted = make_state(x.rot, x.pos + 5.0, x.vel, x.gyro_bias,
                             x.accel_bias)
        np.testing.assert_array_equal(
            lambda_single(x, imu_error(x, u), world),
            lambda_single(shifted, imu_error(shifted, u), world))

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm.lie import (adjoint_matrix_from_vector, compose, group_exp,
                         identity_state, inverse, make_state,
                         rotation_error_angle)


def random_state(rng, scale=1.0):
    rot = ScipyRotation.random(random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    return make_state(rot, scale * rng.standard_normal(3),
                      scale * rng.standard_normal(3),
                      0.1 * rng.standard_normal(3),
                      0.1 * rng.standard_normal(3))


def dense_product_oracle(x, y):
    p = x.pose_matrix() @ y.pose_matrix()
    return p, x.gyro_bias + y.gyro_bias, x.accel_bias + y.accel_bias


def hat5(q):
    """5x5 matrix embedding of the extended-pose part of a tangent vector."""
    m = np.zeros((5, 5))
    m[:3, :3] = [[0.0, -q[2], q[1]], [q[2], 0.0, -q[0]], [-q[1], q[0], 0.0]]
    m[:3, 3] = q[3:6]
    m[:3, 4] = q[6:9]
    return m


def series_exp_oracle(q, terms=30):
    """Truncated matrix-exponential series on the 5x5 embedding."""
    a = hat5(q)
    out = np.eye(5)
    term = np.eye(5)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        y = compose(identity_state(), x)
        np.testing.assert_allclose(y.pose_matrix(), x.pose_matrix())
        np.testing.assert_allclose(y.gyro_bias, x.gyro_bias)

    def test_inverse_axiom(self):
        rng = np.random.default_rng(1)
        x = random_state(rng)
        e = compose(x, inverse(x))
        np.testing.assert_allclose(e.rot, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(e.pos, 0.0, atol=1e-9)
        np.testing.assert_allclose(e.vel, 0.0, atol=1e-9)
        np.testing.assert_allclose(e.gyro_bias, 0.0, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = random_state(rng), random_state(rng)
            p, bg, ba = dense_product_oracle(x, y)
            z = compose(x, y)
            np.testing.assert_allclose(z.pose_matrix(), p, atol=1e-12)
            np.testing.assert_allclose(z.gyro_bias, bg, atol=1e-12)
            np.testing.assert_allclose(z.accel_bias, ba, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y, z = (random_state(rng) for _ in range(3))
            left = compose(compose(x, y), z)
            right = compose(x, compose(y, z))
            np.testing.assert_allclose(left.pose_matrix(),
                                       right.pose_matrix(), atol=1e-12)


class TestInverse:
    def test_identity(self):
        e = inverse(identity_state())
        np.testing.assert_allclose(e.pose_matrix(), np.eye(5))

    def test_involution(self):
        rng = np.random.default_rng(4)
        x = random_state(rng)
        y = inverse(inverse(x))
        np.testing.assert_allclose(y.pose_matrix(), x.pose_matrix(),
                                   atol=1e-12)

    def test_lu_inverse_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_state(rng)
            expected = np.linalg.inv(x.pose_matrix())
            np.testing.assert_allclose(inverse(x).pose_matrix(), expected,
                                       atol=1e-10)


def bracket_oracle(p, q):
    """Coordinates of the 5x5 commutator of the pose parts; biases vanish."""
    a, b = hat5(p), hat5(q)
    c = a @ b - b @ a
    out = np.zeros(15)
    out[0:3] = [c[2, 1], c[0, 2], c[1, 0]]
    out[3:6] = c[:3, 3]
    out[6:9] = c[:3, 4]
    return out


class TestAdjoint:
    def test_bias_only_acts_as_zero(self):
        rng = np.random.default_rng(8)
        q = np.zeros(15)
        q[9:] = rng.standard_normal(6)
        ad = adjoint_matrix_from_vector(q)
        np.testing.assert_array_equal(ad, 0.0)

    def test_antisymmetry_on_self(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = rng.standard_normal(15)
            np.testing.assert_allclose(adjoint_matrix_from_vector(q) @ q, 0.0,
                                       atol=1e-13)

    def test_commutator_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            p, q = rng.standard_normal(15), rng.standard_normal(15)
            got = adjoint_matrix_from_vector(p) @ q
            np.testing.assert_allclose(got, bracket_oracle(p, q), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        p, q = rng.standard_normal(15), rng.standard_normal(15)
        a, b = 1.7, -0.3
        np.testing.assert_array_equal(
            adjoint_matrix_from_vector(a * p + b * q),
            a * adjoint_matrix_from_vector(p) + b * adjoint_matrix_from_vector(q))

    def test_jacobi_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p, q, r = (rng.standard_normal(15) for _ in range(3))
            ad = adjoint_matrix_from_vector
            total = (ad(p) @ (ad(q) @ r) + ad(q) @ (ad(r) @ p)
                     + ad(r) @ (ad(p) @ q))
            np.testing.assert_allclose(total, 0.0, atol=1e-10)


class TestGroupExp:
    def test_exp_zero(self):
        x = group_exp(np.zeros(15))
        np.testing.assert_array_equal(x.pose_matrix(), np.eye(5))

    def test_pure_translation(self):
        q = np.zeros(15)
        q[3:6] = [1.0, 2.0, 3.0]
        x = group_exp(q)
        np.testing.assert_allclose(x.pos, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.rot, np.eye(3))
        np.testing.assert_array_equal(x.vel, 0.0)

    def test_series_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = rng.standard_normal(15)
            x = group_exp(q)
            np.testing.assert_allclose(x.pose_matrix(), series_exp_oracle(q),
                                       atol=1e-10)
            np.testing.assert_array_equal(x.gyro_bias, q[9:12])

    def test_small_angle_branch(self):
        q = np.zeros(15)
        q[0:3] = [1e-8, -2e-8, 1.5e-8]
        q[3:6] = [1.0, 0.0, 0.0]
        x = group_exp(q)
        np.testing.assert_allclose(x.pose_matrix(), series_exp_oracle(q),
                                   atol=1e-14)

    def test_exp_inverse(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = rng.standard_normal(15)
            e = compose(group_exp(q), group_exp(-q))
            np.testing.assert_allclose(e.pose_matrix(), np.eye(5), atol=1e-10)


class TestRotationError:
    def test_zero_for_equal(self):
        r = ScipyRotation.random(random_state=np.random.RandomState(0)).as_matrix()
        assert rotation_error_angle(r, r) == pytest.approx(0.0, abs=1e-7)

    def test_pi_for_half_turn(self):
        r = ScipyRotation.from_rotvec([0, 0, np.pi]).as_matrix()
        assert rotation_error_angle(np.eye(3), r) == pytest.approx(np.pi)

    def test_quaternion_oracle(self):
        rng = np.random.RandomState(15)
        for _ in range(100):
            r1 = ScipyRotation.random(random_state=rng)
            r2 = ScipyRotation.random(random_state=rng)
            q = (r1.inv() * r2).as_quat()
            expected = 2.0 * np.arctan2(np.linalg.norm(q[:3]), abs(q[3]))
            got = rotation_error_angle(r1.as_matrix(), r2.as_matrix())
            assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.RandomState(16)
        r1 = ScipyRotation.random(random_state=rng).as_matrix()
        r2 = ScipyRotation.random(random_state=rng).as_matrix()
        assert rotation_error_angle(r1, r2) == pytest.approx(
            rotation_error_angle(r2, r1), abs=1e-12)


def test_rotation_reorthonormalisation():
    drifted = np.eye(3) + 1e-6 * np.ones((3, 3))
    x = make_state(drifted, np.zeros(3), np.zeros(3))
    y = compose(x, identity_state())
    np.testing.assert_allclose(y.rot.T @ y.rot, np.eye(3), atol=1e-12)


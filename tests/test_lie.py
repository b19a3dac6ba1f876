import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm.kernels import SMALL_ANGLE
from meswarm.lie import (ROT_DRIFT_TOL, VehicleState,
                         adjoint_matrix_from_vector, compose, group_exp,
                         make_state, retract, rotation_error_angle)


def random_state(rng, scale=1.0):
    rot = ScipyRotation.random(random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    return make_state(rot, scale * rng.standard_normal(3),
                      scale * rng.standard_normal(3),
                      0.1 * rng.standard_normal(3),
                      0.1 * rng.standard_normal(3))


def dense_product_oracle(x, y):
    p = pose_matrix(x) @ pose_matrix(y)
    return p, x.gyro_bias + y.gyro_bias, x.accel_bias + y.accel_bias


def pose_matrix(x):
    """5x5 homogeneous form of the extended pose, over x's leading axes."""
    m = np.zeros(x.pos.shape[:-1] + (5, 5))
    m[..., :3, :3] = x.rot
    m[..., :3, 3] = x.pos
    m[..., :3, 4] = x.vel
    m[..., 3, 3] = 1.0
    m[..., 4, 4] = 1.0
    return m


def identity_state():
    return make_state(np.eye(3), np.zeros(3), np.zeros(3))


def inverse(x):
    """Group inverse over x's leading axes: the pose inverts as a 5x5
    matrix, the biases negate."""
    rt = x.rot.swapaxes(-1, -2)
    pv = rt @ np.concatenate((x.pos[..., None], x.vel[..., None]), axis=-1)
    return VehicleState(rt.copy(), -pv[..., 0], -pv[..., 1], -x.gyro_bias,
                        -x.accel_bias)


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
        np.testing.assert_allclose(pose_matrix(y), pose_matrix(x))
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
            np.testing.assert_allclose(pose_matrix(z), p, atol=1e-12)
            np.testing.assert_allclose(z.gyro_bias, bg, atol=1e-12)
            np.testing.assert_allclose(z.accel_bias, ba, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y, z = (random_state(rng) for _ in range(3))
            left = compose(compose(x, y), z)
            right = compose(x, compose(y, z))
            np.testing.assert_allclose(pose_matrix(left),
                                       pose_matrix(right), atol=1e-12)


class TestInverse:
    def test_identity(self):
        e = inverse(identity_state())
        np.testing.assert_allclose(pose_matrix(e), np.eye(5))

    def test_involution(self):
        rng = np.random.default_rng(4)
        x = random_state(rng)
        y = inverse(inverse(x))
        np.testing.assert_allclose(pose_matrix(y), pose_matrix(x),
                                   atol=1e-12)

    def test_lu_inverse_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_state(rng)
            expected = np.linalg.inv(pose_matrix(x))
            np.testing.assert_allclose(pose_matrix(inverse(x)), expected,
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
        np.testing.assert_array_equal(pose_matrix(x), np.eye(5))

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
            np.testing.assert_allclose(pose_matrix(x), series_exp_oracle(q),
                                       atol=1e-10)
            np.testing.assert_array_equal(x.gyro_bias, q[9:12])

    def test_small_angle_branch(self):
        q = np.zeros(15)
        q[0:3] = [1e-8, -2e-8, 1.5e-8]
        q[3:6] = [1.0, 0.0, 0.0]
        x = group_exp(q)
        np.testing.assert_allclose(pose_matrix(x), series_exp_oracle(q),
                                   atol=1e-14)

    def test_exp_inverse(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = rng.standard_normal(15)
            e = compose(group_exp(q), group_exp(-q))
            np.testing.assert_allclose(pose_matrix(e), np.eye(5), atol=1e-10)


FIELDS = ("rot", "pos", "vel", "gyro_bias", "accel_bias")


def random_stack(rng, lead):
    """States with leading axes `lead`, on random rotations."""
    size = int(np.prod(lead, dtype=int))
    rot = ScipyRotation.random(size, random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix().reshape(lead + (3, 3))
    return VehicleState(rot, *(rng.standard_normal(lead + (3,))
                               for _ in range(4)))


def drift(r):
    """Frobenius norms of r^T r - I."""
    return np.linalg.norm(r.swapaxes(-1, -2) @ r - np.eye(3), axis=(-2, -1))


class TestRetract:
    """retract(x, q) is compose(x, group_exp(q)) in one pass, entry for
    entry, on one state and on stacks mixing both coefficient branches."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.none() | st.integers(1, 12),
           scale=st.sampled_from([1e-3, 0.1, 1.0, 3.0]), data=st.data())
    def test_equals_compose_of_group_exp(self, seed, n, scale, data):
        rng = np.random.default_rng(seed)
        lead = () if n is None else (n,)
        x = random_stack(rng, lead)
        q = scale * rng.standard_normal(lead + (15,))
        small = data.draw(st.sets(st.integers(0, (n or 1) - 1)),
                          label="small angles")
        phi = q[..., 0:3].reshape(-1, 3)
        for i in small:
            phi[i] *= rng.uniform(0.0, 0.9 * SMALL_ANGLE) / np.linalg.norm(
                phi[i])
        q[..., 0:3] = phi.reshape(lead + (3,))
        got, want = retract(x, q), compose(x, group_exp(q))
        for name in FIELDS:
            assert getattr(got, name).shape == getattr(want, name).shape
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)

    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_one_rotation_drifted_just_past_tolerance(self, factor):
        """Just past ROT_DRIFT_TOL the drifted rotation is projected and the
        others are left bit for bit; just short of it nothing is, although
        the stack's summed drift is then past the shortcut's margin."""
        rng = np.random.default_rng(18)
        n, drifted = 6, 2
        x = random_stack(rng, (n,))
        q = 0.1 * rng.standard_normal((n, 15))
        # a zero rotation slot keeps x.rot (I + K J) = x.rot exactly
        q[:, 0:3] = 0.0
        # (1 + e) R has drift sqrt(3) (2e + e^2)
        e = np.sqrt(1.0 + factor * ROT_DRIFT_TOL / np.sqrt(3.0)) - 1.0
        rot = x.rot.copy()
        rot[drifted] *= 1.0 + e
        x = VehicleState(rot, x.pos, x.vel, x.gyro_bias, x.accel_bias)
        assert drift(rot[drifted]) == pytest.approx(factor * ROT_DRIFT_TOL,
                                                    rel=1e-5)
        got = retract(x, q).rot
        for i in range(n):
            if i == drifted and factor > 1.0:
                assert drift(got[i]) < 1e-14
                np.testing.assert_allclose(got[i], rot[i], rtol=0,
                                           atol=2 * ROT_DRIFT_TOL)
            else:
                np.testing.assert_array_equal(got[i], rot[i])

    def test_stack_of_drifts_each_short_of_tolerance(self):
        """Every rotation short of ROT_DRIFT_TOL, the sum far past it: the
        search projects none."""
        rng = np.random.default_rng(19)
        n = 12
        x = random_stack(rng, (n,))
        e = np.sqrt(1.0 + 0.9 * ROT_DRIFT_TOL / np.sqrt(3.0)) - 1.0
        rot = x.rot * (1.0 + e)
        assert np.all(drift(rot) < ROT_DRIFT_TOL)
        assert np.sum(drift(rot) ** 2) > ROT_DRIFT_TOL ** 2
        x = VehicleState(rot, x.pos, x.vel, x.gyro_bias, x.accel_bias)
        np.testing.assert_array_equal(retract(x, np.zeros((n, 15))).rot, rot)


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

    def test_stacked_equals_rows(self):
        """A (4, 10) stack gives the single-pair angle entry by entry, to the
        last bit, also next to 0 and pi where arccos is steep."""
        rng = np.random.RandomState(17)
        r1 = ScipyRotation.random(40, random_state=rng)
        angles = np.r_[0.0, 1e-9, 1e-5, np.pi - 1e-5, np.pi - 1e-9, np.pi,
                       rng.uniform(0.0, np.pi, 34)]
        axes = ScipyRotation.random(40, random_state=rng).apply([1.0, 0, 0])
        r2 = r1 * ScipyRotation.from_rotvec(angles[:, None] * axes)
        a = r1.as_matrix().reshape(4, 10, 3, 3)
        b = r2.as_matrix().reshape(4, 10, 3, 3)
        got = rotation_error_angle(a, b)
        assert got.shape == (4, 10)
        rows = [[rotation_error_angle(a[i, j], b[i, j]) for j in range(10)]
                for i in range(4)]
        np.testing.assert_array_equal(got, rows)
        np.testing.assert_allclose(got.ravel(), angles, rtol=0, atol=1e-7)

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


"""Stacked kernels: one call on n vehicles equals n single-vehicle calls.

The joint filter advances all of its vehicles in one call on (n, ...)
arrays while a node calls the same kernels on one vehicle without a leading
axis; the two must agree entry by entry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import joint, kernels, lie, models
from meswarm.kernels import SMALL_ANGLE
from meswarm.lie import ROT_DRIFT_TOL, STATE_DOF, stack_states
from meswarm.models import ImuSample, NoiseModel, WorldConfig
from test_lie import inverse, pose_matrix

TOL = 1e-15


def assert_same(stacked, singles):
    for i, single in enumerate(singles):
        np.testing.assert_allclose(stacked[i], single, rtol=0, atol=TOL)


def assert_same_states(stacked, singles):
    for name in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
        assert_same(getattr(stacked, name), [getattr(x, name) for x in singles])


def rotation_vectors(rng, n, small):
    """n rotation vectors; those listed in `small` fall below SMALL_ANGLE."""
    theta = rng.standard_normal((n, 3))
    for i in small:
        theta[i] *= rng.uniform(0.0, 0.9 * SMALL_ANGLE) / np.linalg.norm(
            theta[i])
    return theta


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data())
def test_stacked_kernels_equal_per_vehicle_calls(seed, n, data):
    rng = np.random.default_rng(seed)
    small = data.draw(st.sets(st.integers(0, n - 1)), label="small angles")
    drifted = data.draw(st.none() | st.integers(0, n - 1), label="drifted")
    theta = rotation_vectors(rng, n, small)
    singles = list(theta)

    assert_same(kernels.skew(theta), [kernels.skew(t) for t in singles])
    assert_same(kernels.so3_exp(theta), [kernels.so3_exp(t) for t in singles])
    assert_same(kernels.so3_left_jacobian(theta),
                [kernels.so3_left_jacobian(t) for t in singles])

    q = 0.1 * rng.standard_normal((n, STATE_DOF))
    q[:, 0:3] = theta
    y = lie.group_exp(q)
    assert_same_states(y, [lie.group_exp(v) for v in q])

    rot = ScipyRotation.random(n, random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    if drifted is not None:
        rot[drifted] += 1e-6 * rng.standard_normal((3, 3))
    x = lie.VehicleState(rot, rng.standard_normal((n, 3)),
                         rng.standard_normal((n, 3)),
                         0.1 * rng.standard_normal((n, 3)),
                         0.1 * rng.standard_normal((n, 3)))
    xs = [x[i] for i in range(n)]
    z = lie.compose(x, y)
    assert_same_states(z, [lie.compose(xs[i], y[i]) for i in range(n)])
    assert_same_states(lie.retract(x, *lie.tangent_parts(q)),
                       [lie.retract(xs[i], *lie.tangent_parts(q[i]))
                        for i in range(n)])
    assert_same_states(inverse(x), [inverse(xi) for xi in xs])
    if drifted is not None:
        # only the drifted product was projected back onto SO(3)
        for i in range(n):
            err = np.linalg.norm(z.rot[i].T @ z.rot[i] - np.eye(3))
            plain = rot[i] @ y.rot[i]
            if i == drifted:
                assert err < ROT_DRIFT_TOL
                assert not np.allclose(z.rot[i], plain, rtol=0, atol=1e-9)
            else:
                np.testing.assert_array_equal(z.rot[i], plain)

    world = WorldConfig()
    noise = NoiseModel()
    samples = [ImuSample(g, a, 0) for g, a in
               zip(theta, rng.standard_normal((n, 3)))]
    u = ImuSample(theta, np.array([s.accel for s in samples]), 0)
    e = models.imu_error(x, u)
    singles = [models.imu_error(xi, s) for xi, s in zip(xs, samples)]
    assert_same(e, singles)
    assert_same(models.a_check_single(e),
                [models.a_check_single(ei) for ei in singles])
    # part-major: vehicle i is column i of each part
    assert_same(models.lambda_single(x, e, world).swapaxes(0, 1),
                [models.lambda_single(xi, ei, world)
                 for xi, ei in zip(xs, singles)])

    m = rng.standard_normal((n, STATE_DOF, STATE_DOF))
    kdiag = 0.1 * (m @ m.swapaxes(-1, -2)) + np.eye(STATE_DOF)
    lam = np.eye(STATE_DOF) + 0.01 * rng.standard_normal(
        (n, STATE_DOF, STATE_DOF))
    term = models.imu_noise_term(noise)
    state, kd, lam_new = joint.propagate_vehicle(x, kdiag, lam, u, 0.005,
                                                 world, term)
    per_vehicle = [joint.propagate_vehicle(xs[i], kdiag[i], lam[i],
                                           samples[i], 0.005, world, term)
                   for i in range(n)]
    assert_same_states(state, [p[0] for p in per_vehicle])
    assert_same(kd, [p[1] for p in per_vehicle])
    assert_same(lam_new, [p[2] for p in per_vehicle])


def test_stack_round_trip():
    rng = np.random.default_rng(0)
    states = [lie.make_state(kernels.so3_exp(rng.standard_normal(3)),
                             rng.standard_normal(3), rng.standard_normal(3),
                             rng.standard_normal(3), rng.standard_normal(3))
              for _ in range(3)]
    stacked = stack_states(states)
    assert stacked.rot.shape == (3, 3, 3) and stacked.pos.shape == (3, 3)
    for i, x in enumerate(states):
        np.testing.assert_array_equal(pose_matrix(stacked[i]), pose_matrix(x))
        np.testing.assert_array_equal(stacked[i].accel_bias, x.accel_bias)

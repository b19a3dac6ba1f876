"""The IMU tick pinned bit for bit to its earlier, fifteen-slot form.

A tick forms the IMU error once, builds the drift without its bias slots
and retracts by parts.  Here a test-side copy of the earlier formulation
(a drift of fifteen slots whose six bias slots are zero, scaled by dt and
added through a retraction of a fifteen-entry vector) is the oracle, and
every state field, diagonal block and factor must match it bit for bit;
so must the SO(3) coefficients, which now settle an all-small stack with
one reduction, on every kind of stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import joint, kernels, models
from meswarm.kernels import EYE3, SMALL_ANGLE, skew
from meswarm.lie import (ROT_DRIFT_TOL, STATE_DOF, VehicleState, _t,
                         project_rotation, retract, tangent_parts)

FIELDS = ("rot", "pos", "vel", "gyro_bias", "accel_bias")


# -- the fifteen-slot formulation, as the oracle -----------------------------

def oracle_coefficients(theta):
    """The SO(3) coefficients, entries split by a count of the small ones."""
    t2 = np.add.reduce(theta * theta, axis=-1)
    small = t2 < SMALL_ANGLE * SMALL_ANGLE
    count = np.count_nonzero(small)
    if count == small.size:
        return kernels._taylor(t2)
    t = np.sqrt(t2)
    if count == 0:
        return kernels._closed_form(t, t2)
    closed = kernels._closed_form(np.where(small, 1.0, t),
                                  np.where(small, 1.0, t2))
    return tuple(np.where(small, lo, hi)
                 for lo, hi in zip(kernels._taylor(t2), closed))


def oracle_lambda(x, u, world):
    """The drift in fifteen slots, the six bias slots zero."""
    out = np.zeros(x.pos.shape[:-1] + (STATE_DOF,))
    out[..., 0:3] = u.gyro - x.gyro_bias
    out[..., 3:6] = (x.vel[..., None, :] @ x.rot)[..., 0, :]
    out[..., 6:9] = u.accel - x.accel_bias - world.gravity @ x.rot
    return out


def _oracle_affine():
    """The linearisation's affine map in d = bias - u, flattened."""
    linear = np.zeros((6, STATE_DOF, STATE_DOF))
    for i, hat in enumerate(skew(np.eye(3))):
        for row in (0, 3, 6):
            linear[i, row:row + 3, row:row + 3] = hat
        linear[3 + i, 6:9, 0:3] = hat
    fixed = np.zeros((STATE_DOF, STATE_DOF))
    fixed[0:3, 9:12] = -np.eye(3)
    fixed[3:6, 6:9] = np.eye(3)
    fixed[6:9, 12:15] = -np.eye(3)
    return linear.reshape(6, -1), fixed.ravel()


ORACLE_LINEAR, ORACLE_FIXED = _oracle_affine()


def oracle_a_check(x, u):
    """The linearisation, from d = bias - u formed here."""
    d = np.concatenate((x.gyro_bias - u.gyro, x.accel_bias - u.accel),
                       axis=-1)
    a = np.dot(d, ORACLE_LINEAR) + ORACLE_FIXED
    return a.reshape(d.shape[:-1] + (STATE_DOF, STATE_DOF))


def oracle_renormalised(r):
    """r with every rotation drifted past ROT_DRIFT_TOL projected back."""
    d = _t(r) @ r - EYE3
    if np.vdot(d, d) < 0.5 * ROT_DRIFT_TOL ** 2:
        return r
    drift2 = np.add.reduce((d * d).reshape(d.shape[:-2] + (9,)), axis=-1)
    drifted = drift2 > ROT_DRIFT_TOL ** 2
    if np.count_nonzero(drifted):
        r[drifted] = project_rotation(r[drifted])
    return r


def oracle_retract(x, q):
    """x composed with the group exponential of a fifteen-entry q."""
    phi = q[..., 0:3]
    _, b, c = oracle_coefficients(phi)
    k = skew(phi)
    j = EYE3 + b[..., None, None] * k + c[..., None, None] * (k @ k)
    pv = x.rot @ (j @ _t(q[..., 3:9].reshape(q.shape[:-1] + (2, 3))))
    return VehicleState(
        oracle_renormalised(x.rot @ (EYE3 + k @ j)),
        x.pos + pv[..., 0],
        x.vel + pv[..., 1],
        x.gyro_bias + q[..., 9:12],
        x.accel_bias + q[..., 12:15],
    )


def oracle_propagate(state, kdiag, lam, u, dt, world, noise_term):
    a = oracle_a_check(state, u)
    k = np.ascontiguousarray(kdiag)
    h = a @ (k + (0.5 * dt) * (a @ k).swapaxes(-1, -2))
    kd = k + dt * (h + h.swapaxes(-1, -2) + noise_term)
    if lam is not None:
        lam = lam + dt * (a @ lam)
    drift = oracle_lambda(state, u, world)
    return oracle_retract(state, dt * drift), kd, lam


# -- the checks ---------------------------------------------------------------

def assert_bits(got, want, what):
    """Equal shapes and equal bits, a NaN's included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def random_vehicles(rng, n):
    rot = ScipyRotation.random(n, random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    return VehicleState(rot, 3.0 * rng.standard_normal((n, 3)),
                        rng.standard_normal((n, 3)),
                        0.05 * rng.standard_normal((n, 3)),
                        0.2 * rng.standard_normal((n, 3)))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       dt=st.sampled_from([0.001, 0.005]), factors=st.booleans())
def test_tick_equals_fifteen_slot_formulation(seed, n, dt, factors):
    """propagate_vehicle's state, diagonal blocks and factors are those of
    the fifteen-slot drift and retraction, bit for bit, with nonzero
    biases, random IMU rows, a 1 ms and a 5 ms period, with and without
    factors."""
    rng = np.random.default_rng(seed)
    x = random_vehicles(rng, n)
    u = models.ImuSample(rng.standard_normal((n, 3)),
                         rng.standard_normal((n, 3)) + [0.0, 0.0, 9.81], 0)
    world = models.WorldConfig()
    term = models.imu_noise_term(models.NoiseModel(dt_imu=dt))
    m = rng.standard_normal((n, STATE_DOF, STATE_DOF))
    kdiag = 0.1 * (m @ m.swapaxes(-1, -2)) + np.eye(STATE_DOF)
    lam = (np.eye(STATE_DOF) + 0.01 * rng.standard_normal(
        (n, STATE_DOF, STATE_DOF))) if factors else None
    got = joint.propagate_vehicle(x, kdiag, lam, u, dt, world, term)
    want = oracle_propagate(x, kdiag, lam, u, dt, world, term)
    for name in FIELDS:
        assert_bits(getattr(got[0], name), getattr(want[0], name), name)
    assert_bits(got[1], want[1], "diagonal blocks")
    if factors:
        assert_bits(got[2], want[2], "factors")
    else:
        assert got[2] is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       signs=st.sampled_from(["mixed", "positive", "negative"]),
       zeros=st.booleans())
def test_linearisation_equals_the_bias_minus_u_form(seed, n, signs, zeros):
    """a_check_single of u - bias is the earlier map of bias - u bit for
    bit, signed zeros included, with every error component of one sign
    and with components exactly zero (a sample equal to its bias)."""
    rng = np.random.default_rng(seed)
    x = random_vehicles(rng, n)
    delta = rng.standard_normal((2, n, 3))
    if signs != "mixed":
        delta = (1.0 if signs == "positive" else -1.0) * np.abs(delta)
    if zeros:
        delta[rng.random((2, n, 3)) < 0.4] = 0.0
    u = models.ImuSample(x.gyro_bias + delta[0], x.accel_bias + delta[1], 0)
    assert_bits(models.a_check_single(models.imu_error(x, u)),
                oracle_a_check(x, u), "A")


def test_tick_carries_the_biases_through():
    """A tick's drift leaves the biases as they were: the new state holds
    the old bias values, -0.0 included."""
    rng = np.random.default_rng(35)
    x = random_vehicles(rng, 3)
    x = VehicleState(x.rot, x.pos, x.vel, np.full((3, 3), -0.0),
                     x.accel_bias)
    u = models.ImuSample(rng.standard_normal((3, 3)),
                         rng.standard_normal((3, 3)), 0)
    term = models.imu_noise_term(models.NoiseModel())
    state, _, _ = joint.propagate_vehicle(x, np.tile(np.eye(STATE_DOF),
                                                     (3, 1, 1)),
                                          None, u, 0.005, models.WorldConfig(),
                                          term)
    assert_bits(state.gyro_bias, x.gyro_bias, "gyro_bias")
    assert_bits(state.accel_bias, x.accel_bias, "accel_bias")


def test_parts_retraction_equals_fifteen_slot_retraction():
    """retract on tangent_parts(q) is the fifteen-entry retraction of q,
    bit for bit, with and without the bias part."""
    rng = np.random.default_rng(36)
    x = random_vehicles(rng, 6)
    q = 0.3 * rng.standard_normal((6, STATE_DOF))
    q[:3, 0:3] *= 10.0
    got, want = retract(x, *tangent_parts(q)), oracle_retract(x, q)
    for name in FIELDS:
        assert_bits(getattr(got, name), getattr(want, name), name)
    q[:, 9:] = 0.0
    phi, pv, _ = tangent_parts(q)
    got, want = retract(x, phi, pv), oracle_retract(x, q)
    for name in FIELDS:
        assert_bits(getattr(got, name), getattr(want, name), name)


def _stack(kind, rng):
    theta = rng.standard_normal((7, 3))
    norms = np.linalg.norm(theta, axis=-1, keepdims=True)
    small = theta / norms * rng.uniform(0.0, 0.9 * SMALL_ANGLE, (7, 1))
    large = theta / norms * rng.uniform(SMALL_ANGLE, 3.0, (7, 1))
    if kind == "all-small":
        return small
    if kind == "tick":
        return 0.005 * small
    if kind == "all-large":
        return large
    if kind == "mixed":
        return np.where(rng.random((7, 1)) < 0.5, small, large)
    if kind == "at-the-switch":
        return theta / norms * SMALL_ANGLE * (1.0 + np.array(
            [-1e-16, -1e-12, 0.0, 1e-16, 1e-12, -1e-6, 1e-6]))[:, None]
    if kind == "empty":
        return np.zeros((0, 3))
    if kind == "single-small":
        return small[0]
    if kind == "single-large":
        return large[0]
    value = kind.rsplit("-", 1)[0]
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[value]
    out = small.copy() if kind.endswith("small") else large.copy()
    out[2, 1] = bad
    return out


@pytest.mark.parametrize("kind", [
    "all-small", "tick", "all-large", "mixed", "at-the-switch", "empty",
    "single-small", "single-large", "nan-small", "nan-large", "inf-small",
    "inf-large", "-inf-small"])
def test_coefficients_equal_the_counted_split(kind):
    """The one-reduction shortcut gives the bits of the split by count on
    all-small, all-large, mixed, empty, NaN and inf stacks."""
    theta = _stack(kind, np.random.default_rng(37))
    with np.errstate(invalid="ignore"):
        got = kernels._so3_coefficients(theta)
        want = oracle_coefficients(theta)
    for g, w in zip(got, want):
        assert_bits(g, w, kind)

"""Numeric kernels of the IMU step, on one vehicle or a stack of vehicles.

Every kernel accepts any leading axes: a 3-vector gives one 3x3 matrix and
an (n, 3) stack gives (n, 3, 3), so one call serves a node's single vehicle
and all n vehicles of the joint filter, and each entry of a stacked result
equals the single-vehicle call on that entry.  The SO(3) exponential and
its left Jacobian are in closed form; the matrix exponential of the 15x15
propagation matrices is scipy's scaling-and-squaring method (Al-Mohy &
Higham, 2009), which takes stacks as well.
"""

import numpy as np
from scipy.linalg import expm  # noqa: F401  (re-exported kernel)

# Below this rotation magnitude the closed-form coefficients switch to their
# 4th-order Taylor expansions to avoid 0/0.
SMALL_ANGLE = 1e-6

# There is no JIT path; benchmark environment records still read this flag.
NUMBA_ENABLED = False

EYE3 = np.eye(3)
EYE3.flags.writeable = False

# skew is linear: skew(v) = v @ _HAT, row i holding the flattened hat of e_i
_HAT = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                 [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                 [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def skew(v):
    """Hat matrices of a 3-vector or of a stack of them.

    Every entry is one signed component of v, exactly; a non-finite
    component makes the whole matrix non-finite (0 * inf).
    """
    v = np.asarray(v, dtype=float)
    return np.dot(v, _HAT).reshape(v.shape[:-1] + (3, 3))


def _closed_form(t, t2):
    s = np.sin(t)
    return s / t, (1.0 - np.cos(t)) / t2, (t - s) / (t2 * t)


def _taylor(t2):
    t4 = t2 * t2
    return (1.0 - t2 / 6.0 + t4 / 120.0,
            0.5 - t2 / 24.0 + t4 / 720.0,
            1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0)


def _so3_coefficients(theta):
    """sin(t)/t, (1 - cos t)/t^2 and (t - sin t)/t^3 for t = |theta|.

    Entries below SMALL_ANGLE take the Taylor expansions; every entry depends
    on its own rotation vector only, whatever else the stack holds.
    """
    t2 = np.add.reduce(theta * theta, axis=-1)
    t = np.sqrt(t2)
    small = t < SMALL_ANGLE
    count = np.count_nonzero(small)
    if count == 0:
        return _closed_form(t, t2)
    if count == small.size:
        return _taylor(t2)
    # mixed stack: evaluate the closed form on a safe stand-in, then select
    closed = _closed_form(np.where(small, 1.0, t), np.where(small, 1.0, t2))
    return tuple(np.where(small, lo, hi)
                 for lo, hi in zip(_taylor(t2), closed))


def so3_exp(theta):
    """Rotation matrices exp(theta^) = I + a K + b K^2, K = theta^."""
    a, b, _ = _so3_coefficients(theta)
    k = skew(theta)
    return EYE3 + a[..., None, None] * k + b[..., None, None] * (k @ k)


def so3_left_jacobian(theta):
    """Left Jacobians J = I + b K + c K^2 of the SO(3) exponential."""
    _, b, c = _so3_coefficients(theta)
    k = skew(theta)
    return EYE3 + b[..., None, None] * k + c[..., None, None] * (k @ k)

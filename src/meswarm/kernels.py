"""Numeric kernels called once per vehicle per IMU tick.

The SO(3) exponential and its left Jacobian in closed form, and the matrix
exponential of the 15x15 propagation matrices, which is scipy's
scaling-and-squaring method (Al-Mohy & Higham, 2009).
"""

import numpy as np
from scipy.linalg import expm  # noqa: F401  (re-exported kernel)

# Below this rotation magnitude the closed-form coefficients switch to their
# 4th-order Taylor expansions to avoid 0/0.
SMALL_ANGLE = 1e-6

# There is no JIT path; benchmark environment records still read this flag.
NUMBA_ENABLED = False


def skew(v):
    m = np.zeros((3, 3))
    m[0, 1] = -v[2]
    m[0, 2] = v[1]
    m[1, 0] = v[2]
    m[1, 2] = -v[0]
    m[2, 0] = -v[1]
    m[2, 1] = v[0]
    return m


def so3_exp(theta):
    t2 = theta[0] * theta[0] + theta[1] * theta[1] + theta[2] * theta[2]
    t = np.sqrt(t2)
    if t < SMALL_ANGLE:
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = np.sin(t) / t
        b = (1.0 - np.cos(t)) / t2
    k = skew(theta)
    return np.eye(3) + a * k + b * np.dot(k, k)


def so3_left_jacobian(theta):
    t2 = theta[0] * theta[0] + theta[1] * theta[1] + theta[2] * theta[2]
    t = np.sqrt(t2)
    if t < SMALL_ANGLE:
        c1 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c2 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        c1 = (1.0 - np.cos(t)) / t2
        c2 = (t - np.sin(t)) / (t2 * t)
    k = skew(theta)
    return np.eye(3) + c1 * k + c2 * np.dot(k, k)

"""Numeric kernels of the IMU step, on one vehicle or a stack of vehicles.

Every kernel accepts any leading axes: a 3-vector gives one 3x3 matrix and
an (n, 3) stack gives (n, 3, 3), so one call serves one vehicle and the n
vehicles each filter holds as a stack, and each entry of a stacked result
equals the single-vehicle call on that entry.  The SO(3) exponential and
its left Jacobian are in closed form, their coefficients a Taylor series
in |theta|^2 below SMALL_ANGLE; the matrix exponential of the 15x15
propagation matrices is a truncated Taylor series with scaling and
squaring, one set of matmuls over the whole stack.  A stack takes the
degree its largest norm needs, so its entries equal single calls to the
last bits rather than exactly.
"""

import functools
import math

import numpy as np

# Below this rotation magnitude the coefficients take their Taylor series in
# t^2.  The closed forms cancel as t falls: 1 - cos t and t - sin t lose about
# log10(1/t^2) digits, 4e-5 and 8e-5 relative at t = 2e-6.  From t = 0.25 up
# both stay within about 1e-14, and six terms of the series carry it to
# 1e-17 below.
SMALL_ANGLE = 0.25

# (3, 6, 1): column j - 1 holds the coefficients (-1)^k / (2k + j)! of t^2k,
# k = 0..5, in sin(t)/t, (1 - cos t)/t^2 and (t - sin t)/t^3 for j = 1, 2, 3.
# A (1, 6) row of powers times a column is one dot product per entry and
# coefficient, the same call whatever the stack.
_COLUMNS = np.array([[[(-1) ** k / math.factorial(2 * k + j)]
                      for k in range(6)] for j in (1, 2, 3)])
_COLUMNS.flags.writeable = False
_POWERS = np.arange(6.0)
_POWERS.flags.writeable = False

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
    """The three series at t^2 = t2, together: the powers of t2, then one
    six-term dot product with each series' coefficients, entry by entry.
    Below t^2 = 0.0625 the terms fall fast and nothing cancels."""
    powers = np.power(t2[..., None], _POWERS)
    r = (powers[..., None, None, :] @ _COLUMNS)[..., 0, 0]
    return r[..., 0], r[..., 1], r[..., 2]


def _so3_coefficients(theta):
    """sin(t)/t, (1 - cos t)/t^2 and (t - sin t)/t^3 for t = |theta|.

    Entries below SMALL_ANGLE take the Taylor series; every entry depends on
    its own rotation vector only, whatever else the stack holds.
    """
    t2 = np.add.reduce(theta * theta, axis=-1)
    small = t2 < SMALL_ANGLE * SMALL_ANGLE
    count = np.count_nonzero(small)
    if count == small.size:
        return _taylor(t2)
    t = np.sqrt(t2)
    if count == 0:
        return _closed_form(t, t2)
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


# (m, theta_m): the Taylor polynomial of degree m has a backward error below
# the unit roundoff 2^-53 for every matrix of 1-norm at most theta_m
# (Al-Mohy & Higham, "Computing the Action of the Matrix Exponential", SIAM
# J. Sci. Comput. 2011, Table 3.1).  Larger norms are scaled into theta_20.
_TAYLOR_THETA = ((4, 3.40e-4), (5, 2.40e-3), (6, 9.07e-3), (7, 2.38e-2),
                 (8, 4.99e-2), (9, 8.96e-2), (10, 1.44e-1), (12, 0.300),
                 (16, 0.780), (20, 1.44))


def _paterson_stockmeyer(degree):
    """Blocks of the degree-m Taylor polynomial in powers of A^s.

    With s = ceil(sqrt(m)), p(A) = sum_j B_j (A^s)^j where block j is
    B_j = sum_i c[j, i] A^i over i = 0..s, c[j, i] = 1/(j s + i)!; the top
    block takes the last coefficient on A^s when s divides m.  The identity
    term c[0, 0] is left out; the caller adds it last, as Horner's last
    step does, which keeps the diagonal within half an ulp of 1.
    """
    s = math.isqrt(degree - 1) + 1
    top = (degree - 1) // s
    c = np.zeros((top + 1, s + 1))
    for k in range(degree + 1):
        j = min(k // s, top)
        c[j, k - j * s] = 1.0 / math.factorial(k)
    c[0, 0] = 0.0
    c.flags.writeable = False
    return s, c


_TAYLOR_BLOCKS = {m: _paterson_stockmeyer(m) for m, _ in _TAYLOR_THETA}


@functools.lru_cache(maxsize=8)
def _eye(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def expm(a):
    """Matrix exponentials of a square matrix or of a stack of them.

    The degree and the number of squarings follow from the largest 1-norm
    in the stack, so every slice goes through the same matmuls and no slice
    takes a Python loop of its own.  The polynomial is evaluated by Horner
    in A^s (Paterson & Stockmeyer), without a linear solve.  A non-finite
    entry anywhere makes the whole result NaN at once; the largest finite
    norm costs 1,024 squarings.
    """
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=-2).max(initial=0.0)
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    squarings = 0
    for degree, theta in _TAYLOR_THETA:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        a = np.ldexp(a, -squarings)
    s, c = _TAYLOR_BLOCKS[degree]
    # powers I, A, .., A^s, stacked ahead of the input's own axes
    powers = np.empty((s + 1,) + a.shape)
    eye = _eye(a.shape[-1])
    powers[0] = eye
    powers[1] = a
    for i in range(2, s + 1):
        np.matmul(powers[i - 1], a, out=powers[i])
    blocks = (c @ powers.reshape(s + 1, -1)).reshape((len(c),) + a.shape)
    r = blocks[-1]
    for j in range(len(c) - 2, -1, -1):
        r = powers[s] @ r
        r += blocks[j]
    r += eye
    for _ in range(squarings):
        r = r @ r
    return r

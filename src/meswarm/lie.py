"""Group numerics for the 15-DoF vehicle state.

The state lives on the direct product of the extended pose group (a 5x5
matrix group packing rotation, position and velocity) with two additive
bias vectors.  Tangent vectors are ordered (rot, pos, vel, gyro_bias,
accel_bias), fifteen entries in total.

A state holds one vehicle or a stack of vehicles: every field carries the
same leading axes, none for one vehicle and (n,) for the joint filter's n
vehicles.  `compose`, `group_exp` and `retract` act on all of them at once.
"""

from dataclasses import dataclass, fields

import numpy as np

from .kernels import EYE3, _so3_coefficients, skew, so3_left_jacobian

STATE_DOF = 15

# Frobenius drift beyond which a rotation gets re-orthonormalised.
ROT_DRIFT_TOL = 1e-9
# A stack whose summed squared drift is below this has no rotation past
# ROT_DRIFT_TOL: the half margin absorbs the rounding between that sum and
# the per-rotation sums, so the shortcut never skips a projection.
_STACK_DRIFT2 = 0.5 * ROT_DRIFT_TOL ** 2


def _vec3(v):
    a = np.asarray(v, dtype=float).reshape(3)
    return a


def _t(m):
    """Transpose of the last two axes."""
    return m.swapaxes(-1, -2)


def _rotated(r, x):
    """(r @ x.pos, r @ x.vel) for stacks, in one product."""
    pv = r @ np.concatenate((x.pos[..., None], x.vel[..., None]), axis=-1)
    return pv[..., 0], pv[..., 1]


@dataclass(frozen=True)
class VehicleState:
    """Rotation, position, velocity and IMU biases of one or more vehicles."""

    rot: np.ndarray          # (..., 3, 3) rotation matrices
    pos: np.ndarray          # (..., 3) m, inertial frame
    vel: np.ndarray          # (..., 3) m/s, inertial frame
    gyro_bias: np.ndarray    # (..., 3) rad/s
    accel_bias: np.ndarray   # (..., 3) m/s^2

    def __getitem__(self, i):
        """Vehicle i of a stack, as views of the stacked fields."""
        return VehicleState(self.rot[i], self.pos[i], self.vel[i],
                            self.gyro_bias[i], self.accel_bias[i])


def make_state(rot, pos, vel, gyro_bias=None, accel_bias=None):
    rot = np.asarray(rot, dtype=float).reshape(3, 3)
    gyro_bias = np.zeros(3) if gyro_bias is None else _vec3(gyro_bias)
    accel_bias = np.zeros(3) if accel_bias is None else _vec3(accel_bias)
    return VehicleState(rot, _vec3(pos), _vec3(vel), gyro_bias, accel_bias)


def stack_states(states):
    """One stacked state, leading axis n, from n single-vehicle states."""
    return VehicleState(*(np.stack([getattr(x, f.name) for x in states])
                          for f in fields(VehicleState)))


def project_rotation(r):
    """Nearest rotation matrices (polar projection via SVD)."""
    u, _, vt = np.linalg.svd(r)
    # a reflection flips the singular direction of the smallest value
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def _renormalised(r):
    """r with every rotation that drifted past ROT_DRIFT_TOL projected back.

    Works in place on r, which the caller has just computed.  One
    reduction over the whole stack clears the common case; only a stack
    past it is searched rotation by rotation.
    """
    d = _t(r) @ r - EYE3
    if np.vdot(d, d) < _STACK_DRIFT2:
        return r
    drift2 = np.add.reduce((d * d).reshape(d.shape[:-2] + (9,)), axis=-1)
    drifted = drift2 > ROT_DRIFT_TOL ** 2
    if np.count_nonzero(drifted):
        r[drifted] = project_rotation(r[drifted])
    return r


def compose(x, y):
    """Group product: poses multiply as 5x5 matrices, biases add."""
    pos, vel = _rotated(x.rot, y)
    return VehicleState(
        _renormalised(x.rot @ y.rot),
        x.pos + pos,
        x.vel + vel,
        x.gyro_bias + y.gyro_bias,
        x.accel_bias + y.accel_bias,
    )


def adjoint_matrix_from_vector(q):
    """15x15 matrix acting on tangent coordinates as the Lie bracket [q, .].

    The bracket only involves the extended-pose slots; both bias rows and
    columns are zero.
    """
    ad = np.zeros((STATE_DOF, STATE_DOF))
    rx = skew(q[0:3])
    ad[0:3, 0:3] = rx
    ad[3:6, 0:3] = skew(q[3:6])
    ad[3:6, 3:6] = rx
    ad[6:9, 0:3] = skew(q[6:9])
    ad[6:9, 6:9] = rx
    return ad


def group_exp(q):
    """Exponential of 15-entry tangent vectors (..., 15) onto the group.

    Closed form: the SO(3) left Jacobian J applied to the position and
    velocity slots, the rotation as exp(K) = I + K J with K the hat of the
    rotation slot, and the identity map on the (additive) bias slots.
    """
    phi = q[..., 0:3]
    j = so3_left_jacobian(phi)
    pv = j @ _t(q[..., 3:9].reshape(q.shape[:-1] + (2, 3)))
    return VehicleState(EYE3 + skew(phi) @ j, pv[..., 0], pv[..., 1],
                        q[..., 9:12].copy(), q[..., 12:15].copy())


def retract(x, q):
    """x composed with the group exponential of q, in one pass.

    Entry for entry equal to compose(x, group_exp(q)), from one evaluation
    of the SO(3) coefficients and one hat: with K the hat of the rotation
    slot and J its left Jacobian, the rotation becomes x.rot (I + K J), the
    position and velocity add x.rot J [rho nu], and the biases add.
    """
    phi = q[..., 0:3]
    _, b, c = _so3_coefficients(phi)
    k = skew(phi)
    j = EYE3 + b[..., None, None] * k + c[..., None, None] * (k @ k)
    pv = x.rot @ (j @ _t(q[..., 3:9].reshape(q.shape[:-1] + (2, 3))))
    return VehicleState(
        _renormalised(x.rot @ (EYE3 + k @ j)),
        x.pos + pv[..., 0],
        x.vel + pv[..., 1],
        x.gyro_bias + q[..., 9:12],
        x.accel_bias + q[..., 12:15],
    )


def rotation_error_angle(r_est, r_true):
    """Geodesic angles between rotations (..., 3, 3), in [0, pi]."""
    c = 0.5 * (np.trace(_t(r_est) @ r_true, axis1=-2, axis2=-1) - 1.0)
    return np.arccos(np.clip(c, -1.0, 1.0))


# -- network helpers ---------------------------------------------------------

def network_adjoint_from_vector(q, n):
    """Block-diagonal 15n x 15n adjoint of a stacked tangent vector."""
    out = np.zeros((n * STATE_DOF, n * STATE_DOF))
    for i in range(n):
        sl = slice(i * STATE_DOF, (i + 1) * STATE_DOF)
        out[sl, sl] = adjoint_matrix_from_vector(q[sl])
    return out

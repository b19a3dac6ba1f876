"""Group numerics for the 15-DoF vehicle state.

The state lives on the direct product of the extended pose group (a 5x5
matrix group packing rotation, position and velocity) with two additive
bias vectors.  Tangent vectors are ordered (rot, pos, vel, gyro_bias,
accel_bias), fifteen entries in total.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import skew, so3_exp, so3_left_jacobian

STATE_DOF = 15

# Frobenius drift beyond which a rotation gets re-orthonormalised.
ROT_DRIFT_TOL = 1e-9


def _vec3(v):
    a = np.asarray(v, dtype=float).reshape(3)
    return a


@dataclass(frozen=True)
class VehicleState:
    """One vehicle's rotation, position, velocity and IMU biases."""

    rot: np.ndarray          # 3x3 rotation matrix
    pos: np.ndarray          # m, inertial frame
    vel: np.ndarray          # m/s, inertial frame
    gyro_bias: np.ndarray    # rad/s
    accel_bias: np.ndarray   # m/s^2

    def pose_matrix(self):
        """5x5 homogeneous form of the extended pose."""
        m = np.zeros((5, 5))
        m[:3, :3] = self.rot
        m[:3, 3] = self.pos
        m[:3, 4] = self.vel
        m[3, 3] = 1.0
        m[4, 4] = 1.0
        return m


def make_state(rot, pos, vel, gyro_bias=None, accel_bias=None):
    rot = np.asarray(rot, dtype=float).reshape(3, 3)
    gyro_bias = np.zeros(3) if gyro_bias is None else _vec3(gyro_bias)
    accel_bias = np.zeros(3) if accel_bias is None else _vec3(accel_bias)
    return VehicleState(rot, _vec3(pos), _vec3(vel), gyro_bias, accel_bias)


def identity_state():
    return make_state(np.eye(3), np.zeros(3), np.zeros(3))


def project_rotation(r):
    """Nearest rotation matrix (polar projection via SVD)."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


def _renormalised(r):
    if np.linalg.norm(r.T @ r - np.eye(3)) > ROT_DRIFT_TOL:
        return project_rotation(r)
    return r


def compose(x, y):
    """Group product: poses multiply as 5x5 matrices, biases add."""
    rot = _renormalised(x.rot @ y.rot)
    return VehicleState(
        rot,
        x.pos + x.rot @ y.pos,
        x.vel + x.rot @ y.vel,
        x.gyro_bias + y.gyro_bias,
        x.accel_bias + y.accel_bias,
    )


def inverse(x):
    rt = x.rot.T
    return VehicleState(rt.copy(), -(rt @ x.pos), -(rt @ x.vel),
                        -x.gyro_bias, -x.accel_bias)


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
    """Exponential of a 15-entry tangent vector onto the group.

    Closed form: SO(3) exponential for the rotation slot, the shared SO(3)
    left Jacobian applied to the position and velocity slots, and the
    identity map on the (additive) bias slots.
    """
    r = so3_exp(q[0:3])
    j = so3_left_jacobian(q[0:3])
    return VehicleState(r, j @ q[3:6], j @ q[6:9],
                        q[9:12].copy(), q[12:15].copy())


def rotation_error_angle(r_est, r_true):
    """Geodesic angle between two rotations, in [0, pi]."""
    c = 0.5 * (np.trace(r_est.T @ r_true) - 1.0)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


# -- network helpers ---------------------------------------------------------

def network_adjoint_from_vector(q, n):
    """Block-diagonal 15n x 15n adjoint of a stacked tangent vector."""
    out = np.zeros((n * STATE_DOF, n * STATE_DOF))
    for i in range(n):
        sl = slice(i * STATE_DOF, (i + 1) * STATE_DOF)
        out[sl, sl] = adjoint_matrix_from_vector(q[sl])
    return out

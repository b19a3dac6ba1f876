"""Seeded recorded-flight trials in the EuRoC file layout for `replay-n3`.

Each trial is ``<dir>/mav0/imu0/data.csv`` (``timestamp_ns,w,a``) and
``<dir>/mav0/state_groundtruth_estimate0/data.csv`` (``timestamp_ns,p,q(wxyz),
v,gyro bias,accel bias``), written at the IMU rate.  The start stamps are
offset by a fraction of an IMU period per vehicle, so the CLI's trial
alignment has to clip them to a common window.
"""

import os

import numpy as np
from scipy.spatial.transform import Rotation

IMU_HEADER = "#timestamp [ns],w_RS_S_x [rad s^-1],w_RS_S_y [rad s^-1]," \
             "w_RS_S_z [rad s^-1],a_RS_S_x [m s^-2],a_RS_S_y [m s^-2]," \
             "a_RS_S_z [m s^-2]"
TRUTH_HEADER = "#timestamp,p_x,p_y,p_z,q_w,q_x,q_y,q_z,v_x,v_y,v_z," \
               "b_w_x,b_w_y,b_w_z,b_a_x,b_a_y,b_a_z"

# First stamp of vehicle 0; exactly representable as a float, because the
# loaders parse every field with float().
T0_NS = 1_000_000_000_000
# Per-vehicle start offset, a third of a 200 Hz period.
START_OFFSET_NS = 1_666_667


def trial_paths(root, vehicle):
    base = os.path.join(root, f"trial{vehicle}", "mav0")
    return (os.path.join(base, "imu0", "data.csv"),
            os.path.join(base, "state_groundtruth_estimate0", "data.csv"))


def trajectories(harness, n, seed):
    """The seeded per-vehicle trajectories the trials are generated from."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    return [harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                              rot_scale=0.3)
            for _ in range(n)]


def write_trials(harness, models, root, n, seed, length_s, rate_hz, noise):
    """Write n trials of length_s seconds; returns their trajectories."""
    trajs = trajectories(harness, n, seed)
    dt = 1.0 / rate_hz
    n_samples = int(round(length_s * rate_hz))
    for v, traj in enumerate(trajs):
        samples, bgs, bas = harness.synthesize_imu(
            traj, noise, models.DEFAULT_GRAVITY, n_samples, dt, seed, v)
        t0 = T0_NS + v * START_OFFSET_NS
        stamps = [t0 + s.t_ns for s in samples]
        imu_path, truth_path = trial_paths(root, v)
        os.makedirs(os.path.dirname(imu_path), exist_ok=True)
        os.makedirs(os.path.dirname(truth_path), exist_ok=True)
        with open(imu_path, "w") as fh:
            fh.write(IMU_HEADER + "\n")
            for t, s in zip(stamps, samples):
                fields = [*s.gyro.tolist(), *s.accel.tolist()]
                fh.write(f"{t}," + ",".join(map(repr, fields)) + "\n")
        times = np.arange(n_samples) * dt
        rots = np.array([traj.rotation(t) for t in times])
        quats = Rotation.from_matrix(rots).as_quat()[:, [3, 0, 1, 2]]
        table = np.hstack([[traj.position(t) for t in times], quats,
                           [traj.velocity(t) for t in times], bgs, bas])
        with open(truth_path, "w") as fh:
            fh.write(TRUTH_HEADER + "\n")
            for t, row in zip(stamps, table.tolist()):
                fh.write(f"{t}," + ",".join(map(repr, row)) + "\n")
    return trajs

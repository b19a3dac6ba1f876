"""The library workloads' scenario, and the source that times their ticks.

The noise, landmarks, markers and trajectory parameters reproduce the
acceptance scenario (``scenario_noise``, ``scenario_world`` and
``scenario_sources`` in ``tests/test_acceptance.py``), with the IMU period
of the noise model following the IMU rate as ``dataio.build_noise_model``
sets it.
"""

import math

import numpy as np

N_LANDMARKS = 3


def scenario_noise(models, imu_rate_hz):
    return models.NoiseModel(b_gyro=0.005 * np.eye(3),
                             b_accel=0.02 * np.eye(3),
                             b_gyro_bias=1e-5 * np.eye(3),
                             b_accel_bias=1e-4 * np.eye(3),
                             d_landmark=0.1 * np.eye(3),
                             d_intervehicle=0.05 * np.eye(3),
                             dt_imu=1.0 / imu_rate_hz)


def scenario_world(models, n):
    return models.WorldConfig(
        landmarks={0: np.array([2.0, 0.0, 1.0]),
                   1: np.array([-1.0, 2.0, 0.5]),
                   2: np.array([0.0, -2.0, 1.5])},
        markers={i: 0.05 * np.eye(3)[i % 3] for i in range(n)})


def stamped_source_class(harness):
    """SyntheticSource that tells a TickClock of each pull of its samples.

    The scheduler pulls vehicle 0's sample first on every tick, so a clock
    on vehicle 0 sees the start of every tick.
    """

    class StampedSource(harness.SyntheticSource):
        def __init__(self, *args, clock=None, **kwargs):
            super().__init__(*args, **kwargs)
            self.clock = clock

        def imu_at_tick(self, k):
            if self.clock is not None:
                self.clock.pull(k)
            return super().imu_at_tick(k)

    return StampedSource


def scenario_sources(harness, noise, n, seed, clock=None):
    """n sources on seeded trajectories; vehicle 0 reports to `clock`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    cls = stamped_source_class(harness)
    return [cls(harness.SinusoidTrajectory.random(rng, pos_scale=0.6,
                                                  rot_scale=0.3),
                noise, v, seed, clock=clock if v == 0 else None)
            for v in range(n)]


def observation_ticks(rate_hz, imu_rate_hz, n_ticks):
    """Ticks that carry observations, on the scheduler's rounding rule."""
    if rate_hz <= 0.0:
        return set()
    period = imu_rate_hz / rate_hz
    out, j = set(), 1
    while (tick := int(math.ceil(j * period - 1e-9))) <= n_ticks:
        out.add(tick)
        j += 1
    return out


def expected_messages(n, n_landmarks, n_epochs):
    """Bus messages of a distributed run with both channels on each epoch.

    Every update exchanges n propagation factors and one broadcast; an
    inter-vehicle update adds a peer-state request and its reply.
    """
    per_epoch = n * n_landmarks * (n + 1) + n * (n - 1) * (n + 3)
    return per_epoch * n_epochs

import numpy as np
import pytest

from meswarm import harness, models
from meswarm.harness import (MetricsRow, PriorConfig, ScheduleConfig,
                             SinusoidTrajectory, SyntheticSource,
                             _observation_ticks, channel_rng,
                             metrics_row, run_schedule, summarize_metrics,
                             synthesize_imu, synthesize_observation)
from meswarm.lie import make_state, rotation_error_angle
from meswarm.models import NoiseModel, WorldConfig

GRAVITY = np.array([0.0, 0.0, 9.81])


def quiet_noise():
    return NoiseModel(b_gyro=np.zeros((3, 3)), b_accel=np.zeros((3, 3)),
                      b_gyro_bias=np.zeros((3, 3)),
                      b_accel_bias=np.zeros((3, 3)))


def gentle_trajectory(seed=0):
    rng = np.random.default_rng(seed)
    return SinusoidTrajectory(
        pos_offset=rng.standard_normal(3),
        pos_amp=0.2 * np.ones((3, 1)),
        pos_freq_hz=0.05 * np.ones((3, 1)),
        pos_phase=(np.pi / 2) * np.ones((3, 1)),
        rot_axis=[0.0, 0.0, 1.0], rot_amp=0.0)


def world3():
    return WorldConfig(landmarks={0: np.array([2.0, 0.0, 1.0]),
                                  1: np.array([-1.0, 2.0, 0.5]),
                                  2: np.array([0.0, -2.0, 1.5])},
                       markers={i: 0.05 * np.eye(3)[i % 3] for i in range(6)})


class TestTrajectory:
    def test_finite_difference_kinematics(self):
        rng = np.random.default_rng(1)
        traj = SinusoidTrajectory.random(rng)
        eps = 1e-6
        for t in np.linspace(0.3, 9.7, 7):
            v_fd = (traj.position(t + eps) - traj.position(t - eps)) / (2 * eps)
            np.testing.assert_allclose(traj.velocity(t), v_fd, atol=1e-6)
            a_fd = (traj.velocity(t + eps) - traj.velocity(t - eps)) / (2 * eps)
            np.testing.assert_allclose(traj.acceleration(t), a_fd, atol=1e-5)
            # body rate from the rotation's finite difference
            r = traj.rotation(t)
            dr = (traj.rotation(t + eps) - traj.rotation(t - eps)) / (2 * eps)
            omega_hat = r.T @ dr
            w_fd = np.array([omega_hat[2, 1], omega_hat[0, 2], omega_hat[1, 0]])
            np.testing.assert_allclose(traj.angular_velocity_body(t), w_fd,
                                       atol=1e-6)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            SinusoidTrajectory(rot_axis=[0.0, 0.0, 0.0])


class TestScheduleConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ScheduleConfig(imu_rate_hz=0.0)
        with pytest.raises(ValueError):
            ScheduleConfig(landmark_rate_hz=-1.0)
        with pytest.raises(ValueError):
            ScheduleConfig(landmark_rate_hz=400.0)

    def test_observation_ticks_round_up(self):
        assert _observation_ticks(10.0, 200.0, 60) == [20, 40, 60]
        assert _observation_ticks(3.0, 200.0, 200) == [67, 134, 200]
        assert _observation_ticks(0.0, 200.0, 100) == []


class TestImuSynthesis:
    def test_static_hover(self):
        traj = SinusoidTrajectory()  # constant pose at the origin
        samples, bg, ba = synthesize_imu(traj, quiet_noise(), GRAVITY, 10,
                                         0.005, seed=0, vehicle=0)
        for s in samples:
            np.testing.assert_array_equal(s.gyro, 0.0)
            np.testing.assert_allclose(s.accel, GRAVITY, atol=1e-15)
        np.testing.assert_array_equal(bg[-1], 0.0)

    def test_fixed_seed_bit_identical(self):
        traj = gentle_trajectory()
        noise = NoiseModel()
        a = synthesize_imu(traj, noise, GRAVITY, 50, 0.005, seed=7, vehicle=2)
        b = synthesize_imu(traj, noise, GRAVITY, 50, 0.005, seed=7, vehicle=2)
        for sa, sb in zip(a[0], b[0]):
            np.testing.assert_array_equal(sa.gyro, sb.gyro)
            np.testing.assert_array_equal(sa.accel, sb.accel)

    def test_constant_bias_mode(self):
        traj = gentle_trajectory()
        _, bg, ba = synthesize_imu(traj, NoiseModel(), GRAVITY, 50, 0.005,
                                   seed=1, vehicle=0,
                                   gyro_bias0=[0.02, 0.0, 0.0],
                                   accel_bias0=[0.0, 0.2, 0.0],
                                   bias_walk=False)
        np.testing.assert_array_equal(bg[0], bg[-1])
        np.testing.assert_array_equal(ba[-1], [0.0, 0.2, 0.0])

    def test_bias_walk_moves(self):
        traj = gentle_trajectory()
        _, bg, _ = synthesize_imu(traj, NoiseModel(), GRAVITY, 50, 0.005,
                                  seed=1, vehicle=0, bias_walk=True)
        assert np.linalg.norm(bg[-1]) > 0.0


class TestObservationSynthesis:
    def test_zero_d_exact(self):
        rng = np.random.default_rng(2)
        world = world3()
        truth = [make_state(np.eye(3), [1.0, 0.0, 0.0], np.zeros(3))]
        obs = synthesize_observation(truth, world, models.LANDMARK, 0, 0,
                                     np.zeros((3, 3)), rng, 0)
        np.testing.assert_array_equal(
            obs.y, models.predict_landmark(truth[0], world.landmark(0)))

    def test_seeded_reproducibility(self):
        world = world3()
        truth = [make_state(np.eye(3), np.zeros(3), np.zeros(3))]
        d = 0.05 * np.eye(3)
        a = synthesize_observation(truth, world, models.LANDMARK, 0, 1, d,
                                   np.random.default_rng(9), 0)
        b = synthesize_observation(truth, world, models.LANDMARK, 0, 1, d,
                                   np.random.default_rng(9), 0)
        np.testing.assert_array_equal(a.y, b.y)

    def test_monte_carlo_covariance(self):
        rng_d = np.random.default_rng(3)
        d = rng_d.standard_normal((3, 3)) + 2.0 * np.eye(3)
        world = world3()
        truth = [make_state(np.eye(3), np.zeros(3), np.zeros(3))]
        h = models.predict_landmark(truth[0], world.landmark(0))
        rng = np.random.default_rng(4)
        draws = np.empty((100_000, 3))
        for i in range(draws.shape[0]):
            draws[i] = synthesize_observation(truth, world, models.LANDMARK,
                                              0, 0, d, rng, 0).y - h
        cov = np.cov(draws.T)
        ref = d @ d.T
        np.testing.assert_allclose(cov, ref, atol=0.05 * np.linalg.norm(ref, 2))


class TestMetrics:
    def test_exact_estimate_gives_zero(self):
        x = make_state(np.eye(3), [1.0, 2.0, 3.0], [0.1, 0.0, 0.0])
        row = metrics_row(0.5, 0, x, x)
        assert (row.pos_err, row.vel_err, row.gyro_bias_err,
                row.accel_bias_err) == (0.0, 0.0, 0.0, 0.0)
        assert row.rot_err < 1e-7

    def test_unit_offset(self):
        truth = make_state(np.eye(3), np.zeros(3), np.zeros(3))
        est = make_state(np.eye(3), [1.0, 0.0, 0.0], np.zeros(3))
        assert metrics_row(0.0, 0, est, truth).pos_err == 1.0

    def test_recompute_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            truth = make_state(np.eye(3), rng.standard_normal(3),
                               rng.standard_normal(3), rng.standard_normal(3),
                               rng.standard_normal(3))
            est = make_state(truth.rot, truth.pos + 1e-3 * rng.standard_normal(3),
                             truth.vel + 1e-3 * rng.standard_normal(3),
                             truth.gyro_bias, truth.accel_bias)
            row = metrics_row(0.0, 0, est, truth)
            assert abs(row.pos_err
                       - np.sqrt(np.sum((est.pos - truth.pos) ** 2))) <= 1e-12
            assert abs(row.vel_err
                       - np.sqrt(np.sum((est.vel - truth.vel) ** 2))) <= 1e-12
            assert abs(row.rot_err
                       - rotation_error_angle(est.rot, truth.rot)) <= 1e-12

    def test_summary_shape_and_split(self):
        rows = [MetricsRow(t, 0, 1.0 if t < 10 else 3.0, 0.1, 0.2, 0.01, 0.02)
                for t in (0.0, 5.0, 10.0, 15.0)]
        summary = summarize_metrics(rows)
        assert [s[0] for s in summary] == [
            "Position", "Rotation", "Linear Velocity", "IMU Gyro Bias",
            "IMU Accel. Bias"]
        name, unit, whole, post = summary[0]
        assert unit == "m"
        assert whole == pytest.approx(2.0)
        assert post == pytest.approx(3.0)


class TestRunSchedule:
    def test_dead_reckoning_tracks_truth(self):
        cfg = ScheduleConfig(duration_s=5.0, landmark_rate_hz=0.0,
                             intervehicle_rate_hz=0.0, seed=1)
        noise = quiet_noise()
        src = SyntheticSource(gentle_trajectory(), noise, 0, cfg.seed)
        res = run_schedule(cfg, harness.MODE_NONE, [src], world3(), noise,
                           prior=PriorConfig(pos_offset_m=0.0,
                                             rot_offset_rad=0.0))
        assert max(r.pos_err for r in res.rows) < 1e-3
        assert res.update_count == 0
        assert res.bus_records == []

    def test_unknown_mode_rejected(self):
        cfg = ScheduleConfig(duration_s=0.1)
        noise = quiet_noise()
        src = SyntheticSource(gentle_trajectory(), noise, 0, 0)
        with pytest.raises(ValueError):
            run_schedule(cfg, "telepathy", [src], world3(), noise)

    def test_determinism(self):
        cfg = ScheduleConfig(duration_s=2.0, seed=11,
                             dropout_landmark=0.2, dropout_intervehicle=0.2)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        world = world3()

        def one_run():
            rng = np.random.default_rng(0)
            srcs = [SyntheticSource(SinusoidTrajectory.random(rng), noise, v,
                                    cfg.seed) for v in range(2)]
            return run_schedule(cfg, harness.MODE_DISTRIBUTED, srcs, world,
                                noise)

        a, b = one_run(), one_run()
        assert a.rows == b.rows
        assert a.bus_records == b.bus_records
        assert a.update_count == b.update_count > 0

    def test_distributed_bus_silence_between_observations(self):
        cfg = ScheduleConfig(duration_s=1.0, seed=3)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        rng = np.random.default_rng(1)
        srcs = [SyntheticSource(SinusoidTrajectory.random(rng), noise, v,
                                cfg.seed) for v in range(2)]
        res = run_schedule(cfg, harness.MODE_DISTRIBUTED, srcs, world3(),
                           noise)
        assert res.bus_records
        obs_ticks = set(_observation_ticks(10.0, 200.0, 200))
        assert set(rec["tick"] for rec in res.bus_records) <= obs_ticks

    def test_central_mode_logs_nothing(self):
        cfg = ScheduleConfig(duration_s=0.5, seed=3)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3))
        src = SyntheticSource(gentle_trajectory(), noise, 0, cfg.seed)
        res = run_schedule(cfg, harness.MODE_CENTRAL, [src], world3(), noise)
        assert res.bus_records == []
        assert res.update_count > 0

    def test_collaboration_beats_isolation(self):
        cfg = ScheduleConfig(duration_s=20.0, seed=5)
        noise = NoiseModel(b_gyro=0.005 * np.eye(3), b_accel=0.02 * np.eye(3),
                           b_gyro_bias=1e-5 * np.eye(3),
                           b_accel_bias=1e-4 * np.eye(3),
                           d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        world = world3()

        def sources():
            rng = np.random.default_rng(2)
            return [SyntheticSource(
                SinusoidTrajectory.random(rng, pos_scale=0.6, rot_scale=0.3),
                noise, v, cfg.seed) for v in range(3)]

        res_none = run_schedule(cfg, harness.MODE_NONE, sources(), world, noise)
        res_central = run_schedule(cfg, harness.MODE_CENTRAL, sources(), world,
                                   noise)
        pos_none = res_none.summary[0][3]       # post-transient mean
        pos_central = res_central.summary[0][3]
        assert pos_central < pos_none


class TestChannelRng:
    def test_independent_streams(self):
        a = channel_rng(0, 1, 2, 3).standard_normal(4)
        b = channel_rng(0, 1, 2, 3).standard_normal(4)
        c = channel_rng(0, 1, 2, 4).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import cli, harness, models
from meswarm.distributed import encode_message
from meswarm.harness import (METRICS_DTYPE, PriorConfig, ScheduleConfig,
                             SinusoidTrajectory, SyntheticSource,
                             _observation_ticks, channel_rng,
                             metrics_row, run_schedule, summarize_metrics,
                             synthesize_imu, synthesize_observation)
from meswarm.joint import JointFilter
from meswarm.kernels import so3_exp
from meswarm.lie import (STATE_DOF, VehicleState, make_state,
                         rotation_error_angle, stack_states)
from meswarm.models import NoiseModel, WorldConfig
from test_acceptance import scenario_noise, scenario_sources, scenario_world
from test_distributed import (assert_same_message, columns, decode_message,
                              strict_body)
from test_models import stack_samples

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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), terms=st.integers(1, 3),
           n_ticks=st.integers(1, 80), dt=st.floats(1e-3, 0.05))
    def test_prepared_truth_equals_truth_state(self, seed, terms, n_ticks,
                                               dt):
        """The truth a source computes for all ticks at once is, tick by
        tick, the trajectory's truth at k dt with the bias of IMU sample k
        (the final tick reuses the last sample's)."""
        rng = np.random.default_rng(seed)
        traj = SinusoidTrajectory.random(rng, terms=terms)
        noise = NoiseModel(b_gyro_bias=1e-2 * np.eye(3),
                           b_accel_bias=1e-1 * np.eye(3))
        src = SyntheticSource(traj, noise, vehicle=1, seed=seed)
        src.prepare(n_ticks, dt)
        _, bg, ba = synthesize_imu(traj, noise, src.gravity, n_ticks, dt,
                                   seed, 1)
        for k in range(n_ticks + 1):
            j = min(k, n_ticks - 1)
            want = traj.truth_state(k * dt, bg[j], ba[j])
            got = src.truth_at_tick(k)
            for name in harness._STATE_FIELDS:
                w = getattr(want, name)
                gap = np.max(np.abs(getattr(got, name) - w))
                assert gap <= 1e-15 * max(1.0, np.max(np.abs(w))), (k, name)


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


def synthesize_imu_loop(trajectory, noise, gravity, n_ticks, dt, seed,
                        vehicle, gyro_bias0=None, accel_bias0=None,
                        bias_walk=True):
    """Tick-by-tick reference for synthesize_imu: four 3-vector draws and
    the products of one tick at a time."""
    rng_g = channel_rng(seed, harness._CH_GYRO, vehicle, 0)
    rng_a = channel_rng(seed, harness._CH_ACCEL, vehicle, 0)
    rng_bg = channel_rng(seed, harness._CH_GYRO_WALK, vehicle, 0)
    rng_ba = channel_rng(seed, harness._CH_ACCEL_WALK, vehicle, 0)
    bg = np.zeros(3) if gyro_bias0 is None else np.asarray(gyro_bias0, float)
    ba = np.zeros(3) if accel_bias0 is None else np.asarray(accel_bias0, float)
    sqdt = np.sqrt(dt)
    dt_ns = int(round(1e9 * dt))
    samples, gyro_biases, accel_biases = [], [], []
    for k in range(n_ticks):
        t = k * dt
        gyro_biases.append(bg.copy())
        accel_biases.append(ba.copy())
        u_w = (trajectory.angular_velocity_body(t) + bg
               + noise.b_gyro @ rng_g.standard_normal(3))
        u_a = (trajectory.rotation(t).T @ (trajectory.acceleration(t)
                                           + gravity)
               + ba + noise.b_accel @ rng_a.standard_normal(3))
        samples.append(models.ImuSample(u_w, u_a, k * dt_ns))
        if bias_walk:
            bg = bg + noise.b_gyro_bias @ (sqdt * rng_bg.standard_normal(3))
            ba = ba + noise.b_accel_bias @ (sqdt * rng_ba.standard_normal(3))
    return samples, gyro_biases, accel_biases


class TestImuSynthesis:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_ticks=st.integers(1, 400),
           dt=st.floats(1e-3, 0.05), bias_walk=st.booleans(),
           diagonal=st.booleans())
    def test_equals_tick_by_tick_loop(self, seed, n_ticks, dt, bias_walk,
                                      diagonal):
        """The batched draws are the loop's draws; its products and the
        summed bias walk round differently only in the last bits, so every
        channel agrees within 1e-15 of max(1, its largest entry)."""
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 2.0, (4, 1, 1)) * np.array(
            [[[0.005]], [[0.02]], [[1e-2]], [[1e-1]]])
        mats = (np.eye(3) if diagonal else rng.standard_normal((4, 3, 3)))
        noise = NoiseModel(*(scales * mats))
        traj = SinusoidTrajectory.random(rng, terms=2)
        kw = dict(gyro_bias0=rng.standard_normal(3) * 1e-2,
                  accel_bias0=rng.standard_normal(3) * 1e-1,
                  bias_walk=bias_walk)
        got = synthesize_imu(traj, noise, GRAVITY, n_ticks, dt, seed, 2, **kw)
        want = synthesize_imu_loop(traj, noise, GRAVITY, n_ticks, dt, seed,
                                   2, **kw)
        assert [s.t_ns for s in got[0]] == [s.t_ns for s in want[0]]
        pairs = [([s.gyro for s in got[0]], [s.gyro for s in want[0]]),
                 ([s.accel for s in got[0]], [s.accel for s in want[0]]),
                 (got[1], want[1]), (got[2], want[2])]
        for g, w in pairs:
            assert len(g) == n_ticks
            g, w = np.array(g), np.array(w)
            assert np.max(np.abs(g - w)) <= 1e-15 * max(1.0, np.abs(w).max())

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

    # rotation errors include both ends of [0, pi], where arccos is steep
    ANGLES = (0.0, 1e-9, 1e-5, 0.3, np.pi - 1e-5, np.pi - 1e-9, np.pi)

    def _pairs(self, count, seed):
        rng = np.random.default_rng(seed)
        rots = ScipyRotation.random(count, random_state=seed).as_matrix()
        out = []
        for i in range(count):
            axis = rng.standard_normal(3)
            angle = self.ANGLES[i % len(self.ANGLES)]
            truth = make_state(rots[i], rng.standard_normal(3),
                               rng.standard_normal(3), rng.standard_normal(3),
                               rng.standard_normal(3))
            est = make_state(
                truth.rot @ so3_exp(angle * axis / np.linalg.norm(axis)),
                truth.pos + 1e-3 * rng.standard_normal(3),
                truth.vel + 1e-3 * rng.standard_normal(3),
                truth.gyro_bias + 1e-4 * rng.standard_normal(3),
                truth.accel_bias)
            out.append((est, truth, angle))
        return out

    def test_recompute_oracle(self):
        for est, truth, angle in self._pairs(35, 5):
            row = metrics_row(0.0, 0, est, truth)
            assert abs(row.pos_err
                       - np.sqrt(np.sum((est.pos - truth.pos) ** 2))) <= 1e-12
            assert abs(row.vel_err
                       - np.sqrt(np.sum((est.vel - truth.vel) ** 2))) <= 1e-12
            assert abs(row.gyro_bias_err - np.sqrt(np.sum(
                (est.gyro_bias - truth.gyro_bias) ** 2))) <= 1e-12
            assert row.accel_bias_err == 0.0
            assert abs(row.rot_err
                       - rotation_error_angle(est.rot, truth.rot)) <= 1e-12
            assert abs(row.rot_err - angle) <= 1e-7

    def test_stacked_equals_rows(self):
        """One call on (tick, vehicle) stacks gives, entry by entry, the
        row of the single-pair call, to the last bit."""
        pairs = self._pairs(35, 6)
        shape = (5, 7)

        def grid(states):
            flat = stack_states(states)
            return VehicleState(*(getattr(flat, name).reshape(
                shape + getattr(flat, name).shape[1:])
                for name in harness._STATE_FIELDS))

        t = 0.01 * np.arange(shape[0])[:, None]
        vehicle = np.arange(shape[1])
        got = metrics_row(t, vehicle, grid([p[0] for p in pairs]),
                          grid([p[1] for p in pairs]))
        assert got.dtype == METRICS_DTYPE and got.shape == shape
        assert np.array_equal(got.t, np.broadcast_to(t, shape))
        assert np.array_equal(got.vehicle, np.broadcast_to(vehicle, shape))
        for i, (est, truth, _) in enumerate(pairs):
            row = metrics_row(0.0, 0, est, truth)
            for name in ("pos_err", "rot_err", "vel_err", "gyro_bias_err",
                         "accel_bias_err"):
                stacked = getattr(got, name)
                assert stacked.shape == shape
                assert stacked[np.unravel_index(i, shape)] == getattr(row,
                                                                      name)

    def test_run_rows_are_tick_major(self):
        noise = NoiseModel()
        world = world3()
        sources = [SyntheticSource(gentle_trajectory(v), noise, v, 3)
                   for v in range(2)]
        cfg = ScheduleConfig(duration_s=0.1, seed=3)
        res = run_schedule(cfg, "central", sources, world, noise)
        assert [(r.t, r.vehicle) for r in res.rows] == [
            (k * 0.005, v) for k in range(21) for v in range(2)]
        assert res.rows.dtype == METRICS_DTYPE
        assert all(res.rows.dtype[name] == np.float64
                   for name in METRICS_DTYPE.names if name != "vehicle")
        last = [r for r in res.rows if r.t == res.rows[-1].t]
        for v, est in enumerate(res.estimates):
            want = metrics_row(0.1, v, est, sources[v].truth_at_tick(20))
            assert last[v].pos_err == want.pos_err
            assert last[v].rot_err == want.rot_err

    def test_summary_shape_and_split(self):
        rows = np.rec.fromrecords(
            [(t, 0, 1.0 if t < 10 else 3.0, 0.1, 0.2, 0.01, 0.02)
             for t in (0.0, 5.0, 10.0, 15.0)], dtype=METRICS_DTYPE)
        summary = summarize_metrics(rows)
        assert [s[0] for s in summary] == [
            "Position", "Rotation", "Linear Velocity", "IMU Gyro Bias",
            "IMU Accel. Bias"]
        name, unit, whole, post = summary[0]
        assert unit == "m"
        assert whole == pytest.approx(2.0)
        assert post == pytest.approx(3.0)


# -- columnar scoring against the per-row code it replaced ---------------------

Row = namedtuple("Row", METRICS_DTYPE.names)


def summarize_rows_oracle(rows, steady_after_s):
    """summarize_metrics as it read one row object per (tick, vehicle)."""
    out = []
    steady = [r for r in rows if r.t >= steady_after_s]
    for name, unit, attr in harness.SUMMARY_QUANTITIES:
        whole = float(np.mean([getattr(r, attr) for r in rows]))
        post = (float(np.mean([getattr(r, attr) for r in steady]))
                if steady else float("nan"))
        out.append((name, unit, whole, post))
    return out


@st.composite
def scored_runs(draw):
    """(record array, its rows as Python-valued Row tuples, a steady-state
    start): a tick-major run on a t grid of random step and length, errors
    spanning sixteen decades, and a start that is a grid time (the window
    then starts exactly there), between two grid times, or after the run
    (no steady window)."""
    n = draw(st.integers(1, 4))
    n_t = draw(st.one_of(st.integers(1, 50), st.integers(2000, 3000)))
    dt = draw(st.sampled_from([0.001, 0.005, 0.01, 0.1, 1.0 / 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    errs = rng.random((5, n_t, n)) * 10.0 ** rng.uniform(-12, 4, (5, n_t, n))
    t = dt * np.arange(n_t)[:, None]
    rec = np.rec.fromarrays(np.broadcast_arrays(t, np.arange(n), *errs),
                            dtype=METRICS_DTYPE).ravel()
    k = draw(st.integers(0, n_t - 1))
    start = draw(st.sampled_from([float(t[k, 0]), float(t[k, 0]) + 0.5 * dt,
                                  float(t[-1, 0]) + dt, 10.0]))
    return rec, [Row(*r) for r in rec.tolist()], start


class TestColumnarSummary:
    @settings(max_examples=60, deadline=None)
    @given(run=scored_runs())
    def test_equals_row_means_bit_for_bit(self, run):
        rec, rows, start = run
        got = summarize_metrics(rec, steady_after_s=start)
        want = summarize_rows_oracle(rows, start)
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for (_, _, whole, post), (_, _, w_whole, w_post) in zip(got, want):
            assert whole == w_whole
            assert post == w_post or (np.isnan(post) and np.isnan(w_post))
        assert np.isnan(got[0][3]) == (start > rec.t[-1])


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
        assert np.array_equal(a.rows, b.rows)
        assert [encode_message(m, t) for t, m in a.bus_records] == [
            encode_message(m, t) for t, m in b.bus_records]
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
        assert set(tick for tick, _ in res.bus_records) <= obs_ticks

    def test_bus_log_lines_are_those_rendered_at_delivery(self, tmp_path,
                                                          monkeypatch):
        """The log rendered after the run equals a render at delivery, so
        no message array is written in place once it is on the bus."""
        at_delivery = []

        class RenderingBus(harness.MessageBus):
            def deliver(self, tick, msg):
                at_delivery.append(encode_message(msg, tick) + "\n")
                return super().deliver(tick, msg)

        monkeypatch.setattr(harness, "MessageBus", RenderingBus)
        cfg = ScheduleConfig(duration_s=0.5, seed=4, dropout_landmark=0.2)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        rng = np.random.default_rng(2)
        srcs = [SyntheticSource(SinusoidTrajectory.random(rng), noise, v,
                                cfg.seed) for v in range(3)]
        res = run_schedule(cfg, harness.MODE_DISTRIBUTED, srcs, world3(),
                           noise)
        path = tmp_path / "bus.log"
        cli.write_bus_log(path, res.bus_records)
        kinds = {type(msg).__name__ for _, msg in res.bus_records}
        assert kinds == {"PropagationFactor", "PeerStateRequest",
                         "PeerStateReply", "UpdateBroadcast"}
        assert path.read_text() == "".join(at_delivery)

    def test_bus_log_decodes_to_the_recorded_messages(self, tmp_path):
        """bus.log of a run with inter-vehicle epochs, read back line by
        line, is the run's bus records: types, scalars and arrays bit for
        bit."""
        cfg = ScheduleConfig(duration_s=0.3, seed=5)
        noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                           d_intervehicle=0.05 * np.eye(3))
        rng = np.random.default_rng(3)
        srcs = [SyntheticSource(SinusoidTrajectory.random(rng), noise, v,
                                cfg.seed) for v in range(3)]
        res = run_schedule(cfg, harness.MODE_DISTRIBUTED, srcs, world3(),
                           noise)
        assert any(getattr(msg, "kind", None) == models.INTERVEHICLE
                   for _, msg in res.bus_records)
        path = tmp_path / "bus.log"
        cli.write_bus_log(path, res.bus_records)
        lines = path.read_text().splitlines()
        assert len(lines) == len(res.bus_records)
        for line, (tick, msg) in zip(lines, res.bus_records):
            body = strict_body(line)
            assert body["tick"] == tick
            assert_same_message(decode_message(body), msg)

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


def isolated_rows(cfg, sources, world, noise, prior):
    """Oracle for mode `none`: n one-vehicle filters, each fed its own
    landmark observations relabelled to vehicle 0, with the scheduler's
    seeded prior, noise and dropout streams.  Returns one metrics_row
    record per (tick, vehicle), in run_schedule's order."""
    n = len(sources)
    dt = 1.0 / cfg.imu_rate_hz
    dt_ns = int(round(1e9 * dt))
    n_ticks = cfg.n_ticks
    for src in sources:
        src.prepare(n_ticks, dt)
    pairs = [(v, lm) for v in range(n) for lm in sorted(world.landmarks)]
    obs_rngs = {(v, lm): channel_rng(cfg.seed, harness._CH_LANDMARK, v, lm)
                for v, lm in pairs}
    drop_rngs = {(v, lm): channel_rng(cfg.seed, harness._CH_DROP_LANDMARK,
                                      v, lm) for v, lm in pairs}
    epochs = set(_observation_ticks(cfg.landmark_rate_hz, cfg.imu_rate_hz,
                                    n_ticks))
    d = noise.d_matrix(models.LANDMARK)
    filters = [JointFilter(
        [harness._perturbed_prior(src.truth_at_tick(0), prior,
                                  channel_rng(cfg.seed, harness._CH_PRIOR,
                                              v, 0))],
        prior.k0_block(), world, noise) for v, src in enumerate(sources)]
    rows = [metrics_row(0.0, v, f.estimate()[0], src.truth_at_tick(0))
            for v, (f, src) in enumerate(zip(filters, sources))]
    for tick in range(1, n_ticks + 1):
        for f, src in zip(filters, sources):
            f.propagate(stack_samples([src.imu_at_tick(tick - 1)]),
                        dt)
        truths = [src.truth_at_tick(tick) for src in sources]
        for v, lm in (pairs if tick in epochs else ()):
            p = cfg.dropout_landmark
            if p > 0.0 and drop_rngs[(v, lm)].random() < p:
                continue
            obs = synthesize_observation(truths, world, models.LANDMARK, v,
                                         lm, d, obs_rngs[(v, lm)],
                                         tick * dt_ns)
            filters[v].update(models.Observation(models.LANDMARK, 0, lm,
                                                 obs.y, obs.t_ns))
        rows += [metrics_row(tick * dt, v, f.estimate()[0], truths[v])
                 for v, f in enumerate(filters)]
    return rows


def assert_none_equals_one_vehicle_filters(n, seed, rate_hz, dropout):
    noise = scenario_noise()
    world = scenario_world(n)
    prior = PriorConfig()
    cfg = ScheduleConfig(imu_rate_hz=100.0, landmark_rate_hz=rate_hz,
                         duration_s=2.0, dropout_landmark=dropout, seed=seed)
    res = run_schedule(cfg, harness.MODE_NONE,
                       scenario_sources(n, noise, seed, traj_seed=seed),
                       world, noise, prior=prior)
    want = isolated_rows(cfg, scenario_sources(n, noise, seed,
                                               traj_seed=seed),
                         world, noise, prior)
    assert len(res.rows) == len(want) == (cfg.n_ticks + 1) * n
    for got, exp in zip(res.rows, want):
        assert (got.t, got.vehicle) == (pytest.approx(exp.t), exp.vehicle)
        for name in ("pos_err", "rot_err", "vel_err", "gyro_bias_err",
                     "accel_bias_err"):
            assert abs(getattr(got, name) - getattr(exp, name)) <= 1e-9


class TestIsolatedOracle:
    """Mode `none` is the joint filter without the inter-vehicle channel;
    its cross blocks stay zero, so it must match n one-vehicle filters."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**16),
           rate_hz=st.sampled_from([1.0, 2.0, 10.0]),
           dropout=st.sampled_from([0.0, 0.3]))
    # once failing at 4.1e-9; within 1e-15 since the SO(3) coefficients
    # take their series up to |theta| = 0.25
    @example(n=2, seed=6789, rate_hz=1.0, dropout=0.3)
    # once failing at 7.1e-7 on an indefinite gain; passes since `none`
    # updates each vehicle's own diagonal block, as its oracle does
    @example(n=3, seed=3718, rate_hz=1.0, dropout=0.3)
    def test_none_equals_one_vehicle_filters(self, n, seed, rate_hz,
                                             dropout):
        assert_none_equals_one_vehicle_filters(n, seed, rate_hz, dropout)

    # Draws of the property above seen to fail: the gain loses
    # definiteness, so both filters refuse an update as singular or their
    # rows part by more than 1e-9.
    @pytest.mark.xfail(strict=True, reason=(
        "the gain loses definiteness (ROADMAP items 3 and 4: definiteness-"
        "preserving propagation, one numerical-failure policy)"))
    @pytest.mark.parametrize("n, seed, rate_hz, dropout", [
        (2, 286, 10.0, 0.0), (2, 286, 10.0, 0.3), (3, 1039, 2.0, 0.0)])
    def test_known_failing_draws(self, n, seed, rate_hz, dropout):
        assert_none_equals_one_vehicle_filters(n, seed, rate_hz, dropout)


def recorded_gains(mode, cfg, n):
    """Run the scenario and return the filter's gain at the end of every
    tick before the last: joint gains (15n x 15n) in `none` and `central`,
    node columns (n, 15n, 15) in `distributed`."""
    noise = scenario_noise()
    gains = []

    class RecordingFilter(JointFilter):
        def propagate(self, u, dt):
            gains.append(self.gain())
            return super().propagate(u, dt)

    class RecordingNodes(harness.VehicleNode):
        def propagate_local(self, v, u, dt):
            if v == 0:
                gains.append(self.k_col.copy())
            return super().propagate_local(v, u, dt)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "JointFilter", RecordingFilter)
        m.setattr(harness, "VehicleNode", RecordingNodes)
        run_schedule(cfg, mode, scenario_sources(n, noise, cfg.seed),
                     scenario_world(n), noise, record_bus=False)
    assert len(gains) == cfg.n_ticks
    return gains


def cross_blocks(k, n):
    """The n(n-1) off-diagonal 15x15 blocks of a joint gain."""
    blocks = k.reshape(n, STATE_DOF, n, STATE_DOF).swapaxes(1, 2)
    return blocks[~np.eye(n, dtype=bool)]


class TestZeroCrossBlocks:
    """Without an applied inter-vehicle update the joint gain stays block
    diagonal, which is why the joint filter keeps no propagation factor
    until then: `none` keeps every cross block of gain() exactly zero, and
    so does `central` up to its first inter-vehicle epoch.  From that epoch
    on `central`'s gain equals the nodes' columns at every epoch."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_cross_blocks(self, n, seed):
        cfg = ScheduleConfig(imu_rate_hz=100.0, landmark_rate_hz=10.0,
                             intervehicle_rate_hz=5.0, duration_s=1.0,
                             seed=seed)
        for k in recorded_gains(harness.MODE_NONE, cfg, n):
            assert not cross_blocks(k, n).any()

        epochs = _observation_ticks(cfg.intervehicle_rate_hz,
                                    cfg.imu_rate_hz, cfg.n_ticks)
        first = min(epochs)
        central = recorded_gains(harness.MODE_CENTRAL, cfg, n)
        nodes = recorded_gains(harness.MODE_DISTRIBUTED, cfg, n)
        for k in central[:first]:
            assert not cross_blocks(k, n).any()
        assert cross_blocks(central[first], n).any()
        # node columns are complete only where an epoch's last update left
        # them; criterion 5 holds the two filters to 1e-8
        for tick in epochs:
            if tick < cfg.n_ticks:
                np.testing.assert_allclose(
                    nodes[tick], columns(central[tick], n), rtol=0,
                    atol=1e-8)


class TestDefinitenessWarnings:
    """The sparse-observation regression scenario (criterion 7's six
    vehicles at 1-2 Hz observations).  A filter checks its propagated gain
    densely at an epoch's first update and each update's m x m verdict, so
    it warns in an epoch iff the dense check every update used to run (the
    oracle here) fails after one of that epoch's updates, and only once.
    The oracle hands the filter one observation per call, so it sees every
    update; tests/test_rounds.py ties that to a tick's rounds bit for
    bit."""

    @staticmethod
    def verdicts(monkeypatch, caplog, mode, n, rate_hz, duration_s):
        """(filter, epoch) keys that warned, keys whose dense check failed
        after an update, and the number of warnings."""
        update = JointFilter.update
        warned, failed = set(), set()

        def pd_warnings():
            return sum("lost positive definiteness" in rec.getMessage()
                       for rec in caplog.records)

        def checked(self, *observations):
            for obs in observations:
                before = pd_warnings()
                update(self, obs)
                key = (id(self), obs.t_ns)
                if pd_warnings() > before:
                    warned.add(key)
                try:
                    np.linalg.cholesky(self.gain())
                except np.linalg.LinAlgError:
                    failed.add(key)
            return self

        monkeypatch.setattr(JointFilter, "update", checked)
        noise = scenario_noise()
        cfg = ScheduleConfig(duration_s=duration_s, seed=7,
                             landmark_rate_hz=rate_hz,
                             intervehicle_rate_hz=rate_hz)
        with caplog.at_level("WARNING", logger="meswarm.joint"):
            run_schedule(cfg, mode, scenario_sources(n, noise, seed=7),
                         scenario_world(n), noise, record_bus=False)
        return warned, failed, pd_warnings()

    @pytest.mark.parametrize("mode", [harness.MODE_NONE,
                                      harness.MODE_CENTRAL])
    @pytest.mark.parametrize("n,rate_hz,duration_s",
                             [(6, 1.0, 5.0), (4, 2.0, 6.0)])
    def test_epoch_warns_iff_dense_check_fails(self, monkeypatch, caplog,
                                               mode, n, rate_hz, duration_s):
        warned, failed, count = self.verdicts(monkeypatch, caplog, mode, n,
                                              rate_hz, duration_s)
        assert failed
        assert warned == failed
        assert count == len(warned)

    @pytest.mark.parametrize("mode", [harness.MODE_NONE,
                                      harness.MODE_CENTRAL])
    def test_ten_hz_run_stays_definite(self, monkeypatch, caplog, mode):
        warned, failed, count = self.verdicts(monkeypatch, caplog, mode, 6,
                                              10.0, 3.0)
        assert count == 0 and not failed


class TestChannelRng:
    def test_independent_streams(self):
        a = channel_rng(0, 1, 2, 3).standard_normal(4)
        b = channel_rng(0, 1, 2, 3).standard_normal(4)
        c = channel_rng(0, 1, 2, 4).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

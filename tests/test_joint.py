import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from meswarm import harness, joint, models
from meswarm.distributed import VehicleNode
from meswarm.joint import JointFilter, UpdateSingularError, block_diag_prior
from meswarm.lie import STATE_DOF, make_state
from meswarm.models import ImuSample, NoiseModel, Observation, WorldConfig
from test_lie import hat5, identity_state, pose_matrix
from test_models import dense_hessian, dense_residual, stack_samples


def random_state(rng):
    rot = ScipyRotation.random(random_state=np.random.RandomState(
        rng.integers(2**31))).as_matrix()
    return make_state(rot, rng.standard_normal(3), rng.standard_normal(3),
                      0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))


def still_imu(n=1):
    """One tick's zero IMU rows for n vehicles, stacked as the filter
    takes them."""
    return stack_samples([ImuSample(np.zeros(3), np.zeros(3), 0)] * n)


def joint_gain(flt):
    """The 15n x 15n joint gain of a JointFilter or a VehicleNode, as a new
    array.  An uncoupled JointFilter's is the block-diagonal matrix of its
    diagonal blocks.  A coupled one's cross blocks are brought up to the
    current tick on a copy of its columns, as its next update brings them:
    every vehicle's factor absorbed in vehicle order.  A VehicleNode's
    columns are read as they stand, current after a factor exchange."""
    if flt.k_col is None:
        return block_diag_prior(flt._kdiag)
    k_col = flt.k_col.copy()
    if isinstance(flt, JointFilter) and flt._stale:
        for j, others in enumerate(flt._others):
            joint.absorb_factor(k_col, j, others, flt._lam[j], flt._lam)
    return np.hstack(k_col)


def random_spd(rng, dim, scale=0.1):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) + 0.5 * np.eye(dim)


# -- both forms of the filter, as one network ---------------------------------

def both_filters(states, k0, world, noise):
    """The joint filter and the decentralised nodes started from one
    15n x 15n prior, the nodes from its columns."""
    return (JointFilter(states, k0, world, noise),
            VehicleNode(states, np.hsplit(k0, len(states)), world, noise))


def still_tick(flt):
    """One IMU tick of zero rows, 5 ms, through either filter's entry."""
    if isinstance(flt, JointFilter):
        flt.propagate(still_imu(flt.n), 0.005)
    else:
        for v in range(flt.n):
            flt.propagate_local(v, ImuSample(np.zeros(3), np.zeros(3), 0),
                                0.005)


def apply_observation(flt, obs):
    """One observation through either filter: the joint filter's update,
    or the nodes' factor exchange, reply, broadcast and apply."""
    if isinstance(flt, JointFilter):
        flt.update(obs)
    else:
        harness._distributed_update(flt, obs, 0, harness.MessageBus())


def snapshot(flt):
    """The bits of a filter's gain and estimate, its observation clock and
    its time."""
    state = b"".join(np.ascontiguousarray(getattr(flt.state, f.name))
                     .tobytes() for f in dataclasses.fields(flt.state))
    return (joint_gain(flt).tobytes(), state, dict(flt._last_obs_ns),
            flt.t_ns)


def assert_refused_alike(exc_type, match, *attempts):
    """Each (filter, call) attempt raises exc_type itself, every one with
    the same text, which `match` matches, and leaves the filter's gain,
    estimate, clock and time with the bits they had.  A filter of None is
    a construction: it has nothing to keep."""
    texts = set()
    for flt, call in attempts:
        before = None if flt is None else snapshot(flt)
        with pytest.raises(exc_type, match=match) as info:
            call()
        assert type(info.value) is exc_type
        texts.add(str(info.value))
        assert before is None or snapshot(flt) == before
    assert len(texts) == 1


@pytest.fixture
def world():
    return WorldConfig(landmarks={0: np.array([1.0, 2.0, 0.5]),
                                  1: np.array([-1.0, 0.0, 1.0]),
                                  2: np.array([0.0, -2.0, 2.0])})


@pytest.fixture
def noise():
    return NoiseModel(b_gyro=0.01 * np.eye(3), b_accel=0.05 * np.eye(3),
                      b_gyro_bias=1e-4 * np.eye(3),
                      b_accel_bias=1e-3 * np.eye(3),
                      d_landmark=0.05 * np.eye(3),
                      d_intervehicle=0.05 * np.eye(3))


class TestInit:
    """The joint filter and the nodes accept and refuse the same priors,
    with the same texts: both are a joint.Network."""

    def test_identity_prior(self, world, noise):
        for f in both_filters([identity_state()], np.eye(15), world, noise):
            np.testing.assert_array_equal(joint_gain(f), np.eye(15))
            assert len(f.estimate()) == 1

    @staticmethod
    def refused(match, states, k0, world, noise, k_col=None):
        """JointFilter refuses k0 and VehicleNode its columns (or k_col),
        alike."""
        k_col = np.hsplit(k0, len(states)) if k_col is None else k_col
        assert_refused_alike(
            ValueError, match,
            (None, lambda: JointFilter(states, k0, world, noise)),
            (None, lambda: VehicleNode(states, k_col, world, noise)))

    def test_rank_deficient_prior_rejected(self, world, noise):
        k0 = np.eye(15)
        k0[0, 0] = 0.0
        self.refused("^K0 must be positive definite$", [identity_state()],
                     k0, world, noise)

    def test_wrong_shape_rejected(self, world, noise):
        self.refused("^K0 has the wrong shape for the vehicle count$",
                     [identity_state()] * 2, np.eye(15), world, noise,
                     k_col=np.eye(15)[None])

    @pytest.mark.parametrize("case", ["asymmetric", "indefinite"])
    def test_cross_block_refused(self, world, noise, case):
        """A cross block is checked as the diagonal blocks are: the nodes
        once accepted an asymmetric one and a symmetric indefinite one."""
        k0 = np.eye(30)
        k0[0, 15] = 5.0
        if case == "indefinite":
            k0[15, 0] = 5.0
        word = "symmetric" if case == "asymmetric" else "positive definite"
        self.refused(f"^K0 must be {word}$", [identity_state()] * 2, k0,
                     world, noise)

    def test_block_diag_prior_has_zero_cross_blocks(self, world, noise):
        rng = np.random.default_rng(0)
        k0 = block_diag_prior([random_spd(rng, 15), random_spd(rng, 15)])
        for f in both_filters([identity_state()] * 2, k0, world, noise):
            np.testing.assert_array_equal(joint_gain(f)[:15, 15:], 0.0)


class TestPropagate:
    def test_free_fall_semantics(self, world, noise):
        f = JointFilter([identity_state()], np.eye(15), world, noise)
        dt = 0.005
        f.propagate(still_imu(), dt)
        est = f.estimate()[0]
        np.testing.assert_allclose(est.vel, -world.gravity * dt, atol=1e-12)
        np.testing.assert_allclose(est.rot, np.eye(3), atol=1e-12)

    def test_zero_dt_rejected(self, world, noise):
        """A period that is not a positive finite number is refused before
        anything moves, on an uncoupled and on a coupled gain: NaN and inf
        would otherwise make the state and every gain block non-finite,
        and then fail to advance the clock."""
        f = JointFilter([identity_state()], np.eye(15), world, noise)
        with pytest.raises(ValueError):
            f.propagate(still_imu(), 0.0)
        rng = np.random.default_rng(3)
        for k0 in (np.eye(30), random_spd(rng, 30, scale=0.02)):
            f = JointFilter([random_state(rng), random_state(rng)], k0,
                            world, noise)
            before = joint_gain(f), f.state, f.t_ns
            for dt in (0.0, -0.005, np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="positive and finite"):
                    f.propagate(still_imu(2), dt)
            np.testing.assert_array_equal(joint_gain(f), before[0])
            assert f.state is before[1] and f.t_ns == before[2] == 0
            f.propagate(still_imu(2), 0.005)
            assert f.t_ns == 5_000_000

    @pytest.mark.parametrize("n,shape", [(1, (3,)), (1, (2, 3)),
                                         (2, (1, 3)), (2, (3, 2))])
    def test_imu_rows_must_match_the_vehicle_count(self, world, noise, n,
                                                   shape):
        """propagate takes one (n, 3) row per vehicle, also for a single
        vehicle, and a wrong shape is refused before any state moves."""
        f = JointFilter([identity_state()] * n,
                        block_diag_prior([np.eye(15)] * n), world, noise)
        before = joint_gain(f)
        with pytest.raises(ValueError, match="IMU rows"):
            f.propagate(ImuSample(np.zeros(shape), np.zeros(shape), 0),
                        0.005)
        with pytest.raises(ValueError, match="IMU rows"):
            f.propagate(ImuSample(np.zeros((n, 3)), np.zeros(shape), 0),
                        0.005)
        assert f.t_ns == 0
        np.testing.assert_array_equal(joint_gain(f), before)
        f.propagate(still_imu(n), 0.005)
        assert f.t_ns == 5_000_000

    def test_forced_zero_dynamics_gain_growth(self, world, noise, monkeypatch):
        monkeypatch.setattr(models, "a_check_single",
                            lambda x, u: np.zeros((15, 15)))
        f = JointFilter([identity_state()], np.eye(15), world, noise)
        dt = 0.01
        f.propagate(still_imu(), dt)
        b = models.b_check_single(noise)
        expected = np.eye(15) + dt * noise.w_inverse_scale() * (b @ b.T)
        np.testing.assert_allclose(joint_gain(f), expected, atol=1e-15)

    def test_uncoupled_cross_blocks_stay_zero(self, world, noise):
        rng = np.random.default_rng(1)
        k0 = block_diag_prior([random_spd(rng, 15), random_spd(rng, 15)])
        f = JointFilter([random_state(rng), random_state(rng)], k0, world,
                        noise)
        for k in range(100):
            imu = [ImuSample(rng.standard_normal(3), rng.standard_normal(3),
                             k * 5_000_000) for _ in range(2)]
            f.propagate(stack_samples(imu), 0.005)
        np.testing.assert_array_equal(joint_gain(f)[:15, 15:], 0.0)


def rk4_reference(states, k, imu, world, noise, dt, substeps):
    """Fixed-step RK4 on the continuous IMU-only flow, in the 5x5 embedding."""
    n = len(states)
    poses = [pose_matrix(x) for x in states]
    biases = [(x.gyro_bias.copy(), x.accel_bias.copy()) for x in states]
    a_blocks = [models.a_check_single(states[i], imu[i]) for i in range(n)]
    a_full = sla.block_diag(*a_blocks)
    b = models.b_check_single(noise)
    bwb = sla.block_diag(*[noise.w_inverse_scale() * (b @ b.T)] * n)

    def lam_pose(p, i):
        rot, vel = p[:3, :3], p[:3, 4]
        bg, ba = biases[i]
        lam = np.zeros(15)
        lam[0:3] = imu[i].gyro - bg
        lam[3:6] = rot.T @ vel
        lam[6:9] = imu[i].accel - ba - rot.T @ world.gravity
        return hat5(lam)

    def deriv(poses, k):
        dp = [poses[i] @ lam_pose(poses[i], i) for i in range(n)]
        dk = a_full @ k + k @ a_full.T + bwb
        return dp, dk

    h = dt / substeps
    for _ in range(substeps):
        k1p, k1k = deriv(poses, k)
        p2 = [poses[i] + 0.5 * h * k1p[i] for i in range(n)]
        k2p, k2k = deriv(p2, k + 0.5 * h * k1k)
        p3 = [poses[i] + 0.5 * h * k2p[i] for i in range(n)]
        k3p, k3k = deriv(p3, k + 0.5 * h * k2k)
        p4 = [poses[i] + h * k3p[i] for i in range(n)]
        k4p, k4k = deriv(p4, k + h * k3k)
        poses = [poses[i] + h / 6.0 * (k1p[i] + 2 * k2p[i] + 2 * k3p[i] + k4p[i])
                 for i in range(n)]
        k = k + h / 6.0 * (k1k + 2 * k2k + 2 * k3k + k4k)
    return poses, k


class TestDiscreteVsContinuous:
    def test_propagate_matches_rk4(self, world, noise):
        rng = np.random.default_rng(2)
        dt = 2e-4
        for _ in range(10):
            states = [random_state(rng) for _ in range(2)]
            k0 = random_spd(rng, 30)
            f = JointFilter(states, k0, world, noise)
            imu = [ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0)
                   for _ in range(2)]
            assert np.all(k0[:15, 15:] != 0.0)  # exercises the cross blocks
            f.propagate(stack_samples(imu), dt)
            poses_ref, k_ref = rk4_reference(states, k0, imu, world, noise,
                                             dt, 100)
            k_err = np.linalg.norm(joint_gain(f) - k_ref) / np.linalg.norm(k_ref)
            assert k_err < 1e-6
            for i, est in enumerate(f.estimate()):
                p_err = (np.linalg.norm(pose_matrix(est) - poses_ref[i])
                         / np.linalg.norm(poses_ref[i]))
                assert p_err < 1e-6


def transcription_oracle(state, k, obs, world, noise, dt):
    """Literal single-vehicle update equations."""
    e = dense_hessian([state], obs, world, noise, dt)
    _, r = dense_residual([state], obs, world, noise, dt)
    k_new = np.linalg.inv(np.eye(15) + dt * k @ e) @ k
    from meswarm.lie import compose, group_exp
    x_new = compose(state, group_exp(dt * (k_new @ r)))
    return x_new, 0.5 * (k_new + k_new.T)


class TestUpdate:
    def test_zero_innovation_keeps_state(self, world, noise):
        rng = np.random.default_rng(3)
        x = random_state(rng)
        f = JointFilter([x], random_spd(rng, 15), world, noise)
        k_before = joint_gain(f)
        y = models.predict_landmark(x, world.landmark(0))
        f.update(Observation(models.LANDMARK, 0, 0, y, 0))
        est = f.estimate()[0]
        np.testing.assert_allclose(pose_matrix(est), pose_matrix(x),
                                   atol=1e-12)
        # the gain still contracts through the quadratic term
        assert np.linalg.norm(joint_gain(f)) < np.linalg.norm(k_before)

    def test_matches_transcription_oracle(self, world, noise):
        # a first arrival takes the nominal period
        noise = dataclasses.replace(noise, dt_landmark=0.08)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = random_state(rng)
            k0 = random_spd(rng, 15)
            f = JointFilter([x], k0, world, noise)
            obs = Observation(models.LANDMARK, 0, 1,
                              rng.standard_normal(3), 0)
            f.update(obs)
            x_ref, k_ref = transcription_oracle(x, k0, obs, world, noise, 0.08)
            np.testing.assert_allclose(joint_gain(f), k_ref, atol=1e-10)
            np.testing.assert_allclose(pose_matrix(f.estimate()[0]),
                                       pose_matrix(x_ref), atol=1e-10)

    def test_stale_observation_rejected(self, world, noise):
        f, nodes = both_filters([identity_state()], np.eye(15), world, noise)
        obs = Observation(models.LANDMARK, 0, 0, np.zeros(3), 0)
        for flt in (f, nodes):
            still_tick(flt)
        assert_refused_alike(ValueError, "is before filter time",
                             (f, lambda: f.update(obs)),
                             (nodes, lambda: nodes.originate_update(obs)))

    @pytest.mark.parametrize("stamp,word", [(0, "before"),
                                            (10_000_000, "after")])
    def test_off_time_observation_refused_before_any_update(
            self, world, noise, stamp, word):
        """A call's observations must all carry the filter time; one stale
        or future stamp refuses the whole call, naming both stamps.  The
        observing node refuses it alike, before its clock moves (it once
        took a future stamp and left the refusal to apply_update)."""
        f, nodes = both_filters([identity_state()] * 2, np.eye(30), world,
                                noise)
        for flt in (f, nodes):
            still_tick(flt)
        good = Observation(models.LANDMARK, 0, 0, np.zeros(3), 5_000_000)
        bad = Observation(models.LANDMARK, 1, 0, np.zeros(3), stamp)
        assert_refused_alike(
            ValueError,
            f"^observation at {stamp} ns is {word} filter time 5000000 ns$",
            (f, lambda: f.update(good, bad)),
            (nodes, lambda: nodes.originate_update(bad)))
        assert f._last_obs_ns == nodes._last_obs_ns == {}

    @pytest.mark.parametrize("coupled", [False, True])
    def test_unknown_landmark_refused_before_any_update(self, world, noise,
                                                        coupled):
        """An unknown landmark index refuses the whole call, on a coupled
        gain (updated one observation at a time) as on an uncoupled one
        (in rounds): the gain, the estimates and the observation clock
        stay as they were.  The observing node refuses it alike."""
        rng = np.random.default_rng(12)
        n = 3
        k0 = (random_spd(rng, n * STATE_DOF, scale=0.02) if coupled else
              block_diag_prior([random_spd(rng, STATE_DOF)
                                for _ in range(n)]))
        f, nodes = both_filters([random_state(rng) for _ in range(n)], k0,
                                world, noise)
        first = Observation(models.LANDMARK, 1, 0, rng.standard_normal(3),
                            5_000_000)
        for flt in (f, nodes):
            still_tick(flt)
            apply_observation(flt, first)
            still_tick(flt)
        assert f._last_obs_ns == nodes._last_obs_ns != {}
        good = [Observation(models.LANDMARK, v, 1, rng.standard_normal(3),
                            10_000_000) for v in range(n)]
        unknown = Observation(models.LANDMARK, 2, 99, np.zeros(3),
                              10_000_000)
        assert_refused_alike(
            models.ObservationError, "^unknown landmark index 99$",
            (f, lambda: f.update(*good, unknown)),
            (nodes, lambda: nodes.originate_update(unknown)))

    def test_gain_symmetry_after_fuzz(self, world, noise):
        """A coupled gain is held as its columns, as the nodes hold it,
        and is not symmetrised after an update: K_ij and K_ji are updated
        apart, so they stay each other's transpose to within rounding.
        This fuzz keeps the gain indefinite for most of its run, which
        amplifies that rounding; it stays within criterion 5's 1e-8."""
        rng = np.random.default_rng(6)
        states = [random_state(rng), random_state(rng)]
        f = JointFilter(states, random_spd(rng, 30, scale=0.02), world, noise)
        t_ns = 0
        updated = set()
        for _ in range(300):
            if rng.random() < 0.7:
                imu = [ImuSample(0.2 * rng.standard_normal(3),
                                 0.2 * rng.standard_normal(3), t_ns)
                       for _ in range(2)]
                f.propagate(stack_samples(imu), 0.005)
                t_ns += 5_000_000
            else:
                kind = models.LANDMARK if rng.random() < 0.5 else models.INTERVEHICLE
                observer = int(rng.integers(2))
                subject = (int(rng.integers(3)) if kind == models.LANDMARK
                           else 1 - observer)
                y = models.predict(f.estimate(), kind, observer, subject,
                                   world)
                y = y + 0.001 * rng.standard_normal(3)
                # the observation clock refuses a repeated stamp
                if (kind, observer, subject, t_ns) not in updated:
                    updated.add((kind, observer, subject, t_ns))
                    f.update(Observation(kind, observer, subject, y, t_ns))
            k = joint_gain(f)
            np.testing.assert_allclose(k, k.T, rtol=0,
                                       atol=1e-8 * np.abs(k).max())

    def test_same_tick_sequential_updates_depend_on_order(self, world, noise):
        rng = np.random.default_rng(7)
        x = random_state(rng)
        obs = []
        for i in range(2):
            y = models.predict_landmark(x, world.landmark(i)) + 0.05 * rng.standard_normal(3)
            obs.append(Observation(models.LANDMARK, 0, i, y, 0))
        f1 = JointFilter([x], random_spd(rng, 15), world, noise)
        f2 = JointFilter([x], joint_gain(f1), world, noise)
        f1.update(obs[0]); f1.update(obs[1])
        f2.update(obs[1]); f2.update(obs[0])
        assert not np.allclose(joint_gain(f1), joint_gain(f2), atol=1e-15)

    def test_landmark_updates_keep_cross_blocks_zero(self, world, noise):
        """A block-diagonal filter that sees only landmarks is n isolated
        filters: no propagation or update fills an off-diagonal block."""
        rng = np.random.default_rng(3)
        n = 3
        k0 = block_diag_prior([random_spd(rng, 15) for _ in range(n)])
        f = JointFilter([random_state(rng) for _ in range(n)], k0, world,
                        noise)
        off = ~np.eye(n, dtype=bool)
        t_ns = 0
        for _ in range(4):
            for _ in range(5):
                imu = [ImuSample(0.2 * rng.standard_normal(3),
                                 0.2 * rng.standard_normal(3), t_ns)
                       for _ in range(n)]
                f.propagate(stack_samples(imu), 0.005)
                t_ns += 5_000_000
            for observer in range(n):
                for lm in sorted(world.landmarks):
                    y = rng.standard_normal(3)
                    f.update(Observation(models.LANDMARK, observer, lm, y,
                                         t_ns))
                    blocks = joint._blocks(joint_gain(f), n)
                    np.testing.assert_array_equal(blocks[off], 0.0)


def dense_definite(k):
    """The dense check every update used to run: one 15n x 15n Cholesky."""
    try:
        np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        return False
    return True


class TestDefiniteness:
    """Where the gain's positive definiteness is checked, and the m x m
    verdict of a low-rank update against the dense check of its result."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           intervehicle=st.booleans(), dt=st.floats(1e-3, 1.0),
           data=st.data())
    def test_mxm_verdict_matches_dense_cholesky(self, seed, n, intervehicle,
                                                dt, data):
        observer = data.draw(st.integers(0, n - 1), label="observer")
        if intervehicle and n > 1:
            kind = models.INTERVEHICLE
            subject = data.draw(st.sampled_from(
                [v for v in range(n) if v != observer]), label="subject")
        else:
            kind, subject = models.LANDMARK, 0
        ix = models.update_indices(kind, observer, subject)
        rng = np.random.default_rng(seed)
        k = random_spd(rng, n * STATE_DOF, scale=10 ** rng.uniform(-2, 1))
        b = rng.standard_normal((len(ix), len(ix)))
        # dt E_ii spans definite and indefinite results of the update
        e_ii = 0.5 * (b + b.T) * 10 ** rng.uniform(-3, 0) / dt
        try:
            g = joint.gain_correction(k[:, ix], ix, e_ii, dt)
        except UpdateSingularError:
            assume(False)
        want = models._sym(k - g @ k[ix, :])
        eig = np.linalg.eigvalsh(want)
        assume(abs(eig[0]) > 1e-6 * np.max(np.abs(eig)))

        noise = NoiseModel(dt_landmark=dt, dt_intervehicle=dt)
        # the terms are mocked, but the landmark id is checked up front
        f = JointFilter([identity_state()] * n, k,
                        WorldConfig(landmarks={0: np.zeros(3)}), noise)
        obs = Observation(kind, observer, subject, np.zeros(3), 0)
        with mock.patch.object(models, "update_terms",
                               return_value=(np.zeros(len(ix)), e_ii)), \
                mock.patch.object(joint.log, "warning") as warning:
            f.update(obs)
        # the coupled gain is updated column by column, unsymmetrised
        np.testing.assert_allclose(joint_gain(f), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        assert warning.called == (not dense_definite(want))

    def test_one_dense_check_per_gain_rebuild(self, world, noise,
                                              monkeypatch):
        rng = np.random.default_rng(8)
        states = [random_state(rng), random_state(rng)]
        # loose measurements, so no propagation step breaks definiteness
        noise = dataclasses.replace(noise, d_landmark=np.eye(3),
                                    d_intervehicle=np.eye(3))
        f = JointFilter(states, random_spd(rng, 30, scale=0.02), world, noise)
        cholesky = np.linalg.cholesky
        sizes = []

        def counted(m):
            sizes.append(len(m))
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        t_ns = 0
        for _ in range(3):
            for _ in range(4):
                imu = [ImuSample(0.2 * rng.standard_normal(3),
                                 0.2 * rng.standard_normal(3), t_ns)
                       for _ in range(2)]
                f.propagate(stack_samples(imu), 0.005)
                t_ns += 5_000_000
            for kind, observer, subject in [(models.LANDMARK, 0, 0),
                                            (models.LANDMARK, 1, 2),
                                            (models.INTERVEHICLE, 0, 1)]:
                # a zero innovation leaves E = F^T M F, which keeps K definite
                y = models.predict(f.estimate(), kind, observer, subject,
                                   world)
                f.update(Observation(kind, observer, subject, y, t_ns))
            assert np.linalg.eigvalsh(joint_gain(f))[0] > 0.0
        # the rebuilt 30 x 30 gain once per epoch, then one m x m per update
        assert sizes == [30, 6, 6, 12] * 3

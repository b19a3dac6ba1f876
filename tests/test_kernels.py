"""The matrix exponential kernel: accuracy, stacking and non-finite input.

`kernels.expm` is a truncated Taylor series with scaling and squaring over
any leading axes.  Its reference is mpmath's exponential at 40 digits; on
the filter's own propagation matrices it must also agree with scipy's.
"""

import dataclasses
import json
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from meswarm import harness, joint, kernels
from meswarm.kernels import expm
from test_acceptance import scenario_noise, scenario_sources, scenario_world

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))


def norm1(a):
    """1-norm (largest column sum) of each matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def rel_err(x, exact):
    return norm1(x - exact) / norm1(exact)


def mp_expm(a):
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array(e.tolist(), dtype=float)


def random_stack(rng, shape, top_norm):
    """Random matrices whose largest 1-norm is top_norm; the others are
    scaled down by up to four decades."""
    a = rng.standard_normal(shape + (15, 15))
    norms = top_norm * 10.0 ** rng.uniform(-4.0, 0.0, shape)
    norms.flat[0] = top_norm
    return a * (norms / norm1(a))[..., None, None]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1,), (2,), (3,)]),
       log_norm=st.floats(-4.0, 1.0))
def test_matches_40_digit_exponential(seed, shape, log_norm):
    """Within 1e-14 of the exact exponential for 1-norms from 1e-4 to 10,
    which covers every Taylor degree and up to three squarings."""
    a = random_stack(np.random.default_rng(seed), shape, 10.0 ** log_norm)
    got = expm(a).reshape(-1, 15, 15)
    for x, ai in zip(got, a.reshape(-1, 15, 15)):
        assert rel_err(x, mp_expm(ai)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       log_norm=st.floats(-4.0, np.log10(0.3)))
def test_stack_equals_per_slice_calls(seed, n, log_norm):
    """A stack takes the degree of its largest norm, a single matrix its
    own; below theta_12 = 0.3, where no squaring amplifies the last bits,
    the two agree within 1e-15.  The IMU steps sit far below it (about
    0.012 at 1 kHz, 0.06 at 200 Hz)."""
    a = random_stack(np.random.default_rng(seed), (n,), 10.0 ** log_norm)
    stacked = expm(a)
    assert stacked.shape == a.shape
    for i in range(n):
        assert rel_err(stacked[i], expm(a[i])) <= 1e-15


def _propagation_matrices(imu_rate_hz, monkeypatch):
    """The schedule, and every a*dt the joint filter exponentiates in 0.2 s
    of the six-vehicle benchmark scenario, as an (m, 15, 15) stack."""
    seen = []

    def recording_expm(a):
        seen.append(a.copy())
        return expm(a)

    monkeypatch.setattr(joint, "expm", recording_expm)
    noise = dataclasses.replace(scenario_noise(), dt_imu=1.0 / imu_rate_hz)
    cfg = harness.ScheduleConfig(imu_rate_hz=imu_rate_hz, duration_s=0.2,
                                 seed=11)
    harness.run_schedule(cfg, "central", scenario_sources(6, noise, 11),
                         scenario_world(6), noise, record_bus=False)
    return cfg, np.concatenate(seen)


@pytest.mark.parametrize("imu_rate_hz", [200.0, 1000.0],
                         ids=["collab-n6", "imu1k-n6"])
def test_scenario_matrices_match_scipy(imu_rate_hz, monkeypatch):
    cfg, a = _propagation_matrices(imu_rate_hz, monkeypatch)
    # factors start at the first inter-vehicle epoch, one per vehicle on
    # every later tick
    first = min(harness._observation_ticks(
        cfg.intervehicle_rate_hz, cfg.imu_rate_hz, cfg.n_ticks))
    assert len(a) == 6 * (cfg.n_ticks - first)
    assert norm1(a).max() < 0.1
    for ai in a:
        assert rel_err(expm(ai), sla.expm(ai)) <= 1e-15


def test_zero_gives_identity_exactly():
    for shape in [(15, 15), (4, 15, 15), (2, 3, 15, 15), (1, 1)]:
        got = expm(np.zeros(shape))
        np.testing.assert_array_equal(got, np.broadcast_to(
            np.eye(shape[-1]), shape))


def test_scalar_and_diagonal():
    np.testing.assert_allclose(expm([[1.0]]), [[np.e]], rtol=1e-15)
    d = np.array([-3.0, -0.5, 0.0, 0.2, 2.0])
    np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)),
                               rtol=1e-14)


# Non-finite and huge inputs run in a child process with a timeout: an
# earlier Taylor exponential looped forever on inf, and a regression here
# would otherwise hang the whole suite.
_CHILD = """
import json, numpy as np
from meswarm.kernels import expm
def case(value, lead=()):
    a = np.zeros(lead + (15, 15))
    a[(0,) * len(lead) + (3, 4)] = value
    a[(0,) * len(lead) + (4, 3)] = 0.5
    return a
cases = {"inf": case(np.inf), "-inf": case(-np.inf), "nan": case(np.nan),
         "bad_slice": case(np.nan, (4,)),
         "huge": np.full((15, 15), 1e300), "huge_stack": case(1e300, (3,))}
with np.errstate(all="ignore"):
    out = {name: [bool(np.isfinite(r).all()), bool(np.isnan(r).all()),
                  list(r.shape)]
           for name, r in ((name, expm(a)) for name, a in cases.items())}
print(json.dumps(out))
"""


def test_non_finite_and_huge_inputs_finish():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # non-finite input: all-NaN at once, the whole stack if one slice is bad
    for name, shape in [("inf", [15, 15]), ("-inf", [15, 15]),
                        ("nan", [15, 15]), ("bad_slice", [4, 15, 15])]:
        assert out[name] == [False, True, shape], name
    # a 1-norm of 1e300 squares about a thousand times and returns
    assert out["huge"][0] is False
    assert out["huge_stack"][2] == [3, 15, 15]


def mp_coefficients(theta):
    """sin(t)/t, (1 - cos t)/t^2 and (t - sin t)/t^3 at 60 digits, for
    t = |theta| of the float components as given."""
    with mpmath.workdps(60):
        t = mpmath.sqrt(sum(mpmath.mpf(float(v)) ** 2 for v in theta))
        return (mpmath.sin(t) / t, (1 - mpmath.cos(t)) / t ** 2,
                (t - mpmath.sin(t)) / t ** 3)


def test_so3_coefficients_match_60_digits():
    """Every coefficient stays within 1e-14 of its 60-digit value over
    |theta| in [1e-9, 3], across the switch to the series, where the
    closed forms used to cancel (2e-5 relative at |theta| = 2e-6)."""
    rng = np.random.default_rng(17)
    switch = kernels.SMALL_ANGLE
    magnitudes = np.concatenate([
        np.geomspace(1e-9, 3.0, 60),
        switch * (1.0 + np.array([-1e-12, -1e-6, -1e-3, 0.0, 1e-12, 1e-6,
                                  1e-3]))])
    worst = 0.0
    for mag in magnitudes:
        d = rng.standard_normal((20, 3))
        theta = mag * d / np.linalg.norm(d, axis=-1, keepdims=True)
        got = kernels._so3_coefficients(theta)
        for i, row in enumerate(theta):
            for g, want in zip(got, mp_coefficients(row)):
                worst = max(worst, float(abs((g[i] - want) / want)))
    assert worst <= 1e-14

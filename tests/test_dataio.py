import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from meswarm.dataio import (ConfigError, DataError, DatasetSource,
                            TruthTrack, align_trials, load_config,
                            load_imu_csv, load_truth_csv, parse_config)
from meswarm.harness import SinusoidTrajectory
from meswarm.models import ImuSample, ImuStream


def write_imu(path, rows):
    lines = ["timestamp_ns,wx,wy,wz,ax,ay,az"]
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    path.write_text("\n".join(lines) + "\n")


def write_truth(path, rows):
    lines = ["timestamp_ns,px,py,pz,qw,qx,qy,qz,vx,vy,vz"]
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    path.write_text("\n".join(lines) + "\n")


def assert_states_close(got, want, atol):
    for name in ("rot", "pos", "vel", "gyro_bias", "accel_bias"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=atol, err_msg=name)


def quat_wxyz(rot):
    # Shepperd-style extraction, scalar-first
    w = 0.5 * np.sqrt(max(1.0 + np.trace(rot), 0.0))
    if w > 1e-6:
        v = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0],
                      rot[1, 0] - rot[0, 1]]) / (4.0 * w)
    else:
        i = int(np.argmax(np.diag(rot)))
        j, k = (i + 1) % 3, (i + 2) % 3
        v = np.zeros(3)
        v[i] = 0.5 * np.sqrt(1.0 + rot[i, i] - rot[j, j] - rot[k, k])
        v[j] = (rot[j, i] + rot[i, j]) / (4.0 * v[i])
        v[k] = (rot[k, i] + rot[i, k]) / (4.0 * v[i])
        w = (rot[k, j] - rot[j, k]) / (4.0 * v[i])
    q = np.concatenate([[w], v])
    return q / np.linalg.norm(q)


def read_rows_oracle(path, n_min, n_max):
    """Row-by-row reference parser: each data line split, its field count
    checked and its fields converted one by one, errors naming the line."""
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if not n_min <= len(parts) <= n_max:
            raise DataError(f"{path}:{lineno}: expected {n_min}"
                            + (f"-{n_max}" if n_max != n_min else "")
                            + f" fields, got {len(parts)}")
        try:
            rows.append([int(parts[0])] + [float(p) for p in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return rows


def truth_oracle(rows):
    """Truth columns of oracle rows: a bias group a row lacks reads zero."""
    def group(r, lo):
        return r[lo:lo + 3] if len(r) >= lo + 3 else [0.0] * 3
    quat = np.array([r[4:8] for r in rows]).reshape(-1, 4)
    return {"t_ns": [r[0] for r in rows],
            "pos": [r[1:4] for r in rows],
            "quat": [q / np.linalg.norm(q) for q in quat],
            "vel": [r[8:11] for r in rows],
            "gyro_bias": [group(r, 11) for r in rows],
            "accel_bias": [group(r, 14) for r in rows]}


_CELLS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_tables(draw, truth):
    """(text, data line numbers) of a headered IMU or truth table: stamps up
    to 1.5e18 ns, truth rows of 11, 14 or 17 fields, blank lines between."""
    n = draw(st.integers(0, 10))
    stamps = sorted(draw(st.sets(st.integers(0, 1_500_000_000_000_000_000),
                                 min_size=n, max_size=n)))
    lines, data_lines = ["#header"], []
    for t in stamps:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        if truth:
            width = draw(st.sampled_from([11, 14, 17]))
            q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4,
                                       max_size=4)))
            assume(np.linalg.norm(q) > 0.1)
            q *= draw(st.floats(0.9995, 1.0005)) / np.linalg.norm(q)
            cells = (draw(st.lists(_CELLS, min_size=3, max_size=3))
                     + q.tolist()
                     + draw(st.lists(_CELLS, min_size=width - 8,
                                     max_size=width - 8)))
        else:
            cells = draw(st.lists(_CELLS, min_size=6, max_size=6))
        lines.append(",".join([str(t)] + [repr(c) for c in cells]))
        data_lines.append(len(lines))
    return "\n".join(lines) + "\n", data_lines


def _load_both(path, truth):
    if truth:
        return load_truth_csv(path), read_rows_oracle(path, 11, 17)
    return load_imu_csv(path), read_rows_oracle(path, 7, 7)


class TestLoadersAgainstRowOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), truth=st.booleans())
    def test_arrays_equal_the_oracle(self, tmp_path, data, truth):
        text, _ = data.draw(csv_tables(truth))
        p = tmp_path / "table.csv"
        p.write_text(text)
        got, rows = _load_both(p, truth)
        assert got.t_ns.dtype == np.int64
        assert got.t_ns.tolist() == [r[0] for r in rows]
        if not truth:
            np.testing.assert_array_equal(got.gyro.reshape(-1, 3),
                                          np.reshape([r[1:4] for r in rows],
                                                     (-1, 3)))
            np.testing.assert_array_equal(got.accel.reshape(-1, 3),
                                          np.reshape([r[4:7] for r in rows],
                                                     (-1, 3)))
            return
        want = truth_oracle(rows)
        for name in ("pos", "vel", "gyro_bias", "accel_bias"):
            np.testing.assert_array_equal(
                getattr(got, name), np.reshape(want[name], (-1, 3)),
                err_msg=name)
        np.testing.assert_allclose(got.quat, np.reshape(want["quat"], (-1, 4)),
                                   rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), truth=st.booleans())
    def test_bad_cell_names_its_line(self, tmp_path, data, truth):
        text, data_lines = data.draw(csv_tables(truth))
        assume(data_lines)
        lines = text.splitlines()
        lineno = data.draw(st.sampled_from(data_lines))
        cells = lines[lineno - 1].split(",")
        col = data.draw(st.integers(0, len(cells) - 1))
        bad = ["", "abc", "1e", "0x10", "--1"] + (["1.0"] if col == 0 else [])
        cells[col] = data.draw(st.sampled_from(bad))
        lines[lineno - 1] = ",".join(cells)
        p = tmp_path / "table.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as want:
            read_rows_oracle(p, *((11, 17) if truth else (7, 7)))
        with pytest.raises(DataError) as got:
            (load_truth_csv if truth else load_imu_csv)(p)
        assert str(got.value) == str(want.value)
        assert f"{p}:{lineno}:" in str(got.value)


class TestImuCsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "imu.csv"
        write_imu(p, [[1000000, 0, 0, 0, 0, 0, 9.81]])
        samples = load_imu_csv(p)
        assert len(samples) == 1
        assert samples[0].t_ns == 1000000
        np.testing.assert_array_equal(samples[0].gyro, np.zeros(3))
        np.testing.assert_array_equal(samples[0].accel, [0.0, 0.0, 9.81])

    def test_stream_serves_samples_and_slices(self, tmp_path):
        p = tmp_path / "imu.csv"
        stamps = [1403636579758555500 + k * 5_000_000 for k in range(4)]
        write_imu(p, [[t, k, 0, 0, 0, 0, 9.81] for k, t in enumerate(stamps)])
        stream = load_imu_csv(p)
        assert isinstance(stream, ImuStream)
        s = stream[2]
        assert isinstance(s, ImuSample) and type(s.t_ns) is int
        assert s.t_ns == stamps[2] and s.gyro[0] == 2.0
        assert np.shares_memory(s.gyro, stream.gyro)
        tail = stream[1:]
        assert len(tail) == 3 and tail[0].t_ns == stamps[1]
        assert [x.t_ns for x in stream] == stamps

    def test_empty_file_warns(self, tmp_path, caplog):
        p = tmp_path / "imu.csv"
        p.write_text("")
        with caplog.at_level("WARNING"):
            assert len(load_imu_csv(p)) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_header_only(self, tmp_path):
        p = tmp_path / "imu.csv"
        p.write_text("timestamp_ns,wx,wy,wz,ax,ay,az\n")
        assert len(load_imu_csv(p)) == 0

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "imu.csv"
        write_imu(p, [[1000, 0, 0, 0, 0, 0, 9.81]])
        with open(p, "a") as fh:
            fh.write("2000,0,0,oops,0,0,9.81\n")
        with pytest.raises(DataError, match=r":3:"):
            load_imu_csv(p)

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "imu.csv"
        p.write_text("timestamp_ns,wx,wy,wz,ax,ay,az\n1000,0,0\n")
        with pytest.raises(DataError, match=r":2:.*fields"):
            load_imu_csv(p)

    def test_non_monotone_timestamps(self, tmp_path):
        p = tmp_path / "imu.csv"
        write_imu(p, [[2000, 0, 0, 0, 0, 0, 0], [1000, 0, 0, 0, 0, 0, 0]])
        with pytest.raises(DataError, match="increasing"):
            load_imu_csv(p)

    def test_recorded_scale_stamps_are_exact(self, tmp_path):
        # above 2^53 ns a float stamp is off by up to 128 ns
        stamps = [1403636579758555500, 1403636579763555500]
        p = tmp_path / "imu.csv"
        write_imu(p, [[t, 0, 0, 0, 0, 0, 9.81] for t in stamps])
        assert [s.t_ns for s in load_imu_csv(p)] == stamps
        q = tmp_path / "truth.csv"
        write_truth(q, [[t, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0] for t in stamps])
        assert load_truth_csv(q).t_ns.tolist() == stamps
        with open(p, "a") as fh:
            fh.write("1.4036365797685555e18,0,0,0,0,0,9.81\n")
        with pytest.raises(DataError, match=r":4:"):
            load_imu_csv(p)

    def test_sample_count_200hz(self, tmp_path):
        # 200 Hz over 83.5 s -> 16,700 samples (+/- 1)
        p = tmp_path / "imu.csv"
        n = int(round(83.5 * 200.0))
        write_imu(p, [[k * 5_000_000, 0, 0, 0, 0, 0, 9.81] for k in range(n)])
        assert abs(len(load_imu_csv(p)) - 16700) <= 1


class TestTruthCsv:
    def test_identity_quaternion(self, tmp_path):
        p = tmp_path / "truth.csv"
        write_truth(p, [[0, 1, 2, 3, 1, 0, 0, 0, 0.1, 0.2, 0.3]])
        track = load_truth_csv(p)
        np.testing.assert_array_equal(track.quat, [[1, 0, 0, 0]])
        np.testing.assert_array_equal(track.pos, [[1, 2, 3]])
        np.testing.assert_array_equal(track.vel, [[0.1, 0.2, 0.3]])
        np.testing.assert_allclose(track.state_at(0).rot, np.eye(3))

    def test_near_unit_quaternion_normalised(self, tmp_path):
        p = tmp_path / "truth.csv"
        write_truth(p, [[0, 0, 0, 0, 1.0005, 0, 0, 0, 0, 0, 0]])
        track = load_truth_csv(p)
        assert abs(np.linalg.norm(track.quat[0]) - 1.0) < 1e-12

    def test_far_from_unit_quaternion_rejected(self, tmp_path):
        p = tmp_path / "truth.csv"
        write_truth(p, [[0, 0, 0, 0, 1.1, 0, 0, 0, 0, 0, 0]])
        with pytest.raises(DataError, match="quaternion"):
            load_truth_csv(p)

    def test_far_quaternion_names_its_line(self, tmp_path):
        """Blank lines count: the message once gave the data row (3)."""
        p = tmp_path / "truth.csv"
        p.write_text("ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n\n"
                     "0,0,0,0,1,0,0,0,0,0,0\n\n"
                     "1000,0,0,0,1.2,0,0,0,0,0,0\n")
        with pytest.raises(DataError) as exc:
            load_truth_csv(p)
        assert str(exc.value) == (f"{p}:5: quaternion norm 1.2000 is not "
                                  f"within 0.001 of 1")

    def test_optional_bias_columns(self, tmp_path):
        p = tmp_path / "truth.csv"
        row = [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
               0.01, 0.02, 0.03, 0.1, 0.2, 0.3]
        lines = ["ts," + ",".join(f"c{i}" for i in range(16)),
                 ",".join(str(x) for x in row)]
        p.write_text("\n".join(lines) + "\n")
        track = load_truth_csv(p)
        np.testing.assert_array_equal(track.gyro_bias, [[0.01, 0.02, 0.03]])
        np.testing.assert_array_equal(track.accel_bias, [[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [2, 5, 11, 13, 17])
    def test_non_finite_cell_names_its_line(self, tmp_path, field, value):
        """Position, quaternion, velocity and both bias groups: the first
        non-finite value names its file, line (blank lines counted) and
        field, the stamp being field 1."""
        rows = [[k * 1000, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0.01, 0.02, 0.03,
                 0.1, 0.2, 0.3] for k in range(3)]
        rows[1][field - 1] = value
        rows[2][3] = "nan"
        lines = ["ts," + ",".join(f"c{i}" for i in range(16)),
                 ",".join(map(str, rows[0])), "",
                 ",".join(map(str, rows[1])), ",".join(map(str, rows[2]))]
        p = tmp_path / "truth.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_truth_csv(p)
        assert str(exc.value) == (f"{p}:4: field {field} is not finite "
                                  f"({float(value)})")


class TestInterpolation:
    def test_matches_slerp_and_linear_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        traj = SinusoidTrajectory.random(rng, pos_scale=1.0, rot_scale=0.5)
        stamps = [int(k * 1e7) for k in range(21)]     # 100 Hz, 0.2 s
        rows = []
        for t_ns in stamps:
            t = t_ns * 1e-9
            q = quat_wxyz(traj.rotation(t))
            rows.append([t_ns, *traj.position(t), *q, *traj.velocity(t)])
        p = tmp_path / "truth.csv"
        write_truth(p, rows)
        track = load_truth_csv(p)

        for t_ns in rng.integers(stamps[0], stamps[-1], 50):
            st = track.state_at(int(t_ns))
            i = int(np.searchsorted(stamps, t_ns, side="right")) - 1
            a = (t_ns - stamps[i]) / (stamps[i + 1] - stamps[i])
            t0, t1 = stamps[i] * 1e-9, stamps[i + 1] * 1e-9
            # linear oracle for the vector parts
            np.testing.assert_allclose(
                st.pos, (1 - a) * traj.position(t0) + a * traj.position(t1),
                atol=1e-9)
            np.testing.assert_allclose(
                st.vel, (1 - a) * traj.velocity(t0) + a * traj.velocity(t1),
                atol=1e-9)
            # slerp oracle: R0 exp(a log(R0^T R1))
            r0, r1 = traj.rotation(t0), traj.rotation(t1)
            from scipy.linalg import expm, logm
            oracle = r0 @ expm(a * logm(r0.T @ r1))
            np.testing.assert_allclose(st.rot, np.real(oracle), atol=1e-9)

        # an array of stamps, the span's ends included, gives the stacked
        # one-stamp states
        queries = np.r_[stamps[0], rng.integers(stamps[0], stamps[-1], 30),
                        stamps[-1]].reshape(4, 8)
        stacked = track.state_at(queries)
        assert stacked.rot.shape == (4, 8, 3, 3)
        for idx in np.ndindex(queries.shape):
            single = track.state_at(int(queries[idx]))
            assert_states_close(stacked[idx], single, 1e-12)

    def test_single_sample_track_stacks(self, tmp_path):
        p = tmp_path / "truth.csv"
        write_truth(p, [[7, 1, 2, 3, 1, 0, 0, 0, 0.1, 0.2, 0.3]])
        got = load_truth_csv(p).state_at(np.array([7, 7, 7]))
        np.testing.assert_array_equal(got.rot, np.broadcast_to(np.eye(3),
                                                               (3, 3, 3)))
        np.testing.assert_array_equal(got.pos, [[1, 2, 3]] * 3)

    def test_fraction_exact_at_recorded_stamps(self, tmp_path):
        """Stamps near 1.4e18 ns are 256 ns apart as floats; the fraction
        from int64 differences is not quantised to that spacing."""
        t0 = 1403636579758555500
        p = tmp_path / "truth.csv"
        write_truth(p, [[t0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                        [t0 + 5_000_000, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0]])
        track = load_truth_csv(p)
        assert track.state_at(t0 + 1_000_000).pos[0] == pytest.approx(
            0.2, abs=1e-12)
        assert track.state_at(t0 + 1_000_100).pos[0] == pytest.approx(
            0.20002, abs=1e-12)

    def test_shortest_arc_across_sign_flip(self, tmp_path):
        """q and -q are one rotation: the path between two samples stays
        the short one whatever the stored signs."""
        half = 0.05
        p = tmp_path / "truth.csv"
        write_truth(p, [[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                        [100, 0, 0, 0, -np.cos(half), 0, 0, -np.sin(half),
                         0, 0, 0]])
        rot = load_truth_csv(p).state_at(50).rot
        c, s = np.cos(half), np.sin(half)
        np.testing.assert_allclose(rot, [[c, -s, 0], [s, c, 0], [0, 0, 1]],
                                   atol=1e-12)

    def test_query_outside_span(self, tmp_path):
        p = tmp_path / "truth.csv"
        write_truth(p, [[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                        [100, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]])
        track = load_truth_csv(p)
        with pytest.raises(DataError, match="outside"):
            track.state_at(101)
        with pytest.raises(DataError, match="query time -1 ns outside"):
            track.state_at(np.array([0, 50, -1, 100, 101]))


class TestAlignment:
    def _trial(self, tmp_path, name, t0_ns, n, dt_ns=5_000_000):
        imu = tmp_path / f"imu_{name}.csv"
        truth = tmp_path / f"truth_{name}.csv"
        stamps = [t0_ns + k * dt_ns for k in range(n)]
        write_imu(imu, [[t, 0, 0, 0, 0, 0, 9.81] for t in stamps])
        write_truth(truth, [[t, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
                            for t in stamps])
        return load_imu_csv(imu), load_truth_csv(truth)

    def test_common_window(self, tmp_path):
        a = self._trial(tmp_path, "a", 0, 100)
        b = self._trial(tmp_path, "b", 50_000_000, 80)
        (imu_a, _), (imu_b, _) = align_trials([a, b])
        assert imu_a[0].t_ns >= 50_000_000
        assert len(imu_a) == len(imu_b)

    def test_empty_stream_is_data_error(self, tmp_path):
        a = self._trial(tmp_path, "a", 0, 10)
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp_ns,wx,wy,wz,ax,ay,az\n")
        with pytest.raises(DataError, match="IMU stream is empty"):
            align_trials([a, (load_imu_csv(empty), a[1])])

    def test_disjoint_windows(self, tmp_path):
        a = self._trial(tmp_path, "a", 0, 10)
        b = self._trial(tmp_path, "b", 10_000_000_000, 10)
        with pytest.raises(DataError, match="common"):
            align_trials([a, b])


class TestDatasetSource:
    def _source(self, tmp_path, rate_hz=200.0, n=100):
        dt_ns = int(round(1e9 / rate_hz))
        imu = tmp_path / "imu.csv"
        truth = tmp_path / "truth.csv"
        stamps = [k * dt_ns for k in range(n)]
        write_imu(imu, [[t, 0, 0, 0, 0, 0, 9.81] for t in stamps])
        write_truth(truth, [[t, t * 1e-9, 0, 0, 1, 0, 0, 0, 1, 0, 0]
                            for t in stamps])
        return DatasetSource(load_imu_csv(imu), load_truth_csv(truth), 0)

    def test_rate_mismatch(self, tmp_path):
        src = self._source(tmp_path, rate_hz=100.0)
        with pytest.raises(DataError, match="rate"):
            src.prepare(50, 1.0 / 200.0)

    def test_too_short(self, tmp_path):
        src = self._source(tmp_path, n=10)
        with pytest.raises(DataError, match="ticks"):
            src.prepare(50, 1.0 / 200.0)

    def test_serves_rebased_grid(self, tmp_path):
        src = self._source(tmp_path)
        src.prepare(50, 1.0 / 200.0)
        s = src.imu_at_tick(3)
        assert s.t_ns == 3 * 5_000_000
        truth = src.truth_at_tick(10)
        np.testing.assert_allclose(truth.pos, [10 * 5e-3, 0, 0], atol=1e-12)
        np.testing.assert_allclose(truth.vel, [1, 0, 0], atol=1e-12)

    def test_stacked_truth_equals_single_stamps(self, tmp_path):
        """Truth interpolated once over the tick grid equals one state_at
        call per tick; the final tick reuses the last IMU stamp."""
        rng = np.random.default_rng(4)
        traj = SinusoidTrajectory.random(rng, pos_scale=1.0, rot_scale=0.5)
        imu_stamps = [1000 + k * 5_000_000 for k in range(60)]
        truth_stamps = [k * 7_000_000 for k in range(45)]
        write_imu(tmp_path / "imu.csv",
                  [[t, 0, 0, 0, 0, 0, 9.81] for t in imu_stamps])
        rows = []
        for t_ns in truth_stamps:
            t = t_ns * 1e-9
            rows.append([t_ns, *traj.position(t), *quat_wxyz(traj.rotation(t)),
                         *traj.velocity(t)])
        write_truth(tmp_path / "truth.csv", rows)
        track = load_truth_csv(tmp_path / "truth.csv")
        src = DatasetSource(load_imu_csv(tmp_path / "imu.csv"), track, 0)
        src.prepare(60, 1.0 / 200.0)
        for k in range(61):
            assert_states_close(src.truth_at_tick(k),
                                track.state_at(imu_stamps[min(k, 59)]), 1e-12)


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestImuRows:
    """The scheduler's joint modes read a tick's IMU rows straight from
    each source's ``imu`` stream, while the nodes pull ``imu_at_tick``:
    both must see the same values, row k of ``imu`` for tick k."""

    @settings(max_examples=40, deadline=None)
    @given(n_ticks=st.integers(1, 60), seed=st.integers(0, 2**16),
           data=st.data())
    def test_synthetic_sample_is_stream_row(self, n_ticks, seed, data):
        from meswarm.harness import SyntheticSource
        from meswarm.models import NoiseModel
        rng = np.random.default_rng(seed)
        src = SyntheticSource(SinusoidTrajectory.random(rng), NoiseModel(),
                              data.draw(st.integers(0, 3)), seed)
        src.prepare(n_ticks, 0.005)
        assert len(src.imu) == n_ticks
        k = data.draw(st.integers(0, n_ticks - 1))
        sample = src.imu_at_tick(k)
        assert _same_bits(sample.gyro, src.imu.gyro[k])
        assert _same_bits(sample.accel, src.imu.accel[k])
        assert sample.t_ns == int(src.imu.t_ns[k])

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(2, 40), min_size=1, max_size=3),
           offsets=st.lists(st.integers(0, 4_999_999), min_size=3,
                            max_size=3),
           t0=st.integers(0, 1_500_000_000_000_000_000),
           seed=st.integers(0, 2**16), data=st.data())
    def test_dataset_sample_is_stream_row(self, lengths, offsets, t0, seed,
                                          data):
        """Trials of random lengths, each stream offset by a fraction of a
        period from a random start, aligned as the CLI aligns them."""
        rng = np.random.default_rng(seed)
        dt_ns = 5_000_000
        trials = []
        for length, off in zip(lengths, offsets):
            stamps = t0 + off + dt_ns * np.arange(length, dtype=np.int64)
            imu = ImuStream(stamps, rng.standard_normal((length, 3)),
                            rng.standard_normal((length, 3)))
            span = np.array([stamps[0] - dt_ns, stamps[-1] + dt_ns])
            quat = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
            zeros = np.zeros((2, 3))
            trials.append((imu, TruthTrack(span, zeros, quat, zeros, zeros,
                                           zeros)))
        try:
            aligned = align_trials(trials)
        except DataError:
            assume(False)
        if len(aligned[0][0]) == 1:
            # a one-sample window has no rate to check against the grid
            for v, (imu, track) in enumerate(aligned):
                with pytest.raises(DataError, match=rf"^vehicle {v}: IMU "
                                   r"stream needs two samples"):
                    DatasetSource(imu, track, v)
            return
        for v, (imu, track) in enumerate(aligned):
            src = DatasetSource(imu, track, v)
            assert src.imu is imu
            n_ticks = data.draw(st.integers(1, len(imu)))
            src.prepare(n_ticks, 1e-9 * dt_ns)
            k = data.draw(st.integers(0, n_ticks - 1))
            sample = src.imu_at_tick(k)
            assert _same_bits(sample.gyro, src.imu.gyro[k])
            assert _same_bits(sample.accel, src.imu.accel[k])
            assert sample.t_ns == k * dt_ns


class TestConfig:
    def minimal(self):
        return {"vehicles": [{"type": "synthetic"}],
                "landmarks_m": [[1, 0, 0]]}

    def test_defaults_resolved(self):
        cfg = parse_config(self.minimal())
        assert cfg.mode == "central"
        assert cfg.schedule["imu_rate_hz"] == 200.0
        assert cfg.noise["d_landmark_m"] == 0.05
        assert cfg.vehicles[0]["bias_walk"] is True

    def test_unknown_field_rejected(self):
        body = self.minimal()
        body["nonsense"] = 1
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config(body)

    def test_no_vehicles_rejected(self):
        with pytest.raises(ConfigError, match="vehicle"):
            parse_config({"landmarks_m": [[1, 0, 0]]})

    def test_bad_mode_rejected(self):
        body = self.minimal()
        body["mode"] = "sideways"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(body)

    def test_nonpositive_gain_rejected(self):
        body = self.minimal()
        body["prior"] = {"k0_diag": 0.0}
        with pytest.raises(ConfigError, match="k0_diag"):
            parse_config(body)

    @pytest.mark.parametrize("k0_diag", [[[0.1] * 15], [0.1] * 14, None])
    def test_malformed_gain_rejected(self, k0_diag):
        body = self.minimal()
        body["prior"] = {"k0_diag": k0_diag}
        with pytest.raises(ConfigError, match=r"^prior\.k0_diag must be a "
                                              r"positive scalar or "
                                              r"15-vector$"):
            parse_config(body)

    @pytest.mark.parametrize("value", ["abc", "0.05", None, [0.05]])
    def test_non_numeric_noise_rejected(self, value):
        body = self.minimal()
        body["noise"] = {"d_landmark_m": value}
        with pytest.raises(ConfigError, match=r"^noise\.d_landmark_m must be "
                                              r"a number"):
            parse_config(body)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_noise_rejected(self, value):
        body = self.minimal()
        body["noise"] = {"b_gyro_rad_s": value}
        with pytest.raises(ConfigError,
                           match=r"^noise\.b_gyro_rad_s must be positive$"):
            parse_config(body)

    @pytest.mark.parametrize("section,key,value,message", [
        (None, "seed", -1, r"^schedule: seed must be a non-negative integer"),
        (None, "seed", 1.5, r"^schedule: seed must be a non-negative"),
        (None, "seed", True, r"^schedule: seed must be a non-negative"),
        (None, "with_curvature", 1,
         r"^config: unknown fields \['with_curvature'\]$"),
        ("schedule", "duration_s", float("inf"),
         r"^schedule: duration_s must be a non-negative finite "),
        ("schedule", "landmark_rate_hz", None,
         r"^schedule: landmark_rate_hz must be a non-negative "),
        ("schedule", "dropout_intervehicle", 2,
         r"^schedule: dropout_intervehicle must not exceed 1$"),
    ])
    def test_wrong_type_or_range_rejected(self, section, key, value,
                                          message):
        body = self.minimal()
        (body.setdefault(section, {}) if section else body)[key] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(body)

    def test_non_boolean_bias_walk_rejected(self):
        body = self.minimal()
        body["vehicles"][0]["bias_walk"] = "off"
        with pytest.raises(ConfigError, match=r"^vehicles\[0\]\.bias_walk "
                                              r"must be true or false"):
            parse_config(body)

    def test_missing_dataset_file_rejected(self, tmp_path):
        body = self.minimal()
        body["vehicles"] = [{"type": "dataset", "imu_csv": "absent.csv",
                             "truth_csv": "also_absent.csv"}]
        with pytest.raises(ConfigError, match="not found"):
            parse_config(body, base_dir=str(tmp_path))

    def test_effective_round_trip(self, tmp_path):
        cfg = parse_config(self.minimal())
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.effective()))
        again = load_config(p)
        assert again.effective() == cfg.effective()

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from meswarm import cli, harness
from test_harness import scored_runs


def base_config(mode="central", duration_s=3.0, n_vehicles=2, seed=7):
    return {
        "mode": mode,
        "seed": seed,
        "schedule": {"duration_s": duration_s, "imu_rate_hz": 200.0,
                     "landmark_rate_hz": 10.0, "intervehicle_rate_hz": 10.0},
        "noise": {"b_gyro_rad_s": 0.005, "b_accel_mps2": 0.02,
                  "b_gyro_bias_rad_s2": 1e-5, "b_accel_bias_mps3": 1e-4,
                  "d_landmark_m": 0.1, "d_intervehicle_m": 0.05},
        "landmarks_m": [[2, 0, 1], [-1, 2, 0.5], [0, -2, 1.5]],
        "markers_m": [[0.05, 0, 0], [0, 0.05, 0], [0, 0, 0.05]][:n_vehicles],
        "vehicles": [{"type": "synthetic", "trajectory_seed": v,
                      "pos_scale_m": 0.5, "rot_scale_rad": 0.3}
                     for v in range(n_vehicles)],
    }


def run_cli(tmp_path, config, name="run", extra=()):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / name
    code = cli.main(["--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def read_summary_csv(out_dir):
    rows = {}
    lines = (out_dir / "summary.csv").read_text().splitlines()[1:]
    for line in lines:
        name, unit, whole, post = line.rsplit(",", 3)
        rows[name] = (unit, float(whole), float(post))
    return rows


class TestOutputs:
    def test_run_writes_all_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, base_config())
        assert code == 0
        for name in ("metrics.csv", "summary.csv", "summary.txt", "bus.log",
                     "effective_config.json"):
            assert (out / name).exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("t,vehicle,pos_err,rot_err,vel_err,gyro_bias_err,"
                          "accel_bias_err")

    def test_summary_schema(self, tmp_path):
        _, out = run_cli(tmp_path, base_config())
        rows = read_summary_csv(out)
        assert list(rows) == ["Position", "Rotation", "Linear Velocity",
                              "IMU Gyro Bias", "IMU Accel. Bias"]
        units = [rows[k][0] for k in rows]
        assert units == ["m", "rad", "m/s", "rad/s", "m/s^2"]

    def test_single_vehicle_summary_is_its_own_mean(self, tmp_path):
        cfg = base_config(mode="none", n_vehicles=1)
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()[1:]
        cols = np.array([[float(x) for x in ln.split(",")] for ln in lines])
        assert set(cols[:, 1]) == {0.0}
        rows = read_summary_csv(out)
        # metrics.csv rounds to 9 significant digits
        np.testing.assert_allclose(rows["Position"][1], cols[:, 2].mean(),
                                   rtol=1e-7)

    def test_bus_log_empty_outside_distributed(self, tmp_path):
        _, out = run_cli(tmp_path, base_config(mode="central"))
        assert (out / "bus.log").read_text() == ""
        _, out2 = run_cli(tmp_path, base_config(mode="distributed"),
                          name="dist")
        bodies = [json.loads(ln)
                  for ln in (out2 / "bus.log").read_text().splitlines()]
        assert bodies and all(b["v"] == 4 for b in bodies)
        replies = [b for b in bodies if b["type"] == "peer_state_reply"]
        # a peer reply carries only the 6 update columns of the 30x15 column
        assert replies and all(b["k_col"]["shape"] == [30, 6]
                               for b in replies)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=scored_runs())
    def test_metrics_csv_equals_row_loop(self, tmp_path, run):
        """The record-array writer gives the bytes of the per-row f-string
        loop it replaced."""
        rec, rows, _ = run
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli.write_metrics_csv(got, rec)
        with open(want, "w") as fh:
            fh.write("t,vehicle,pos_err,rot_err,vel_err,gyro_bias_err,"
                     "accel_bias_err\n")
            for r in rows:
                fh.write(f"{r.t:.6f},{r.vehicle},{r.pos_err:.9e},"
                         f"{r.rot_err:.9e},{r.vel_err:.9e},"
                         f"{r.gyro_bias_err:.9e},{r.accel_bias_err:.9e}\n")
        assert got.read_bytes() == want.read_bytes()


class TestDeterminismAndEquivalence:
    def test_same_seed_byte_identical(self, tmp_path):
        _, a = run_cli(tmp_path, base_config(mode="distributed"), name="a")
        _, b = run_cli(tmp_path, base_config(mode="distributed"), name="b")
        for name in ("metrics.csv", "bus.log", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_central_matches_distributed(self, tmp_path):
        _, c = run_cli(tmp_path, base_config(mode="central"), name="c")
        _, d = run_cli(tmp_path, base_config(mode="distributed"), name="d")
        sc, sd = read_summary_csv(c), read_summary_csv(d)
        for key in sc:
            np.testing.assert_allclose(sc[key][1:], sd[key][1:], atol=1e-6)

    def test_effective_config_reproduces_run(self, tmp_path):
        _, first = run_cli(tmp_path, base_config(), name="first")
        effective = json.loads((first / "effective_config.json").read_text())
        _, second = run_cli(tmp_path, effective, name="second")
        assert ((first / "metrics.csv").read_bytes()
                == (second / "metrics.csv").read_bytes())

    def test_flag_overrides_land_in_effective_config(self, tmp_path):
        _, out = run_cli(tmp_path, base_config(),
                         extra=("--seed", "42", "--duration", "2.0",
                                "--mode", "none"))
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["seed"] == 42
        assert effective["schedule"]["duration_s"] == 2.0
        assert effective["mode"] == "none"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        code, _ = run_cli(tmp_path, {"vehicles": []})
        assert code == 2

    def test_unreadable_config_is_2(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(tmp_path / "absent.json"),
                         "--out", str(out)])
        assert code == 2

    def test_run_without_imu_tick_is_2(self, tmp_path, capsys):
        """A duration under half an IMU period gives a schedule with no
        tick; it is refused as a configuration error wherever it arises."""
        cfg = base_config(n_vehicles=1)
        code, out = run_cli(tmp_path, cfg, "flag", ["--duration", "0.001"])
        assert code == 2 and not out.exists()
        cfg["schedule"]["duration_s"] = 0.001
        code, _ = run_cli(tmp_path, cfg, "config")
        assert code == 2
        # recorded data 1 ms long clips a 200 Hz schedule to no tick
        (tmp_path / "imu.csv").write_text(
            "timestamp_ns,wx,wy,wz,ax,ay,az\n"
            "0,0,0,0,0,0,9.81\n1000000,0,0,0,0,0,9.81\n")
        (tmp_path / "truth.csv").write_text(
            "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n"
            "0,0,0,0,1,0,0,0,0,0,0\n1000000,0,0,0,1,0,0,0,0,0,0\n")
        cfg = base_config(n_vehicles=1)
        cfg["vehicles"] = [{"type": "dataset", "imu_csv": "imu.csv",
                            "truth_csv": "truth.csv"}]
        code, _ = run_cli(tmp_path, cfg, "clipped")
        assert code == 2
        assert capsys.readouterr().err.count("spans no IMU tick") == 3

    def test_non_numeric_noise_is_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["noise"]["d_landmark_m"] = "abc"
        code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert "noise.d_landmark_m must be a number" in capsys.readouterr().err

    def test_infinite_noise_is_2(self, tmp_path, capsys):
        """Infinity once passed the config check and raised an SVD failure
        from building the noise model."""
        cfg = base_config()
        cfg["noise"]["d_landmark_m"] = float("inf")
        code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert '"d_landmark_m": Infinity' in (tmp_path / "run.json").read_text()
        err = capsys.readouterr().err
        assert "config error: noise.d_landmark_m must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value,message", [
        (None, "with_curvature", "off", "unknown fields ['with_curvature']"),
        (None, "seed", "abc", "seed must be a non-negative integer"),
        ("schedule", "imu_rate_hz", "200",
         "imu_rate_hz must be a non-negative finite number"),
        ("schedule", "dropout_landmark", 1.5,
         "dropout_landmark must not exceed 1"),
        ("schedule", "dropout_landmark", -0.5,
         "dropout_landmark must be a non-negative finite number"),
        ("vehicles", "trajectory_seed", "abc",
         "vehicles[0].trajectory_seed must be a non-negative integer"),
        ("vehicles", "pos_scale_m", "big",
         "vehicles[0].pos_scale_m must be a finite number"),
        ("vehicles", "rot_scale_rad", "big",
         "vehicles[0].rot_scale_rad must be a finite number"),
        (None, "gravity_mps2", ["a", "b", "c"],
         "gravity_mps2 must be a 3-vector of numbers"),
        (None, "landmarks_m", [["x", 0, 0]],
         "landmarks_m must be a 3-vector of numbers"),
        (None, "markers_m", [["x", 0, 0]],
         "markers_m must be a 3-vector of numbers"),
    ])
    def test_bad_config_value_is_2(self, tmp_path, capsys, section, key,
                                   value, message):
        cfg = base_config(n_vehicles=1, duration_s=0.5)
        target = cfg[section] if section else cfg
        # a vehicle's field is set on the first vehicle
        (target[0] if isinstance(target, list) else target)[key] = value
        code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("noise", 5, "noise must be a JSON object, got 5"),
        ("schedule", [], "schedule must be a JSON object, got []"),
        ("prior", "tight", "prior must be a JSON object, got 'tight'"),
        ("landmarks_m", 5, "landmarks_m must be a list, got 5"),
        ("markers_m", {}, "markers_m must be a list, got {}"),
        ("vehicles", 5, "vehicles must be a list, got 5"),
        ("vehicles", [5], "vehicles[0] must be a JSON object, got 5"),
        ("vehicles", [{"type": "dataset", "imu_csv": 5, "truth_csv": 6}],
         "vehicles[0].imu_csv must be a file path, got 5"),
    ])
    def test_wrong_json_type_is_2(self, tmp_path, capsys, key, value,
                                  message):
        """A section or list of the wrong JSON type once escaped
        parse_config as a TypeError or AttributeError (exit 1)."""
        cfg = base_config(n_vehicles=1, duration_s=0.5)
        cfg[key] = value
        code, out = run_cli(tmp_path, cfg)
        assert code == 2 and not out.exists()
        assert f"config error: {message}" in capsys.readouterr().err

    def test_config_root_not_an_object_is_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, [base_config()])
        assert code == 2 and not out.exists()
        assert "config error: config must be a JSON object" in (
            capsys.readouterr().err)

    def test_removed_curvature_flag_is_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, base_config(n_vehicles=1), "flag",
                            ["--with-curvature", "on"])
        assert code == 2 and not out.exists()
        assert ("unrecognized arguments: --with-curvature on"
                in capsys.readouterr().err)

    def test_help_is_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_negative_seed_flag_is_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, base_config(n_vehicles=1), "flag",
                            ["--seed", "-1"])
        assert code == 2 and not out.exists()
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_header_only_imu_is_3(self, tmp_path, capsys):
        (tmp_path / "imu.csv").write_text("timestamp_ns,wx,wy,wz,ax,ay,az\n")
        (tmp_path / "truth.csv").write_text(
            "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n"
            "0,0,0,0,1,0,0,0,0,0,0\n1000,0,0,0,1,0,0,0,0,0,0\n")
        cfg = base_config(n_vehicles=1)
        cfg["vehicles"] = [{"type": "dataset", "imu_csv": "imu.csv",
                            "truth_csv": "truth.csv"}]
        code, _ = run_cli(tmp_path, cfg)
        assert code == 3
        assert "IMU stream is empty" in capsys.readouterr().err

    def test_one_sample_window_is_3(self, tmp_path, capsys):
        """Two trials whose common window holds one sample of each: a
        stream rate cannot be measured from it."""
        (tmp_path / "a.csv").write_text(
            "timestamp_ns,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,9.81\n"
            "5000000,0,0,0,0,0,9.81\n10000000,0,0,0,0,0,9.81\n")
        (tmp_path / "b.csv").write_text(
            "timestamp_ns,wx,wy,wz,ax,ay,az\n4000000,0,0,0,0,0,9.81\n"
            "9900000,0,0,0,0,0,9.81\n")
        (tmp_path / "truth.csv").write_text(
            "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n"
            "0,0,0,0,1,0,0,0,0,0,0\n20000000,0,0,0,1,0,0,0,0,0,0\n")
        cfg = base_config(n_vehicles=2)
        cfg["vehicles"] = [{"type": "dataset", "imu_csv": name,
                            "truth_csv": "truth.csv"}
                           for name in ("a.csv", "b.csv")]
        code, _ = run_cli(tmp_path, cfg)
        assert code == 3
        assert ("vehicle 0: IMU stream needs two samples to measure its rate"
                in capsys.readouterr().err)

    def test_data_error_is_3(self, tmp_path):
        (tmp_path / "imu.csv").write_text(
            "timestamp_ns,wx,wy,wz,ax,ay,az\n1000,0,0,bad,0,0,9.81\n")
        (tmp_path / "truth.csv").write_text(
            "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n"
            "0,0,0,0,1,0,0,0,0,0,0\n1000,0,0,0,1,0,0,0,0,0,0\n")
        cfg = base_config(n_vehicles=1)
        cfg["markers_m"] = [[0.05, 0, 0]]
        cfg["vehicles"] = [{"type": "dataset", "imu_csv": "imu.csv",
                            "truth_csv": "truth.csv"}]
        code, _ = run_cli(tmp_path, cfg)
        assert code == 3

    def test_numerical_failure_is_4(self, tmp_path):
        dt_ns = 5_000_000
        n = 300

        def write_trial(name, bad, column="az"):
            imu_lines = ["timestamp_ns,wx,wy,wz,ax,ay,az"]
            for k in range(n):
                sample = {"wz": "0", "az": "9.81"}
                if k == 100:
                    sample[column] = bad
                imu_lines.append(
                    f"{k * dt_ns},0,0,{sample['wz']},0,0,{sample['az']}")
            (tmp_path / f"{name}_imu.csv").write_text(
                "\n".join(imu_lines) + "\n")
            (tmp_path / f"{name}_truth.csv").write_text(
                "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n"
                "0,0,0,0,1,0,0,0,0,0,0\n"
                f"{(n - 1) * dt_ns},0,0,0,1,0,0,0,0,0,0\n")
            return {"type": "dataset", "imu_csv": f"{name}_imu.csv",
                    "truth_csv": f"{name}_truth.csv"}

        cfg = base_config(mode="none", n_vehicles=1, duration_s=1.0)
        cfg["vehicles"] = [write_trial("nan", "nan")]
        code, _ = run_cli(tmp_path, cfg)
        assert code == 4

        # an infinite sample once hung the matrix exponential; a child
        # process with a timeout turns a regression into a failure
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        clean = write_trial("clean", "9.81")
        # a non-finite accel or gyro sample exits 4 in every mode, `none`
        # included, though it exponentiates nothing
        cases = [(mode, bad, column) for bad in ("inf", "nan", "-inf")
                 for column in ("az", "wz")
                 for mode in ("none", "central", "distributed")]
        for mode, bad, column in cases:
            name = f"{bad}_{column}_{mode}"
            cfg = base_config(mode=mode, n_vehicles=2, duration_s=1.0)
            cfg["vehicles"] = [write_trial(name, bad, column), clean]
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            proc = subprocess.run(
                [sys.executable, "-m", "meswarm.cli", "--config",
                 str(cfg_path), "--out", str(tmp_path / name)],
                env=env, capture_output=True, timeout=120)
            assert proc.returncode == 4, (name, proc.stderr)

    def test_non_finite_truth_is_3(self, tmp_path, capsys):
        """A nan truth cell once ran to exit 0 with nan in metrics.csv and
        the summary; it is a data error naming the file and line."""
        dt_ns = 5_000_000
        n = 300
        imu = "\n".join(["timestamp_ns,wx,wy,wz,ax,ay,az"] + [
            f"{k * dt_ns},0,0,0,0,0,9.81" for k in range(n)])
        (tmp_path / "imu.csv").write_text(imu + "\n")
        vehicles = []
        for v, bias in enumerate(("0.01", "nan")):
            (tmp_path / f"truth{v}.csv").write_text(
                "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz,bgx,bgy,bgz,bax,bay,baz\n"
                f"0,{v},0,0,1,0,0,0,0,0,0,0,0,0,0,0,0\n"
                f"{(n - 1) * dt_ns},{v},0,0,1,0,0,0,0,0,0,0,{bias},0,0,0,0\n")
            vehicles.append({"type": "dataset", "imu_csv": "imu.csv",
                             "truth_csv": f"truth{v}.csv"})
        cfg = base_config(mode="central", duration_s=1.0)
        cfg["vehicles"] = vehicles
        code, out = run_cli(tmp_path, cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'truth1.csv'}:3: field 13 is not finite" in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("column", [attr for _, _, attr
                                        in harness.SUMMARY_QUANTITIES])
    def test_any_non_finite_error_column_is_4(self, tmp_path, monkeypatch,
                                              capsys, column):
        """Every one of the five error columns is checked, the bias ones
        included."""
        run = harness.run_schedule

        def poisoned(*args, **kwargs):
            result = run(*args, **kwargs)
            result.rows[column][3] = np.nan
            return result

        monkeypatch.setattr(harness, "run_schedule", poisoned)
        code, out = run_cli(tmp_path, base_config(duration_s=0.1))
        assert code == 4
        assert "non-finite estimation error" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("vehicle", [0, 1])
    def test_any_vehicle_diverged_is_4(self, tmp_path, monkeypatch, capsys,
                                       vehicle):
        """The final tick's rows are checked for every vehicle, not only
        the last row, which is vehicle n-1's."""
        run = harness.run_schedule

        def diverged(*args, **kwargs):
            result = run(*args, **kwargs)
            n = len(result.estimates)
            assert result.rows.vehicle[vehicle - n] == vehicle
            result.rows.pos_err[vehicle - n] = 2e3
            return result

        code, _ = run_cli(tmp_path, base_config(duration_s=0.5))
        assert code == 0
        monkeypatch.setattr(harness, "run_schedule", diverged)
        code, _ = run_cli(tmp_path, base_config(duration_s=0.5), "diverged")
        assert code == 4
        assert f"vehicle {vehicle}" in capsys.readouterr().err


class TestDatasetRun:
    def test_hover_dataset_converges(self, tmp_path):
        dt_ns = 5_000_000
        n = 400
        imu_lines = ["timestamp_ns,wx,wy,wz,ax,ay,az"]
        for k in range(n):
            imu_lines.append(f"{k * dt_ns},0,0,0,0,0,9.81")
        (tmp_path / "imu.csv").write_text("\n".join(imu_lines) + "\n")
        (tmp_path / "truth.csv").write_text(
            "ts,px,py,pz,qw,qx,qy,qz,vx,vy,vz\n"
            "0,0.5,0,0.2,1,0,0,0,0,0,0\n"
            f"{(n - 1) * dt_ns},0.5,0,0.2,1,0,0,0,0,0,0\n")
        cfg = base_config(mode="none", n_vehicles=1, duration_s=5.0)
        cfg["markers_m"] = [[0.05, 0, 0]]
        cfg["vehicles"] = [{"type": "dataset", "imu_csv": "imu.csv",
                            "truth_csv": "truth.csv"}]
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        rows = read_summary_csv(out)
        # duration clipped to the file, so the post-transient column is empty
        lines = (out / "metrics.csv").read_text().splitlines()[1:]
        final_pos_err = float(lines[-1].split(",")[2])
        assert final_pos_err < 0.1
        assert rows["Position"][1] < 0.2


def test_cli_import_loads_no_scipy_spatial():
    """The package runs on numpy alone: importing scipy (its spatial or its
    linalg part) would cost set-up time in every CLI process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys, meswarm.cli; print([m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""The README's Library and bus.log decoding snippets run as documented,
its Command line section names exactly the flags the CLI parser takes, the
CI job that runs its example config without scipy runs that config, and
the tests job runs Tier-1 again on fresh hypothesis draws."""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import settings

from meswarm import cli, harness, joint
from meswarm.distributed import PropagationFactor
from meswarm.harness import ScheduleConfig, SinusoidTrajectory, SyntheticSource
from meswarm.models import NoiseModel, WorldConfig

README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


def python_block(heading):
    """The first python block of the README's section `heading`."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs(capsys):
    exec(compile(python_block("Library"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:5]] == [
        "Position", "Rotation", "Linear Velocity", "IMU Gyro Bias",
        "IMU Accel. Bias"]
    assert lines[5].startswith("final position errors [m]: [")
    assert len(lines) == 6


def long_flags(text):
    """Every `--flag` named in text."""
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))


def test_readme_names_exactly_the_parser_flags():
    text = README.read_text()
    start = text.index("\n## Command line\n")
    section = text[start:text.index("\n## ", start + 1)]
    parser_flags = long_flags(cli.build_parser().format_help()) - {"--help"}
    assert long_flags(section) == parser_flags


def test_bus_log_decoding_snippet_reads_a_fresh_log(tmp_path, monkeypatch):
    """The Command line section's decoding snippet, run on a bus.log just
    written, rebuilds every round the nodes applied as one update, bit for
    bit: its slots, its update columns, each vehicle's carried once in the
    round, and its summed terms (captured from joint.round_system, which
    the nodes build a round with); every round's gain correction is finite
    and (15n, m), and every factor comes back bit for bit, None for a
    factor over an empty span.  The nodes apply the landmark rounds of the
    first epoch, before any inter-vehicle round couples the gain, on the
    diagonal blocks, without round_system."""
    noise = NoiseModel(d_landmark=0.1 * np.eye(3),
                       d_intervehicle=0.05 * np.eye(3))
    world = WorldConfig(landmarks={0: np.array([2.0, 0.0, 1.0])},
                        markers={0: np.array([0.05, 0.0, 0.0]),
                                 1: np.array([0.0, 0.05, 0.0])})
    rng = np.random.default_rng(0)
    sources = [SyntheticSource(SinusoidTrajectory.random(rng), noise, v,
                               seed=0) for v in range(2)]
    applied = []
    round_system = joint.round_system

    def captured(*args):
        applied.append(round_system(*args))
        return applied[-1]

    with monkeypatch.context() as m:
        m.setattr(joint, "round_system", captured)
        result = harness.run_schedule(ScheduleConfig(duration_s=0.3),
                                      harness.MODE_DISTRIBUTED, sources,
                                      world, noise)
    (tmp_path / "results").mkdir()
    cli.write_bus_log(tmp_path / "results" / "bus.log", result.bus_records)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(python_block("Command line"), str(README), "exec"), names)
    # 3 epochs of a landmark round and an inter-vehicle round; the first
    # landmark round went on the diagonal blocks
    assert len(names["rounds"]) == len(names["gains"]) == 6
    assert len(applied) == 5
    for got, want in zip(names["rounds"][1:], applied):
        (ix, kc, terms), (ix1, kc1, terms1) = got, want
        assert ix.tobytes() == ix1.tobytes()
        for a, b in zip((kc, *terms), (kc1, *terms1)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for (ix, _, _), gain in zip(names["rounds"], names["gains"]):
        assert gain.shape == (30, len(ix)) and np.isfinite(gain).all()
    assert {len(ix) for ix, _, _ in names["rounds"]} == {12}
    want = [msg.lam for _, msg in result.bus_records
            if isinstance(msg, PropagationFactor)]
    assert len(names["factors"]) == len(want)
    assert any(lam is None for lam in want)
    assert any(lam is not None for lam in want)
    for got, lam in zip(names["factors"], want):
        if lam is None:
            assert got is None
        else:
            assert got.shape == lam.shape and got.tobytes() == lam.tobytes()


def readme_config():
    """The README's minimal synthetic experiment config."""
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):]
    return json.loads(re.search(r"```json\n(.*?)```", section,
                                re.S).group(1))


def test_numpy_only_job_runs_the_readme_config():
    """The config the numpy-only CI job writes with its heredoc is the
    README's minimal synthetic experiment, the job runs it in every mode,
    runs `distributed` again and compares the outputs byte for byte
    (criterion 8), and runs it with both channels at 1 Hz for 10 s in
    every mode."""
    want = readme_config()
    job = WORKFLOW.read_text().split("\n  numpy-only:\n", 1)[1]
    heredoc = re.search(r"<<'JSON'\n(.*?)\n *JSON\n", job, re.S).group(1)
    assert json.loads(textwrap.dedent(heredoc)) == want
    assert "for mode in none central distributed; do" in job
    assert 'pip install .\n' in job
    rerun = job.split("- name: Criterion 8", 1)[1]
    assert "--mode distributed" in rerun
    assert "for f in metrics.csv summary.csv bus.log; do" in rerun
    assert 'cmp "numpy-only/distributed/$f"' in rerun
    sparse = job.split("- name: README config at 1 Hz", 1)[1]
    assert '["landmark_rate_hz"] = 1.0' in sparse
    assert '["intervehicle_rate_hz"] = 1.0' in sparse
    assert "for mode in none central distributed; do" in sparse
    assert "--duration 10" in sparse


def test_readme_config_at_one_hz_exits_0_in_every_mode(tmp_path,
                                                      monkeypatch, capsys):
    """With both channels at 1 Hz the README config runs 10 s to the end
    in every mode (it once exited 4, a gain left indefinite refusing an
    update as singular), and the numpy-only job's criterion 5 step finds
    `central` and `distributed` equal in every entry there, where rounds
    take the first-order fallback, and on the README config's 2 s runs,
    here written in process."""
    root = tmp_path / "numpy-only"
    root.mkdir()
    cfg = readme_config()
    path = root / "experiment.json"
    path.write_text(json.dumps(cfg))
    for mode in ("central", "distributed"):
        assert cli.main(["--config", str(path), "--mode", mode,
                         "--duration", "2", "--out", str(root / mode)]) == 0
    cfg["schedule"]["landmark_rate_hz"] = 1.0
    cfg["schedule"]["intervehicle_rate_hz"] = 1.0
    path = root / "experiment-1hz.json"
    path.write_text(json.dumps(cfg))
    for mode in ("none", "central", "distributed"):
        assert cli.main(["--config", str(path), "--mode", mode,
                         "--duration", "10", "--out",
                         str(root / f"1hz-{mode}")]) == 0, mode
    job = WORKFLOW.read_text().split("\n  numpy-only:\n", 1)[1]
    step = job.split("- name: Criterion 5", 1)[1]
    code = textwrap.dedent(re.search(r"<<'PY'\n(.*?)\n *PY\n", step,
                                     re.S).group(1))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(compile(code, str(WORKFLOW), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        f"criterion 5: numpy-only/{run}central = numpy-only/{run}distributed,"
        " every entry equal" for run in ("", "1hz-")]


def test_numpy_only_job_runs_six_vehicles(tmp_path, monkeypatch, capsys):
    """The numpy-only job also runs the README config with six vehicles
    for 2 s, whose inter-vehicle rounds hold three pairs each, in
    `central` and `distributed` and `distributed` again: its criterion 5
    check finds every entry equal, and the rerun wrote the same
    metrics.csv and bus.log (criterion 8).  Here its Python steps run on
    such runs, written in process."""
    job = WORKFLOW.read_text().split("\n  numpy-only:\n", 1)[1]
    step = job.split("- name: Six vehicles, 2 s", 1)[1].split("\n      - name:",
                                                            1)[0]
    make, check = (textwrap.dedent(code) for code in re.findall(
        r"<<'PY'\n(.*?)\n *PY\n", step, re.S))
    assert "--mode \"$mode\"" in step and "--mode distributed" in step
    assert "for f in metrics.csv bus.log; do" in step
    root = tmp_path / "numpy-only"
    root.mkdir()
    (root / "experiment.json").write_text(json.dumps(readme_config()))
    monkeypatch.chdir(tmp_path)
    exec(compile(make, str(WORKFLOW), "exec"), {})
    cfg = json.loads((root / "experiment-6v.json").read_text())
    assert len(cfg["vehicles"]) == len(cfg["markers_m"]) == 6
    for mode, out in (("central", "6v-central"),
                      ("distributed", "6v-distributed"),
                      ("distributed", "6v-distributed-rerun")):
        assert cli.main(["--config", str(root / "experiment-6v.json"),
                         "--mode", mode, "--duration", "2", "--out",
                         str(root / out)]) == 0
    capsys.readouterr()
    exec(compile(check, str(WORKFLOW), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "criterion 5: numpy-only/6v-central = numpy-only/6v-distributed, "
        "every entry equal"]
    for name in ("metrics.csv", "bus.log"):
        assert ((root / "6v-distributed" / name).read_bytes()
                == (root / "6v-distributed-rerun" / name).read_bytes())


def test_numpy_only_job_decodes_the_bus_log_with_the_readme_snippet(
        tmp_path, monkeypatch, capsys):
    """The numpy-only job's last step runs the README's decoding snippet on
    the job's 2 s `distributed` log of the README config: it checks the
    line count per epoch, that every epoch's broadcasts split into its
    3 + 3 rounds and that every round's staged terms rebuild to a finite
    (15n, m) G, and prints the lines and bytes per message type.  Here it
    runs on such a log, written in process."""
    job = WORKFLOW.read_text().split("\n  numpy-only:\n", 1)[1]
    step = job.split("- name: bus.log through the README decoding snippet",
                     1)[1]
    code = textwrap.dedent(re.search(r"<<'PY'\n(.*?)\n *PY\n", step,
                                     re.S).group(1))
    root = tmp_path / "numpy-only"
    root.mkdir()
    (root / "experiment.json").write_text(json.dumps(readme_config()))
    assert cli.main(["--config", str(root / "experiment.json"), "--mode",
                     "distributed", "--duration", "2", "--out",
                     str(root / "distributed")]) == 0
    (tmp_path / "README.md").write_text(README.read_text())
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(compile(code, str(WORKFLOW), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    log = root / "distributed" / "bus.log"
    sizes = [int(line.rsplit(", ", 1)[1][:-2]) for line in lines[:4]]
    assert [line.split(":")[0] for line in lines[:4]] == [
        f"bus.log {kind}" for kind in ("peer_state_reply",
                                       "peer_state_request",
                                       "propagation_factor",
                                       "update_broadcast")]
    assert sum(sizes) == log.stat().st_size
    assert lines[4:] == ["bus.log: 120 rounds of 300 broadcasts rebuild to "
                         "a finite G, 1440 lines in 20 epochs"]


def test_tests_job_reruns_tier1_on_fresh_hypothesis_draws():
    """On CI hypothesis loads its derandomized "ci" profile, so the Tier-1
    step replays the same draws on every run.  The step after it runs the
    suite again under "ci-fresh" (tests/conftest.py), "ci" with fresh
    draws only, seeded by the run number, which it echoes; the Tier-1 step
    itself stays as it was."""
    job = WORKFLOW.read_text().split("\n  tests:\n", 1)[1].split(
        "\n  numpy-only:\n", 1)[0]
    rest = job.split("      - name: Tier-1 tests\n", 1)[1]
    assert rest.startswith(
        "        run: PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m "
        "pytest -q --continue-on-collection-errors\n"
        "      - name: Tier-1 tests on fresh hypothesis draws\n")
    step = rest.split("- name: Tier-1 tests on fresh hypothesis draws", 1)[1]
    step = step.split("\n      - name:", 1)[0]
    assert 'echo "hypothesis seed: ${{ github.run_number }}"' in step
    assert "python -m pytest -q" in step
    assert "--hypothesis-profile=ci-fresh" in step
    assert "--hypothesis-seed=${{ github.run_number }}" in step
    fresh, ci = settings.get_profile("ci-fresh"), settings.get_profile("ci")
    assert ci.derandomize and not fresh.derandomize
    for name in ("max_examples", "database", "deadline", "phases",
                 "suppress_health_check", "print_blob", "verbosity",
                 "report_multiple_bugs", "stateful_step_count", "backend"):
        assert getattr(fresh, name) == getattr(ci, name), name


def traced_smoke_step():
    """The tests job's traced benchmark smoke step, up to the next step."""
    job = WORKFLOW.read_text().split("\n  tests:\n", 1)[1].split(
        "\n  numpy-only:\n", 1)[0]
    step = job.split("      - name: Traced benchmark smoke", 1)[1]
    return step.split("\n      - name:", 1)[0]


def test_tests_job_runs_a_traced_benchmark_smoke(tmp_path):
    """After the untraced smoke the tests job runs every workload traced
    for 2 s, and its check fails unless all three are correct with no
    failed operation and collab-n6 and imu1k-n6 each count calls of
    a_check_single, lambda_single and propagate_local.  The check is run
    here on a passing output and on one broken each way."""
    job = WORKFLOW.read_text().split("\n  tests:\n", 1)[1]
    assert job.index("- name: Benchmark smoke") < job.index(
        "- name: Traced benchmark smoke")
    step = traced_smoke_step()
    assert ("python3 perfbench/run.py --seconds 2 --trace 1 | tee "
            "perfbench-trace.txt\n") in step
    check = textwrap.dedent(re.search(r"<<'PY'\n(.*?)\n\s*PY\n", step,
                                      re.S).group(1))
    layers = ("models.a_check_single.calls", "models.lambda_single.calls",
              "distributed.propagate_local.calls")

    def result(calls=1, correct=True, failed=0):
        metrics = {name: {"value": calls, "unit": "count"} for name in layers}
        return {"correct": correct, "attempted": 3, "failed": failed,
                "metrics": metrics}

    def exit_code(results):
        out = tmp_path / "trace.txt"
        out.write_text("# env {}\n" + "".join(
            f"{name}: {json.dumps(r)}\n" for name, r in results.items()))
        return subprocess.run([sys.executable, "-", str(out)], input=check,
                              text=True, capture_output=True).returncode

    good = {name: result() for name in ("collab-n6", "imu1k-n6",
                                        "replay-n3")}
    assert exit_code(good) == 0
    # replay-n3 need not count them
    assert exit_code(dict(good, **{"replay-n3": result(calls=0)})) == 0
    for name in ("collab-n6", "imu1k-n6"):
        assert exit_code(dict(good, **{name: result(calls=0)})) != 0
    for broken in (result(correct=False), result(failed=1)):
        assert exit_code(dict(good, **{"replay-n3": broken})) != 0
    assert exit_code({"collab-n6": result(), "imu1k-n6": result()}) != 0

"""The repository benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload collab-n6 --seed 1 --seconds 24 --trace 0

runs one workload in a child process with BLAS and OpenMP pinned to one
thread, and prints as its last line a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Without ``--workload`` it runs every workload in turn and prints one line
per workload.  BENCHMARK.json at the repository root lists the workloads and
metrics and why each was chosen.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402

WORKLOADS = ("collab-n6", "imu1k-n6", "replay-n3")
TIMEOUT_S = 175


def run_workload(name, seed, seconds, trace):
    """Run one workload's child; returns its result object, or None."""
    env = dict(os.environ, **checkout.PINNED_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env["PERFBENCH_T_SPAWN"] = repr(time.perf_counter())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: {name} printed no result", file=sys.stderr)
        return None
    expected = declared_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        print(f"perfbench: {name} metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
        return None
    return result


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(checkout.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all, in turn)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    checkout.require_package()
    os.makedirs(checkout.OUT, exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        if len(names) > 1:
            print(f"{name}: " + json.dumps(result))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checkout.MissingSource as exc:
        sys.exit(exc.code)

"""Runs `meswarm.cli.main` as a user would, with stamps at the input boundary.

Usage: python3 perfbench/cli_child.py --result OUT.json --calibrate-at K,..
       [--spans SPANS.csv] -- <meswarm CLI arguments>

A `DatasetSource` subclass, which `dataio.build_sources` picks up, reports
each pull of vehicle 0's sample to a `clock.TickClock`, so the gap between
two pulls is one tick's processing time.  With --spans the run is traced.
The result file holds the clock, the end time, the exit code, the peak
resident memory and the warning counts.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--calibrate-at", required=True,
                   help="comma-separated pulls that time the reference loop")
    p.add_argument("--spans")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    checkout.use_checkout_package()
    from meswarm import cli, dataio
    from clock import TickClock
    from tracer import Tracer, WarningCounter


    class StampedDatasetSource(dataio.DatasetSource):
        def imu_at_tick(self, k):
            if self.vehicle == 0:
                clock.pull(k)
            return super().imu_at_tick(k)

    dataio.DatasetSource = StampedDatasetSource
    warnings = WarningCounter()
    tracer = Tracer() if args.spans else None
    clock = TickClock((int(k) for k in args.calibrate_at.split(",")),
                      on_pause=tracer.exclude if tracer else None)
    # cli.main configures logging itself; the counter sits on the package
    # logger, which that configuration leaves alone
    warnings.attach()
    if tracer:
        tracer.install()
    t_main = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        t_end = time.perf_counter()
        if tracer:
            tracer.uninstall()
        warnings.detach()
    out = {"code": code, "clock": clock.to_dict(), "t_main": t_main,
           "t_end": t_end,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "warnings": warnings.counts}
    if tracer:
        out["layers"] = tracer.layer_totals()
        out["counts"] = dict(tracer.counts)
        out["root_s"] = tracer.root_seconds()
        tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

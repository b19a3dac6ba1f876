"""Command-line entry point.

Loads an experiment configuration, runs the selected filter mode, and writes
per-tick metrics, the five-quantity summary table, the message-bus log, and
the fully-resolved configuration into the output directory.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  The ME_SWARM_LOG environment variable sets the log level.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import dataio, distributed, harness
from .dataio import ConfigError, DataError
from .joint import UpdateSingularError

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class NumericalFailure(RuntimeError):
    """The filter diverged or hit a singular update."""


def build_parser():
    p = argparse.ArgumentParser(
        prog="meswarm",
        description="Run the collaborative localisation filter on a "
                    "configured vehicle network.")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--mode", choices=("none", "central", "distributed"),
                   help="override the config's filter mode")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--duration", type=float, metavar="S",
                   help="override the run duration in seconds")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory (created if missing)")
    return p


def write_metrics_csv(path, rows):
    """One line per record of a harness.METRICS_DTYPE record array."""
    with open(path, "w") as fh:
        fh.write("t,vehicle,pos_err,rot_err,vel_err,gyro_bias_err,"
                 "accel_bias_err\n")
        # tolist gives Python floats and ints, which format as the fields
        # of one row object did
        for t, v, pos, rot, vel, gyro_bias, accel_bias in rows.tolist():
            fh.write(f"{t:.6f},{v},{pos:.9e},{rot:.9e},{vel:.9e},"
                     f"{gyro_bias:.9e},{accel_bias:.9e}\n")


def write_summary(csv_path, txt_path, summary):
    with open(csv_path, "w") as fh:
        fh.write("quantity,unit,whole_run_mean,post_transient_mean\n")
        for name, unit, whole, post in summary:
            fh.write(f"{name},{unit},{whole:.9e},{post:.9e}\n")
    width = max(len(f"{name} [{unit}]") for name, unit, _, _ in summary)
    with open(txt_path, "w") as fh:
        fh.write(f"{'Quantity':<{width}}  {'whole run':>12}  "
                 f"{'post-transient':>14}\n")
        for name, unit, whole, post in summary:
            fh.write(f"{name + ' [' + unit + ']':<{width}}  {whole:>12.6f}  "
                     f"{post:>14.6f}\n")


def write_bus_log(path, records):
    """One line per (tick, message) bus record, in delivery order: the
    message's canonical encoding, rendered here and nowhere earlier."""
    with open(path, "w") as fh:
        for tick, msg in records:
            fh.write(distributed.encode_message(msg, tick) + "\n")


def run_experiment(cfg):
    """Assemble and execute one run; raises NumericalFailure on divergence."""
    noise = dataio.build_noise_model(cfg)
    world = dataio.build_world(cfg)
    sources = dataio.build_sources(cfg, noise)
    schedule = dataio.build_schedule(cfg, sources)
    prior = dataio.build_prior(cfg)
    try:
        result = harness.run_schedule(schedule, cfg.mode, sources, world,
                                      noise, prior=prior)
    except (UpdateSingularError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(str(exc)) from exc
    rows = result.rows
    if not all(np.isfinite(rows[attr]).all()
               for _, _, attr in harness.SUMMARY_QUANTITIES):
        raise NumericalFailure("non-finite estimation error")
    # rows are tick-major: the final tick holds one row per vehicle
    final = rows[-len(result.estimates):]
    worst = final[int(np.argmax(final.pos_err))]
    if worst.pos_err > 1e3:
        raise NumericalFailure(
            f"filter diverged (final position error {worst.pos_err:.1f} m, "
            f"vehicle {worst.vehicle})")
    return result


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("ME_SWARM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # a bad flag (2) or --help (0): returned as every other exit code
        # is, so an in-process caller gets a code, not an exception
        return exc.code
    try:
        cfg = dataio.load_config(args.config)
        if args.mode is not None:
            cfg.mode = args.mode
        if args.seed is not None:
            cfg.seed = args.seed
        if args.duration is not None:
            cfg.schedule["duration_s"] = args.duration
        dataio.schedule_config(cfg)

        os.makedirs(args.out, exist_ok=True)
        result = run_experiment(cfg)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        log.error("data error: %s", exc)
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailure as exc:
        log.error("numerical failure: %s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    write_metrics_csv(os.path.join(args.out, "metrics.csv"), result.rows)
    write_summary(os.path.join(args.out, "summary.csv"),
                  os.path.join(args.out, "summary.txt"), result.summary)
    write_bus_log(os.path.join(args.out, "bus.log"), result.bus_records)
    with open(os.path.join(args.out, "effective_config.json"), "w") as fh:
        json.dump(cfg.effective(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "summary.txt")) as fh:
        sys.stdout.write(fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main())

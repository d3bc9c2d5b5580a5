"""Run one ltvlab benchmark workload for a fixed time and print its metrics.

    python3 benchmarks/bench.py --workload sinlog-diagnose --seed 0 --seconds 35 --trace 0

Load model: one process per workload and one client in a closed loop, so
each job starts when the previous one ends; BLAS runs on one thread.  The
program is imported from ``src/`` of this checkout.  Workloads and the
reasons for them are in ``workloads.py``, the metrics in ``runner.py``.

Every job's outputs pass through closed-form gates; a command that exits
nonzero, raises or fails a gate counts as failed.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it give provenance, the gate errors and every metric with
its unit.  Exits 2 without a result when ``src/ltvlab`` is missing.
"""

import argparse
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sinlog-diagnose", "diag12-perturb", "tri3-file-assign")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # a SIGTERM still runs the cleanup in finally blocks
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (SRC / "ltvlab" / "__init__.py").is_file():
        print(f"benchmark: no ltvlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import ltvlab

    if Path(ltvlab.__file__).resolve().parent != SRC / "ltvlab":
        print(f"benchmark: imported ltvlab from {ltvlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from benchmarks import runner

    return runner.run(args)


if __name__ == "__main__":
    sys.exit(main())

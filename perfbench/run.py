#!/usr/bin/env python3
"""The lienilp benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # first input of every workload
    python3 perfbench/run.py --pin       # rewrite expected.json

Run from the root of a source tree; the library is imported from its
``src/`` directory.  Workloads are listed in ``inputs.py``.  A run
repeats cold passes over the workload's inputs for about S seconds and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
record (environment, inputs drawn, every pass) and, when traced, the
spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="run the first input of every workload once "
                           "and check that every metric is reported")
    mode.add_argument("--pin", action="store_true",
                      help="record the current outputs of the fixed "
                           "inputs in expected.json")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.smoke or args.pin) and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lienilp" / "__init__.py").is_file():
        print(f"perfbench: no lienilp sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller chose otherwise; must be set
    # before numpy loads.  On 2 CPUs a second thread left the oracle's
    # wall time unchanged while spinning a second core.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import harness
    if args.smoke:
        return harness.smoke()
    if args.pin:
        return harness.pin()
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

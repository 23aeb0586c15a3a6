#!/usr/bin/env python3
"""etacalc benchmark: one workload per process, one closed-loop caller.

Run from the repository root:

    python3 bench/run.py --workload suite --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a record
of the run (environment, report digests, every unit) goes to .bench_out/.
The package is imported from src/ of the same checkout, never from an
installed copy.
"""

import argparse
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# one BLAS thread: steadier than two on a small shared machine; the count
# actually in effect is recorded with every run
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "etacalc", "__init__.py")):
        print(f"error: no etacalc package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    if args.probe:
        t0 = perf_counter()
        import etacalc  # noqa: F401
        import etacalc.cli  # noqa: F401
        import_s = perf_counter() - t0
        import harness

        return harness.probe(args.probe, import_s)

    import harness

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in harness.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    run = harness.trace if args.trace else harness.measure
    result = run(args.workload, args.seed, args.seconds, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

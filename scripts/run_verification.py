#!/usr/bin/env python3
"""Run the standard verification suite and print its summary table.

Usage:
    python3 scripts/run_verification.py [--seed N] [--report PATH]

The command-line route to ``standard_suite(N)``: N is a non-negative
integer (default 0) and ``--report`` writes the report JSON, whose
``meta.seed`` is N.  Exit status is 0 when every check passes, 1
otherwise, and 2 when the arguments are refused.
"""

import argparse
import sys

from etacalc.cli import write_report
from etacalc.verify import standard_suite


def _seed(text: str) -> int:
    """A seed from the command line: a non-negative integer, the seeds
    numpy's generator takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return int(text)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--report", help="write the JSON report here")
    args = ap.parse_args()

    report = standard_suite(args.seed)
    for line in report.summary_lines():
        print(line)
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

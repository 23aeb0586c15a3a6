#!/usr/bin/env python3
"""Print the SHA-256 of every deterministic report the package produces,
and list the report entries that moved against an earlier record.

Usage:
    python3 scripts/report_digests.py [--json PATH] [--against OLD.json]

Digested: ``standard_suite(s).to_json()`` for s = 0 .. 9, the report files
of the bundled scenarios (every ``scenarios/*.json``, in name order) run by
``etacalc run --emit-csv`` in a temporary directory, read as written less
their final newline (so a report's digest is that of its ``to_json()``
text, as for the suite), and the CSV files those runs write.

``--json PATH`` writes the digests and every entry's lhs, rhs and residual.
``--against OLD.json`` reads such a record, made from another tree, and
lists every digest that differs and every entry whose lhs, rhs or residual
moved, with |delta| of each; digests and entries that are missing from the
new record count as differing, and those only in the new record (a newly
bundled scenario) are listed under their own headings without counting.
It exits 1 if anything differs, so that unchanged report bytes read as
exit 0.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from etacalc.cli import main as etacalc_main
from etacalc.verify import standard_suite

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _values(report: dict) -> dict[str, list[float]]:
    """check_id -> [Re lhs, Im lhs, Re rhs, Im rhs, residual]."""
    return {
        e["check_id"]: [
            e["lhs"]["re"], e["lhs"]["im"], e["rhs"]["re"], e["rhs"]["im"], e["residual"]
        ]
        for e in report["entries"]
    }


def _scenario_run(scenario: pathlib.Path) -> tuple[bytes, dict[str, bytes]]:
    """The report file's bytes and the CSV files of one bundled scenario,
    run in a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = etacalc_main(["run", str(scenario), "--emit-csv"])
            if code != 0:
                raise SystemExit(f"etacalc run {scenario.name} exited {code}")
            root = pathlib.Path(tmp)
            (path,) = root.rglob(f"{scenario.stem}_report.json")
            report = path.read_bytes()
            csvs = {p.name: p.read_bytes() for p in sorted(root.rglob("*.csv"))}
        finally:
            os.chdir(cwd)
    return report, csvs


def record() -> dict:
    """{"digests": {name: sha256}, "entries": {report: {check_id: values}}}."""
    digests, entries = {}, {}
    for seed in range(10):
        name = f"standard_suite({seed})"
        report = standard_suite(seed)
        digests[name] = _sha256(report.to_json().encode())
        entries[name] = _values(report.to_json_obj())
    for scenario in sorted(SCENARIOS.glob("*.json")):
        name = scenario.stem
        report, csvs = _scenario_run(scenario)
        digests[f"{name} report"] = _sha256(report.removesuffix(b"\n"))
        digests.update((f"{name} {n}", _sha256(data)) for n, data in csvs.items())
        entries[name] = _values(json.loads(report))
    return {"digests": digests, "entries": entries}


def compare(old: dict, new: dict, old_name: str) -> tuple[list[str], bool]:
    """The lines ``--against`` prints after the digests, and whether
    anything in the old record differs in, or is missing from, the new one.

    Digests: those in both that differ, those missing from the new record
    and those only in the new record, each under its own heading (the last
    two only when there are any).  Entries: one line per entry of the old
    record whose lhs, rhs or residual moved (|delta| of each) or that is
    missing from the new record, then the entries only in the new one."""
    both = old["digests"].keys() & new["digests"].keys()
    changed = sorted(n for n in both if old["digests"][n] != new["digests"][n])
    missing = sorted(old["digests"].keys() - new["digests"].keys())
    added = sorted(new["digests"].keys() - old["digests"].keys())
    lines = [f"digests that differ from {old_name}: {', '.join(changed) or 'none'}"]
    if missing:
        lines.append(f"digests missing from the new record: {', '.join(missing)}")
    if added:
        lines.append(f"digests only in the new record: {', '.join(added)}")
    moved, only_new, total = [], [], 0
    for report in sorted(old["entries"].keys() | new["entries"].keys()):
        before = old["entries"].get(report, {})
        after = new["entries"].get(report, {})
        only_new.extend(f"{report}  {c}" for c in sorted(after.keys() - before.keys()))
        for check_id in sorted(before):
            total += 1
            if check_id not in after:
                moved.append(f"{report}  {check_id}  missing from the new record")
                continue
            b, a = before[check_id], after[check_id]
            if a == b:
                continue
            lhs = abs(complex(a[0], a[1]) - complex(b[0], b[1]))
            rhs = abs(complex(a[2], a[3]) - complex(b[2], b[3]))
            res = abs(a[4] - b[4])
            moved.append(
                f"{report}  {check_id}  |d lhs| {lhs:.3e}  |d rhs| {rhs:.3e}  "
                f"|d residual| {res:.3e}"
            )
    lines += [f"{len(moved)} of {total} entries moved", *moved]
    if only_new:
        lines += [f"entries only in the new record: {len(only_new)}", *only_new]
    return lines, bool(changed or missing or moved)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write the digests and entry values here")
    ap.add_argument("--against", help="list the entries that moved since this record")
    args = ap.parse_args()

    new = record()
    for name, digest in new["digests"].items():
        print(f"{digest}  {name}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        lines, differs = compare(old, new, args.against)
        for line in lines:
            print(line)
        if differs:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the SHA-256 of every deterministic report the package produces,
and list the report entries that moved against an earlier record.

Usage:
    python3 scripts/report_digests.py [--json PATH] [--against OLD.json]

Digested: ``standard_suite(s).to_json()`` for s = 0 .. 9, the reports of
the bundled scenarios (every ``scenarios/*.json``, in name order) run by
``etacalc run --emit-csv`` in a temporary directory (without
``generated_at``, the only field that changes between runs) and the CSV
files those runs write.

``--json PATH`` writes the digests and every entry's lhs, rhs and residual.
``--against OLD.json`` reads such a record, made from another tree, and
lists every entry whose lhs, rhs or residual moved, with |delta| of each,
and every entry present on one side only; it exits 1 if a digest differs
or an entry moved, so that unchanged report bytes read as exit 0.
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


def _scenario_run(scenario: pathlib.Path) -> tuple[dict, dict[str, bytes]]:
    """The report (without generated_at) and the CSV files of one bundled
    scenario, run in a temporary directory."""
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
            report = json.loads(path.read_text())
            csvs = {p.name: p.read_bytes() for p in sorted(root.rglob("*.csv"))}
        finally:
            os.chdir(cwd)
    report.pop("generated_at")
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
        text = json.dumps(report, sort_keys=True, indent=2)
        digests[f"{name} report"] = _sha256(text.encode())
        digests.update((f"{name} {n}", _sha256(data)) for n, data in csvs.items())
        entries[name] = _values(report)
    return {"digests": digests, "entries": entries}


def moved_lines(old: dict, new: dict) -> list[str]:
    """One line per entry whose values differ between two records: the
    report, the check id and |delta| of lhs, rhs and residual."""
    lines, total = [], 0
    for report in sorted(old["entries"].keys() | new["entries"].keys()):
        before = old["entries"].get(report, {})
        after = new["entries"].get(report, {})
        for check_id in sorted(before.keys() | after.keys()):
            total += 1
            if check_id not in after or check_id not in before:
                side = "new" if check_id in after else "old"
                lines.append(f"{report}  {check_id}  only in the {side} record")
                continue
            b, a = before[check_id], after[check_id]
            if a == b:
                continue
            lhs = abs(complex(a[0], a[1]) - complex(b[0], b[1]))
            rhs = abs(complex(a[2], a[3]) - complex(b[2], b[3]))
            res = abs(a[4] - b[4])
            lines.append(
                f"{report}  {check_id}  |d lhs| {lhs:.3e}  |d rhs| {rhs:.3e}  "
                f"|d residual| {res:.3e}"
            )
    return [f"{len(lines)} of {total} entries moved"] + lines


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
        changed = [
            name
            for name in sorted(old["digests"].keys() | new["digests"].keys())
            if old["digests"].get(name) != new["digests"].get(name)
        ]
        print(f"digests that differ from {args.against}: {', '.join(changed) or 'none'}")
        moved = moved_lines(old, new)
        for line in moved:
            print(line)
        if changed or len(moved) > 1:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

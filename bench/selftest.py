"""Self-test of the benchmark itself, on tiny inputs.

1. Each workload's smoke pool passes its oracle, and the same pool with a
   corrupted oracle value fails every unit, so ``fail_frac`` can rise above
   0 for the reason the oracle names.
2. Each workload's printed metric names and units, traced and untraced,
   match BENCHMARK.json, and the smoke runs report no failure.

Run with ``python3 bench/run.py --self-test``; exit status 0 means all
checks passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

from harness import END_TO_END, ROOT, RUN_PY, Loop, Reference, workdir_for
from tracing import PER_LAYER
from workloads import WORKLOADS


def oracle_can_fail(name: str) -> list[str]:
    workload = WORKLOADS[name]
    workdir = workdir_for(f"selftest-{name}")
    try:
        pool = workload.make_pool(np.random.default_rng(0), True, workdir)
        reference = Reference(workload.reference)
        clean = Loop(workload, pool, reference)
        corrupted = Loop(workload, [workload.corrupt(i) for i in pool], reference)
        clean.run_pass("clean")
        corrupted.run_pass("corrupted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = []
    if any(not r.ok for r in clean.records):
        problems.append(f"{name}: smoke pool fails its oracle")
    if not all(not r.ok for r in corrupted.records):
        problems.append(f"{name}: a corrupted oracle value still passes")
    return problems


def printed_metrics(name: str, trace: int, expected: list[dict]) -> list[str]:
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", name, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        return [f"{name} trace={trace}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        problems.append(
            f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
            f"extra {sorted(set(printed.items()) - set(wanted.items()))}, "
            f"missing {sorted(set(wanted.items()) - set(printed.items()))}"
        )
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for table, declared in ((END_TO_END, spec["end_to_end"]), (PER_LAYER, spec["per_layer"])):
        if list(table) != [(d["name"], d["unit"], d["better"]) for d in declared]:
            problems.append("BENCHMARK.json metric table differs from the benchmark's")
    for name in WORKLOADS:
        problems += oracle_can_fail(name)
        problems += printed_metrics(name, 0, spec["end_to_end"])
        problems += printed_metrics(name, 1, spec["per_layer"])
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 1 if problems else 0

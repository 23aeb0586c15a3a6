"""Closed-loop measurement, the traced run and the set-up probes.

One caller runs the units of one workload back to back: the next unit
starts only after the previous one and its oracle have finished.  Units
are timed around the program call alone; oracles run outside the clock.
A run makes whole passes over the workload's pool, so every pool item
weighs the same in every figure.  The number of passes follows from the
requested seconds and the workload's fixed ``pass_s`` and ``min_passes``
alone, never from measured time: the unit count, and with it the pool item that the tail
percentile lands on, is then the same on every commit and every machine.

The speed of a small shared machine drifts by up to 2x over tens of
seconds, which buries any change to the program.  So a fixed reference
kernel, which does not touch etacalc, runs after every unit, and each unit
time is rescaled by the reference times measured just before and after it:
``unit_s * REFERENCE_NOMINAL_S / reference_s``.  The end-to-end timings are
these normalised seconds (unit ``norm_s``); the raw wall times are recorded
next to them.  A change that slows the reference as much as the program
(process-wide numpy or BLAS state, garbage-collector pressure from objects
etacalc keeps alive) is divided out and does not show.
"""

from __future__ import annotations

import ctypes
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy

import etacalc
from tracing import LAYERS, PER_LAYER, UNIT_SPAN, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "bench", "run.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# unit_tail_s is the 11th-slowest unit: the highest percentile with ten
# samples beyond it, so a run needs at least eleven units
TAIL_BEYOND = 10
MIN_UNITS = TAIL_BEYOND + 1
SETUP_PROBES = 3
# the traced run's untraced and traced halves each make this share of the
# passes of an untraced run with the same --seconds, after one warm-up pass
TRACE_PASS_SHARE = 0.5
# normalised seconds are seconds on a machine where one reference kernel
# call takes this long (about its time on the 2-core shared Xeon virtual
# machine it was sized on)
REFERENCE_NOMINAL_S = 0.03
# after a long unit the reference repeats, up to this share of the unit's
# time, and its median is used: one short call can hit a transient stall
# that the long unit averages out
REFERENCE_SHARE = 0.05

NORM_S = "norm_s"
# (metric, unit, better); setup_s is normalised too, but its unit is fixed
# as "s" by the benchmark contract
END_TO_END = [
    ("units_per_s", "1/" + NORM_S, "higher"),
    ("unit_p50_s", NORM_S, "lower"),
    ("unit_tail_s", NORM_S, "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


# ----------------------------------------------------------------------
# environment record


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded in this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# machine-speed reference


class Reference:
    """Fixed work shaped like a workload's units, of one of three kinds.

    ``objects``: a walk, in a fixed random order, over a heap of small
    dicts holding tuples, floats and tiny arrays, then small complex
    eigen-solves and Kronecker products.  Units that are mostly
    interpreter work walk many such objects; a loop over a few keys would
    stay in the fastest cache and miss the pressure that other tenants put
    on the slower ones.

    ``mixed``: an interpreter loop over a few keys, the same small
    eigen-solves and one 100x100 eigen-solve, for units that spend most of
    their time in small numpy and LAPACK calls.

    ``dense``: dense eigen-solves and products with a 1000x1000 matrix,
    for units that are one large dense eigen-solve: interpreter work slows
    down more than LAPACK does on a busy machine and would over-correct
    them, while the large matrix, like the unit's, lives outside the
    per-core cache."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.small = rng.normal(size=(64, 8, 8)) + 1j * rng.normal(size=(64, 8, 8))
        self.dense = rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100))
        if kind == "objects":
            self.objects = [
                {"k": (i, i + 1), "v": float(i), "a": np.zeros(2)} for i in range(20000)
            ]
            self.order = rng.permutation(len(self.objects)).tolist()
        elif kind == "dense":
            self.large = rng.normal(size=(1000, 1000)) + 1j * rng.normal(size=(1000, 1000))

    def seconds(self) -> float:
        t0 = perf_counter()
        if self.kind == "dense":
            for _ in range(2):
                np.linalg.eigvals(self.dense)
            for _ in range(4):
                self.large @ self.large[0]
            return perf_counter() - t0
        if self.kind == "objects":
            acc = 0.0
            for i in self.order:
                obj = self.objects[i]
                acc += obj["v"] * obj["k"][0]
        else:
            counts: dict = {}
            for i in range(30000):
                key = (i % 7, i % 11)
                counts[key] = counts.get(key, 0) + i
        for m in self.small:
            np.linalg.eigvals(m)
            np.kron(m[:4, :4], m[:2, :2])
        if self.kind == "mixed":
            np.linalg.eigvals(self.dense)
        return perf_counter() - t0


# ----------------------------------------------------------------------
# closed loop


@dataclass
class Record:
    key: str
    unit: str
    seconds: float
    reference_s: float
    ok: bool
    reason: str

    @property
    def normalised_s(self) -> float:
        return self.seconds * REFERENCE_NOMINAL_S / self.reference_s


class Loop:
    """Runs pool items one after another and keeps every unit's record.
    A key seen before must reproduce its report digest."""

    def __init__(self, workload, pool, reference: Reference):
        self.workload = workload
        self.pool = pool
        self.reference = reference
        # the first calls run on cold caches
        self.last_reference_s = statistics.median(reference.seconds() for _ in range(3))
        self.tracer: Tracer | None = None
        self.records: list[Record] = []
        self.digests: dict[str, str] = {}

    def run_pass(self, label: str) -> None:
        for i, item in enumerate(self.pool):
            self.run_unit(item, f"{label}:{i}")

    def run_unit(self, item, unit: str) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.unit = unit
            span = tracer.open(UNIT_SPAN)
        t0 = perf_counter()
        try:
            result, error = self.workload.run(item), None
        except Exception:
            result, error = None, traceback.format_exc()
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.unit = None
        if error is None:
            try:
                outcome = self.workload.check(item, result)
            except Exception:
                outcome = Outcome(False, "oracle raised: " + traceback.format_exc())
        else:
            outcome = Outcome(False, "unit raised: " + error)
        if outcome.digest is not None:
            first = self.digests.setdefault(item.key, outcome.digest)
            if outcome.ok and first != outcome.digest:
                outcome = Outcome(False, "report bytes differ from an earlier run of this input")
        if not outcome.ok:
            print(f"unit {unit} ({item.key}) failed: {outcome.reason}", file=sys.stderr)
        repeats = max(1, round(REFERENCE_SHARE * seconds / self.last_reference_s))
        after = statistics.median(self.reference.seconds() for _ in range(repeats))
        before, self.last_reference_s = self.last_reference_s, after
        self.records.append(
            Record(item.key, unit, seconds, (before + self.last_reference_s) / 2,
                   outcome.ok, outcome.reason)
        )


def workdir_for(name: str) -> str:
    path = os.path.join(OUT_DIR, "work", f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# set-up: fresh interpreter, import, first tiny unit


def probe(name: str, import_s: float) -> int:
    """Child side of a set-up probe: ``import_s`` was spent importing
    etacalc and etacalc.cli; now time one tiny unit (input generation and
    oracle excluded) and print both times."""
    workload = WORKLOADS[name]
    workdir = workdir_for(f"probe-{name}")
    try:
        item = workload.make_pool(np.random.default_rng(0), True, workdir)[0]
        t0 = perf_counter()
        result = workload.run(item)
        warmup_s = perf_counter() - t0
        outcome = workload.check(item, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = Reference(workload.reference)
    reference_s = statistics.median(reference.seconds() for _ in range(3))
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s,
                      "reference_s": reference_s, "ok": outcome.ok}))
    return 0 if outcome.ok else 1


def setup_seconds(name: str) -> dict:
    done = subprocess.run(
        [sys.executable, RUN_PY, "--probe", name],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    times = json.loads(done.stdout.strip().splitlines()[-1])
    wall = times["import_s"] + times["warmup_s"]
    return {"wall_s": wall, "normalised_s": wall * REFERENCE_NOMINAL_S / times["reference_s"]}


# ----------------------------------------------------------------------
# the two kinds of run


def timing(times: list[float]) -> dict:
    times = sorted(times)
    n = len(times)
    return {
        "units_per_s": n / sum(times),
        "unit_p50_s": statistics.median(times),
        "unit_tail_s": times[n - MIN_UNITS],
    }


def pass_count(workload, pool_size: int, seconds: float) -> int:
    """Passes of an untraced run: enough for ``seconds`` at the workload's
    nominal pass time, for the workload's ``min_passes`` and for at least
    MIN_UNITS units."""
    return max(
        workload.min_passes,
        math.ceil(MIN_UNITS / pool_size),
        math.ceil(seconds / workload.pass_s),
    )


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """End-to-end metrics, untraced."""
    setup = [setup_seconds(name) for _ in range(1 if smoke else SETUP_PROBES)]
    workload = WORKLOADS[name]
    workdir = workdir_for(name)
    try:
        pool = workload.make_pool(np.random.default_rng(seed), smoke, workdir)
        loop = Loop(workload, pool, Reference(workload.reference))
        passes = pass_count(workload, len(pool), seconds)
        for p in range(passes):
            loop.run_pass(f"p{p}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(loop.records)
    metrics = {
        **timing([r.normalised_s for r in loop.records]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s["normalised_s"] for s in setup),
    }
    notes = {
        "passes": passes,
        "units": n,
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "wall": {
            **timing([r.seconds for r in loop.records]),
            "setup_s": statistics.median(s["wall_s"] for s in setup),
        },
        "setup_probes": setup,
    }
    return finish(name, seed, 0, loop, metrics, END_TO_END, notes)


def trace(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Per-layer metrics: one warm-up pass that counts nowhere, then a
    fixed number of untraced passes and as many traced ones; the unit-time
    ratio of the two is the tracing overhead."""
    workload = WORKLOADS[name]
    workdir = workdir_for(name)
    tracer = Tracer()
    try:
        pool = workload.make_pool(np.random.default_rng(seed), smoke, workdir)
        loop = Loop(workload, pool, Reference(workload.reference))
        passes = max(1, round(TRACE_PASS_SHARE * pass_count(workload, len(pool), seconds)))
        loop.run_pass("w")
        n_warm = len(loop.records)
        for p in range(passes):
            loop.run_pass(f"u{p}")
        untraced = sum(r.normalised_s for r in loop.records[n_warm:])
        n_untraced = len(loop.records)
        tracer.install(etacalc)
        loop.tracer = tracer
        try:
            for p in range(passes):
                loop.run_pass(f"t{p}")
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    traced = sum(r.normalised_s for r in loop.records[n_untraced:])
    metrics = layer_metrics(tracer, passes, traced / untraced - 1.0)
    spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json.gz")
    tracer.dump(spans_path)
    summary = tracer.summary()
    notes = {
        "passes": passes,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "top_self_s": top_spans(summary, "self_s", passes),
        "top_total_s": top_spans(summary, "total_s", passes),
    }
    for layer in LAYERS:
        print(f"share {layer:<8} {metrics[layer + '.self_share']:.3f}")
    for row in notes["top_self_s"]:
        print(f"self  {row[0]:<40} {row[1]:.4f} s/pass")
    return finish(name, seed, 1, loop, metrics, PER_LAYER, notes)


def top_spans(summary: dict, stat: str, passes: int, n: int = 8) -> list:
    rows = [(k, v[stat] / passes) for k, v in summary.items() if k != UNIT_SPAN]
    return sorted(rows, key=lambda r: -r[1])[:n]


def finish(name, seed, traced, loop, metrics, table, notes) -> dict:
    failed = sum(not r.ok for r in loop.records)
    attempted = len(loop.records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit, _ in table},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": traced,
        "environment": environment(),
        "fail_frac": failed / attempted,
        "notes": notes,
        "report_digests": loop.digests,
        "units": [vars(r) for r in loop.records],
        "result": result,
    }
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{traced}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if "tail_percentile" in notes:
        print(
            f"unit_tail_s at p{notes['tail_percentile']:.1f} of {notes['units']} units "
            f"({TAIL_BEYOND} beyond it), {notes['passes']} passes"
        )
        print("wall_clock " + json.dumps(notes["wall"]))
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:g}")
    print("report_digests " + json.dumps(loop.digests, sort_keys=True))
    print(f"record {os.path.relpath(path, ROOT)}")
    return result

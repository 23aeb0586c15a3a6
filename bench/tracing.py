"""Span tracing of etacalc's public functions, installed from outside.

``Tracer.install`` wraps every public function and every public method of
every public class defined in the layer modules, both where it is defined
and wherever another etacalc module imported it by name (``verify`` calls
its own ``track_path`` binding, for example).  Each call records a span
``[name, start, end, parent, unit]`` in memory; ``uninstall`` restores the
originals.  Hooks on a few functions record work counts next to the span.

A layer is a module; a span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("forms", "geometry", "spectral", "eta", "flow", "verify", "cli")
UNIT_SPAN = "unit"


def _qualified_names(module) -> dict[tuple[object, str], str]:
    """(owner, attribute) -> span name for the module's public callables.
    Methods are named ``layer.method`` unless another callable of the
    module has that name, then ``layer.Class.method``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found: list[tuple[object, str, str | None]] = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, None))
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(val, (staticmethod, classmethod)) or inspect.isfunction(val):
                    found.append((obj, attr, obj.__name__))
    short = Counter(attr for _, attr, _ in found)
    return {
        (owner, attr): f"{layer}.{attr}" if short[attr] == 1 else f"{layer}.{cls}.{attr}"
        for owner, attr, cls in found
    }


class Tracer:
    """In-memory span recorder for one process (not thread-safe)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit: str | None = None
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.unit]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        read = _arg_reader(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if hook is not None:
                hook(self, read, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # installation

    def install(self, package) -> None:
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            for (owner, attr), name in _qualified_names(module).items():
                raw = vars(owner)[attr]
                self.originals[name] = getattr(raw, "__func__", raw)
                if isinstance(raw, (staticmethod, classmethod)):
                    replacement = type(raw)(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                    if owner is module:
                        wrapped[id(raw)] = replacement
                self._set(owner, attr, replacement)
        # rebind names other modules imported with ``from .x import f``
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")
            ):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in wrapped and vars(module)[attr] is not wrapped[id(val)]:
                    self._set(module, attr, wrapped[id(val)])
        self._count_constructor(sys.modules[f"{package.__name__}.forms"].TrigPolyForm)

    def _count_constructor(self, cls) -> None:
        init = cls.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts["forms.init.calls"] += 1
            init(obj, *args, **kwargs)

        self._set(cls, "__init__", counted)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # reduction

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds.
        Spans outside any unit (oracle work) are left out."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            if unit is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON: a name table and one
        [name index, start, end, parent, unit] row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p, u] for n, a, b, p, u in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# work counts recorded at layer boundaries


# Hooks run inside the caller's span, so they must stay cheap: the
# signature is looked up once per wrapped function, not bound per call.


def _arg_reader(fn):
    """``read(args, kwargs, name)``: the value a call passed for parameter
    ``name``, or its default."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    default = {p.name: p.default for p in params}

    def read(args, kwargs, name):
        i = index[name]
        return args[i] if i < len(args) else kwargs.get(name, default[name])

    return read


def _track_path(tracer, read, args, kwargs, track):
    refinements = len(track.refinement_log)
    tracer.counts["flow.samples"] += read(args, kwargs, "m0") + 1 + refinements
    tracer.counts["flow.refinements"] += refinements


def _build_truncation(tracer, read, args, kwargs, t):
    tracer.counts["spectral.modes"] += len(t.modes)
    arrays = [t.dense] if t.dense is not None else list(t.blocks.values())
    tracer.counts["spectral.bytes_computed"] += sum(a.nbytes for a in arrays)


def _spectrum(tracer, read, args, kwargs, values):
    tracer.counts["spectral.eigenvalues"] += len(values)
    t = read(args, kwargs, "t")
    if t.dense is not None:
        tracer.note_max("spectral.dense_size_max", t.size)


def _wedge(tracer, read, args, kwargs, result):
    a, b = read(args, kwargs, "self"), read(args, kwargs, "other")
    # the originals, so that counting records no spans of its own
    n_terms = tracer.originals["forms.num_terms"]
    tracer.counts["forms.wedge.term_pairs"] += n_terms(a) * n_terms(b)


def _make_entry(tracer, read, args, kwargs, entry):
    # integer-mode entries (tolerance 0) either match exactly or fail
    if entry.tolerance > 0:
        tracer.note_max("verify.max_margin", entry.residual / entry.tolerance)


def _file_written(arg: str):
    def hook(tracer, read, args, kwargs, result):
        path = read(args, kwargs, arg)
        tracer.counts["cli.bytes_written"] += os.path.getsize(path)

    return hook


HOOKS = {
    "flow.track_path": _track_path,
    "spectral.build_truncation": _build_truncation,
    "spectral.spectrum": _spectrum,
    "forms.wedge": _wedge,
    "verify.make_entry": _make_entry,
    "cli.write_report": _file_written("path"),
    "spectral.export_spectrum_csv": _file_written("path"),
    "flow.export_tracks_csv": _file_written("path"),
}

S, COUNT = "s", "count"
# (metric, unit, better); calls, counts and times are per pass over the
# pool, total_s is inclusive of child spans, self_s is not
PER_LAYER = [
    ("flow.track_path.calls", COUNT, "lower"),
    ("flow.track_path.self_s", S, "lower"),
    ("flow.track_path.total_s", S, "lower"),
    ("flow.samples", COUNT, "lower"),
    ("flow.refinements", COUNT, "lower"),
    ("flow.useful_sample_ratio", "ratio", "higher"),
    ("flow.gauge_path.self_s", S, "lower"),
    ("spectral.build_truncation.calls", COUNT, "lower"),
    ("spectral.build_truncation.self_s", S, "lower"),
    ("spectral.build_truncation.total_s", S, "lower"),
    ("spectral.build_sig_mode.calls", COUNT, "lower"),
    ("spectral.build_sig_mode.self_s", S, "lower"),
    ("spectral.modes", COUNT, "lower"),
    ("spectral.bytes_computed", "bytes", "lower"),
    ("spectral.spectrum.calls", COUNT, "lower"),
    ("spectral.spectrum.self_s", S, "lower"),
    ("spectral.eigenvalues", COUNT, "lower"),
    ("spectral.dense_size_max", COUNT, "lower"),
    ("forms.wedge.calls", COUNT, "lower"),
    ("forms.wedge.self_s", S, "lower"),
    ("forms.wedge.term_pairs", COUNT, "lower"),
    ("forms.ext_d.self_s", S, "lower"),
    ("forms.exp_nilpotent.self_s", S, "lower"),
    ("forms.init.calls", COUNT, "lower"),
    ("geometry.cs_form.self_s", S, "lower"),
    ("geometry.cs_r_poly.self_s", S, "lower"),
    ("geometry.chern_odd.self_s", S, "lower"),
    ("geometry.omega_metric.self_s", S, "lower"),
    ("geometry.omega_metric.calls", COUNT, "lower"),
    ("geometry.gauge_transform.self_s", S, "lower"),
    ("geometry.subtorus_pairing.self_s", S, "lower"),
    ("eta.eta_heat_estimate.calls", COUNT, "lower"),
    ("eta.eta_heat_estimate.self_s", S, "lower"),
    ("eta.eta_s1_spectral.self_s", S, "lower"),
    ("verify.check_variation_complex.self_s", S, "lower"),
    ("verify.check_gauge_pumping.self_s", S, "lower"),
    ("verify.check_cs_odd_chern_pairing.self_s", S, "lower"),
    ("verify.check_psi_constancy.self_s", S, "lower"),
    ("verify.check_bk_phase.self_s", S, "lower"),
    ("verify.entries", COUNT, "higher"),
    ("verify.max_margin", "ratio", "lower"),
    ("cli.load_scenario.self_s", S, "lower"),
    ("cli.run_scenario.self_s", S, "lower"),
    ("cli.write_report.self_s", S, "lower"),
    ("cli.bytes_written", "bytes", "lower"),
] + [(f"{layer}.self_share", "fraction", "lower") for layer in LAYERS] + [
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER value from the recorded spans and counts."""
    rows = tracer.summary()
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "total_s") and stem in rows:
            out[name] = rows[stem][stat] / passes
        elif name in tracer.maxima:
            out[name] = tracer.maxima[name]
        else:
            out[name] = tracer.counts[name] / passes
    out["verify.entries"] = rows.get("verify.make_entry", {}).get("calls", 0) / passes
    samples = tracer.counts["flow.samples"]
    out["flow.useful_sample_ratio"] = (
        2 * rows["flow.track_path"]["calls"] / samples if samples else 0.0
    )
    unit_wall = rows.get(UNIT_SPAN, {}).get("total_s", 0.0)
    for layer in LAYERS:
        own = sum(r["self_s"] for n, r in rows.items() if n.startswith(layer + "."))
        out[f"{layer}.self_share"] = own / unit_wall if unit_wall else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out

"""The public surface: every name the package exports, and every public
function, class and method defined in an etacalc module, is used by the
program itself (its modules, scripts or benchmark), not only by tests; and
every span metric the benchmark declares names a span its tracer installs."""

import ast
import importlib.util
import json
import pathlib

import etacalc

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Exported for checks that do not exist yet: ROADMAP item 8 wires
# eta_bk/m_minus into a bk_jump entry of a circle torsion check.
NOT_YET_USED = {"eta_bk", "m_minus"}

# Read by name through a string, which the scan below cannot see:
# bench/tracing.py looks up its original as "forms.num_terms".
READ_BY_STRING = {"num_terms"}

# BENCHMARK.json span metrics (``<span>.calls``, ``.self_s``, ``.total_s``)
# whose span bench/tracing.py installs no wrapper for, each with its reason.
UNTRACED_METRIC_SPANS = {
    "flow.track_path": "dead: the function is gone, ROADMAP item 2 drops it",
    "spectral.build_sig_mode": "dead: the function is gone, ROADMAP item 2 drops it",
    "forms.exp_nilpotent": "dead: the function is gone, ROADMAP item 2 drops it",
    "forms.init": "a count of TrigPolyForm constructions, not a span",
}


def _used_names() -> set[str]:
    """Names read anywhere in src/, scripts/ and bench/, outside
    ``__init__``: loaded identifiers and attributes.  Definitions,
    assignments, imports, strings and comments do not count."""
    used = set()
    for directory in ("src", "scripts", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def _defined_names() -> set[str]:
    """Public functions and classes at module level in each etacalc
    module, and the public methods (properties included) of those
    classes.

    Names are matched, not owners: a method counts as used when any
    callable of the same name is read, so an unused method sharing its
    name with a used one (as ``TrigPolyForm.hermitian_part`` did with
    ``Connection.hermitian_part``) passes unseen."""
    defs = (ast.FunctionDef, ast.ClassDef)
    found = set()
    for path in (ROOT / "src" / "etacalc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            found.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods = (n for n in node.body if isinstance(n, ast.FunctionDef))
                found.update(n.name for n in methods)
    return {name for name in found if not name.startswith("_")}


def test_every_export_is_used_by_the_program():
    unused = set(etacalc.__all__) - _used_names()
    assert unused == NOT_YET_USED


def test_every_public_definition_is_used_by_the_program():
    unused = _defined_names() - _used_names()
    assert unused == NOT_YET_USED | READ_BY_STRING


def _installed_spans() -> set[str]:
    """The span names bench/tracing.py wraps, one per public callable of
    each traced layer module."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {
        span
        for layer in tracing.LAYERS
        for span in tracing._qualified_names(
            importlib.import_module(f"etacalc.{layer}")
        ).values()
    }


def test_every_span_metric_names_an_installed_span():
    # a renamed or removed function would otherwise leave its metrics
    # reading 0 without anything failing
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = {
        span
        for span, _, field in (m["name"].rpartition(".") for m in metrics)
        if field in ("calls", "self_s", "total_s")
    }
    assert spans - _installed_spans() == set(UNTRACED_METRIC_SPANS)

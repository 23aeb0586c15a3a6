"""Scenario-driven batch runner.

A scenario file is a JSON document naming a torus dimension, a bundle rank,
a set of connections, and a list of experiments (check ids plus parameters).
``etacalc run scenario.json`` executes the experiments, prints a summary
table, optionally writes the report JSON and spectrum CSVs, and exits
with a distinct code per failure class:

* 0 -- everything ran and every check passed
* 1 -- at least one check entry failed its tolerance
* 2 -- the scenario is invalid (JSON/schema violation, or input that
  validation refuses with :class:`~etacalc.forms.InvalidInputError`: a
  number that is not a finite float, unknown connection name, shape
  mismatch, repeated experiment label or one that is not a file name, a
  connection that ``Connection.from_json_obj`` refuses, a fiber metric
  ``g`` other than I among it) or
  asks a check for something outside its domain
  (:class:`~etacalc.geometry.PreconditionError`; a gauge path off the
  circle is refused as the scenario loads, before anything runs); nothing
  else maps here
* 3 -- a numerical guard tripped (:class:`~etacalc.spectral.GuardError`:
  memory guard, spectral flow needing a window past the cutoff: a
  Bauer--Fike ball past it, or K and K + 1 differ; a check entry whose
  sides are not finite numbers, as when finite input overflows)

Any other exception is a bug and propagates with its traceback.

The checks are those of :data:`etacalc.verify.CHECKS`, the registry that
``standard_suite`` runs through too, plus one CSV artifact, ``spectrum``.
Experiments run on the scenario's own connections, so a report's ``meta``
holds the schema version only (``scripts/run_verification.py`` seeds
the randomized suite).
An identity check's defaults (tolerances, cutoffs, samples) are those of
its check function, since runners forward only the parameters an
experiment sets.  This module holds the JSON side: one schema per
experiment key, from which the scenario schema, one experiment schema per
check and the ``--check`` choices are generated, and the reading of each
experiment key into what its check takes (a connection, a path
t -> connection, an int or a float), done once where the scenario loads
into the (check name, experiment) pairs that ``standard_suite`` runs too;
a run only filters them, applies ``--tol`` and attaches the CSV sink.
Each experiment is validated against its own check's schema only.  The
schema checks the scenario's layout and its experiments; the connection
format, the whole of it, is checked where a connection is read
(``Connection.from_json_obj``), not by the schema.  A label names the
experiment's CSV file in ``csv_dir``, so it must be one file name.
Experiments are independent of each other; they are executed in file order
but the report is assembled sorted by check id, so the output does not
depend on execution order.
A report file is byte-identical across runs of the same scenario.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import jsonschema

from . import verify
from .flow import gauge_path
from .forms import InvalidInputError
from .geometry import Connection, PreconditionError, linear_path
from .spectral import GuardError, build_truncation, export_spectrum_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCENARIO = 2
EXIT_GUARD = 3


def _tagged_branch(
    tag: str, value: str, required: tuple[str, ...], props: dict
) -> dict:
    """Applies ``props``, and no other keys, to paths whose ``tag`` is
    ``value``.  One such branch per path kind reports a broken path against
    its own kind, where a ``oneOf`` would report whichever failed last."""
    only_this = {"const": value}
    return {
        "if": {"required": [tag], "properties": {tag: only_this}},
        "then": {
            "additionalProperties": False,
            "required": list(required),
            "properties": {tag: only_this, **props},
        },
    }


_PATH_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": ["linear", "gauge"]}},
    "allOf": [
        _tagged_branch(
            "kind",
            "linear",
            ("from", "to"),
            {"from": {"type": "string"}, "to": {"type": "string"}},
        ),
        _tagged_branch(
            "kind",
            "gauge",
            ("connection", "winding"),
            {"connection": {"type": "string"}, "winding": {"type": "integer"}},
        ),
    ],
}


@dataclass(frozen=True)
class Scenario:
    experiments: tuple[tuple[str, _Experiment], ...]
    report_path: str | None
    csv_dir: str | None


class _CsvSink:
    """Collects artifact files under one directory, creating it lazily."""

    def __init__(self, directory: str | None, enabled: bool):
        self.directory = directory or "."
        self.enabled = enabled
        self.written: list[str] = []

    def path_for(self, label: str) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"{label}.csv")
        self.written.append(path)
        return path


# ----------------------------------------------------------------------
# the check registry: verify's identity checks plus a CSV artifact


@dataclass(frozen=True)
class _Experiment(verify.Experiment):
    """An experiment of a scenario: also where its artifacts go, attached
    when it runs."""

    sink: _CsvSink | None = None


def _spectrum_csv(x: _Experiment) -> list[verify.CheckEntry]:
    if x.sink.enabled:
        t = build_truncation(x.args["connection"], x.args.get("cutoff", 4))
        export_spectrum_csv(t, x.sink.path_for(x.label))
    return []


#: check name -> verify.Check(params, required params, runner)
CHECKS: dict[str, verify.Check] = {
    **verify.CHECKS,
    "spectrum": verify.Check(
        ("connection", "cutoff"), ("connection",), _spectrum_csv
    ),
}

_NAME = {"type": "string"}

#: experiment key -> its schema, the same for every check that takes it
_PARAM_SCHEMAS = {
    "connection": _NAME,
    "from": _NAME,
    "to": _NAME,
    "reference": _NAME,
    "path": _PATH_SCHEMA,
    "r_values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    "cutoff": {"type": "integer", "minimum": 1},
    "winding": {"type": "integer"},
    "samples": {"type": "integer", "minimum": 2},
    "rank": {"type": "integer", "minimum": 1},
    "tolerance": {"type": "number", "exclusiveMinimum": 0},
}


#: a label names a report entry and an artifact file in ``csv_dir``, so it
#: is one file name: no path separator, NUL, ``.`` or ``..``
_LABEL_SCHEMA = {
    "type": "string",
    "minLength": 1,
    "pattern": r"^[^/\\\x00]*$",
    "not": {"enum": [".", ".."]},
}


def _experiment_schema(name: str, check: verify.Check) -> dict:
    """The schema of an experiment naming the check: its required keys and
    the check's own parameter schemas; keys the check does not read are
    rejected."""
    props = {"check": {"const": name}, "label": _LABEL_SCHEMA}
    props.update((key, _PARAM_SCHEMAS[key]) for key in check.params)
    return {
        "additionalProperties": False,
        "required": list(check.required),
        "properties": props,
    }


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["manifold", "bundle", "experiments"],
    "properties": {
        "manifold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim"],
            "properties": {"dim": {"enum": [1, 3, 5]}},
        },
        "bundle": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rank"],
            "properties": {"rank": {"type": "integer", "minimum": 1}},
        },
        # each connection's format is Connection.from_json_obj's to check
        "connections": {"type": "object", "additionalProperties": {"type": "object"}},
        "experiments": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check"],
                "properties": {"check": {"enum": list(CHECKS)}},
            },
            "minItems": 1,
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "report": {"type": "string", "minLength": 1},
                "csv_dir": {"type": "string", "minLength": 1},
            },
        },
    },
    # one schema per check, which load_scenario applies to the experiments
    # naming it
    "$defs": {name: _experiment_schema(name, c) for name, c in CHECKS.items()},
}


@functools.cache
def _scenario_validator():
    """The scenario validator, built once per process on first use.  It runs
    no meta-check: SCENARIO_SCHEMA is a constant, so the tests meta-check it
    once instead of every run paying about 0.1 s (far more than validating)."""
    return jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def _experiment_errors(experiments: list[dict]):
    """Each experiment's errors against the schema of its own check (in
    ``$defs``), with paths from the scenario root.  ``evolve`` runs no
    meta-check either: the tests meta-check SCENARIO_SCHEMA, ``$defs`` too."""
    validator = _scenario_validator()
    for i, exp in enumerate(experiments):
        schema = SCENARIO_SCHEMA["$defs"][exp["check"]]
        for error in validator.evolve(schema=schema).iter_errors(exp):
            error.path.extendleft((i, "experiments"))
            yield error


def _raise_best(errors) -> None:
    """Raise jsonschema's best match among ``errors``, if there is one."""
    error = jsonschema.exceptions.best_match(errors)
    if error is not None:
        raise error


def _finite(text: str) -> str:
    """``text``, a JSON number or constant, if it is a finite float: NaN
    and +-Infinity (not JSON under RFC 8259), 1e999 and integers too large
    to convert are refused."""
    if not math.isfinite(float(text)):
        raise InvalidInputError(f"number {text[:40]} is not a finite float")
    return text


def _argument(value, schema: dict, named: dict[str, Connection]):
    """An experiment key's value as its check takes it: a connection name
    becomes the connection (an unknown name is refused), a path becomes
    t -> connection (a gauge one off the circle raises PreconditionError),
    and a number an int or a float by its schema."""
    if schema is _NAME:
        if value not in named:
            raise InvalidInputError(f"unknown connection {value!r}")
        return named[value]
    if schema is _PATH_SCHEMA:
        if value["kind"] == "linear":
            ends = [_argument(value[k], _NAME, named) for k in ("from", "to")]
            return linear_path(*ends)
        return gauge_path(_argument(value["connection"], _NAME, named), value["winding"])
    if schema.get("type") == "integer":
        return int(value)
    if schema.get("type") == "number":
        return float(value)
    return value


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; jsonschema.ValidationError,
    json.JSONDecodeError, InvalidInputError and PreconditionError all mean
    exit code 2.  Once the scenario passes its schema, its connections are
    read (``Connection.from_json_obj``, which refuses a ``g`` other than
    I) and checked against its dim and rank, and then each experiment is
    validated against its own check's schema, so an error in the scenario's
    layout is reported before any connection's, and a connection's before
    any experiment's.  Each experiment key is then read as its
    check takes it (``_argument``): a connection name must name one of the
    scenario's connections and a gauge path must lie on the circle (a T^d
    scenario's is refused), so such input is refused before any experiment
    runs or writes an artifact, also under ``--check``.  Each experiment is
    loaded as the (check name, experiment) pair that
    ``verify.standard_suite`` runs too: its args, its label, explicit or
    ``e{index:02d}_{check}``, and the scenario's dim and rank; labels name
    entries and artifacts, so they must be distinct."""
    with open(path) as fh:
        obj = json.load(
            fh,
            parse_constant=_finite,  # never finite
            parse_float=lambda text: float(_finite(text)),
            parse_int=lambda text: int(_finite(text)),
        )
    _raise_best(_scenario_validator().iter_errors(obj))
    dim = obj["manifold"]["dim"]
    rank = obj["bundle"]["rank"]
    connections: dict[str, Connection] = {}
    for name, spec in obj.get("connections", {}).items():
        try:
            conn = Connection.from_json_obj(spec)
        except InvalidInputError as exc:
            raise InvalidInputError(f"connection {name!r}: {exc}") from exc
        if conn.dim != dim or conn.rank != rank:
            raise InvalidInputError(
                f"connection {name!r} is dim={conn.dim} rank={conn.rank}, "
                f"scenario declares dim={dim} rank={rank}"
            )
        connections[name] = conn
    _raise_best(_experiment_errors(obj["experiments"]))
    experiments: dict[str, tuple[str, _Experiment]] = {}
    for i, exp in enumerate(obj["experiments"]):
        check = exp.pop("check")
        label = exp.pop("label", f"e{i:02d}_{check}")
        args = {
            key: _argument(value, _PARAM_SCHEMAS[key], connections)
            for key, value in exp.items()
        }
        if label in experiments:
            raise InvalidInputError(f"two experiments are labelled {label!r}")
        experiments[label] = (check, _Experiment(args, label, dim, rank))
    output = obj.get("output", {})
    return Scenario(
        experiments=tuple(experiments.values()),
        report_path=output.get("report"),
        csv_dir=output.get("csv_dir"),
    )


# ----------------------------------------------------------------------
# experiment execution


def run_scenario(
    scn: Scenario,
    selected_checks: list[str] | None = None,
    tol_override: float | None = None,
    emit_csv: bool = False,
) -> tuple[verify.VerificationReport, _CsvSink]:
    """Run the scenario's loaded experiments and assemble the report.

    ``selected_checks`` filters experiments by check name; ``tol_override``
    replaces the tolerance of every check that takes one; each experiment
    runs with the CSV sink attached, which writes artifacts when the flag
    or the scenario requests them.  Input errors were refused at load, so
    what this raises is a check's own: InvalidInputError, PreconditionError
    or GuardError.
    """
    sink = _CsvSink(scn.csv_dir, enabled=emit_csv or scn.csv_dir is not None)
    entries: list[verify.CheckEntry] = []
    for name, x in scn.experiments:
        if selected_checks and name not in selected_checks:
            continue
        check = CHECKS[name]
        args = x.args
        if tol_override is not None and "tolerance" in check.params:
            args = {**args, "tolerance": tol_override}
        entries += check.run(replace(x, args=args, sink=sink))
    return verify.assemble_report(entries), sink


def write_report(report: verify.VerificationReport, path: str) -> None:
    """Write ``report.to_json()`` and a final newline: no timestamp, so the
    file is byte-stable across runs of the same scenario."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(report.to_json() + "\n")


# ----------------------------------------------------------------------
# entry point


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scn = load_scenario(args.scenario)
        report, sink = run_scenario(
            scn,
            selected_checks=args.check,
            tol_override=args.tol,
            emit_csv=args.emit_csv,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except jsonschema.ValidationError as exc:
        print(
            f"error: scenario violates the schema at {exc.json_path}: "
            f"{exc.message}",
            file=sys.stderr,
        )
        return EXIT_SCENARIO
    except (InvalidInputError, PreconditionError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except GuardError as exc:
        print(f"error: numerical guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD

    for line in report.summary_lines():
        print(line)
    if scn.report_path:
        write_report(report, scn.report_path)
        print(f"report written to {scn.report_path}")
    for path in sink.written:
        print(f"csv written to {path}")
    if args.check and not any(name in args.check for name, _ in scn.experiments):
        print("note: no experiments matched the --check filter")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _tolerance(text: str) -> float:
    """A tolerance from the command line: a finite number > 0, as an
    experiment's own ``tolerance`` is (so zero, negatives, inf and nan are
    refused)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {text!r}"
        )
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="etacalc",
        description="Batch runner for eta-invariant identity checks on "
        "flat-torus connection scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument(
        "--check",
        action="append",
        choices=list(CHECKS),
        metavar="CHECK",
        help="run only experiments of this check (repeatable): "
        + ", ".join(CHECKS),
    )
    run_p.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="override the tolerance (a number > 0) of every check that takes one",
    )
    run_p.add_argument(
        "--emit-csv",
        action="store_true",
        help="write spectrum CSV artifacts",
    )
    return _cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

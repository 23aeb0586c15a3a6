"""Scenario-driven batch runner.

A scenario file is a JSON document naming a torus dimension, a bundle rank,
a set of connections, and a list of experiments (check ids plus parameters).
``etacalc run scenario.json`` executes the experiments, prints a summary
table, optionally writes the report JSON and spectrum/track CSVs, and exits
with a distinct code per failure class:

* 0 -- everything ran and every check passed
* 1 -- at least one check entry failed its tolerance
* 2 -- the scenario is invalid (JSON/schema violation or a semantic problem
  such as an unknown connection name or an unmet check precondition)
* 3 -- a numerical guard tripped (memory guard, eigenvalue-tracking
  ambiguity, spectral flow unstable under cutoff growth, interpolation
  guard)

Experiments are independent of each other; they are executed in file order
but the report is assembled sorted by check id, so the output does not
depend on execution order.  Reports are byte-identical across runs except
for the ``generated_at`` field added when writing to disk.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import jsonschema

from . import verify
from .flow import TrackError, export_tracks_csv, gauge_path, track_path
from .geometry import Connection
from .spectral import MemoryGuardError, build_truncation, export_spectrum_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCENARIO = 2
EXIT_GUARD = 3

CHECK_NAMES = (
    "cs_odd_chern_pairing",
    "gilkey_variation",
    "variation_complex",
    "gauge_pumping",
    "re_im_split",
    "psi_constancy",
    "eta_tilde_imaginary",
    "bk_phase",
    "standard_suite",
    "spectrum",
    "tracks",
)

_FORM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim", "rank", "terms"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "rank": {"type": "integer", "minimum": 1},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["k", "I", "re", "im"],
                "properties": {
                    "k": {"type": "array", "items": {"type": "integer"}},
                    "I": {"type": "array", "items": {"type": "integer"}},
                    "re": {"type": "array"},
                    "im": {"type": "array"},
                },
            },
        },
    },
}

_CONNECTION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim", "rank", "A"],
    "properties": {
        "dim": {"type": "integer"},
        "rank": {"type": "integer", "minimum": 1},
        "A": _FORM_SCHEMA,
        "g": _FORM_SCHEMA,
    },
}

_PATH_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "from", "to"],
            "properties": {
                "kind": {"const": "linear"},
                "from": {"type": "string"},
                "to": {"type": "string"},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "connection", "winding"],
            "properties": {
                "kind": {"const": "gauge"},
                "connection": {"type": "string"},
                "winding": {"type": "integer"},
            },
        },
    ]
}

_EXPERIMENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["check"],
    "properties": {
        "check": {"enum": list(CHECK_NAMES)},
        "label": {"type": "string", "minLength": 1},
        "connection": {"type": "string"},
        "reference": {"type": "string"},
        "from": {"type": "string"},
        "to": {"type": "string"},
        "path": _PATH_SCHEMA,
        "r_values": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
        },
        "winding": {"type": "integer"},
        "rank": {"type": "integer", "minimum": 0},
        "cutoff": {"type": "integer", "minimum": 1},
        "samples": {"type": "integer", "minimum": 2},
        "intervals": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    },
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
        "connections": {
            "type": "object",
            "additionalProperties": _CONNECTION_SCHEMA,
        },
        "seed": {"type": "integer", "minimum": 0},
        "experiments": {
            "type": "array",
            "items": _EXPERIMENT_SCHEMA,
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
}


class ScenarioError(ValueError):
    """The scenario file is structurally valid JSON but semantically wrong
    (unknown connection name, shape mismatch, unmet check precondition)."""


@dataclass(frozen=True)
class Scenario:
    dim: int
    rank: int
    connections: dict[str, Connection]
    seed: int
    experiments: tuple[dict, ...]
    report_path: str | None
    csv_dir: str | None


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; jsonschema.ValidationError,
    json.JSONDecodeError, and ScenarioError all mean exit code 2."""
    with open(path) as fh:
        obj = json.load(fh)
    jsonschema.validate(obj, SCENARIO_SCHEMA)
    dim = obj["manifold"]["dim"]
    rank = obj["bundle"]["rank"]
    connections: dict[str, Connection] = {}
    for name, spec in obj.get("connections", {}).items():
        try:
            conn = Connection.from_json_obj(spec)
        except (ValueError, KeyError) as exc:
            raise ScenarioError(f"connection {name!r}: {exc}") from exc
        if conn.dim != dim or conn.rank != rank:
            raise ScenarioError(
                f"connection {name!r} is dim={conn.dim} rank={conn.rank}, "
                f"scenario declares dim={dim} rank={rank}"
            )
        connections[name] = conn
    output = obj.get("output", {})
    return Scenario(
        dim=dim,
        rank=rank,
        connections=connections,
        seed=int(obj.get("seed", 0)),
        experiments=tuple(obj["experiments"]),
        report_path=output.get("report"),
        csv_dir=output.get("csv_dir"),
    )


# ----------------------------------------------------------------------
# experiment execution


def _named_connection(scn: Scenario, exp: dict, key: str) -> Connection:
    name = exp.get(key)
    if name is None:
        raise ScenarioError(
            f"check {exp['check']!r} needs a {key!r} connection name"
        )
    if name not in scn.connections:
        raise ScenarioError(f"unknown connection {name!r}")
    return scn.connections[name]


def _build_path(scn: Scenario, exp: dict) -> Callable[[float], Connection]:
    spec = exp.get("path")
    if spec is None:
        raise ScenarioError(f"check {exp['check']!r} needs a 'path'")
    if spec["kind"] == "linear":
        for key in ("from", "to"):
            if spec[key] not in scn.connections:
                raise ScenarioError(f"unknown connection {spec[key]!r}")
        c0 = scn.connections[spec["from"]]
        c1 = scn.connections[spec["to"]]

        def linear(t: float) -> Connection:
            return Connection(c0.a * (1.0 - t) + c1.a * t, c0.g, c0.g_inv)

        return linear
    base = scn.connections.get(spec["connection"])
    if base is None:
        raise ScenarioError(f"unknown connection {spec['connection']!r}")
    w = int(spec["winding"])
    return lambda t: gauge_path(base, w, t)


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


def _run_experiment(
    scn: Scenario,
    exp: dict,
    label: str,
    tol_override: float | None,
    sink: _CsvSink,
    seed: int,
) -> list[verify.CheckEntry]:
    check = exp["check"]

    def tol(default: float) -> float:
        if tol_override is not None:
            return tol_override
        return float(exp.get("tolerance", default))

    if check == "cs_odd_chern_pairing":
        c = _named_connection(scn, exp, "connection")
        entries: list[verify.CheckEntry] = []
        for r in exp.get("r_values", (0.5, 1.0, 2.0)):
            entries += verify.check_cs_odd_chern_pairing(
                c, r=float(r), tol=tol(1e-9), label=label
            )
        return entries
    if check == "gilkey_variation":
        c0 = _named_connection(scn, exp, "from")
        c1 = _named_connection(scn, exp, "to")
        return [
            verify.check_gilkey_variation(
                c0, c1, tol=tol(1e-6), check_id=label
            )
        ]
    if check == "variation_complex":
        return [
            verify.check_variation_complex(
                _build_path(scn, exp),
                tol=tol(1e-8),
                cutoff=int(exp.get("cutoff", 8)),
                check_id=label,
            )
        ]
    if check == "gauge_pumping":
        c = _named_connection(scn, exp, "connection")
        if "winding" not in exp:
            raise ScenarioError("gauge_pumping needs a 'winding'")
        w = int(exp["winding"])
        return [
            verify.check_gauge_pumping(
                c, w, cutoff=int(exp.get("cutoff", 8)),
                check_id=f"{label}[w={w}]",
            )
        ]
    if check == "re_im_split":
        c = _named_connection(scn, exp, "connection")
        return verify.check_re_im_split(
            c, tol_re=tol(1e-6), tol_im=tol(1e-8), check_id=label
        )
    if check == "psi_constancy":
        return [
            verify.check_psi_constancy(
                _build_path(scn, exp),
                n_samples=int(exp.get("samples", 9)),
                tol=tol(1e-9),
                check_id=label,
            )
        ]
    if check == "eta_tilde_imaginary":
        c = _named_connection(scn, exp, "connection")
        ref = None
        if "reference" in exp:
            ref = _named_connection(scn, exp, "reference")
        return [
            verify.check_eta_tilde_imaginary(
                c, ref, tol=tol(1e-8), check_id=label
            )
        ]
    if check == "bk_phase":
        rank = int(exp.get("rank", scn.rank))
        return [
            verify.check_bk_phase(
                rank,
                dim=scn.dim,
                cutoff=int(exp.get("cutoff", 4 if scn.dim == 1 else 2)),
                check_id=f"{label}[rank={rank},dim={scn.dim}]",
            )
        ]
    if check == "standard_suite":
        suite = verify.standard_suite(seed=seed)
        return [
            dataclasses.replace(e, check_id=f"{label}.{e.check_id}")
            for e in suite.entries
        ]
    if check == "spectrum":
        if sink.enabled:
            c = _named_connection(scn, exp, "connection")
            t = build_truncation(c, int(exp.get("cutoff", 4)))
            export_spectrum_csv(t, sink.path_for(label))
        return []
    if check == "tracks":
        if sink.enabled:
            path = _build_path(scn, exp)
            cutoff = int(exp.get("cutoff", 8))
            tr = track_path(
                lambda t: build_truncation(path(t), cutoff),
                m0=int(exp.get("intervals", 8)),
            )
            export_tracks_csv(tr, sink.path_for(label))
        return []
    raise ScenarioError(f"unknown check {check!r}")  # unreachable post-schema


def run_scenario(
    scn: Scenario,
    selected_checks: list[str] | None = None,
    tol_override: float | None = None,
    emit_csv: bool = False,
    seed_override: int | None = None,
    csv_dir_override: str | None = None,
) -> tuple[verify.VerificationReport, _CsvSink]:
    """Execute the scenario's experiments and assemble the report.

    ``selected_checks`` filters experiments by check name; ``tol_override``
    replaces every (non-integer-mode) tolerance; CSV artifacts are written
    when the flag or the scenario requests them.
    """
    seed = scn.seed if seed_override is None else seed_override
    sink = _CsvSink(
        csv_dir_override or scn.csv_dir,
        enabled=emit_csv or scn.csv_dir is not None,
    )
    entries: list[verify.CheckEntry] = []
    for i, exp in enumerate(scn.experiments):
        if selected_checks and exp["check"] not in selected_checks:
            continue
        label = exp.get("label", f"e{i:02d}_{exp['check']}")
        entries += _run_experiment(scn, exp, label, tol_override, sink, seed)
    return verify.assemble_report(entries, seed=seed), sink


def write_report(report: verify.VerificationReport, path: str) -> None:
    """Write the report with a generated_at timestamp; everything else is
    byte-stable across runs of the same scenario."""
    obj = report.to_json_obj()
    obj["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc
    ).isoformat(timespec="seconds")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# entry point


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scn = load_scenario(args.scenario)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except jsonschema.ValidationError as exc:
        print(
            f"error: scenario violates the schema: {exc.message}",
            file=sys.stderr,
        )
        return EXIT_SCENARIO
    except ScenarioError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    try:
        report, sink = run_scenario(
            scn,
            selected_checks=args.check,
            tol_override=args.tol,
            emit_csv=args.emit_csv,
            seed_override=args.seed,
        )
    except (ScenarioError, ValueError) as exc:
        # precondition gates (wrong dimension, non-flat input, axis
        # endpoints) mean the scenario asked for an inapplicable check
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (MemoryGuardError, TrackError, ArithmeticError) as exc:
        print(f"error: numerical guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD

    for line in report.summary_lines():
        print(line)
    if scn.report_path:
        write_report(report, scn.report_path)
        print(f"report written to {scn.report_path}")
    for path in sink.written:
        print(f"csv written to {path}")
    if not report.entries and args.check:
        print("note: no experiments matched the --check filter")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


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
        metavar="ID",
        help="run only experiments with this check id (repeatable)",
    )
    run_p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every check tolerance",
    )
    run_p.add_argument(
        "--emit-csv",
        action="store_true",
        help="write spectrum/track CSV artifacts",
    )
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for randomized suites (overrides the scenario)",
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_SCENARIO  # unreachable


if __name__ == "__main__":
    raise SystemExit(main())

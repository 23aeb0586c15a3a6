"""Scenario-driven batch runner.

A scenario file is a JSON document naming a torus dimension, a bundle rank,
a set of connections, and a list of experiments (check ids plus parameters).
``etacalc run scenario.json`` executes the experiments, prints a summary
table, optionally writes the report JSON and spectrum CSVs, and exits
with a distinct code per failure class:

* 0 -- everything ran and every check passed
* 1 -- at least one check entry failed its tolerance
* 2 -- the scenario is invalid (not JSON, or input that the reading
  refuses with :class:`~etacalc.forms.InvalidInputError`, whose message
  starts with the JSON path of what it refuses: a key missing or unknown,
  a value of the wrong type or range, a number that is not a finite
  float, unknown connection name, shape mismatch, repeated experiment
  label or one that is not a file name, a connection that
  ``Connection.from_json_obj`` refuses, down to a matrix entry such as
  ``$.connections.main.A.terms[0].re[0][1]``, a fiber metric ``g`` other
  than I among it) or
  asks a check for something outside its domain
  (:class:`~etacalc.geometry.PreconditionError`; a gauge path off the
  circle is refused as the scenario loads, before anything runs); nothing
  else maps here
* 3 -- a numerical guard tripped (:class:`~etacalc.spectral.GuardError`:
  memory guard, spectral flow needing a window past the cutoff: a
  Bauer--Fike ball past it, or K and K + 1 differ; a circle tower shift
  too large for the axis rule; a check entry whose sides are not finite
  numbers, as when finite input overflows)

Any other exception is a bug and propagates with its traceback.

The checks are those of :data:`etacalc.verify.CHECKS`, the registry that
``standard_suite`` runs through too, plus one CSV artifact, ``spectrum``,
whose CSV ``run_scenario`` writes.
Experiments run on the scenario's own connections, so a report's ``meta``
holds the schema version only (``scripts/run_verification.py`` seeds
the randomized suite).
An identity check's defaults (tolerances, cutoffs, samples) are those of
its check function, since runners forward only the parameters an
experiment sets.  This module holds the JSON side, read without a schema
library: the scenario's layout, and one reader per experiment key
(``_READERS``), which checks the key's value and makes it what its check
takes (a connection name, a path, an int or a float), the same for every
check that takes the key.  An experiment takes exactly the keys its
check's parameters name, and a label.  All of it is read once, where the
scenario loads, into the (check name, ``verify.Experiment``) pairs that
``standard_suite`` runs too, connection names becoming connections and
paths t -> connection; a run only filters them, applies ``--tol`` and
writes the spectrum CSVs.  The connection format, the whole of it, is
checked where a connection is read (``Connection.from_json_obj``, passed
the connection's JSON path ``$.connections.<name>``).  A
label names the experiment's CSV file in ``csv_dir``, so it must be one
file name.
Experiments are independent of each other; they are executed in file order
but the report is assembled sorted by check id, so the output does not
depend on execution order.
A report file is byte-identical across runs of the same scenario.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

from . import verify
from .flow import gauge_path
from .forms import InvalidInputError, _integer, _json_fields, _number
from .geometry import Connection, PreconditionError, linear_path
from .spectral import GuardError, build_truncation, export_spectrum_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCENARIO = 2
EXIT_GUARD = 3


@dataclass(frozen=True)
class Scenario:
    experiments: tuple[tuple[str, verify.Experiment], ...]
    report_path: str | None
    csv_dir: str | None


#: check name -> verify.Check(params, required params, runner): verify's
#: identity checks, and ``spectrum``, whose keys the loader reads and whose
#: CSV ``run_scenario`` writes; its row yields no entry
CHECKS: dict[str, verify.Check] = {
    **verify.CHECKS,
    "spectrum": verify.Check(("connection", "cutoff"), ("connection",), lambda x: []),
}

# ----------------------------------------------------------------------
# reading a scenario: each reader takes a JSON value and the JSON path
# ``at`` where it stands, and returns the value as its check takes it or
# refuses it, naming ``at``, as the readers of ``forms`` that it shares
# (``_integer``, ``_number``, ``_json_fields``) do.  Numbers follow JSON
# Schema: a bool is not one, and an integral float is an integer.


def _string(value, at: str) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"{at} {value!r} is not a string")
    return value


def _positive(value, at: str) -> float:
    if not _number(value, at) > 0:
        raise InvalidInputError(f"{at} {value!r} is not > 0")
    return float(value)


def _r_values(value, at: str) -> list:
    if not isinstance(value, list) or not value:
        raise InvalidInputError(f"{at} must be a non-empty list")
    return [_number(r, f"{at}[{i}]") for i, r in enumerate(value)]


def _label(value, at: str) -> str:
    """A label names a report entry and an artifact file in ``csv_dir``, so
    it is one file name: no path separator, NUL, ``.`` or ``..``."""
    if _string(value, at) in ("", ".", "..") or any(c in value for c in "/\\\x00"):
        raise InvalidInputError(f"{at} {value!r} is not one file name")
    return value


#: a path's kind -> its keys besides ``kind``
_PATH_KEYS = {"linear": ("from", "to"), "gauge": ("connection", "winding")}


def _path(value, at: str) -> dict:
    """A path: its kind and its kind's keys, read in ``_PATH_KEYS`` order."""
    if not isinstance(value, dict) or "kind" not in value:
        raise InvalidInputError(f"{at} must be an object with a kind")
    kind = value["kind"]
    if kind not in list(_PATH_KEYS):  # compared, not hashed: it may be a list
        raise InvalidInputError(f"{at}.kind {kind!r} is not linear or gauge")
    keys = _PATH_KEYS[kind]
    _json_fields(value, at, ("kind", *keys))
    return {"kind": kind} | {k: _READERS[k](value[k], f"{at}.{k}") for k in keys}


#: the keys that name a connection of the scenario
_NAMES = ("connection", "from", "to", "reference")

#: experiment key -> its reader, the same for every check that takes it
_READERS = {
    **dict.fromkeys(_NAMES, _string),
    "path": _path,
    "r_values": _r_values,
    "cutoff": partial(_integer, least=1),
    "winding": _integer,
    "samples": partial(_integer, least=2),
    "rank": partial(_integer, least=1),
    "tolerance": _positive,
    "label": _label,
}


def _finite(text: str) -> str:
    """``text``, a JSON number or constant, if it is a finite float: NaN
    and +-Infinity (not JSON under RFC 8259), 1e999 and integers too large
    to convert are refused."""
    if not math.isfinite(float(text)):
        raise InvalidInputError(f"$ holds {text[:40]}, which is not a finite float")
    return text


def _argument(key: str, value, at: str, named: dict[str, Connection]):
    """A read experiment key's value as its check takes it: a connection
    name becomes the connection (an unknown name is refused), and a path
    t -> connection (a gauge one off the circle raises PreconditionError)."""
    if key in _NAMES:
        if value not in named:
            raise InvalidInputError(f"{at} names an unknown connection {value!r}")
        return named[value]
    if key == "path":
        kind, *ends = (_argument(k, v, f"{at}.{k}", named) for k, v in value.items())
        return (linear_path if kind == "linear" else gauge_path)(*ends)
    return value


def _experiment_keys(i: int, exp: dict) -> dict:
    """The keys of experiment ``i``, ``exp``, read: exactly those its check
    reads, the required ones among them, and optionally a label."""
    at = f"$.experiments[{i}]"
    check = CHECKS[exp["check"]]
    optional = [key for key in check.params if key not in check.required]
    _json_fields(exp, at, ("check", *check.required), ("label", *optional))
    return {k: _READERS[k](v, f"{at}.{k}") for k, v in exp.items() if k != "check"}


def load_scenario(path: str) -> Scenario:
    """Parse and check a scenario file; json.JSONDecodeError,
    InvalidInputError and PreconditionError all mean exit code 2, and an
    InvalidInputError about the scenario's format starts with the JSON path
    of what it refuses.  The reading goes in four steps, so that an error
    of one is reported before any of the next: the layout (the keys at the
    top and of ``manifold``, ``bundle`` and ``output``, dim 1, 3 or 5, and
    each experiment an object naming a check), then the connections
    (``Connection.from_json_obj`` at ``$.connections.<name>``, each
    checked against the scenario's dim and rank), then each experiment's
    keys, exactly those its check reads and a label, and their values
    (``_READERS``), and last the names: a connection name must name one
    of the scenario's connections and a gauge path must lie on the circle
    (a T^d scenario's is refused).  So an unknown name never hides a
    format error, and such input is refused before any experiment runs or
    writes an artifact, also under ``--check``.  Each experiment is loaded
    as the (check name, ``verify.Experiment``) pair that
    ``verify.standard_suite`` runs too: its args, its label, explicit or
    ``e{index:02d}_{check}``, and the scenario's dim and rank; labels
    name entries and artifacts, so they must be distinct."""
    with open(path) as fh:
        obj = json.load(
            fh,
            parse_constant=_finite,  # never finite
            parse_float=lambda text: float(_finite(text)),
            parse_int=lambda text: int(_finite(text)),
        )
    manifold, bundle, experiments = _json_fields(
        obj, "$", ("manifold", "bundle", "experiments"), ("connections", "output")
    )
    (dim,) = _json_fields(manifold, "$.manifold", ("dim",))
    dim = _integer(dim, "$.manifold.dim")
    if dim not in (1, 3, 5):
        raise InvalidInputError(f"$.manifold.dim {dim} is not 1, 3 or 5")
    (rank,) = _json_fields(bundle, "$.bundle", ("rank",))
    rank = _integer(rank, "$.bundle.rank", 1)
    specs = obj.get("connections", {})
    if not isinstance(specs, dict):
        raise InvalidInputError("$.connections must be an object")
    if not isinstance(experiments, list) or not experiments:
        raise InvalidInputError("$.experiments must be a non-empty list")
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict) or "check" not in exp:
            raise InvalidInputError(f"$.experiments[{i}] must be an object with a check")
        if exp["check"] not in list(CHECKS):  # compared, not hashed
            raise InvalidInputError(
                f"$.experiments[{i}].check {exp['check']!r} is not one of "
                + ", ".join(CHECKS)
            )
    output = obj.get("output", {})
    _json_fields(output, "$.output", (), ("report", "csv_dir"))
    for key, value in output.items():
        if not _string(value, f"$.output.{key}"):
            raise InvalidInputError(f"$.output.{key} is empty")

    connections: dict[str, Connection] = {}
    for name, spec in specs.items():
        conn = Connection.from_json_obj(spec, f"$.connections.{name}")
        if conn.dim != dim or conn.rank != rank:
            raise InvalidInputError(
                f"$.connections.{name} is dim={conn.dim} rank={conn.rank}, "
                f"the scenario declares dim={dim} rank={rank}"
            )
        connections[name] = conn

    read = [_experiment_keys(i, exp) for i, exp in enumerate(experiments)]
    loaded: dict[str, tuple[str, verify.Experiment]] = {}
    for i, (exp, args) in enumerate(zip(experiments, read)):
        label = args.pop("label", f"e{i:02d}_{exp['check']}")
        at = f"$.experiments[{i}]"
        args = {k: _argument(k, v, f"{at}.{k}", connections) for k, v in args.items()}
        if label in loaded:
            raise InvalidInputError(f"{at} is labelled {label!r}, as an earlier one is")
        loaded[label] = (exp["check"], verify.Experiment(args, label, dim, rank))
    return Scenario(
        experiments=tuple(loaded.values()),
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
) -> tuple[verify.VerificationReport, list[str]]:
    """Run the scenario's loaded experiments, in file order, and return the
    report and the paths of the CSVs written.

    ``selected_checks`` filters experiments by check name; ``tol_override``
    replaces the tolerance of every check that takes one.  A selected
    ``spectrum`` experiment writes its CSV, ``<label>.csv``, when the flag
    or the scenario's ``csv_dir`` asks for it: into ``csv_dir``, else into
    the current directory, made when the first CSV is written.  Input
    errors were refused at load, so what this raises is a check's own:
    InvalidInputError, PreconditionError or GuardError.
    """
    emit_csv = emit_csv or scn.csv_dir is not None
    directory = scn.csv_dir or "."
    entries: list[verify.CheckEntry] = []
    written: list[str] = []
    for name, x in scn.experiments:
        if selected_checks and name not in selected_checks:
            continue
        check = CHECKS[name]
        if name == "spectrum" and emit_csv:
            t = build_truncation(x.args["connection"], x.args.get("cutoff", 4))
            os.makedirs(directory, exist_ok=True)
            written.append(os.path.join(directory, f"{x.label}.csv"))
            export_spectrum_csv(t, written[-1])
        if tol_override is not None and "tolerance" in check.params:
            x = replace(x, args={**x.args, "tolerance": tol_override})
        entries += check.run(x)
    return verify.assemble_report(entries), written


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
        report, written = run_scenario(
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
    for path in written:
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

"""Scenario runner: reading and checking, exit codes, artifacts, determinism."""

import copy
import itertools
import json
import math
import os
import pathlib
import re

import jsonschema
import numpy as np
import pytest

from etacalc import cli, geometry, spectral, verify
from etacalc.cli import load_scenario, main
from etacalc.forms import InvalidInputError, TrigPolyForm
from etacalc.geometry import Connection
from helpers import json_mutations, reference_scenario_schema

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = [
    "s1_unitary.json",
    "s1_nonunitary.json",
    "t3_flat_commuting.json",
    "t3_spectrum.json",
    "t3_gauged_spectrum.json",
    "t3_unitary_lines_spectrum.json",
    "s1_unitary_lines.json",
    "s1_near_axis.json",
]


@pytest.fixture
def tmp_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def load_bundled(name):
    return json.loads((SCENARIOS / name).read_text())


# ----------------------------------------------------------------------
# reading and checking


def test_bundled_scenarios_validate():
    reference = jsonschema.Draft202012Validator(reference_scenario_schema())
    for name in BUNDLED:
        reference.validate(load_bundled(name))
        scn = load_scenario(str(SCENARIOS / name))
        assert scn.experiments


def test_dim_two_rejected(tmp_cwd):
    obj = load_bundled("s1_unitary.json")
    obj["manifold"]["dim"] = 2
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2


def test_unknown_key_rejected(tmp_cwd):
    obj = load_bundled("s1_unitary.json")
    obj["surprise"] = True
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2


def test_unknown_check_rejected(tmp_cwd):
    obj = load_bundled("s1_unitary.json")
    obj["experiments"] = [{"check": "not_a_check"}]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2


_LINEAR = {"kind": "linear", "from": "main", "to": "target"}


@pytest.mark.parametrize(
    "experiment, key",
    [
        # keys the check does not read are rejected, not silently ignored
        (
            {"check": "variation_complex", "path": _LINEAR, "intervals": 3,
             "samples": 5},
            "intervals",
        ),
        # gauge pumping compares integers exactly and takes no tolerance
        (
            {"check": "gauge_pumping", "connection": "main", "winding": 2,
             "tolerance": 1e-30},
            "tolerance",
        ),
        ({"check": "gauge_pumping", "connection": "main"}, "winding"),
        # a broken path is reported against its own kind, not the other one
        (
            {"check": "psi_constancy", "path": {"kind": "linear", "from": "main"}},
            "to",
        ),
        (
            {"check": "psi_constancy", "path": {"kind": "gauge", "connection": "main"}},
            "winding",
        ),
    ],
)
def test_per_check_schema_names_offending_key(
    tmp_cwd, capsys, experiment, key
):
    obj = load_bundled("s1_nonunitary.json")
    obj["experiments"] = [experiment]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario: $.experiments[0]" in err and repr(key) in err


@pytest.mark.parametrize(
    "experiment",
    [
        # there is no ``tracks`` artifact, and no check reads ``intervals``
        {"check": "tracks", "path": _LINEAR},
        {"check": "spectrum", "connection": "main", "intervals": 8},
    ],
)
def test_retired_tracks_experiment_is_a_schema_error(tmp_cwd, capsys, experiment):
    obj = load_bundled("s1_nonunitary.json")
    obj["experiments"] = [experiment]
    assert main(["run", write_scenario(tmp_cwd, obj), "--emit-csv"]) == 2
    err = capsys.readouterr().err
    if experiment["check"] == "tracks":
        assert "invalid scenario: $.experiments[0].check 'tracks' is not one of" in err
    else:
        assert "invalid scenario: $.experiments[0] must be" in err
        assert "unknown 'intervals'" in err
    assert not list(tmp_cwd.rglob("*.csv"))


@pytest.mark.parametrize(
    "key, value",
    [("experiments", [{"check": "standard_suite"}]), ("seed", 3)],
    ids=["standard_suite", "seed"],
)
def test_retired_suite_experiment_is_a_schema_error(tmp_cwd, capsys, key, value):
    # a scenario runs checks on its own connections; neither the suite nor
    # a seed for it is part of one
    obj = load_bundled("s1_unitary.json")
    obj[key] = value
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    err = capsys.readouterr().err
    if key == "seed":
        assert "invalid scenario: $ must be an object" in err
        assert "unknown 'seed'" in err
    else:
        assert "invalid scenario: $.experiments[0].check 'standard_suite'" in err
    assert not (tmp_cwd / "out").exists()


def test_check_flag_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(SCENARIOS / "s1_unitary.json"), "--check", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_reference_schema_is_the_registry():
    # the frozen reference is a valid schema, and the keys it accepts and
    # requires per check are those the registry's check signatures give,
    # each of which the loader has a reader for
    reference = reference_scenario_schema()
    jsonschema.Draft202012Validator.check_schema(reference)
    items = reference["properties"]["experiments"]["items"]
    defs = reference["$defs"]
    accepted = {
        name: set(schema["properties"]) - {"check", "label"}
        for name, schema in defs.items()
    }
    assert all(defs[name]["properties"]["check"] == {"const": name} for name in defs)
    assert list(accepted) == items["properties"]["check"]["enum"] == list(cli.CHECKS)
    assert accepted == {name: set(c.params) for name, c in cli.CHECKS.items()}
    assert {name: set(d["required"]) for name, d in defs.items()} == {
        name: set(c.required) for name, c in cli.CHECKS.items()
    }
    assert set(cli._READERS) == {"label"}.union(*accepted.values())
    assert accepted == {
        "cs_odd_chern_pairing": {"connection", "r_values", "tolerance"},
        "gilkey_variation": {"from", "to", "tolerance"},
        "variation_complex": {"path", "cutoff", "tolerance"},
        "gauge_pumping": {"connection", "winding", "cutoff"},
        "re_im_split": {"connection", "tolerance"},
        "psi_constancy": {"path", "samples", "tolerance"},
        "eta_tilde_imaginary": {"connection", "reference", "tolerance"},
        "bk_phase": {"rank", "cutoff"},
        "spectrum": {"connection", "cutoff"},
    }
    # every key a check accepts, label included, and nothing else
    assert sum(len(keys) + 1 for keys in accepted.values()) == 33


@pytest.mark.parametrize("entry", ["null", "{}", '"1.5"', "true", "1e999"])
def test_bad_matrix_entry_is_scenario_error(tmp_cwd, capsys, entry):
    # null, {}, a numeric string and a bool are not numbers, and 1e999
    # parses to inf, which is not a finite one: the form refuses each as it
    # reads its matrices
    obj = load_bundled("s1_unitary.json")
    obj["connections"]["base"]["A"]["terms"][0]["re"] = [["ENTRY"]]
    path = tmp_cwd / "scenario.json"
    path.write_text(json.dumps(obj).replace('"ENTRY"', entry))
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, index", [("k", 1), ("I", 0)])
@pytest.mark.parametrize("entry", [0.5, True, "1", [], "INTEGRAL"])
def test_term_key_entries_are_integers(tmp_cwd, capsys, key, index, entry):
    # the schema leaves k and I entries to the form's constructor, which
    # refuses anything but an integer and takes an integral float (0.0 for
    # the frequency 0, 2.0 for the index 2) as that integer
    obj = load_bundled("t3_flat_commuting.json")
    entries = obj["connections"]["main"]["A"]["terms"][1][key]
    if entry == "INTEGRAL":
        entries[index] = float(entries[index])
        assert main(["run", write_scenario(tmp_cwd, obj)]) == 0
    else:
        entries[index] = entry
        assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
        assert "is not an integer" in capsys.readouterr().err


#: the values a mutation sets: every JSON type, and numbers on each side of
#: every bound (cutoff and rank >= 1, samples >= 2, tolerance > 0, dim 1, 3
#: or 5); 1.5 is no integer, and true is no number
_VALUES = ("x", True, None, -1, 0, 1, 1.5, 2, [], {})


def _experiment_mutations(exp: dict):
    """Every single mutation of ``exp`` (``json_mutations``, in the path
    and the r_values too), each key its check takes and ``exp`` lacks added
    with each of ``_VALUES``, and each other check named."""
    yield from json_mutations(exp, _VALUES)
    for key in cli.CHECKS[exp["check"]].params:
        if key not in exp:
            yield from ({**exp, key: value} for value in _VALUES)
    for name in cli.CHECKS:
        if name != exp["check"]:
            yield {**exp, "check": name}


def _refuses_as_the_reference(reference, tmp_path, obj) -> bool:
    """Whether the loader refuses ``obj``, asserting that it refuses it
    exactly when the frozen reference schema does, naming the JSON path of
    the reference's best match first.  Without connections, a scenario the
    reference accepts may be refused only for a name it gives."""
    error = jsonschema.exceptions.best_match(reference.iter_errors(obj))
    try:
        load_scenario(write_scenario(tmp_path, obj))
    except InvalidInputError as exc:
        if error is None:
            assert "names an unknown connection" in str(exc), obj
            return False
        assert str(exc).split(" ", 1)[0] == error.json_path, (obj, str(exc))
        return True
    assert error is None, obj
    return False


def test_loader_refuses_as_the_single_document_schema(tmp_cwd):
    # the loader refuses the same experiments, at the same JSON path, as
    # the frozen schema with a branch per check.  Each distinct bundled
    # experiment is mutated alone in a scenario without connections, to
    # keep the corpus fast, so a scenario that passes the schema is refused
    # only for the names it gives, which are checked after it
    reference = jsonschema.Draft202012Validator(reference_scenario_schema())
    distinct = {}
    for name in BUNDLED:
        obj = load_bundled(name)
        for exp in obj["experiments"]:
            key = json.dumps(exp, sort_keys=True)
            distinct[key] = (obj["manifold"], obj["bundle"], exp)
    outcomes = []
    for manifold, bundle, exp in distinct.values():
        for mutated in _experiment_mutations(exp):
            obj = {"manifold": manifold, "bundle": bundle, "experiments": [mutated]}
            outcomes.append(_refuses_as_the_reference(reference, tmp_cwd, obj))
    assert len(outcomes) > 1000 and 100 < sum(outcomes) < len(outcomes) - 100


def _envelope_mutations(obj: dict):
    """``obj`` with each key of the top level and of ``manifold``,
    ``bundle`` and ``output`` dropped, an unknown key added to each, and
    each of their values set to each of ``_VALUES`` in turn."""
    for part in (None, "manifold", "bundle", "output"):
        node = obj if part is None else obj[part]
        variants = [{k: v for k, v in node.items() if k != key} for key in node]
        variants.append({**node, "surprise": 1})
        variants += [{**node, key: value} for key in node for value in _VALUES]
        for variant in variants:
            yield variant if part is None else {**obj, part: variant}


@pytest.mark.parametrize("name", ["s1_unitary.json", "t3_spectrum.json"])
def test_loader_refuses_as_the_reference_on_the_envelope(tmp_cwd, name):
    # the layout around the experiments: every single mutation of it is
    # refused exactly when the frozen schema refuses it, at its path.  The
    # connections are left empty, as in the experiment corpus, so no
    # connection's dim or rank can refuse a dim or rank the schema accepts
    reference = jsonschema.Draft202012Validator(reference_scenario_schema())
    obj = {**load_bundled(name), "connections": {}}
    assert set(obj["output"]) == {"report", "csv_dir"}
    outcomes = [
        _refuses_as_the_reference(reference, tmp_cwd, mutated)
        for mutated in _envelope_mutations(obj)
    ]
    assert len(outcomes) > 80 and 5 < outcomes.count(False) < outcomes.count(True)


@pytest.mark.parametrize(
    "label", ["../escaped", "/tmp/x", "a/b", "..", ".", "a\\b", "a\x00b"]
)
def test_label_is_one_file_name(tmp_cwd, capsys, label):
    # a label names the experiment's CSV file in csv_dir, so it may not
    # lead out of it
    outside = pathlib.Path(f"{label}.csv")
    existed = outside.is_absolute() and outside.exists()
    obj = load_bundled("s1_unitary.json")
    obj["experiments"] = [{"check": "spectrum", "connection": "base", "label": label}]
    obj["output"] = {"csv_dir": "o/inner"}
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    err = capsys.readouterr().err
    at = "invalid scenario: $.experiments[0].label"
    assert f"{at} {label!r} is not one file name" in err
    assert [p.name for p in tmp_cwd.rglob("*")] == ["scenario.json"]
    assert outside.exists() == existed


@pytest.mark.parametrize(
    "re, im",
    [([[0.1, 0.2], [0.3]], [[0.0, 0.0], [0.0, 0.0]]),  # ragged rows
     ([[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.0, 0.0]] * 3)],  # re and im differ
)
def test_bad_matrix_shape_is_scenario_error(tmp_cwd, capsys, re, im):
    obj = load_bundled("t3_flat_commuting.json")
    term = obj["connections"]["main"]["A"]["terms"][0]
    term["re"], term["im"] = re, im
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize("k", [2**63 - 1, -(2**63), 2**63, 10**20])
def test_frequency_past_int64_pairs_no_mode(tmp_cwd, k):
    # a coupling whose shift has some |q_j| > 2K pairs no mode of the
    # window, so it gets no pair before any index arithmetic, which would
    # fail past the int64 range: the spectrum at K = 2 is that of a term at
    # k = 5, also outside the window, and the gauge pumping still runs
    def run(freq):
        obj = load_bundled("s1_unitary.json")
        obj["connections"]["base"]["A"]["terms"].append(
            {"k": [freq], "I": [1], "re": [[0.25]], "im": [[0.5]]}
        )
        obj["experiments"] = [
            {"check": "spectrum", "connection": "base", "cutoff": 2},
            {"check": "gauge_pumping", "connection": "base", "winding": 1},
        ]
        obj["output"] = {"csv_dir": f"out{freq}"}
        assert main(["run", write_scenario(tmp_cwd, obj)]) == 0
        return (tmp_cwd / f"out{freq}" / "e00_spectrum.csv").read_bytes()

    assert run(k) == run(5)


def test_connection_error_is_reported_before_an_experiment_error(tmp_cwd, capsys):
    # the connections are read right after the scenario's layout passes
    # its schema, before each experiment meets its check's schema
    obj = load_bundled("s1_unitary.json")
    del obj["connections"]["base"]["A"]["terms"][0]["k"]
    obj["experiments"][0]["surprise"] = 1
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    assert "invalid scenario: $.connections.base.A.terms[0] must be" in (
        capsys.readouterr().err
    )


def test_every_connection_refusal_starts_with_its_json_path(tmp_cwd):
    # a connection is read at its JSON path, so each refusal of a single
    # mutation of a bundled connection, with and without an identity g,
    # names where in the scenario it stands, down to a matrix entry
    obj = load_bundled("t3_flat_commuting.json")
    conn = obj["connections"]["main"]
    identity = TrigPolyForm.identity(conn["dim"], conn["rank"]).to_json_obj()
    refusals = []
    for spec in (conn, {**conn, "g": identity}):
        for mutated in json_mutations(spec):
            obj["connections"]["main"] = mutated
            try:
                load_scenario(write_scenario(tmp_cwd, obj))
            except InvalidInputError as exc:
                refusals.append(str(exc))
    assert len(refusals) > 1000
    assert [r for r in refusals if not r.startswith("$.connections.main")] == []
    assert any(r.startswith("$.connections.main.A.terms[2].re[1][0] ") for r in refusals)


def _scaled(conn: dict, factor: float) -> None:
    """Multiply every matrix entry of the connection JSON ``conn`` by ``factor``."""
    for term in conn["A"]["terms"]:
        for part in ("re", "im"):
            term[part] = [[factor * x for x in row] for row in term[part]]


def test_flatness_is_decided_relative_to_the_connection_scale(tmp_cwd):
    # the curvature's rounding grows as max|A|^2: scaled by 1e4, the flat
    # commuting connections are still flat to the pairing check
    obj = load_bundled("t3_flat_commuting.json")
    for conn in obj["connections"].values():
        _scaled(conn, 1e4)
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 0


@pytest.mark.parametrize("factor", [1e-2, 1.0, 1e4])
def test_a_curved_connection_is_refused_at_every_scale(tmp_cwd, capsys, factor):
    # constant i sigma_x, i sigma_y, i sigma_z do not commute: the curvature
    # sum_{i<j} [A_i, A_j] dx_i dx_j is of size max|A|^2, so the pairing
    # check refuses the connection however it is scaled
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    obj = load_bundled("t3_flat_commuting.json")
    obj["connections"]["main"] = Connection.from_constant(
        3, [factor * 1j * s for s in sigma]
    ).to_json_obj()
    assert main(["run", write_scenario(tmp_cwd, obj), "--check", "cs_odd_chern_pairing"]) == 2
    assert "requires a flat connection" in capsys.readouterr().err


@pytest.mark.parametrize("declared", [{"dim": 1, "rank": 7}, {"dim": 1}, {"rank": 7}])
def test_connection_shape_keys_must_match_its_form(tmp_cwd, capsys, declared):
    # the form A of "main" is dim 3, rank 2
    obj = load_bundled("t3_flat_commuting.json")
    obj["connections"]["main"].update(declared)
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    assert "its form A is dim=3 rank=2" in capsys.readouterr().err


def _with_number(tmp_path, obj, literal):
    """The scenario ``obj`` written with the JSON text ``literal`` in place
    of every string "NUMBER"."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj).replace('"NUMBER"', literal))
    return str(path)


#: JSON text of numbers that no float holds: NaN and +-Infinity are not
#: JSON (RFC 8259) but parse, 1e999 parses to inf, and a 400-digit integer
#: does not convert to a float
_NOT_FINITE = ["Infinity", "-Infinity", "NaN", "1e999", "-1e999", "1" + "0" * 400]
_NOT_FINITE_IDS = ["Infinity", "-Infinity", "NaN", "1e999", "-1e999", "400-digit-int"]


@pytest.mark.parametrize("literal", _NOT_FINITE, ids=_NOT_FINITE_IDS)
@pytest.mark.parametrize("key", ["tolerance", "r_values"])
def test_numbers_must_be_finite_floats(tmp_cwd, capsys, key, literal):
    obj = load_bundled("s1_unitary.json")
    pairing = obj["experiments"][0]
    assert pairing["check"] == "cs_odd_chern_pairing"
    pairing[key] = ["NUMBER"] if key == "r_values" else "NUMBER"
    assert main(["run", _with_number(tmp_cwd, obj, literal)]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "numerical guard" not in err


def test_oversized_integer_seed_rejected(tmp_cwd):
    # every number of the file is checked, not only check parameters
    obj = load_bundled("s1_unitary.json")
    obj["bundle"]["rank"] = "NUMBER"
    assert main(["run", _with_number(tmp_cwd, obj, "1" + "0" * 400)]) == 2


#: the JSON path of a number in s1_unitary.json -> the keys that reach it
_NUMBERS = {
    "$.connections.base.A.terms[0].re[0][0]": (
        "connections", "base", "A", "terms", 0, "re", 0, 0
    ),
    "$.connections.base.A.terms[0].k[0]": ("connections", "base", "A", "terms", 0, "k", 0),
    "$.experiments[0].r_values[0]": ("experiments", 0, "r_values", 0),
    "$.experiments[0].tolerance": ("experiments", 0, "tolerance"),
    "$.experiments[6].cutoff": ("experiments", 6, "cutoff"),
    "$.bundle.rank": ("bundle", "rank"),
    "$.manifold.dim": ("manifold", "dim"),
}


@pytest.mark.parametrize("literal", _NOT_FINITE, ids=_NOT_FINITE_IDS)
@pytest.mark.parametrize("at", list(_NUMBERS))
def test_a_number_no_float_holds_is_refused_at_its_own_path(tmp_cwd, capsys, at, literal):
    # each number is checked once, where the reader that keeps it reads it,
    # so the refusal names its position, not the whole file
    obj = load_bundled("s1_unitary.json")
    *keys, last = _NUMBERS[at]
    parent = obj
    for key in keys:
        parent = parent[key]
    parent[last] = "NUMBER"
    assert main(["run", _with_number(tmp_cwd, obj, literal)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid scenario: {at} ")


@pytest.mark.parametrize("kind", ["5000-digit-int", "truncated", "not-utf8"])
def test_a_file_that_is_not_json_is_refused_at_the_root(tmp_cwd, capsys, kind):
    # json refuses an integer literal past 4300 digits with a bare
    # ValueError, not a JSONDecodeError, and bytes that are not UTF-8 with
    # a UnicodeDecodeError: all are the one refusal of the file at $
    text = json.dumps(load_bundled("s1_unitary.json"))
    data = {
        "5000-digit-int": text.replace('"rank": 1', '"rank": ' + "1" * 5000).encode(),
        "truncated": text[: len(text) // 2].encode(),
        "not-utf8": text.encode().replace(b'"base"', b'"\xffbase"'),
    }[kind]
    path = tmp_cwd / "scenario.json"
    path.write_bytes(data)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid scenario: $ is not valid JSON: ")


@pytest.mark.parametrize(
    "name, at",
    [
        ("a.b", "$.connections['a.b']"),
        ("a b", "$.connections['a b']"),
        ("x[0]", "$.connections['x[0]']"),
        ("plain", "$.connections.plain"),
    ],
)
def test_a_connection_name_that_is_no_identifier_is_quoted_in_its_path(
    tmp_cwd, capsys, name, at
):
    # a name holding ., [ or a space would make $.connections.<name> read
    # as a longer path, so it is quoted as JSONPath does
    obj = load_bundled("s1_unitary.json")
    conn = copy.deepcopy(obj["connections"]["other"])
    obj["connections"] = {name: conn, **obj["connections"]}
    conn["A"]["terms"][0]["re"][0][0] = "NUMBER"
    assert main(["run", _with_number(tmp_cwd, obj, "1e999")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: invalid scenario: {at}.A.terms[0].re[0][0] inf "
    )
    conn["A"]["terms"][0]["re"][0][0] = 0.0
    obj["manifold"]["dim"] = 3
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: invalid scenario: {at} is dim=1 rank=1, the scenario declares dim=3"
    )


def test_bk_phase_rank_zero_rejected(tmp_cwd, capsys):
    # at rank 0 both sides are exp(0) = 1, so the check could not fail
    obj = load_bundled("t3_spectrum.json")
    bk = obj["experiments"][2]
    assert bk["check"] == "bk_phase"
    bk["rank"] = 0
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    assert "invalid scenario: $.experiments[2].rank 0 is less than 1" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("part, key", [("manifold", "dim"), ("bundle", "rank")])
def test_integral_float_dim_and_rank_run_as_integers(tmp_cwd, part, key):
    # JSON Schema's integers include 3.0, so the scenario's dim and rank
    # are read as integers: the run is that of the integer, byte for byte
    def report(value):
        obj = load_bundled("t3_spectrum.json")
        obj[part][key] = value
        obj["output"] = {"report": f"{value!r}.json"}
        assert main(["run", write_scenario(tmp_cwd, obj)]) == 0
        return (tmp_cwd / f"{value!r}.json").read_bytes()

    value = load_bundled("t3_spectrum.json")[part][key]
    assert report(float(value)) == report(value)


@pytest.mark.parametrize(
    "name, connections, im",
    [("s1_unitary.json", ["base"], lambda x: 1e20),
     ("s1_nonunitary.json", ["main", "target"], lambda x: x * 1e103)],
    ids=["unitary-base-1e20", "nonunitary-1e103"],
)
def test_tower_shift_past_the_axis_rule_is_a_guard(
    tmp_cwd, capsys, name, connections, im
):
    # past |Re mu| = 2^20 a float mu places its tower no better than the
    # axis tolerance: a guard trips (exit 3) naming mu, where the axis rule
    # would have invented a kernel mode or an axis eigenvalue (exit 2)
    obj = load_bundled(name)
    for conn in connections:
        for term in obj["connections"][conn]["A"]["terms"]:
            term["im"] = [[im(x) for x in row] for row in term["im"]]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 3
    assert "numerical guard tripped: the axis rule cannot place the tower of mu = " in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "experiments",
    [
        # the second CSV would overwrite the first
        [{"check": "spectrum", "connection": "main", "cutoff": 2, "label": "dup"},
         {"check": "spectrum", "connection": "main", "cutoff": 1, "label": "dup"}],
        # identical check ids
        [{"check": "bk_phase", "label": "dup"}, {"check": "bk_phase", "label": "dup"}],
        # an explicit label equal to another experiment's default one
        [{"check": "bk_phase"}, {"check": "bk_phase", "label": "e00_bk_phase"}],
    ],
    ids=["spectrum", "bk_phase", "default"],
)
def test_repeated_experiment_label_rejected(tmp_cwd, capsys, experiments):
    obj = load_bundled("t3_spectrum.json")
    obj["experiments"] = experiments
    obj["output"] = {"csv_dir": "o"}
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    out, err = capsys.readouterr()
    assert "labelled" in err and "written" not in out
    assert not (tmp_cwd / "o").exists()


def test_every_experiment_gets_its_label_on_loading(tmp_cwd):
    # loaded as the (check name, experiment) pairs the suite runs, each
    # with its label and the scenario's dim and rank
    obj = load_bundled("t3_spectrum.json")
    scn = load_scenario(write_scenario(tmp_cwd, obj))
    assert all(isinstance(x, verify.Experiment) for _, x in scn.experiments)
    assert [(name, x.label, x.dim, x.rank) for name, x in scn.experiments] == [
        ("spectrum", "e00_spectrum", 3, 1),
        ("cs_odd_chern_pairing", "pairing", 3, 1),
        ("bk_phase", "e02_bk_phase", 3, 1),
    ]


def test_unknown_connection_name(tmp_cwd):
    obj = load_bundled("s1_unitary.json")
    obj["experiments"] = [{"check": "re_im_split", "connection": "ghost"}]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2


@pytest.mark.parametrize(
    "experiment",
    [
        {"check": "gilkey_variation", "from": "base", "to": "nosuch"},
        {"check": "eta_tilde_imaginary", "connection": "base", "reference": "nosuch"},
        {"check": "psi_constancy",
         "path": {"kind": "linear", "from": "nosuch", "to": "base"}},
        {"check": "variation_complex",
         "path": {"kind": "gauge", "connection": "nosuch", "winding": 1}},
    ],
    ids=["to", "reference", "linear-path", "gauge-path"],
)
def test_unknown_connection_name_is_refused_before_anything_runs(
    tmp_cwd, capsys, experiment
):
    # an earlier experiment that writes an artifact must not have run
    obj = load_bundled("s1_unitary.json")
    spectrum = [x for x in obj["experiments"] if x["check"] == "spectrum"]
    obj["experiments"] = spectrum + [experiment]
    obj["output"] = {"csv_dir": "out", "report": "out/report.json"}
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario: $.experiments[1]." in err
    assert "names an unknown connection 'nosuch'" in err
    assert not (tmp_cwd / "out").exists()


def test_connection_shape_mismatch(tmp_cwd):
    obj = load_bundled("s1_unitary.json")
    obj["bundle"]["rank"] = 2  # connections are rank 1
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2


def test_invalid_json(tmp_cwd):
    path = tmp_cwd / "broken.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == 2


def test_missing_file(tmp_cwd, capsys):
    assert main(["run", str(tmp_cwd / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid scenario: $ cannot be read: [Errno "
    )


@pytest.mark.parametrize("kind", ["directory", "through-a-file"])
def test_a_file_that_cannot_be_read_is_refused_at_the_root(tmp_cwd, capsys, kind):
    # every OSError of opening or reading the scenario is the one refusal
    # of the file at $, as a missing file and one that is not JSON are (a
    # permission error too; not tested, as chmod does not stop a root reader)
    (tmp_cwd / "plain.json").write_text("{}")
    path = {"directory": tmp_cwd, "through-a-file": tmp_cwd / "plain.json" / "x.json"}[kind]
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: invalid scenario: $ cannot be read: [Errno ")
    assert str(path) in err and "Traceback" not in err and not out


# ----------------------------------------------------------------------
# bundled scenarios run clean


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_passes(tmp_cwd, name, capsys):
    assert main(["run", str(SCENARIOS / name)]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    report_path = load_bundled(name)["output"]["report"]
    text = (tmp_cwd / report_path).read_text()
    report = json.loads(text)
    assert report["meta"] == {"schema_version": "1"}
    assert all(e["passed"] for e in report["entries"])
    # the file is the report's own serialization, with no timestamp
    again, _ = cli.run_scenario(load_scenario(str(SCENARIOS / name)))
    assert text == again.to_json() + "\n"


def test_spectrum_csv_artifact(tmp_cwd):
    assert main(["run", str(SCENARIOS / "t3_spectrum.json")]) == 0
    csvs = list((tmp_cwd / "out").glob("*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "re,im,mode"


@pytest.mark.parametrize(
    "later, code, message",
    [
        ({"r_values": [1e103]}, 3, "numerical guard tripped: entry pairing[r=1e+103"),
        ({"check": "gilkey_variation", "from": "main", "to": "main"}, 2,
         "invalid scenario: reduced eta uses closed-form circle spectra"),
        # a copy of the spectrum experiment whose truncation is refused
        ({"check": "spectrum", "connection": "main", "cutoff": 2000}, 3,
         "numerical guard tripped: the lattice and symbol of 64048012001 modes"),
    ],
    ids=["guard", "precondition", "later spectrum past the memory guard"],
)
def test_a_run_that_a_later_check_stops_writes_no_csv(
    tmp_cwd, capsys, later, code, message
):
    # the spectrum experiment comes first, the check that stops the run later
    obj = load_bundled("t3_spectrum.json")
    spectrum, pairing, _ = obj["experiments"]
    obj["experiments"] = [spectrum, later if "check" in later else {**pairing, **later}]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == code
    assert message in capsys.readouterr().err
    assert not list(tmp_cwd.rglob("*.csv"))


@pytest.mark.parametrize(
    "output, flags, clash",
    [
        ({"report": "out/e06_spectrum.csv", "csv_dir": "out"}, [], "CSV of experiment"),
        ({"report": "e06_spectrum.csv"}, ["--emit-csv"], "CSV of experiment"),
        ({"report": "sub/../e06_spectrum.csv"}, ["--emit-csv"], "CSV of experiment"),
        # the report would be written over the directory that holds the CSVs
        ({"report": "out", "csv_dir": "out"}, [], "CSV directory 'out'"),
    ],
    ids=["csv_dir", "emit-csv", "emit-csv, the same real path", "csv_dir itself"],
)
def test_a_report_that_would_overwrite_a_csv_is_refused(
    tmp_cwd, capsys, output, flags, clash
):
    obj = load_bundled("s1_unitary.json")
    obj["output"] = output
    scenario = write_scenario(tmp_cwd, obj)
    assert main(["run", scenario, *flags]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: invalid scenario: $.output.report is the {clash}"
    )
    assert sorted(p.name for p in tmp_cwd.iterdir()) == ["scenario.json"]
    # without the spectrum experiment no CSV is written, so nothing clashes
    assert main(["run", scenario, *flags, "--check", "gilkey_variation"]) == 0
    written = [p.relative_to(tmp_cwd) for p in tmp_cwd.rglob("*") if p.is_file()]
    report = pathlib.Path(os.path.normpath(output["report"]))
    assert sorted(written) == sorted([pathlib.Path("scenario.json"), report])
    assert "entries" in json.loads(report.read_text())


@pytest.mark.parametrize(
    "output, made, flags",
    [
        ({"report": ".", "csv_dir": "out"}, [], []),
        ({"report": "sub"}, ["sub"], ["--emit-csv"]),
    ],
    ids=["the working directory", "a made directory"],
)
@pytest.mark.parametrize(
    "selected", [[], ["--check", "gilkey_variation"]], ids=["all", "check"]
)
def test_a_report_path_that_is_a_directory_is_refused(
    tmp_cwd, capsys, output, made, flags, selected
):
    # refused before any check runs, whether or not the run writes CSVs,
    # where it would otherwise write them and then fail to open the report
    obj = load_bundled("s1_unitary.json")
    obj["output"] = output
    scenario = write_scenario(tmp_cwd, obj)
    for name in made:
        (tmp_cwd / name).mkdir()
    assert main(["run", scenario, *flags, *selected]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario: $.output.report")
    assert "is a directory" in err
    assert sorted(p.name for p in tmp_cwd.rglob("*")) == sorted(["scenario.json", *made])


def test_a_run_whose_check_fails_writes_the_passing_runs_csvs(tmp_cwd):
    scenario = str(SCENARIOS / "s1_unitary.json")
    assert main(["run", scenario]) == 0
    passed = {p.name: p.read_bytes() for p in (tmp_cwd / "out").glob("*.csv")}
    assert passed
    for name in passed:
        (tmp_cwd / "out" / name).unlink()
    assert main(["run", scenario, "--tol", "1e-300"]) == 1
    assert {p.name: p.read_bytes() for p in (tmp_cwd / "out").glob("*.csv")} == passed


# ----------------------------------------------------------------------
# flags


def test_tol_override_forces_failure(tmp_cwd, capsys):
    code = main(
        ["run", str(SCENARIOS / "s1_nonunitary.json"), "--tol", "1e-30"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_filter(tmp_cwd):
    code = main(
        [
            "run",
            str(SCENARIOS / "s1_nonunitary.json"),
            "--check",
            "gilkey_variation",
        ]
    )
    assert code == 0
    report = json.loads(
        (tmp_cwd / "out/s1_nonunitary_report.json").read_text()
    )
    assert len(report["entries"]) == 1
    assert "gilkey_variation" in report["entries"][0]["check_id"]


@pytest.mark.parametrize(
    "check, note", [("spectrum", False), ("gauge_pumping", True)]
)
def test_check_filter_notes_only_a_filter_no_experiment_names(
    tmp_cwd, capsys, check, note
):
    # the spectrum artifact makes no report entries, but it matched
    assert main(["run", str(SCENARIOS / "t3_spectrum.json"), "--check", check]) == 0
    out = capsys.readouterr().out
    assert ("csv written to out/e00_spectrum.csv" in out) == (not note)
    assert ("note: no experiments matched the --check filter" in out) == note


def test_readme_check_table_is_the_registry():
    # README's table lists every check with the keys it reads, the
    # required ones (no default in the check's signature) in bold
    readme = (SCENARIOS.parent / "README.md").read_text().splitlines()
    start = readme.index("| check | keys | default tolerance |") + 2
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), readme[start:]):
        name, keys = line.split("|")[1:3]
        items = re.sub(r"\([^()]*\)", "", keys).split(",")
        table[name.strip().strip("`")] = {
            re.search(r"`(\w+)`", item)[1]: item.strip().startswith("**")
            for item in items
        }
    assert table == {
        name: {key: key in check.required for key in check.params}
        for name, check in cli.CHECKS.items()
    }


def test_seed_flag_is_retired(capsys):
    # the seeded suite runs from scripts/run_verification.py, not a scenario
    with pytest.raises(SystemExit) as exc:
        main(["run", str(SCENARIOS / "s1_unitary.json"), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


_TOL_REFUSALS = [("0", "is not > 0"), ("-1", "is not > 0")] + [
    (tol, "is not a finite number") for tol in ("nan", "inf", "Infinity", "1e999")
]


@pytest.mark.parametrize("tol, reason", _TOL_REFUSALS, ids=[t for t, _ in _TOL_REFUSALS])
def test_nonpositive_tol_flag_rejected(capsys, tol, reason):
    # an infinite tolerance would pass every entry, so it is refused too
    with pytest.raises(SystemExit) as exc:
        main(["run", str(SCENARIOS / "s1_nonunitary.json"), "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err.rstrip()
    assert err.endswith(f"argument --tol: --tol {float(tol)} {reason}")


def _refusal_reason(err: str, at: str) -> str:
    """What follows the value in the refusal of ``at`` on stderr."""
    match = re.search(re.escape(at) + r" \S+ (is not .*)$", err.rstrip())
    assert match, err
    return match.group(1)


@pytest.mark.parametrize("tol", ["0", "-1", "1e-400", "nan", "inf", "1e999", "1e-300", "2"])
def test_tol_flag_and_tolerance_key_accept_the_same_values(tmp_cwd, capsys, tol):
    # --tol is read by the tolerance key's reader: a value is refused (exit
    # 2) one way exactly when it is the other, and for the same reason
    obj = load_bundled("s1_nonunitary.json")
    obj["experiments"] = [obj["experiments"][1]]  # gilkey_variation
    del obj["output"]
    try:
        flag = main(["run", write_scenario(tmp_cwd, obj, "flag.json"), "--tol", tol])
    except SystemExit as exc:
        flag = exc.code
    flag_err = capsys.readouterr().err
    obj["experiments"][0]["tolerance"] = "NUMBER"
    literal = json.dumps(float(tol)) if tol in ("nan", "inf") else tol
    key = main(["run", _with_number(tmp_cwd, obj, literal)])
    key_err = capsys.readouterr().err
    assert (flag == 2) == (key == 2) == (tol not in ("1e-300", "2")), (flag, key)
    if flag == 2:
        assert _refusal_reason(flag_err, "--tol") == _refusal_reason(
            key_err, "$.experiments[0].tolerance"
        )


# ----------------------------------------------------------------------
# guard and precondition exits


def test_memory_guard_exit_code(tmp_cwd, capsys):
    obj = load_bundled("s1_nonunitary.json")
    conn = copy.deepcopy(obj["connections"]["main"])
    conn["A"]["terms"].append(
        {"k": [1], "I": [1], "re": [[0.05]], "im": [[0.0]]}
    )
    obj["connections"] = {"main": conn}
    obj["experiments"] = [
        {"check": "spectrum", "connection": "main", "cutoff": 30000}
    ]
    obj["output"] = {"csv_dir": "out"}
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 3
    assert "guard" in capsys.readouterr().err


def test_cutoff_guard_exit_code(tmp_cwd, capsys):
    # winding 9 pumps a tower out to the Bauer--Fike radius 9.31, past the
    # cutoff-8 window, where the spectral flow would read 8: a guard (exit
    # 3) naming cutoff 10, not a failed identity.  At cutoff 10 it is
    # exact, as are windings up to 3 at cutoff 8.
    obj = load_bundled("s1_nonunitary.json")
    two_pi = 2 * math.pi
    obj["bundle"] = {"rank": 2}
    obj["connections"] = {
        "main": {
            "dim": 1,
            "rank": 2,
            "A": {
                "dim": 1,
                "rank": 2,
                "terms": [
                    {
                        "k": [0],
                        "I": [1],
                        "re": [[0.0, 0.0], [0.0, two_pi * 0.2]],
                        "im": [[two_pi * 0.31, 0.0], [0.0, two_pi * 0.57]],
                    }
                ],
            },
        }
    }
    obj["experiments"] = [
        {"check": "gauge_pumping", "connection": "main", "winding": w,
         "cutoff": 8}
        for w in range(-3, 4)
    ]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 0
    report = json.loads((tmp_cwd / obj["output"]["report"]).read_text())
    assert [e["residual"] for e in report["entries"]] == [0.0] * 7
    capsys.readouterr()
    obj["experiments"].append(
        {"check": "gauge_pumping", "connection": "main", "winding": 9,
         "cutoff": 8}
    )
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 3
    err = capsys.readouterr().err
    assert "guard" in err and "cutoff 10" in err
    obj["experiments"][-1]["cutoff"] = 10
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 0
    report = json.loads((tmp_cwd / obj["output"]["report"]).read_text())
    assert [e["residual"] for e in report["entries"]] == [0.0] * 8


def test_axis_endpoint_is_scenario_error(tmp_cwd):
    # tower pinned to the imaginary axis: the complex variation formula
    # refuses such endpoints, which the runner reports as exit 2
    obj = load_bundled("s1_nonunitary.json")
    axis = {
        "dim": 1,
        "rank": 1,
        "A": {
            "dim": 1,
            "rank": 1,
            "terms": [
                {"k": [0], "I": [1], "re": [[-math.pi]], "im": [[0.0]]}
            ],
        },
    }
    obj["connections"]["axis"] = axis
    obj["experiments"] = [
        {
            "check": "variation_complex",
            "path": {"kind": "linear", "from": "axis", "to": "axis"},
        }
    ]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2


def _constant(dim, mats):
    return Connection.from_constant(dim, [np.asarray(m, dtype=complex) for m in mats])


_AXIS = _constant(1, [[[2j * math.pi * 0.5j]]])  # tower on the axis
_WAVY = Connection(
    _constant(1, [[[0.3j]]]).a
    + TrigPolyForm.monomial(1, np.array([[0.05]]), k=(1,), I=(1,))
)
_NONFLAT = _constant(3, [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]])
_T3 = _constant(3, [[[0.3j]]] * 3)


@pytest.mark.parametrize(
    "connections, experiment, message",
    [
        ({"main": _NONFLAT},
         {"check": "cs_odd_chern_pairing", "connection": "main"},
         "flat connection"),
        ({"main": _T3}, {"check": "re_im_split", "connection": "main"},
         "dim == 1"),
        ({"main": _WAVY}, {"check": "re_im_split", "connection": "main"},
         "constant connection"),
        ({"main": _T3},
         {"check": "variation_complex",
          "path": {"kind": "gauge", "connection": "main", "winding": 1}},
         "defined on the circle"),
        ({"main": _AXIS},
         {"check": "gauge_pumping", "connection": "main", "winding": 1},
         "imaginary axis"),
    ],
)
def test_precondition_gates_exit_2(
    tmp_cwd, capsys, connections, experiment, message
):
    main_conn = connections["main"]
    obj = {
        "manifold": {"dim": main_conn.dim},
        "bundle": {"rank": main_conn.rank},
        "connections": {n: c.to_json_obj() for n, c in connections.items()},
        "experiments": [experiment],
    }
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 2
    assert message in capsys.readouterr().err


_W = TrigPolyForm.identity(1, 2) + TrigPolyForm.monomial(
    1, np.array([[0.0, 0.4], [0.0, 0.0]]), k=(1,)
)
_METRICS = {
    "2I": TrigPolyForm.constant(1, 2 * np.eye(2)),
    "singular": TrigPolyForm.constant(1, np.ones((2, 2))),
    "unipotent": _W.dagger().wedge(_W),  # x-dependent, Hermitian, positive
    "identity": TrigPolyForm.constant(1, np.eye(2)),  # a fresh I
}


@pytest.mark.parametrize("flags", [[], ["--check", "spectrum"]], ids=["all", "check"])
@pytest.mark.parametrize("metric", list(_METRICS))
def test_a_metric_other_than_the_identity_is_refused_at_load(
    tmp_cwd, capsys, metric, flags
):
    # the identity is the only fiber metric: any other g is refused where
    # the scenario loads, with the gauge change that replaces a constant
    # one, so the experiment before its use writes no CSV, under --check
    # too; a g that is exactly I loads and runs
    spec = Connection.from_constant(1, [0.3j * np.eye(2)]).to_json_obj()
    obj = {
        "manifold": {"dim": 1},
        "bundle": {"rank": 2},
        "connections": {
            "main": Connection.from_constant(1, [0.5j * np.eye(2)]).to_json_obj(),
            "other": {**spec, "g": _METRICS[metric].to_json_obj()},
        },
        "experiments": [
            {"check": "spectrum", "connection": "main"},
            {"check": "re_im_split", "connection": "other"},
        ],
        "output": {"csv_dir": "out"},
    }
    code = main(["run", write_scenario(tmp_cwd, obj), *flags])
    out, err = capsys.readouterr()
    if metric == "identity":
        assert code == 0 and (tmp_cwd / "out").exists()
        return
    assert code == 2
    assert (
        "invalid scenario: $.connections.other.g must be the identity: for a "
        "constant g = h^dagger h, give A' = h A h^-1 on the identity metric" in err
    )
    assert "written" not in out and not (tmp_cwd / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--check", "spectrum"]], ids=["all", "check"])
def test_gauge_path_off_the_circle_is_refused_before_anything_runs(
    tmp_cwd, capsys, flags
):
    # a gauge path is built where the scenario loads, so on T^3 the
    # spectrum experiment before it writes no CSV, under --check too
    obj = load_bundled("t3_spectrum.json")
    obj["experiments"] = [
        {"check": "spectrum", "connection": "main"},
        {"check": "variation_complex",
         "path": {"kind": "gauge", "connection": "main", "winding": 1}},
    ]
    obj["output"] = {"csv_dir": "out"}
    assert main(["run", write_scenario(tmp_cwd, obj), *flags]) == 2
    out, err = capsys.readouterr()
    assert err == (
        "error: invalid scenario: $.experiments[1].path is a gauge path on T^3: "
        "gauge paths are defined on the circle\n"
    )
    assert "written" not in out and not (tmp_cwd / "out").exists()


def test_gauge_pumping_off_the_circle_is_refused_before_anything_runs(tmp_cwd, capsys):
    # gauge_pumping builds its gauge path as it runs, so the loader refuses
    # it on T^3 at its experiment's path: the spectrum experiment before it
    # writes no CSV under --emit-csv
    obj = load_bundled("t3_spectrum.json")
    obj["experiments"] = [
        {"check": "spectrum", "connection": "main"},
        {"check": "gauge_pumping", "connection": "main", "winding": 1},
    ]
    obj.pop("output", None)
    assert main(["run", write_scenario(tmp_cwd, obj), "--emit-csv"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: invalid scenario: $.experiments[1] is gauge_pumping")
    assert "written" not in out and not list(tmp_cwd.rglob("*.csv"))


_NO_SCIPY_STEPS = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import etacalc, etacalc.cli
loaded = {"import": scipy_loaded()}
etacalc.cli.main(["run", sys.argv[1]])
loaded["run"] = scipy_loaded()
etacalc.standard_suite(0)
loaded["suite"] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_start_up_loads_no_scipy(tmp_cwd):
    # scipy serves only the heat route (eta_heat_estimate), and importing
    # it costs more than a bundled run; an import, a bundled run and the
    # standard suite load none of it
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_STEPS, str(SCENARIOS / "s1_unitary.json")],
        capture_output=True, text=True, env=env, cwd=tmp_cwd,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {"import": [], "run": [], "suite": []}


_NO_JSONSCHEMA_RUN = """
import sys
sys.modules["jsonschema"] = None  # any import of it raises ImportError
from etacalc.cli import main
sys.exit(main(["run", sys.argv[1], "--emit-csv"]))
"""


def test_run_needs_no_jsonschema(tmp_cwd):
    # the loader reads and checks the scenario itself, so a run works where
    # jsonschema, a test dependency only, cannot be imported, and writes
    # the bytes of an ordinary run
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    scenario = str(SCENARIOS / "s1_unitary.json")
    (tmp_cwd / "bare").mkdir()
    result = subprocess.run(
        [sys.executable, "-c", _NO_JSONSCHEMA_RUN, scenario],
        capture_output=True, text=True, env=env, cwd=tmp_cwd / "bare",
    )
    assert result.returncode == 0, result.stderr
    assert main(["run", scenario, "--emit-csv"]) == 0
    for written in ("out/s1_unitary_report.json", "out/e06_spectrum.csv"):
        bare = (tmp_cwd / "bare" / written).read_bytes()
        assert bare == (tmp_cwd / written).read_bytes()


def test_internal_value_error_is_not_scenario_error(tmp_cwd, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; a failure inside the numerics is a
    # bug to surface (exit 4, with its traceback), not an invalid scenario
    # (exit 2).  Both spectral solve routes fail, whichever of them the
    # truncation takes; loading calls neither.
    def failing_solver(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_solver)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_solver)
    obj = load_bundled("t3_spectrum.json")
    obj["experiments"] = [{"check": "spectrum", "connection": "main"}]
    assert main(["run", write_scenario(tmp_cwd, obj), "--emit-csv"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("LinAlgError: eigenvalues did not converge\n")


def test_stray_arithmetic_error_is_not_a_guard(tmp_cwd, capsys, monkeypatch):
    # exit 3 means a guard tripped (a GuardError): an ArithmeticError
    # inside a check is a bug to surface (exit 4, with its traceback)
    def dividing(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(verify, "check_re_im_split", dividing)
    obj = load_bundled("s1_nonunitary.json")
    obj["experiments"] = [{"check": "re_im_split", "connection": "main"}]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("ZeroDivisionError: float division by zero\n")


@pytest.mark.parametrize(
    "module, name",
    [
        (cli, "_experiment_keys"),  # loading
        (np.linalg, "eigvals"),  # a solve
        (geometry, "_transgression"),  # the form side
        (cli, "write_report"),  # writing the report
    ],
    ids=["load", "solve", "forms", "report"],
)
def test_a_fault_at_any_stage_exits_4(tmp_cwd, capsys, monkeypatch, module, name):
    # an exception that no exit code maps ends the run with exit 4 and its
    # traceback, wherever it is raised: never 1, which a failed check means
    def fault(*args, **kwargs):
        raise RuntimeError(f"fault injected into {name}")

    monkeypatch.setattr(module, name, fault)
    assert main(["run", str(SCENARIOS / "s1_nonunitary.json")]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith(f"RuntimeError: fault injected into {name}\n")
    assert "report written" not in out


@pytest.mark.parametrize(
    "name, experiment",
    [
        # on T^3 the pairing's r**3 leaves the float range for |r| > 5.7e102
        ("t3_flat_commuting.json",
         {"check": "cs_odd_chern_pairing", "connection": "main", "r_values": [1e103]}),
        # pi * rank is infinite, the phase factors NaN
        ("s1_unitary.json", {"check": "bk_phase", "rank": 10**308}),
    ],
    ids=["pairing", "bk_phase"],
)
def test_finite_input_whose_arithmetic_overflows_is_a_guard(
    tmp_cwd, capsys, name, experiment
):
    # an entry whose sides are not finite has no verdict, and a report
    # holding it would not be JSON: a guard trips (exit 3), naming the
    # entry, and no report is written
    obj = load_bundled(name)
    obj["experiments"] = [experiment]
    obj["output"] = {"report": "report.json"}
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 3
    assert "error: numerical guard tripped: entry " in capsys.readouterr().err
    assert not (tmp_cwd / "report.json").exists()


def test_any_guard_error_exits_3(tmp_cwd, capsys, monkeypatch):
    # the exit code follows the base class, so a guard that cli does not
    # name exits 3 too
    class ToleranceGuardError(spectral.GuardError):
        pass

    def refusing(*args, **kwargs):
        raise ToleranceGuardError("tolerance out of reach")

    monkeypatch.setattr(verify, "check_re_im_split", refusing)
    obj = load_bundled("s1_nonunitary.json")
    obj["experiments"] = [{"check": "re_im_split", "connection": "main"}]
    assert main(["run", write_scenario(tmp_cwd, obj)]) == 3
    err = capsys.readouterr().err
    assert "numerical guard tripped: tolerance out of reach" in err


# ----------------------------------------------------------------------
# determinism


def test_console_script_smoke(tmp_cwd):
    import shutil
    import subprocess

    exe = shutil.which("etacalc")
    if exe is None:
        pytest.skip("console script not installed")
    result = subprocess.run(
        [exe, "run", str(SCENARIOS / "t3_flat_commuting.json")],
        capture_output=True,
        text=True,
        cwd=tmp_cwd,
    )
    assert result.returncode == 0
    assert "all passed" in result.stdout


def test_report_file_is_byte_identical_across_runs(tmp_cwd):
    reports = []
    for _ in range(2):
        code = main(["run", str(SCENARIOS / "s1_nonunitary.json")])
        assert code == 0
        path = tmp_cwd / "out/s1_nonunitary_report.json"
        reports.append(path.read_bytes())
        path.unlink()
    assert reports[0] == reports[1]

"""The scripts under scripts/ still run against the package API:
``run_verification.py``, the heat-eta convergence table, the report
digests, ``build_scenarios.py``, which must reproduce the committed
scenario files, the code-line counter and the layer harness."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from etacalc.verify import standard_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_verification_passes(tmp_path):
    proc = _run_script("run_verification.py", "--seed", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "31 checks, all passed"
    assert list(tmp_path.iterdir()) == []


def test_run_verification_writes_the_seeded_suite(tmp_path):
    # the one command-line route to standard_suite(seed)
    proc = _run_script(
        "run_verification.py", "--seed", "11", "--report", "r.json", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["meta"] == {"schema_version": "1", "seed": 11}
    assert report["entries"] == standard_suite(11).to_json_obj()["entries"]


def test_run_verification_refuses_a_negative_seed(tmp_path):
    # refused at parse time, before numpy's generator would raise
    proc = _run_script("run_verification.py", "--seed", "-1", cwd=tmp_path)
    assert proc.returncode == 2
    assert "seed must be a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eta_heat_convergence_prints_the_table(tmp_path):
    proc = _run_script("eta_heat_convergence.py", "--cutoffs", "8", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "mu = 0.25: exact eta = +0.500000000000"
    assert len(lines) == 3 and lines[2].split()[0] == "8"


def test_report_digests_are_deterministic(tmp_path):
    first = _run_script("report_digests.py", "--json", "rec.json", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    # ten suite seeds, eight scenario reports and the four spectrum CSVs
    assert len(lines) == 22 and all(len(line.split()[0]) == 64 for line in lines)
    assert lines[0].endswith("standard_suite(0)")
    assert lines[-1].endswith("t3_unitary_lines_spectrum e00_spectrum.csv")
    same = _run_script("report_digests.py", "--against", "rec.json", cwd=tmp_path)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == lines + [
        "digests that differ from rec.json: none",
        "0 of 354 entries moved",
    ]
    # an older record whose suite-0 entry residual differs by 1e-3, and
    # whose line CSV differs in one value, by 3 ulp
    record = json.loads((tmp_path / "rec.json").read_text())
    suite0 = record["entries"]["standard_suite(0)"]
    check_id = min(suite0)
    suite0[check_id][4] += 1e-3
    csv = "t3_unitary_lines_spectrum e00_spectrum.csv"
    values = record["csv_values"][csv]
    assert len(values) == 2 * 5832 and all(isinstance(v, float) for v in values)
    for _ in range(3):
        values[0] = math.nextafter(values[0], math.inf)
    record["digests"][csv] = "0" * 64
    (tmp_path / "rec.json").write_text(json.dumps(record))
    again = _run_script("report_digests.py", "--against", "rec.json", cwd=tmp_path)
    assert again.returncode == 1, again.stderr
    assert again.stdout.splitlines() == lines + [
        f"digests that differ from rec.json: {csv}",
        f"{csv}: 1 of 11664 values moved, by at most 3 ulp",
        "1 of 354 entries moved",
        f"standard_suite(0)  {check_id}  |d lhs| 0.000e+00  |d rhs| 0.000e+00  "
        "|d residual| 1.000e-03",
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["rec.json"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_compare_separates_new_from_differing():
    compare = _load_script("report_digests").compare
    old = {
        "digests": {"a report": "1", "b report": "2"},
        "entries": {"a": {"x": [0, 0, 0, 0, 0]}, "b": {"y": [1, 0, 1, 0, 0]}},
    }
    # a newly bundled scenario c: listed on its own, and not a difference
    new = {
        "digests": {**old["digests"], "c report": "3", "c e00.csv": "4"},
        "entries": {**old["entries"], "c": {"z": [0, 0, 0, 0, 0]}},
    }
    lines, differs = compare(old, new, "old.json")
    assert lines == [
        "digests that differ from old.json: none",
        "digests only in the new record: c e00.csv, c report",
        "0 of 2 entries moved",
        "entries only in the new record: 1",
        "c  z",
    ]
    assert not differs
    # a digest that differs, and one entry moved in place
    moved = {
        "digests": {"a report": "1", "b report": "5"},
        "entries": {"a": {"x": [0, 0, 0, 0, 0]}, "b": {"y": [1, 0, 1, 0, 0.5]}},
    }
    lines, differs = compare(old, moved, "old.json")
    assert lines == [
        "digests that differ from old.json: b report",
        "1 of 2 entries moved",
        "b  y  |d lhs| 0.000e+00  |d rhs| 0.000e+00  |d residual| 5.000e-01",
    ]
    assert differs
    # what the old record holds and the new one lacks counts as differing
    lines, differs = compare(new, old, "new.json")
    assert lines == [
        "digests that differ from new.json: none",
        "digests missing from the new record: c e00.csv, c report",
        "1 of 3 entries moved",
        "c  z  missing from the new record",
    ]
    assert differs


def test_report_digests_compare_counts_the_csv_values_that_moved():
    compare = _load_script("report_digests").compare
    old = {
        "digests": {f"{x} e00.csv": str(i) for i, x in enumerate("abcd")},
        "entries": {},
        "csv_values": {
            "a e00.csv": [1.0, 0.0, -2.0, 0.0],
            "b e00.csv": [1.0, 0.0],
            "c e00.csv": [5.0, 0.0],
        },
    }
    # a: -2.0 one ulp towards zero and a +0.0 that became -0.0 (0 ulp, but
    # other bits); b: a row more; c: no values in the new record; d: no
    # values in either (a record made before CSV values were kept)
    new = {
        "digests": {f"{x} e00.csv": str(i + 4) for i, x in enumerate("abcd")},
        "entries": {},
        "csv_values": {
            "a e00.csv": [1.0, 0.0, math.nextafter(-2.0, 0), -0.0],
            "b e00.csv": [1.0, 0.0, 2.0, 0.0],
        },
    }
    lines, differs = compare(old, new, "old.json")
    assert lines == [
        "digests that differ from old.json: a e00.csv, b e00.csv, c e00.csv, d e00.csv",
        "a e00.csv: 2 of 4 values moved, by at most 1 ulp",
        "b e00.csv: 2 values in old.json, 4 now",
        "0 of 0 entries moved",
    ]
    assert differs
    # across zero: from the smallest negative subnormal to the smallest
    # positive one is 2 ulp
    tiny = math.ulp(0.0)
    old["csv_values"]["a e00.csv"] = [-tiny]
    new["csv_values"]["a e00.csv"] = [tiny]
    lines, _ = compare(old, new, "old.json")
    assert lines[1] == "a e00.csv: 1 of 1 values moved, by at most 2 ulp"


def test_build_scenarios_reproduces_committed_files(tmp_path, monkeypatch):
    module = _load_script("build_scenarios")
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    committed = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "scenarios" / name).read_bytes()


_FIXTURE = '''\
"""A module docstring
over two lines."""

# a comment line
import math  # code with a trailing comment


def area(r):
    """A one-line docstring."""

    return math.pi * (
        r * r
    )


class Shape:
    """A class docstring
    over
    three lines."""

    label = """a string that is
not a docstring"""
'''


def test_code_lines_counts_code_not_docstrings_comments_or_blanks(tmp_path):
    # code: import, def, return over three lines, class, the string of
    # two lines; 22 lines in all
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE)
    assert len(_FIXTURE.splitlines()) == 22
    proc = _run_script("code_lines.py", str(path), str(path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"    8 {path}", f"    8 {path}", "   16 total"]


def test_code_lines_defaults_to_the_package():
    proc = _run_script("code_lines.py", cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    modules = sorted((ROOT / "src" / "etacalc").glob("*.py"))
    assert [line.split()[1] for line in lines[:-1]] == [str(p) for p in modules]
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total") and counts[-1] == sum(counts[:-1])


# the layers that aim 1 names, which every record of the layer harness holds
_AIM_ONE_LAYERS = {
    "wedge.T3", "ext_d.T3", "cs_form.T3.gauged", "cs_r_poly.T3.gauged",
    "build_truncation.constant.T3.K1", "build_truncation.constant.T3.K2",
    "build_truncation.coupled.T3.K1", "build_truncation.coupled.T3.K2",
    "spectrum.constant.T3.K2", "spectrum.coupled.T3.K2",
    "ball_sign_count.T3.R2", "spectral_flow.S1.ball", "spectral_flow.S1.coupled",
    "eta_s1_spectral.rank3", "census.T3.K4",
}
_LAYER_FIELDS = {
    "recipe", "calls", "rounds", "median_s", "q1_s", "q3_s", "iqr_s",
    "median_ref", "q1_ref", "q3_ref", "peak_bytes",
}


def test_layers_smoke_writes_the_record_that_against_reads(tmp_path):
    # one round of one call of every layer, whose timed calls take under a
    # second in all; then a second smoke run of the coupled spectra only,
    # compared with the first record
    proc = _run_script("layers.py", "--smoke", "--json", "smoke.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "smoke.json").read_text())
    assert set(record) == {"meta", "layers"}
    meta = record["meta"]
    assert set(meta) == {"rounds", "smoke", "blas_threads", "python", "numpy"}
    assert meta["rounds"] == 1 and meta["smoke"] is True and meta["blas_threads"] == 1
    layers = record["layers"]
    assert next(iter(layers)) == "reference" and _AIM_ONE_LAYERS <= set(layers)
    for row in layers.values():
        assert set(row) == _LAYER_FIELDS and row["recipe"]
        assert row["calls"] == row["rounds"] == 1
        assert 0 < row["q1_s"] == row["median_s"] == row["q3_s"] and row["iqr_s"] == 0
        assert row["q1_ref"] == row["median_ref"] == row["q3_ref"]
        assert row["median_ref"] == pytest.approx(
            row["median_s"] / layers["reference"]["median_s"]
        )
        assert isinstance(row["peak_bytes"], int) and row["peak_bytes"] > 0
    assert sum(row["median_s"] for row in layers.values()) < 1.0
    assert [line.split()[0] for line in proc.stdout.splitlines()] == list(layers)

    proc = _run_script(
        "layers.py", "--smoke", "--layers", "spectrum.coupled.*", "--against",
        "smoke.json", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index("against smoke.json:")
    assert lines[start + 1].split() == [
        "layer", "old", "us", "new", "us", "new/old", "in", "ref",
    ]
    rows = [line.split() for line in lines[start + 2 :]]
    compared = [row[0] for row in rows if row[1] != "only"]
    assert compared == ["reference", "spectrum.coupled.T3.K1", "spectrum.coupled.T3.K2"]
    for row in rows[:3]:
        old, new, ratio, in_ref = map(float, row[1:5])
        assert ratio == pytest.approx(new / old, rel=1e-2, abs=1e-3)
        assert row[5:] in ([], ["*"])
    assert rows[0][4:] == ["1.000"]  # the reference in its own units
    only_old = {row[0] for row in rows[3:] if row[1:] == ["only", "in", "the", "old", "record"]}
    assert only_old == set(layers) - set(compared)


def test_layers_refuses_a_pattern_that_matches_no_layer(tmp_path):
    proc = _run_script("layers.py", "--smoke", "--layers", "no_such_layer*", cwd=tmp_path)
    assert proc.returncode == 2
    assert "no layer matches no_such_layer*" in proc.stderr
    assert list(tmp_path.iterdir()) == []

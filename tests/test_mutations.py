"""Mutation checks: break one factor of the program at a time and require
the standard suite to notice, either by a failed entry or by raising.

Each mutation replaces a name where its caller reads it (``verify``
imports its factors by name, so they are patched in ``verify``;
``spectral`` reads its own ``clifford_model`` and ``eta.constant_eta``
its own ``eta_s1_spectral``).  Between them the
mutations catch every check family of the suite except ``psi_constancy``,
whose entries compare 0 with 0 on every flat input until ROADMAP item 7
gives it a spectral side.  The orientation of the Clifford generators
(the sign of beta_d) is load-bearing: flipping it reverses every Galerkin
spectrum on the circle, which the spectral-flow checks see, while the
closed-form etas and the symmetric census of ``bk_phase`` do not.

``cs_odd_chern_pairing`` and ``re_im_split`` read the same ``cs_r_poly``
coefficients p_i, so negating the odd ones fails both.  Flipping the sign
of p_2 alone has no row: its pairings vanish on every flat connection (the
odd-Chern side is odd in r) and it is absent on the circle, so no suite
entry can see it until ROADMAP item 4 brings re/im entries on curved T^3.

A ``sign_count`` that hands out one spinor copy of the axis values, not
``copies`` of them, halves the T^3 census kernel (2, not 4).  The suite's
only T^3 census is of rank 2, whose phase exp(i pi rank (eta + h)/2) cannot
see a change of h by 2, so the suite passes; the bundled rank-1 T^3
census of ``scenarios/t3_spectrum.json`` reads exp(i pi) = -1 against 1
and fails it.  The suite keeps its 31 rows, so that scenario is the check.

No suite entry solves a truncation split into flat lines, so negating the
closed form of the lines passes the suite; the two line-route balls behind
the spectral flow of ``scenarios/s1_unitary_lines.json`` see it.
"""

import copy
import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from etacalc import eta, forms, geometry, spectral, verify
from etacalc.cli import main
from etacalc.forms import TrigPolyForm
from etacalc.geometry import PreconditionError
from etacalc.verify import standard_suite


def _eta_conjugated(orig):
    def mutated(*args, **kwargs):
        value = orig(*args, **kwargs)
        return dataclasses.replace(value, eta=value.eta.conjugate())

    return mutated


def _census_kernel_plus_one(orig):
    def mutated(*args, **kwargs):
        census = orig(*args, **kwargs)
        return dataclasses.replace(census, kernel_dim=census.kernel_dim + 1)

    return mutated


def _zero_modes_dropped(orig):
    def mutated(t):
        count, axis = orig(t)
        return count, axis[np.abs(axis) > 1e-9]

    return mutated


def _merge_sign_dropped(orig):
    def mutated(I, J):
        sign, merged = orig(I, J)
        return abs(sign), merged

    return mutated


def _dagger_transpose_only(orig):
    def mutated(self):
        return TrigPolyForm(
            self.dim,
            self.rank,
            [((tuple(-v for v in k), I), m.T) for k, I, m in self.terms()],
        )

    return mutated


def _odd_coefficients_negated(orig):
    def mutated(c):
        return tuple(-f if i % 2 else f for i, f in enumerate(orig(c)))

    return mutated


def _orientation_flipped(orig):
    def mutated(dim):
        model = copy.copy(orig(dim))  # the cached model stays intact
        model.beta = [*model.beta[:-1], -model.beta[-1]]
        return model

    return mutated


# name -> (patches, families that must fail, or None if the suite must
# raise); a patch is (owner, attribute, original -> replacement)
MUTATIONS = {
    "sf negated": (
        [(verify, "spectral_flow", lambda f: lambda *a, **k: -f(*a, **k))],
        {"gauge_pumping", "variation_complex"},
    ),
    "eta conjugated": (
        [(eta, "eta_s1_spectral", _eta_conjugated)],
        {"eta_tilde_imaginary", "gilkey_variation", "re_im_split", "variation_complex"},
    ),
    "a_coeff scaled": (
        [(verify, "a_coeff", lambda f: lambda j, r: 2 * f(j, r))],
        {"cs_odd_chern_pairing"},
    ),
    "census kernel + 1": (
        [(verify, "trivial_line_eta", _census_kernel_plus_one)],
        {"bk_phase"},
    ),
    "census spectrum drops zero modes": (
        [(verify, "sign_count", _zero_modes_dropped)],
        {"bk_phase"},
    ),
    "PHI_SCALE conjugated": (
        [
            (forms, "PHI_SCALE", np.conjugate),
            (geometry, "PHI_SCALE", np.conjugate),
        ],
        {
            "cs_odd_chern_pairing",
            "eta_tilde_imaginary",
            "gilkey_variation",
            "re_im_split",
            "variation_complex",
        },
    ),
    "_merge_sign sign dropped": (
        [(forms, "_merge_sign", _merge_sign_dropped)],
        None,
    ),
    "ext_d doubled": (
        [(TrigPolyForm, "ext_d", lambda f: lambda self: 2 * f(self))],
        {"gauge_pumping"},
    ),
    "Clifford orientation flipped": (
        [(spectral, "clifford_model", _orientation_flipped)],
        {"gauge_pumping", "variation_complex"},
    ),
    "cs_r_poly odd coefficients negated": (
        [(verify, "cs_r_poly", _odd_coefficients_negated)],
        {"cs_odd_chern_pairing", "re_im_split"},
    ),
    "dagger without conjugation": (
        [(TrigPolyForm, "dagger", _dagger_transpose_only)],
        {"re_im_split"},
    ),
}


def _family(check_id: str) -> str:
    return re.split(r"[.\[]", check_id, maxsplit=1)[0]


def _failed_families(report) -> set[str]:
    return {_family(e.check_id) for e in report.entries if not e.passed}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_is_caught(monkeypatch, name):
    patches, families = MUTATIONS[name]
    for owner, attr, mutate in patches:
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    if families is None:
        with pytest.raises(PreconditionError):
            standard_suite(0)
    else:
        assert _failed_families(standard_suite(0)) == families


def test_mutations_cover_every_family():
    caught = set().union(*(f for _, f in MUTATIONS.values() if f is not None))
    families = {_family(e.check_id) for e in standard_suite(0).entries}
    assert families - caught == {"psi_constancy"}
    owners = {owner for patches, _ in MUTATIONS.values() for owner, _, _ in patches}
    assert owners & {forms, TrigPolyForm}  # the form algebra itself is mutated


def test_axis_values_of_one_copy_fail_the_rank_one_t3_census(tmp_path, monkeypatch):
    scenario = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    monkeypatch.chdir(tmp_path)
    orig = verify.sign_count

    def one_copy(t):
        count, axis = orig(t)
        return count, axis[:: t.copies]

    monkeypatch.setattr(verify, "sign_count", one_copy)
    assert main(["run", str(scenario / "t3_spectrum.json")]) == 1
    report = json.loads((tmp_path / "out" / "t3_spectrum_report.json").read_text())
    assert [e["check_id"] for e in report["entries"] if not e["passed"]] == [
        "e02_bk_phase[rank=1,dim=3]"
    ]


def test_negated_line_values_fail_the_unitary_lines_scenario(tmp_path, monkeypatch):
    scenario = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    monkeypatch.chdir(tmp_path)
    orig = spectral.OperatorTruncation._line_values
    split = []

    def negated(t):
        vals = orig(t)
        split.append(vals is not None)
        return None if vals is None else -vals

    monkeypatch.setattr(spectral.OperatorTruncation, "_line_values", negated)
    assert standard_suite(0).all_passed and not any(split)
    split.clear()
    assert main(["run", str(scenario / "s1_unitary_lines.json")]) == 1
    assert split == [True, True]  # both endpoint balls
    report = json.loads((tmp_path / "out" / "s1_unitary_lines_report.json").read_text())
    failed = [e for e in report["entries"] if not e["passed"]]
    assert [e["check_id"] for e in failed] == ["e00_variation_complex"]
    assert failed[0]["residual"] == pytest.approx(2.0)  # sf = 1 read as -1

"""Exact-algebra tests for trig-polynomial matrix forms.

Hand-computed oracles pin the sign/normalization conventions; hypothesis
properties check the graded-algebra axioms on random small forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from etacalc import forms as forms_module
from etacalc.forms import EQ_TOL, InvalidInputError, TrigPolyForm

from helpers import (
    ReferenceForm,
    exp_nilpotent,
    forms,
    phi_normalize_other_root,
    reference_of,
    rng_form,
    rng_matrix,
    same_stored_terms,
    term_lists,
)

TWO_PI_I = 2j * math.pi


# ----------------------------------------------------------------------
# hand-computed oracles


def test_wedge_matrix_order_and_sign():
    # (M dx1) ^ (N dx2) = (M N) dx1^dx2 ; swapping picks up the sign.
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    N = np.array([[1.0, 0.0], [3.0, 1.0]])
    a = TrigPolyForm.monomial(2, M, I=(1,))
    b = TrigPolyForm.monomial(2, N, I=(2,))
    ab = a.wedge(b)
    np.testing.assert_allclose(ab.coefficient((0, 0), (1, 2)), M @ N)
    ba = b.wedge(a)
    np.testing.assert_allclose(ba.coefficient((0, 0), (1, 2)), -(N @ M))


def test_wedge_repeated_index_vanishes():
    a = TrigPolyForm.monomial(2, np.eye(1), I=(1,))
    assert a.wedge(a).is_zero(0.0)


def test_ext_d_single_phase():
    # d(e^{2 pi i x1} dx2) = 2 pi i e^{2 pi i x1} dx1^dx2
    a = TrigPolyForm.monomial(2, np.eye(1), k=(1, 0), I=(2,))
    da = a.ext_d()
    np.testing.assert_allclose(
        da.coefficient((1, 0), (1, 2)), TWO_PI_I * np.eye(1)
    )
    assert da.num_terms() == 1


def test_ext_d_sign_of_insertion():
    # d(e^{2 pi i x2} dx1) = 2 pi i dx2^dx1 e^{...} = -2 pi i e^{...} dx1^dx2
    a = TrigPolyForm.monomial(2, np.eye(1), k=(0, 1), I=(1,))
    da = a.ext_d()
    np.testing.assert_allclose(
        da.coefficient((0, 1), (1, 2)), -TWO_PI_I * np.eye(1)
    )


def test_integrate_full_torus_picks_zero_mode():
    # integral over T^2 of (3 + e^{2 pi i x1}) dx1^dx2 = 3
    f = TrigPolyForm.monomial(2, 3.0 * np.eye(1), I=(1, 2)) + TrigPolyForm.monomial(
        2, np.eye(1), k=(1, 0), I=(1, 2)
    )
    np.testing.assert_allclose(f.integrate(), [[3.0]])


def test_integrate_oscillatory_in_fiber_direction_is_zero():
    f = TrigPolyForm.monomial(2, np.eye(1), k=(2, 0), I=(1,))
    np.testing.assert_allclose(f.integrate((1,)), [[0.0]])


def test_integrate_degree_mismatch_raises():
    f = TrigPolyForm.monomial(2, np.eye(1), I=(1,))
    with pytest.raises(ValueError, match="lower-degree"):
        f.integrate()


def test_integrate_skips_outside_directions():
    # dx2 restricted to the x1-circle pulls back to zero: no error, no value.
    f = TrigPolyForm.monomial(2, np.eye(1), I=(2,)) + TrigPolyForm.monomial(
        2, 5.0 * np.eye(1), I=(1,)
    )
    np.testing.assert_allclose(f.integrate((1,)), [[5.0]])


def test_phi_normalize_square():
    # s^2 = 2 pi i, so a 2-form is divided by 2 pi i with either root s.
    f = TrigPolyForm.monomial(2, np.eye(1), I=(1, 2))
    for g in (f.phi_normalize(), phi_normalize_other_root(f)):
        np.testing.assert_allclose(
            g.coefficient((0, 0), (1, 2)), np.eye(1) / TWO_PI_I, atol=1e-15
        )


def test_mat_trace_and_constant():
    M = np.array([[1.0, 5.0], [2.0, 3.0]])
    f = TrigPolyForm.constant(2, M)
    t = f.mat_trace()
    assert t.rank == 1
    np.testing.assert_allclose(t.coefficient((0, 0), ()), [[4.0]])


def test_mat_trace_drops_a_traceless_term():
    # diag(1, -1) traces to an exact 0, whose row the result must not store
    f = TrigPolyForm.monomial(2, np.diag([1.0, -1.0]), I=(1,)) + TrigPolyForm.monomial(
        2, np.diag([2.0, 1.0]), k=(1, 0), I=(2,)
    )
    t = f.mat_trace()
    assert t.num_terms() == 1
    assert [(k, I) for k, I, _ in t.terms()] == [((1, 0), (2,))]
    np.testing.assert_array_equal(t.coefficient((1, 0), (2,)), [[3.0]])


def test_exp_nilpotent_degree_two_on_t3():
    # On T^3 a 2-form squares to a 4-form = 0, so exp(a) = I + a exactly.
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = TrigPolyForm.monomial(3, N, I=(1, 2))
    e = exp_nilpotent(f)
    np.testing.assert_allclose(e.coefficient((0, 0, 0), ()), np.eye(2))
    np.testing.assert_allclose(e.coefficient((0, 0, 0), (1, 2)), N)
    assert e.num_terms() == 2


def test_exp_nilpotent_second_order_on_t5():
    # Two non-commuting 2-form blocks: the quadratic term must appear.
    M1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    M2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    a = TrigPolyForm.monomial(5, M1, I=(1, 2)) + TrigPolyForm.monomial(
        5, M2, I=(3, 4)
    )
    e = exp_nilpotent(a)
    # quadratic term: (a^a)/2 has the cross products on dx1..dx4
    np.testing.assert_allclose(
        e.coefficient((0,) * 5, (1, 2, 3, 4)), 0.5 * (M1 @ M2 + M2 @ M1)
    )
    assert e.wedge(exp_nilpotent(-a)).allclose(
        TrigPolyForm.identity(5, 2), 1e-12
    )


def test_exp_nilpotent_rejects_degree_zero_and_odd():
    with pytest.raises(ValueError):
        exp_nilpotent(TrigPolyForm.identity(2, 2))
    with pytest.raises(ValueError):
        exp_nilpotent(TrigPolyForm.monomial(2, np.eye(2), I=(1,)))


def test_dagger_is_involution_and_conjugates_phase():
    M = np.array([[1.0 + 2j, 3.0], [0.0, -1j]])
    f = TrigPolyForm.monomial(2, M, k=(1, -1), I=(2,))
    fd = f.dagger()
    np.testing.assert_allclose(fd.coefficient((-1, 1), (2,)), M.conj().T)
    assert fd.dagger().allclose(f, 0.0)


# ----------------------------------------------------------------------
# immutability: operations share stored matrices without copying them


def test_constructors_copy_the_callers_array():
    M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    built = [
        TrigPolyForm(2, 2, [(((0, 1), (1,)), M)]),
        TrigPolyForm(2, 2, [(((0, 1), (1,)), M), (((0, 1), (1,)), M)]),
        TrigPolyForm.monomial(2, M, k=(0, 1), I=(1,)),
        TrigPolyForm.constant(2, M),
        TrigPolyForm.constant_one_form(2, [M, M]),
    ]
    before = [f.to_json_obj() for f in built]
    M[0, 0] = 99.0
    assert [f.to_json_obj() for f in built] == before
    assert M.flags.writeable


def test_operation_results_are_read_only():
    rng = np.random.default_rng(3)
    a = rng_form(rng, dim=3, rank=2)
    b = rng_form(rng, dim=3, rank=2)
    results = {
        "+": a + b,
        "-": a - b,
        "*": 2.5 * a,
        "wedge": a.wedge(b),
        "ext_d": a.ext_d(),
        "dagger": a.dagger(),
        "mat_trace": a.mat_trace(),
        "degree_component": a.degree_component(min(a.degrees())),
        "phi_normalize": a.phi_normalize(),
        "exp_nilpotent": exp_nilpotent(rng_form(rng, dim=4, rank=2, degree=2)),
    }
    for name, f in results.items():
        assert f.num_terms() > 0, name
        for _, _, mat in f.terms():
            assert not mat.flags.writeable, name
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0


# ----------------------------------------------------------------------
# the stacked algebra against a per-term reference, bit for bit


@given(term_lists(dim=3, rank=2), term_lists(dim=3, rank=2))
def test_stacked_algebra_matches_per_term_reference(a_terms, b_terms):
    a, ra = TrigPolyForm(3, 2, a_terms), ReferenceForm(3, 2, a_terms)
    b, rb = TrigPolyForm(3, 2, b_terms), ReferenceForm(3, 2, b_terms)
    pairs = {
        "constructor (duplicate keys)": (a, ra),
        "+": (a + b, ra + rb),
        "-": (a - b, ra - rb),
        "wedge": (a.wedge(b), ra.wedge(rb)),
        "wedge of daggers": (
            b.dagger().wedge(a.dagger()),
            rb.dagger().wedge(ra.dagger()),
        ),
        "ext_d": (a.ext_d(), ra.ext_d()),
        "dagger": (a.dagger(), ra.dagger()),
        "mat_trace": (a.wedge(b).mat_trace(), ra.wedge(rb).mat_trace()),
    }
    pairs.update(
        (f"degree_component({p})", (a.degree_component(p), ra.degree_component(p)))
        for p in range(4)
    )
    for name, (form, reference) in pairs.items():
        assert reference.same_bits(form), name
        for _, _, mat in form.terms():
            assert not mat.flags.writeable, name


def _plan_arrays(plan):
    """Every array in a cached plan, a nest of tuples."""
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, tuple):
        for part in plan:
            yield from _plan_arrays(part)


@given(term_lists(dim=3, rank=2), term_lists(dim=3, rank=2))
def test_cold_and_warm_plans_give_the_same_bits(a_terms, b_terms):
    a, ra = TrigPolyForm(3, 2, a_terms), ReferenceForm(3, 2, a_terms)
    b, rb = TrigPolyForm(3, 2, b_terms), ReferenceForm(3, 2, b_terms)
    wedge_plan, add_plan = forms_module._wedge_plan, forms_module._add_plan
    wedge_plan.cache_clear()
    add_plan.cache_clear()
    cold = {"+": a + b, "wedge": a.wedge(b)}
    misses = wedge_plan.cache_info().misses + add_plan.cache_info().misses
    warm = {"+": a + b, "wedge": a.wedge(b)}
    assert wedge_plan.cache_info().misses + add_plan.cache_info().misses == misses
    references = {"+": ra + rb, "wedge": ra.wedge(rb)}
    for name, reference in references.items():
        assert cold[name]._keys == warm[name]._keys, name
        assert cold[name]._mats.tobytes() == warm[name]._mats.tobytes(), name
        assert reference.same_bits(cold[name]) and reference.same_bits(warm[name]), name
    plans = (
        add_plan(a._keys, b._keys),
        wedge_plan(a._keys, b._keys, forms_module._merge_sign),
    )
    for array in _plan_arrays(plans):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_a_warm_wedge_plan_cannot_hide_the_sign_rule(monkeypatch):
    rng = np.random.default_rng(4)
    a = TrigPolyForm(3, 2, [(((0, 1, 0), (2,)), rng_matrix(rng, 2)),
                            (((1, 0, 0), (3,)), rng_matrix(rng, 2))])
    b = TrigPolyForm(3, 2, [(((0, 0, 1), (1,)), rng_matrix(rng, 2))])
    original = a.wedge(b)  # its plan is now cached
    orig = forms_module._merge_sign

    def sign_dropped(I, J):  # as the mutation checks break the sign rule
        sign, merged = orig(I, J)
        return abs(sign), merged

    monkeypatch.setattr(forms_module, "_merge_sign", sign_dropped)
    dropped = a.wedge(b)
    monkeypatch.undo()
    assert dropped._keys == original._keys
    np.testing.assert_array_equal(dropped._mats, -original._mats)  # both signs were -1
    again = a.wedge(b)
    assert again._keys == original._keys
    assert again._mats.tobytes() == original._mats.tobytes()


@given(term_lists(dim=3, rank=2))
def test_exact_cancellation_leaves_the_empty_form(terms):
    a = TrigPolyForm(3, 2, terms)
    # frequencies of at most 2 in size make 2 pi k_i (2 pi k_j M) exact
    # up to the order of i and j, so d(d a) cancels bit for bit
    for zero in (a - a, a.ext_d().ext_d(), a.wedge(a - a)):
        assert zero.num_terms() == 0


# ----------------------------------------------------------------------
# units: the empty form, the shared identity and d of a constant form
# return an operand or the shared zero, equal to what the general route
# computes


@given(forms())
def test_units_return_an_operand_equal_to_the_general_route(x):
    dim, rank = x.dim, x.rank
    unit = TrigPolyForm.identity(dim, rank)
    fresh = TrigPolyForm.constant(dim, np.eye(rank))  # takes the general route
    assert fresh is not unit and same_stored_terms(fresh, unit)
    assert x.wedge(unit) is x and unit.wedge(x) is x
    for product in (x.wedge(fresh), fresh.wedge(x)):
        assert same_stored_terms(product, x)
    ref, ref_empty = reference_of(x), ReferenceForm(dim, rank, [])
    for empty in (TrigPolyForm.zero(dim, rank), TrigPolyForm(dim, rank)):
        cases = {
            "x + 0": (x + empty, ref + ref_empty),
            "0 + x": (empty + x, ref_empty + ref),
            "x ^ 0": (x.wedge(empty), ref.wedge(ref_empty)),
            "0 ^ x": (empty.wedge(x), ref_empty.wedge(ref)),
        }
        for name, (got, want) in cases.items():
            assert got is x or got is empty, name
            assert want.same_bits(got), name


@given(forms(max_freq=0))
def test_d_of_a_constant_form_is_the_shared_zero(x):
    dx = x.ext_d()
    assert dx is TrigPolyForm.zero(x.dim, x.rank)
    assert reference_of(x).ext_d().same_bits(dx)
    assert (0 * x) is dx


def test_units_and_short_circuit_results_stay_read_only():
    rng = np.random.default_rng(7)
    x = rng_form(rng, dim=3, rank=2)
    unit, zero = TrigPolyForm.identity(3, 2), TrigPolyForm.zero(3, 2)
    assert TrigPolyForm.zero(3, 2) is zero and zero.num_terms() == 0
    results = {
        "identity": unit,
        "zero": zero,
        "x + 0": x + zero,
        "0 + x": zero + x,
        "x ^ I": x.wedge(unit),
        "I ^ x": unit.wedge(x),
        "x ^ 0": x.wedge(zero),
        "d I": unit.ext_d(),
        "-I": -unit,
        "I^dagger": unit.dagger(),
        "I_0": unit.degree_component(0),
    }
    for name, f in results.items():
        assert not f._mats.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            f._mats[...] = 1.0
    # the shared units are unchanged by everything above
    assert same_stored_terms(unit, TrigPolyForm.constant(3, np.eye(2)))
    assert zero._mats.shape == (0, 2, 2)


def test_coefficient_of_an_absent_key_is_a_complex_zero():
    f = TrigPolyForm.monomial(2, np.eye(2), I=(1,))
    assert f.coefficient((0, 0), (1,)).dtype == np.complex128
    absent = f.coefficient((1, 0), (2,))
    assert absent.dtype == np.complex128 and not absent.any()


# ----------------------------------------------------------------------
# algebra axioms (hypothesis)


@given(forms())
def test_dd_is_exactly_zero(a):
    assert a.ext_d().ext_d().is_zero(0.0)


@given(forms(dim=2, rank=2), forms(dim=2, rank=2), forms(dim=2, rank=2))
def test_wedge_associative(a, b, c):
    lhs = a.wedge(b).wedge(c)
    rhs = a.wedge(b.wedge(c))
    assert lhs.allclose(rhs, 1e-12)


@given(forms(dim=3, rank=1), forms(dim=3, rank=1))
def test_graded_commutativity_scalar_forms(a, b):
    # For rank-1 (scalar) forms a^b = (-1)^{pq} b^a degreewise.
    for p in a.degrees() | {0}:
        for q in b.degrees() | {0}:
            ap = a.degree_component(p)
            bq = b.degree_component(q)
            lhs = ap.wedge(bq)
            rhs = bq.wedge(ap) * ((-1) ** (p * q))
            assert lhs.allclose(rhs, 1e-12)


@given(forms(dim=2, rank=2), forms(dim=2, rank=2))
def test_leibniz_rule(a, b):
    for p in a.degrees() | {0}:
        ap = a.degree_component(p)
        lhs = ap.wedge(b).ext_d()
        rhs = ap.ext_d().wedge(b) + ap.wedge(b.ext_d()) * ((-1) ** p)
        assert lhs.allclose(rhs, 1e-10)


@given(forms(dim=2, rank=2), forms(dim=2, rank=2))
def test_dagger_antimorphism(a, b):
    for p in a.degrees() | {0}:
        for q in b.degrees() | {0}:
            ap = a.degree_component(p)
            bq = b.degree_component(q)
            lhs = ap.wedge(bq).dagger()
            rhs = bq.dagger().wedge(ap.dagger()) * ((-1) ** (p * q))
            assert lhs.allclose(rhs, 1e-12)


@given(forms(dim=2, rank=1))
def test_stokes_full_torus(a):
    # integral over T^d of an exact top-degree form vanishes identically.
    da = a.degree_component(a.dim - 1).ext_d()
    np.testing.assert_allclose(da.integrate(), 0.0, atol=1e-12)


@given(forms(dim=3, rank=2, degree=2, max_terms=2))
def test_exp_times_exp_of_minus_is_identity(a):
    e = exp_nilpotent(a)
    em = exp_nilpotent(-a)
    assert e.wedge(em).allclose(TrigPolyForm.identity(a.dim, a.rank), 1e-9)


@given(forms())
def test_json_round_trip(a):
    b = TrigPolyForm.from_json_obj(a.to_json_obj())
    assert a.allclose(b, 0.0)
    assert b.allclose(a, 0.0)


@pytest.mark.parametrize(
    "part, rows",
    [
        ("re", [[0.5, "1.5"], [0.0, 0.5]]),  # numpy would parse the string
        ("im", [[True, 0.0], [0.0, 0.0]]),  # and take the bool for 1.0
        ("re", [[None, 0.0], [0.0, 0.5]]),
        ("im", [[{}, 0.0], [0.0, 0.0]]),
        ("re", [[0.5, 0.0], 0.5]),  # a row that is not a list
        ("im", "[[0.0, 0.0], [0.0, 0.0]]"),
    ],
)
def test_from_json_obj_refuses_entries_that_are_not_numbers(part, rows):
    term = {"k": [0], "I": [1], "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}
    TrigPolyForm.from_json_obj({"dim": 1, "rank": 2, "terms": [term]})  # valid
    term[part] = rows
    # the refusal starts with the path of the entry, or of the matrix when
    # a row is no list
    refusal = (
        rf"\$\.terms\[0\]\.{part}"
        r"(\[0\]\[[01]\] .+ is not a finite number$| is not a list of rows)"
    )
    with pytest.raises(InvalidInputError, match=refusal):
        TrigPolyForm.from_json_obj({"dim": 1, "rank": 2, "terms": [term]})


@pytest.mark.parametrize("entry", [1.5, 0.7, True, np.bool_(True), "1", None, [], math.inf])
def test_term_keys_refuse_entries_that_are_not_integers(entry):
    # int() would round 1.5 and 0.7, and read True and "1" as 1
    m = np.eye(2)
    with pytest.raises(InvalidInputError, match="is not an integer"):
        TrigPolyForm(2, 2, [(((entry, 0), (1,)), m)])
    with pytest.raises(InvalidInputError, match="is not an integer"):
        TrigPolyForm(2, 2, [(((0, 0), (entry,)), m)])
    term = {"k": [entry, 0], "I": [1], "re": m.tolist(), "im": (0 * m).tolist()}
    with pytest.raises(InvalidInputError, match="is not an integer"):
        TrigPolyForm.from_json_obj({"dim": 2, "rank": 2, "terms": [term]})


def test_term_keys_take_integral_numbers_as_integers():
    m = np.eye(2)
    want = TrigPolyForm(2, 2, [(((1, -2), (1, 2)), m)])
    for k, I in [((1.0, -2.0), (1.0, 2)), ((np.int64(1), np.int32(-2)), (np.float64(1), 2))]:
        got = TrigPolyForm(2, 2, [((k, I), m)])
        assert got.allclose(want, 0.0)
        term = got.to_json_obj()["terms"][0]
        assert [type(v) for v in term["k"] + term["I"]] == [int] * 4


@given(forms(dim=2, rank=2))
def test_phi_branch_flip_squares_away(a):
    # phi with either root agrees on even degrees and flips odd degrees;
    # applying the rescale twice with opposite roots is degree-parity id.
    f1 = a.phi_normalize()
    f2 = phi_normalize_other_root(a)
    for p in a.degrees():
        lhs = f1.degree_component(p)
        rhs = f2.degree_component(p) * ((-1) ** p)
        assert lhs.allclose(rhs, 1e-12)


def test_random_dense_round_trip_and_linearity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng_form(rng, dim=3, rank=2)
        b = rng_form(rng, dim=3, rank=2)
        assert (a + b - b).allclose(a, 1e-12)
        assert (2.5 * a - a - a).allclose(0.5 * a, 1e-12)
        assert TrigPolyForm.from_json_obj(a.to_json_obj()).allclose(a, 0.0)

"""Connection-level oracles: curvature patterns, metric-compatibility,
Chern--Simons calibrations, deformation-coefficient closed forms."""

import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etacalc import cli
from etacalc.flow import gauge_path
from etacalc.forms import InvalidInputError, SubTorus, TrigPolyForm
from etacalc.geometry import (
    Connection,
    PreconditionError,
    a_coeff,
    cs_form,
    cs_r_poly,
    gauge_transform,
    invert_degree0,
    linear_path,
    odd_subtori,
    subtorus_pairing,
)

from helpers import (
    a_coeff_exact,
    chern_character,
    constant_hermitian_metric,
    cs_form_quadrature,
    diagonal_connection_from_mus,
    exp_nilpotent,
    phi_normalize_other_root,
    r_deformation,
    r_poly_at,
    random_flat_commuting_connection,
    random_nonflat_connection,
    random_unitary_constant_connection,
    rng_matrix,
    unipotent_metric,
)

TWO_PI_I = 2j * math.pi


# ----------------------------------------------------------------------
# curvature


def test_curvature_abelian_constant_is_zero():
    c = Connection.from_constant(1, [np.array([[0.3 + 0.2j]])])
    assert c.curvature().is_zero(0.0)


def test_curvature_constant_commutator_pattern():
    rng = np.random.default_rng(0)
    mats = [rng_matrix(rng, 2) for _ in range(3)]
    c = Connection.from_constant(3, mats)
    theta = c.curvature()
    for i in range(3):
        for j in range(i + 1, 3):
            want = mats[i] @ mats[j] - mats[j] @ mats[i]
            np.testing.assert_allclose(
                theta.coefficient((0, 0, 0), (i + 1, j + 1)), want, atol=1e-12
            )


def test_curvature_oscillatory_nilpotent():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = TrigPolyForm.monomial(2, n, k=(1, 0), I=(2,))
    c = Connection(a)
    theta = c.curvature()
    np.testing.assert_allclose(
        theta.coefficient((1, 0), (1, 2)), TWO_PI_I * n, atol=1e-12
    )
    assert theta.num_terms() == 1


def test_flat_commuting_generator_is_flat():
    rng = np.random.default_rng(3)
    for dim in (1, 3):
        c = random_flat_commuting_connection(rng, dim, 2)
        assert c.is_flat(1e-10)


# ----------------------------------------------------------------------
# metric structure


def test_omega_zero_for_unitary():
    rng = np.random.default_rng(1)
    c = random_unitary_constant_connection(rng, 3, 2)
    assert c.omega_metric().is_zero(1e-12)


def test_omega_rank1_closed_form():
    a = 0.7 - 0.4j
    c = Connection.from_constant(1, [np.array([[a]])])
    om = c.omega_metric()
    np.testing.assert_allclose(
        om.coefficient((0,), (1,)), [[-2 * a.real]], atol=1e-14
    )


def test_omega_is_g_self_adjoint():
    # omega^dagger g = g omega: the defect form is self-adjoint for g.
    rng = np.random.default_rng(2)
    for dim, rank in ((1, 2), (3, 2)):
        g, g_inv = constant_hermitian_metric(rng, dim, rank)
        c = Connection(
            TrigPolyForm.constant_one_form(
                dim, [rng_matrix(rng, rank) for _ in range(dim)]
            ),
            g,
            g_inv,
        )
        om = c.omega_metric()
        assert om.dagger().wedge(c.g).allclose(c.g.wedge(om), 1e-10)


def test_omega_with_x_dependent_metric():
    g, g_inv = unipotent_metric(1, 2)
    rng = np.random.default_rng(4)
    c = Connection(
        TrigPolyForm.constant_one_form(1, [rng_matrix(rng, 2)]), g, g_inv
    )
    om = c.omega_metric()
    assert om.dagger().wedge(c.g).allclose(c.g.wedge(om), 1e-10)
    assert c.hermitian_part().omega_metric().is_zero(1e-10)


def test_hermitian_part_unitary_fixed_point():
    rng = np.random.default_rng(5)
    c = random_unitary_constant_connection(rng, 1, 2)
    assert c.hermitian_part().a.allclose(c.a, 1e-12)


def test_hermitian_part_rank1():
    a = 0.7 + 0.25j
    c = Connection.from_constant(1, [np.array([[a]])])
    herm = c.hermitian_part()
    np.testing.assert_allclose(
        herm.a.coefficient((0,), (1,)), [[1j * a.imag]], atol=1e-14
    )


def test_hermitian_part_kills_omega():
    rng = np.random.default_rng(6)
    for _ in range(5):
        c = random_nonflat_connection(rng, 3, 2)
        assert c.hermitian_part().omega_metric().is_zero(1e-10)


def test_r_deformation_special_values():
    # The expansion of cs_r_poly at r = i is the transgression from the
    # Hermitian part to the connection itself, at r = -i the one to its
    # metric adjoint A + omega.
    rng = np.random.default_rng(7)
    for c in (
        random_flat_commuting_connection(rng, 1, 2),
        random_nonflat_connection(rng, 3, 2),
    ):
        coeffs, herm = cs_r_poly(c), c.hermitian_part()
        adjoint = c.with_form(c.a + c.omega_metric())
        for r, target in ((1j, c), (-1j, adjoint)):
            want = cs_form(herm, target)
            assert not want.is_zero(1e-6)
            assert r_poly_at(coeffs, r).allclose(want, 1e-14 * want.max_abs())


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_r_deformation_real_r_metric_compatible(r):
    rng = np.random.default_rng(8)
    c = random_nonflat_connection(rng, 3, 2)
    assert r_deformation(c, r).omega_metric().is_zero(1e-9)


# ----------------------------------------------------------------------
# odd Chern forms and deformation coefficients


def test_chern_odd_unitary_zero():
    rng = np.random.default_rng(9)
    c = random_unitary_constant_connection(rng, 3, 2)
    for j in range(2):
        assert c.chern_odd(j).is_zero(1e-12)


def test_chern_odd_rank1():
    a = 0.6 + 0.9j
    c = Connection.from_constant(1, [np.array([[a]])])
    c1 = c.chern_odd(0)
    np.testing.assert_allclose(c1.coefficient((0,), (1,)), [[-a.real]], atol=1e-14)


def test_chern_odd_diagonal_t3_c3_zero():
    mus = [0.2 + 0.1j, 0.7 - 0.3j]
    mats = [np.diag([2j * np.pi * m * (i + 1) for m in mus]) for i in range(3)]
    c = Connection.from_constant(3, mats)
    assert c.chern_odd(1).is_zero(1e-12)


def test_chern_odd_closed_for_flat():
    rng = np.random.default_rng(10)
    for _ in range(3):
        c = random_flat_commuting_connection(rng, 3, 2)
        for j in range(2):
            assert c.chern_odd(j).ext_d().is_zero(1e-9)


def test_a_coeff_values():
    for r in (0.0, 0.5, 1.3, 2j, 1 + 1j):
        assert a_coeff(0, r) == pytest.approx(1.0)
    assert a_coeff(1, 1j) == pytest.approx(2.0 / 3.0)
    assert a_coeff(2, 1.0) == pytest.approx(28.0 / 15.0)


@given(st.integers(min_value=0, max_value=4), st.floats(min_value=-2, max_value=2))
def test_a_coeff_quadrature_oracle(j, r):
    nodes, weights = np.polynomial.legendre.leggauss(12)
    u = 0.5 * (nodes + 1.0)
    integral = np.sum(0.5 * weights * (1.0 + u**2 * r**2) ** j)
    assert a_coeff(j, r) == pytest.approx(integral, abs=1e-12)


def test_a_coeff_exact_at_i():
    for j in range(7):
        lhs = a_coeff_exact(j, Fraction(-1)) / factorial(j)
        rhs = Fraction(2 ** (2 * j) * factorial(j), factorial(2 * j + 1))
        assert lhs == rhs


# ----------------------------------------------------------------------
# Chern--Simons transgression


def test_cs_self_is_zero():
    rng = np.random.default_rng(11)
    c = random_nonflat_connection(rng, 3, 2)
    assert cs_form(c, c).is_zero(0.0)


def test_cs_flat_circle_closed_form():
    rng = np.random.default_rng(12)
    a0 = rng_matrix(rng, 2)
    a1 = rng_matrix(rng, 2)
    c0 = Connection.from_constant(1, [a0])
    c1 = Connection.from_constant(1, [a1])
    cs = cs_form(c0, c1)
    want = np.trace(a0 - a1) / TWO_PI_I
    np.testing.assert_allclose(cs.coefficient((0,), (1,)), [[want]], atol=1e-12)


def test_cs_requires_common_metric():
    rng = np.random.default_rng(13)
    g, g_inv = constant_hermitian_metric(rng, 1, 2)
    c0 = Connection(TrigPolyForm.constant_one_form(1, [rng_matrix(rng, 2)]))
    c1 = Connection(TrigPolyForm.constant_one_form(1, [rng_matrix(rng, 2)]), g, g_inv)
    with pytest.raises(PreconditionError, match="common metric"):
        cs_form(c0, c1)
    with pytest.raises(PreconditionError, match="common metric"):
        linear_path(c0, c1)


def test_cs_requires_one_bundle():
    # a guard refusal, like the spectral flow's, not an internal ValueError
    circle = Connection.from_constant(1, [np.zeros((1, 1))])
    t3 = Connection.from_constant(3, [np.zeros((1, 1))] * 3)
    for c0, c1 in ((circle, t3), (t3, circle)):
        with pytest.raises(PreconditionError, match="different bundles"):
            cs_form(c0, c1)
        with pytest.raises(PreconditionError, match="different bundles"):
            linear_path(c0, c1)


def test_cs_transgresses_chern_character():
    # d(CS(c0,c1)) = ch(c1) - ch(c0) at the level of forms; on T^5 the
    # quadratic term Theta_t^2 of the exponential enters.
    rng = np.random.default_rng(14)
    for dim in (3, 3, 3, 3, 5, 5, 5, 5):
        c0 = random_nonflat_connection(rng, dim, 2)
        c1 = random_nonflat_connection(rng, dim, 2)
        lhs = cs_form(c0, c1).ext_d()
        rhs = chern_character(c1) - chern_character(c0)
        assert lhs.allclose(rhs, 1e-9)


def _gauged(c: Connection, basis: np.ndarray) -> Connection:
    """c gauge-transformed by the unitary u = Q + P e^{2 pi i x_1}, P and Q
    the projections onto the columns of ``basis``, on the identity metric:
    a trig polynomial in x_1."""
    d = c.dim
    p = np.outer(basis[:, 0], basis[:, 0].conj())
    q = np.outer(basis[:, 1], basis[:, 1].conj())
    k = (1,) + (0,) * (d - 1)
    u = TrigPolyForm.constant(d, q) + TrigPolyForm.monomial(d, p, k=k)
    u_inv = TrigPolyForm.constant(d, q) + TrigPolyForm.monomial(
        d, p, k=tuple(-v for v in k)
    )
    return Connection(gauge_transform(c, u, u_inv).a)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_cs_form_matches_quadrature_reference(dim):
    # The closed-form t-integral against Gauss--Legendre quadrature with
    # A_t, Theta_t and exp(-Theta_t) rebuilt at every node: non-flat,
    # non-unitary pairs, and the same pairs gauged into trig polynomials.
    rng = np.random.default_rng(40 + dim)
    basis, _ = np.linalg.qr(rng_matrix(rng, 2))
    pairs = []
    for _ in range(3):
        c0 = random_nonflat_connection(rng, dim, 2, scale=0.8)
        c1 = random_nonflat_connection(rng, dim, 2, scale=0.8)
        pairs += [(c0, c1), (_gauged(c0, basis), _gauged(c1, basis))]
    for c0, c1 in pairs:
        assert not c1.omega_metric().is_zero(1e-6)
        assert c1.is_flat() == (dim == 1)  # every circle connection is flat
        got, want = cs_form(c0, c1), cs_form_quadrature(c0, c1)
        assert not want.is_zero(1e-3)
        if dim == 1:
            # no curvature on the circle: both integrate Tr[delta] exactly
            assert got.to_json_obj() == want.to_json_obj()
        else:
            assert got.allclose(want, 1e-12 * want.max_abs())


def test_cs_branch_independent():
    rng = np.random.default_rng(15)
    c0 = random_nonflat_connection(rng, 3, 2)
    c1 = random_nonflat_connection(rng, 3, 2)
    # With the other root -s of 2 pi i in place of s, phi negates the
    # odd-degree parts (P) and the prefactor -1/s flips sign, so cs_form
    # would return -P(cs).  That equals cs exactly when cs is odd, which
    # phi with -s = P phi with s expresses as below.
    cs = cs_form(c0, c1)
    assert not cs.is_zero(1e-6)
    assert phi_normalize_other_root(cs).allclose(-cs.phi_normalize(), 1e-12)
    ch = exp_nilpotent(-c0.curvature()).mat_trace()
    assert phi_normalize_other_root(ch).allclose(chern_character(c0), 1e-12)


def test_cs_r_poly_unitary_vanishes():
    rng = np.random.default_rng(16)
    c = random_unitary_constant_connection(rng, 1, 2)
    for coeff in cs_r_poly(c):
        assert coeff.is_zero(1e-10)


def test_cs_r_poly_matches_direct_evaluation():
    # On T^5 at rank 3, theta_2 and the m = 2 products of the expansion
    # enter and every coefficient p_1..p_5 is non-zero.
    rng = np.random.default_rng(17)
    for dim, rank in ((3, 2), (5, 3)):
        c = random_nonflat_connection(rng, dim, rank)
        coeffs = cs_r_poly(c)
        assert len(coeffs) - 1 == c.dim  # degree dim in r
        assert coeffs[0].is_zero(0.0)  # CS(herm, herm) = 0 at r = 0
        assert not any(f.is_zero(1e-6) for f in coeffs[1:])
        for r in (0.7, -1.3, 0.2 + 0.4j, -0.6 - 1.1j):
            direct = cs_form(c.hermitian_part(), r_deformation(c, r))
            assert r_poly_at(coeffs, r).allclose(direct, 1e-10)


def test_cs_odd_chern_pairing_rank1_circle():
    # One-dimensional model where both sides have one-line closed forms.
    a = 1.0 + 2.0j
    c = Connection.from_constant(1, [np.array([[a]])])
    r = 0.5
    lhs = subtorus_pairing(cs_form(c.hermitian_part(), r_deformation(c, r)))
    rhs = -(r / (2 * math.pi)) * a_coeff(0, r) * subtorus_pairing(c.chern_odd(0))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(r * a.real / (2 * math.pi), abs=1e-12)


def test_cs_odd_chern_pairing_flat_t3():
    rng = np.random.default_rng(18)
    for r in (0.5, 2.0):
        c = random_flat_commuting_connection(rng, 3, 2)
        poly_side = {}
        for region in odd_subtori(3):
            cs = cs_form(c.hermitian_part(), r_deformation(c, r))
            lhs = subtorus_pairing(cs, region)
            rhs = 0.0
            for j in range(2):
                rhs -= (
                    (r / (2 * math.pi))
                    * a_coeff(j, r)
                    / factorial(j)
                    * subtorus_pairing(c.chern_odd(j), region)
                )
            assert abs(lhs - rhs) < 1e-9


def test_cs_pairing_real_imag_split_for_imaginary_r():
    # Coefficient pairings are real for flat connections; at purely
    # imaginary r the even-index terms build the real part of the CS
    # pairing and the odd-index terms the imaginary part.
    rng = np.random.default_rng(19)
    c = random_flat_commuting_connection(rng, 3, 2)
    coeffs = cs_r_poly(c)
    pav = [subtorus_pairing(f) for f in coeffs]
    for p in pav:
        assert abs(p.imag) < 1e-10
    y = 0.8
    full = subtorus_pairing(r_poly_at(coeffs, 1j * y))
    re_sum = sum(p.real * (1j * y) ** i for i, p in enumerate(pav) if i % 2 == 0)
    im_sum = sum(p.real * (1j * y) ** i for i, p in enumerate(pav) if i % 2 == 1)
    assert full.real == pytest.approx(re_sum.real, abs=1e-10)
    assert full.imag == pytest.approx(im_sum.imag, abs=1e-10)


# ----------------------------------------------------------------------
# Chern character


def test_chern_character_flat_is_rank():
    rng = np.random.default_rng(20)
    c = random_flat_commuting_connection(rng, 3, 2)
    ch = chern_character(c)
    np.testing.assert_allclose(ch.coefficient((0, 0, 0), ()), [[2.0]], atol=1e-12)
    assert ch.degree_component(2).is_zero(1e-12)


def test_chern_character_bianchi():
    rng = np.random.default_rng(21)
    for _ in range(3):
        c = random_nonflat_connection(rng, 3, 2)
        assert chern_character(c).ext_d().is_zero(1e-9)


# ----------------------------------------------------------------------
# derived connections: the parent's checked metric, omega computed once


def _on_unipotent_metric(seed: int) -> Connection:
    """A non-unitary rank-2 circle connection on an x-dependent metric."""
    g, g_inv = unipotent_metric(1, 2)
    rng = np.random.default_rng(seed)
    return Connection(TrigPolyForm.constant_one_form(1, [rng_matrix(rng, 2)]), g, g_inv)


def _derived(c: Connection, other: Connection) -> dict[str, Connection]:
    """Every way the program derives a connection from c (and from the
    linear path c -> other, as a scenario builds it)."""
    scn = cli.Scenario(1, 2, {"c": c, "other": other}, (), None, None)
    linear = cli._build_path(scn, {"kind": "linear", "from": "c", "to": "other"})
    out = {"hermitian_part": c.hermitian_part()}
    for t in (0.0, 0.5, 1.0):
        out[f"gauge_path(t={t})"] = gauge_path(c, 2, t)
        out[f"linear(t={t})"] = linear(t)
    return out


def _same_terms(f: TrigPolyForm, h: TrigPolyForm) -> bool:
    """Bitwise equality, term order included."""
    fs, hs = list(f.terms()), list(h.terms())
    return len(fs) == len(hs) and all(
        k0 == k1 and i0 == i1 and np.array_equal(m0, m1)
        for (k0, i0, m0), (k1, i1, m1) in zip(fs, hs)
    )


def test_derived_omega_equals_the_checking_constructors():
    c, other = _on_unipotent_metric(41), _on_unipotent_metric(42)
    c.omega_metric()  # a derived connection must not inherit this cache
    for name, d in _derived(c, other).items():
        assert d.g is c.g and d.g_inv is c.g_inv, name
        oracle = Connection(d.a, d.g, d.g_inv).omega_metric()
        assert _same_terms(d.omega_metric(), oracle), name
        assert d.omega_metric() is d.omega_metric(), name


def test_deriving_runs_no_metric_check(monkeypatch):
    c, other = _on_unipotent_metric(43), _on_unipotent_metric(44)
    checked = []
    monkeypatch.setattr(
        Connection, "_spot_check_positive", lambda self: checked.append(self)
    )
    _derived(c, other)
    # gauge_path builds only the gauged form, not the gauge transform's
    # metric, so no derived connection runs a metric check
    assert checked == []


# ----------------------------------------------------------------------
# gauge transforms, metric inversion


def test_gauge_transform_conjugates_curvature():
    rng = np.random.default_rng(23)
    c = random_nonflat_connection(rng, 3, 2)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    u = TrigPolyForm.identity(3, 2) + TrigPolyForm.monomial(3, 0.5 * n, k=(1, 0, 0))
    u_inv = TrigPolyForm.identity(3, 2) - TrigPolyForm.monomial(
        3, 0.5 * n, k=(1, 0, 0)
    )
    ct = gauge_transform(c, u, u_inv)
    lhs = ct.curvature()
    rhs = u_inv.wedge(c.curvature()).wedge(u)
    assert lhs.allclose(rhs, 1e-10)


def test_invert_degree0_unipotent_and_errors():
    # only constant forms are inverted: the unipotent factor w, the metric
    # w^dagger w and 2 cos(2 pi x) are refused, and the refusal names the fix
    n = np.array([[0.0, 0.4], [0.0, 0.0]])
    w = TrigPolyForm.identity(2, 2) + TrigPolyForm.monomial(2, n, k=(1, 0))
    g, g_inv = unipotent_metric(2, 2)
    bad = TrigPolyForm.monomial(1, np.eye(1), k=(1,)) + TrigPolyForm.monomial(
        1, np.eye(1), k=(-1,)
    )  # 2 cos(2 pi x): vanishes at x = 1/4, no inverse at all
    for form in (w, g, bad):
        with pytest.raises(InvalidInputError, match="pass g_inv for a non-constant metric"):
            invert_degree0(form)
    # the metric's inverse comes from the factorization instead
    assert g.wedge(g_inv).allclose(TrigPolyForm.identity(2, 2), 1e-12)
    # a constant inverts; the zero form and a 1-form are refused
    c = TrigPolyForm.constant(2, np.array([[2.0, 1.0], [0.0, 4.0]]))
    assert c.wedge(invert_degree0(c)).allclose(TrigPolyForm.identity(2, 2), 1e-15)
    with pytest.raises(InvalidInputError, match="singular"):
        invert_degree0(TrigPolyForm.zero(2, 2))
    with pytest.raises(InvalidInputError, match="constant degree-0"):
        invert_degree0(TrigPolyForm.constant_one_form(1, [np.eye(2)]))


def test_connection_validation_errors():
    with pytest.raises(ValueError, match="degree 1"):
        Connection(TrigPolyForm.identity(1, 2))
    a = TrigPolyForm.constant_one_form(1, [np.eye(2)])
    with pytest.raises(ValueError, match="Hermitian"):
        Connection(a, TrigPolyForm.constant(1, np.array([[1.0, 1.0], [0.0, 1.0]])))
    with pytest.raises(ValueError, match="positive definite"):
        Connection(a, TrigPolyForm.constant(1, -np.eye(2)))


def test_connection_json_round_trip():
    rng = np.random.default_rng(25)
    g, g_inv = constant_hermitian_metric(rng, 3, 2)
    c = Connection(
        TrigPolyForm.constant_one_form(3, [rng_matrix(rng, 2) for _ in range(3)]),
        g,
        g_inv,
    )
    c2 = Connection.from_json_obj(c.to_json_obj())
    assert c2.a.allclose(c.a, 0.0)
    assert c2.g.allclose(c.g, 0.0)


def test_odd_subtori_enumeration():
    subs = odd_subtori(3)
    assert [s.indices for s in subs] == [(1,), (2,), (3,), (1, 2, 3)]

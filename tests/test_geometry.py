"""Connection-level oracles: curvature patterns, unitarity,
Chern--Simons calibrations, deformation-coefficient closed forms."""

import json
import math
import pathlib
from fractions import Fraction
from math import factorial

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etacalc import geometry
from etacalc.forms import InvalidInputError, TrigPolyForm
from etacalc.geometry import (
    Connection,
    PreconditionError,
    a_coeff,
    cs_form,
    cs_r_poly,
    gauge_transform,
    linear_path,
    odd_subtori,
    subtorus_pairing,
)
from etacalc.spectral import build_truncation, spectrum

from helpers import (
    CS_GRID_BITS,
    a_coeff_exact,
    chern_character,
    cs_form_quadrature,
    curved_constant_connection,
    diagonal_connection_from_mus,
    exact_chern_odd_pairing,
    exact_cs_pairing,
    exact_cs_r_poly_pairing,
    exp_nilpotent,
    gauged_t3_connection,
    json_mutations,
    phi_normalize_other_root,
    r_deformation,
    r_poly_at,
    random_flat_commuting_connection,
    random_nonflat_connection,
    random_unitary_constant_connection,
    reference_connection_schema,
    rng_matrix,
    same_stored_terms,
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
# unitarity structure


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
    # adjoint A + omega.
    rng = np.random.default_rng(7)
    for c in (
        random_flat_commuting_connection(rng, 1, 2),
        random_nonflat_connection(rng, 3, 2),
    ):
        coeffs, herm = cs_r_poly(c), c.hermitian_part()
        adjoint = Connection(c.a + c.omega_metric())
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
    return gauge_transform(c, u, u_inv)


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
# the pairing of a constant connection: K_d tr s_d(A), against the exact
# standard-polynomial oracle (``helpers.exact_cs_pairing``)


def _factors(c: Connection, region: tuple[int, ...]) -> list[np.ndarray]:
    return [c.a.coefficient((0,) * c.dim, (i,)) for i in region]


def _grid_connection(seed: int, dim: int, rank: int, scale: float = 2.0) -> Connection:
    """``curved_constant_connection``'s A_j, rounded to the oracle's grid."""
    c = curved_constant_connection(np.random.default_rng(seed), dim, rank, scale)
    grid = 2.0**CS_GRID_BITS
    mats = [np.round(a * grid) / grid for a in _factors(c, range(1, dim + 1))]
    return Connection.from_constant(dim, mats)


def _products_bound(
    factors: list[np.ndarray], cocycle: bool = False, weight: float | None = None
) -> float:
    """A bound on the float error of <CS>_J, m = |J|, from the number of
    products.  Expanded, <CS(0, c)>_J is K_m times the m! signed products
    tr(A_s(1) ... A_s(m)), however the form algebra groups them.  Each
    passes at most n = m rank + (products) + 8 roundings: m - 1 matrix
    products of inner length rank, the trace's rank - 1 sums, the sums
    with the other products, and the scalar weights and the oracle's own
    roundings.  So the error is at most gamma_n = n u / (1 - n u) of the
    sum of the products' absolute values, and tr(|X_1| ... |X_m|) <=
    prod ||X_i||_F.  <CS(c0, c1)>_J expands into words in A0_i and
    delta_i, so X_i = |A0_i| + |delta_i| bounds them (``cocycle``): there
    are m! 2^(m-1) products, and their t-integral weights 1/(n + 1) are up
    to m times K_m's 1/m.  <c_m>_J is the same sum of m! products of the
    omega_i, whose entries are exact on the grid, with the weight
    |(2 pi i)^-j 2^-m| in place of |K_m| (``weight``)."""
    m, rank = len(factors), factors[0].shape[0]
    products = factorial(m) * (2 ** (m - 1) if cocycle else 1)
    n = m * rank + products + 8
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    if weight is None:
        weight = (m if cocycle else 1) / (
            factorial(m // 2) * m * (2 * math.pi) ** (m // 2 + 1))
    return gamma * weight * products * math.prod(np.linalg.norm(x) for x in factors)


def _zero_connection(dim: int, rank: int) -> Connection:
    return Connection.from_constant(dim, [np.zeros((rank, rank))] * dim)


@pytest.mark.parametrize(
    "dim, rank",
    [(1, 1), (1, 4), (2, 2), (3, 2), (3, 3), (3, 4), (4, 3), (5, 3), (5, 4),
     (6, 4), (7, 4)],
)
def test_cs_pairing_is_k_d_times_the_standard_polynomial(dim, rank):
    # on every odd coordinate subtorus J of T^dim, m = |J|; at rank <=
    # (m - 1)/2, an Amitsur--Levitzki zero, the oracle is exactly 0 and the
    # form side is 0 to rounding, and else it has content
    c = _grid_connection(dim, dim, rank)
    cs = cs_form(_zero_connection(dim, rank), c)
    for region in odd_subtori(dim):
        exact = exact_cs_pairing(c, region)
        bound = _products_bound(_factors(c, region))
        if rank <= (len(region) - 1) // 2:
            assert exact == 0, region
        else:
            assert abs(exact) >= 10 * bound, region  # a 10% error shows
        assert abs(subtorus_pairing(cs, region) - exact) <= bound, region
    if dim % 2:
        assert exact_cs_pairing(c) == exact_cs_pairing(c, odd_subtori(dim)[-1])


@pytest.mark.parametrize("dim, rank", [(3, 1), (5, 1), (5, 2), (7, 2), (7, 3)])
def test_cs_pairing_vanishes_at_the_amitsur_levitzki_zeros(dim, rank):
    # s_d vanishes on matrices of rank <= (d - 1)/2, so the pairing of a
    # curved connection there is exactly 0, and 0 to rounding in floats
    c = _grid_connection(40 + dim, dim, rank, 8.0)
    assert exact_cs_pairing(c) == 0
    pairing = subtorus_pairing(cs_form(_zero_connection(dim, rank), c))
    assert abs(pairing) <= _products_bound(_factors(c, range(1, dim + 1)))


@pytest.mark.parametrize("dim, rank", [(1, 2), (3, 3), (5, 3), (7, 4)])
def test_cs_pairing_is_homogeneous_of_degree_d(dim, rank):
    # <CS(0, t c)> = t^d <CS(0, c)>; t c stays on the grid
    c = _grid_connection(10 + dim, dim, rank)
    exact = exact_cs_pairing(c)
    for t in (-1.0, 3.0, 64.0):
        tc = Connection(c.a * t)
        pairing = subtorus_pairing(cs_form(_zero_connection(dim, rank), tc))
        assert abs(pairing - t**dim * exact) <= _products_bound(_factors(tc, range(1, dim + 1)))


@pytest.mark.parametrize("dim, rank", [(1, 3), (3, 2), (3, 3), (4, 3), (5, 3), (7, 4)])
def test_cs_pairing_is_a_cocycle(dim, rank):
    # <CS(c0, c1)>_J = <CS(0, c1)>_J - <CS(0, c0)>_J: the forms differ by an
    # exact form, which pairs to 0 on a closed torus
    c0, c1 = _grid_connection(20 + dim, dim, rank), _grid_connection(30 + dim, dim, rank)
    cs = cs_form(c0, c1)
    # on T^7 the whole torus: its 64 subtori would cost the oracle 0.2 s
    for region in odd_subtori(dim) if dim < 7 else [tuple(range(1, 8))]:
        exact = exact_cs_pairing(c1, region) - exact_cs_pairing(c0, region)
        a0, a1 = _factors(c0, region), _factors(c1, region)
        bound = _products_bound([abs(x) + abs(y - x) for x, y in zip(a0, a1)], True)
        assert abs(exact) >= 10 * bound, region  # a 10% error shows
        assert abs(subtorus_pairing(cs, region) - exact) <= bound, region


def test_exact_cs_pairing_reads_no_form_algebra(monkeypatch):
    # the oracle must stay independent of the form side it is compared with
    c = _grid_connection(0, 5, 3)
    expected = [exact_cs_pairing(c, region) for region in odd_subtori(5)]

    def refused(*args, **kwargs):
        raise AssertionError("the pairing oracle reached the form side")

    for name in ("wedge", "ext_d", "integrate", "mat_trace", "phi_normalize",
                 "degree_component", "__add__", "__mul__"):
        monkeypatch.setattr(TrigPolyForm, name, refused)
    for name in ("cs_form", "subtorus_pairing", "_cs_integral", "_transgression"):
        monkeypatch.setattr(geometry, name, refused)
    assert [exact_cs_pairing(c, region) for region in odd_subtori(5)] == expected


def _omegas(c: Connection, region: tuple[int, ...]) -> list[np.ndarray]:
    """omega_i = -(A_i^dagger + A_i), i in ``region``: exact on the grid."""
    return [-(a.conj().T + a) for a in _factors(c, region)]


def _chern_bound(c: Connection, region: tuple[int, ...]) -> float:
    m = len(region)
    weight = 2.0**-m / (2 * math.pi) ** (m // 2)
    return _products_bound(_omegas(c, region), weight=weight)


@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_chern_odd_pairing_is_the_standard_polynomial_of_omega(dim, rank):
    # on every odd coordinate subtorus J of T^dim, |J| = 2j + 1:
    # <c_{2j+1}>_J = (2 pi i)^-j 2^-(2j+1) tr s_{2j+1}(omega_J).  At rank <=
    # j, an Amitsur--Levitzki zero, the oracle is exactly 0 and the form
    # side 0 to rounding, and else it has content.  c_{2j+1} wedges a
    # 2j-form with omega, so a sign of the (2, 1) merge shows from j = 1.
    # A class of lower degree has no part of degree |J| to pair.
    c = _grid_connection(50 + dim, dim, rank)
    chern = [c.chern_odd(j) for j in range((dim + 1) // 2)]
    for region in odd_subtori(dim):
        j = (len(region) - 1) // 2
        exact = exact_chern_odd_pairing(c, region)
        bound = _chern_bound(c, region)
        if rank <= j:
            assert exact == 0, region
        else:
            assert abs(exact) >= 10 * bound, region  # a 10% error shows
        assert abs(subtorus_pairing(chern[j], region) - exact) <= bound, region
        assert all(subtorus_pairing(f, region) == 0 for f in chern[:j]), region


@pytest.mark.parametrize("dim, rank", [(3, 1), (5, 1), (5, 2)])
def test_chern_odd_pairing_vanishes_at_the_amitsur_levitzki_zeros(dim, rank):
    # s_{2j+1} vanishes on matrices of rank <= j, so the top pairing of a
    # curved, non-unitary connection there is exactly 0, and 0 to rounding
    # in floats
    c = _grid_connection(60 + dim, dim, rank, 8.0)
    region = tuple(range(1, dim + 1))
    assert any(np.any(w) for w in _omegas(c, region))
    assert exact_chern_odd_pairing(c) == 0
    pairing = subtorus_pairing(c.chern_odd((dim - 1) // 2))
    assert abs(pairing) <= _chern_bound(c, region)


def test_exact_chern_odd_pairing_reads_no_form_algebra(monkeypatch):
    # the oracle must stay independent of the form side it is compared with
    c = _grid_connection(0, 5, 3)
    expected = [exact_chern_odd_pairing(c, region) for region in odd_subtori(5)]

    def refused(*args, **kwargs):
        raise AssertionError("the Chern oracle reached the form side")

    for name in ("wedge", "dagger", "integrate", "mat_trace", "degree_component",
                 "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(TrigPolyForm, name, refused)
    for name in ("chern_odd", "omega_metric", "hermitian_part"):
        monkeypatch.setattr(Connection, name, refused)
    monkeypatch.setattr(geometry, "subtorus_pairing", refused)
    assert [exact_chern_odd_pairing(c, region) for region in odd_subtori(5)] == expected


def _r_poly_slots(c: Connection, region: tuple[int, ...]) -> list[np.ndarray]:
    """|h_i| + |delta_i|, i in ``region``: h = (A - A^dagger)/2 and delta =
    -(i/2)(A^dagger + A), entrywise absolute values, which bound every word
    of the r^k coefficients."""
    return [abs(a - a.conj().T) / 2 + abs(a.conj().T + a) / 2 for a in _factors(c, region)]


@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cs_r_poly_pairing_is_the_polarized_standard_polynomial(dim, rank):
    # on every odd coordinate subtorus J of T^dim, m = |J| = 2j + 1, the
    # r^k coefficient of <CS(h, h + r delta)>_J is K_m times the sum of tr
    # s_m over the slot choices with k deltas and m - k h's.  At rank <= j,
    # an Amitsur--Levitzki zero, each is exactly 0 and the form side 0 to
    # rounding; else each k = 1..m has content.  r^0 and every k > m pair
    # to exactly 0: the form has no part of degree m there.  The words are
    # those of a cocycle <CS(c0, c1)> with A0 = h and delta, so its bound.
    c = _grid_connection(70 + dim, dim, rank)
    coeffs = cs_r_poly(c)
    assert len(coeffs) == dim + 1
    for region in odd_subtori(dim):
        m, j = len(region), (len(region) - 1) // 2
        exact = exact_cs_r_poly_pairing(c, region)
        bound = _products_bound(_r_poly_slots(c, region), True)
        assert len(exact) == m + 1 and exact[0] == 0
        for k, form in enumerate(coeffs):
            pairing = subtorus_pairing(form, region)
            if k == 0 or k > m:
                assert pairing == 0, (region, k)
                continue
            if rank <= j:
                assert exact[k] == 0, (region, k)
            else:
                assert abs(exact[k]) >= 10 * bound, (region, k)  # a 10% error shows
            assert abs(pairing - exact[k]) <= bound, (region, k)


def test_exact_cs_r_poly_pairing_is_the_cocycle_of_its_endpoints():
    # at r = 1 the coefficients sum to <CS(0, h + delta)> - <CS(0, h)>, both
    # from ``exact_cs_pairing`` on grid inputs: h and delta halve the grid,
    # so the endpoints are scaled by 2 (the pairing is homogeneous of degree m)
    c = _grid_connection(75, 5, 3)
    for region in odd_subtori(5):
        m = len(region)
        a = _factors(c, region)
        two_h = [x - x.conj().T for x in a]
        two_end = [h - 1j * (x.conj().T + x) for h, x in zip(two_h, a)]
        ends = [
            exact_cs_pairing(Connection.from_constant(m, mats)) / 2**m
            for mats in (two_end, two_h)
        ]
        total = sum(exact_cs_r_poly_pairing(c, region))
        assert abs(total - (ends[0] - ends[1])) <= 1e-12 * abs(ends[0]), region


def test_exact_cs_r_poly_pairing_reads_no_form_algebra(monkeypatch):
    # the oracle must stay independent of the form side it is compared with
    c = _grid_connection(0, 5, 3)
    expected = [exact_cs_r_poly_pairing(c, region) for region in odd_subtori(5)]

    def refused(*args, **kwargs):
        raise AssertionError("the r-polynomial oracle reached the form side")

    for name in ("wedge", "ext_d", "dagger", "integrate", "mat_trace", "phi_normalize",
                 "degree_component", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(TrigPolyForm, name, refused)
    for name in ("omega_metric", "hermitian_part"):
        monkeypatch.setattr(Connection, name, refused)
    for name in ("cs_r_poly", "subtorus_pairing", "_cs_integral", "_transgression"):
        monkeypatch.setattr(geometry, name, refused)
    assert [exact_cs_r_poly_pairing(c, region) for region in odd_subtori(5)] == expected


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
# omega on the identity metric


def _metric_formula(a: TrigPolyForm, g: TrigPolyForm, g_inv: TrigPolyForm) -> TrigPolyForm:
    """g^{-1} (dg - A^dagger g - g A): the defect of compatibility of d + A
    with the fiber metric g, by the general formula."""
    return g_inv.wedge(g.ext_d() - a.dagger().wedge(g) - g.wedge(a))


def _identity_metric_connections() -> dict[str, Connection]:
    rng = np.random.default_rng(61)
    basis = np.linalg.qr(rng_matrix(rng, 2))[0]
    mus = rng.uniform(0.1, 0.9, (3, 2))
    return {
        "unitary constant": random_unitary_constant_connection(rng, 3, 2),
        "non-unitary constant": Connection.from_constant(
            3, [rng_matrix(rng, 2) for _ in range(3)]
        ),
        "unitary gauged": gauged_t3_connection(mus, basis),
        "non-unitary gauged": gauged_t3_connection(mus + 0.2j * mus[::-1], basis),
        "non-unitary oscillatory": random_nonflat_connection(rng, 3, 2),
    }


@pytest.mark.parametrize("name", sorted(_identity_metric_connections()))
def test_omega_on_the_shared_identity_is_the_general_route(name):
    # omega is -(A^dagger + A), bit for bit the general metric formula on
    # the shared identity, whose wedges and d short-circuit, and on a
    # freshly built identity, which multiplies by 1 and adds exact zeros
    c = _identity_metric_connections()[name]
    for g in (
        TrigPolyForm.identity(c.dim, c.rank),
        TrigPolyForm.constant(c.dim, np.eye(c.rank)),
    ):
        assert same_stored_terms(c.omega_metric(), _metric_formula(c.a, g, g))


def test_a_constant_metric_is_the_gauge_change_h_a_h_inv():
    # on g = h^dagger h the defect of d + A is h^{-1} omega(h A h^{-1}) h,
    # omega of the gauged form on the identity metric, and the Galerkin
    # spectra of A and h A h^{-1} agree: the identity metric loses nothing
    rng = np.random.default_rng(62)
    for dim, rank in ((1, 2), (1, 3), (3, 2), (3, 3)):
        h = np.eye(rank) + rng_matrix(rng, rank, 0.45)
        h_inv = np.linalg.inv(h)
        hf, hf_inv = TrigPolyForm.constant(dim, h), TrigPolyForm.constant(dim, h_inv)
        g = TrigPolyForm.constant(dim, h.conj().T @ h)
        g_inv = TrigPolyForm.constant(dim, h_inv @ h_inv.conj().T)
        c = random_nonflat_connection(rng, dim, rank)
        gauged = gauge_transform(c, hf_inv, hf)  # u = h^{-1}: A -> h A h^{-1}
        want = _metric_formula(c.a, g, g_inv)
        got = hf_inv.wedge(gauged.omega_metric()).wedge(hf)
        assert not want.is_zero(1e-3) and got.allclose(want, 1e-12 * want.max_abs())
        if dim == 1:
            const = Connection.from_constant(1, [rng_matrix(rng, rank)])
            similar = gauge_transform(const, hf_inv, hf)
            one, other = (spectrum(build_truncation(x, 3)) for x in (const, similar))
            assert np.abs(one[:, None] - other[None, :]).min(axis=1).max() < 1e-9


# ----------------------------------------------------------------------
# gauge transforms, validation, JSON


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


def test_connection_validation_errors():
    with pytest.raises(ValueError, match="degree 1"):
        Connection(TrigPolyForm.identity(1, 2))


def test_connection_json_round_trip():
    rng = np.random.default_rng(25)
    c = Connection(
        TrigPolyForm.constant_one_form(3, [rng_matrix(rng, 2) for _ in range(3)])
    )
    obj = c.to_json_obj()
    assert sorted(obj) == ["A", "dim", "rank"]
    assert Connection.from_json_obj(obj).a.allclose(c.a, 0.0)


_FORM = {"dim": 1, "rank": 1, "terms": [{"k": [0], "I": [1], "re": [[0.0]], "im": [[0.5]]}]}
_TERM = _FORM["terms"][0]
_CONNECTION = {"dim": 1, "rank": 1, "A": _FORM}
_READ = {
    "form": (TrigPolyForm.from_json_obj, _FORM),
    "connection": (Connection.from_json_obj, _CONNECTION),
}


@pytest.mark.parametrize(
    "kind, obj",
    [
        ("form", {"dim": 1, "rank": 1}),
        ("form", {**_FORM, "terms": 5}),
        ("form", {**_FORM, "terms": [{k: v for k, v in _TERM.items() if k != "k"}]}),
        ("form", {**_FORM, "terms": [{**_TERM, "x": 1}]}),
        ("form", {**_FORM, "terms": [{**_TERM, "I": {}}]}),
        ("form", {**_FORM, "terms": [list(_TERM.values())]}),
        ("form", {**_FORM, "dim": "1"}),
        ("form", {**_FORM, "dim": True}),
        ("form", {**_FORM, "dim": 1.5}),
        ("form", list(_FORM.values())),
        ("connection", {"rank": 1, "A": _FORM}),
        ("connection", {**_CONNECTION, "x": 1}),
        ("connection", {**_CONNECTION, "dim": True}),
        ("connection", list(_CONNECTION.values())),
        *(("connection", {**_CONNECTION, "g": g}) for g in (None, {}, [], 0)),
    ],
)
def test_from_json_obj_refuses_what_is_no_form_or_connection(kind, obj):
    # the reader is where the JSON format is checked: a missing or unknown
    # key, a list for an object or a number for a list, a dim that is no
    # integer and a g key that holds no form are refused as input
    read, valid = _READ[kind]
    read(valid)
    with pytest.raises(InvalidInputError):
        read(obj)


def test_connection_reader_refuses_what_the_old_schema_refused():
    # the connection format's schema, which the scenario schema stated, is
    # the oracle: every single mutation of a bundled connection, with and
    # without an identity g, that it refuses, the reader refuses as input,
    # and no mutation makes the reader raise anything else
    scenarios = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    conn = json.loads((scenarios / "t3_flat_commuting.json").read_text())["connections"]["main"]
    oracle = jsonschema.Draft202012Validator(reference_connection_schema())
    identity = TrigPolyForm.identity(conn["dim"], conn["rank"]).to_json_obj()
    outcomes = []
    for spec in (conn, {**conn, "g": identity}):
        Connection.from_json_obj(spec)
        for mutated in json_mutations(spec):
            try:
                Connection.from_json_obj(mutated)
            except InvalidInputError:
                outcomes.append(False)
            else:
                assert oracle.is_valid(mutated), mutated
                outcomes.append(True)
    assert len(outcomes) > 1000 and 100 < sum(outcomes) < len(outcomes)


def test_odd_subtori_enumeration():
    subs = odd_subtori(3)
    assert subs == ((1,), (2,), (3,), (1, 2, 3))
    assert odd_subtori(1) == ((1,),)
    assert [len(J) for J in odd_subtori(5)] == [1] * 5 + [3] * 10 + [5]

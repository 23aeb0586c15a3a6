"""Eta invariants: circle closed forms against an independent series
oracle, heat-smoothed estimates, the imaginary-axis census, and the
paper's local eta identity on curved T^3 and T^5 through a symbol oracle
(``helpers.symbol_eta``)."""

import functools
import itertools
import math
import re

import numpy as np
import pytest

from etacalc import eta as eta_module
from etacalc import geometry
from etacalc.eta import (
    _EPS_GRID,
    EtaValue,
    constant_eta,
    eta_bk,
    eta_heat_estimate,
    eta_s1_spectral,
    m_minus,
)
from etacalc.flow import spectral_flow
from etacalc.forms import TrigPolyForm
from etacalc.geometry import (
    Connection,
    PreconditionError,
    cs_form,
    cs_r_poly,
    subtorus_pairing,
)
from etacalc.spectral import (
    AXIS_TOL,
    GuardError,
    ball_radius,
    ball_truncation,
    build_truncation,
    clifford_model,
    on_axis,
    sign_count,
    spectrum,
)
from etacalc.verify import circle_distance, eta_tilde, residual_for

from helpers import (
    curved_constant_connection,
    diagonal_connection_from_mus,
    gauged_t3_connection,
    near_axis_towers,
    random_flat_commuting_connection,
    random_mus,
    random_unitary_constant_connection,
    rng_matrix,
    sign_sum_eta_oracle,
    symbol_density,
    symbol_eta,
)


# ---------------------------------------------------------------------------
# closed form on the circle


def test_eta_closed_symmetric_tower_vanishes():
    v = eta_s1_spectral([0.5])
    assert v.eta == pytest.approx(0.0, abs=1e-13)
    assert v.kernel_dim == 0


def test_eta_closed_quarter_tower():
    v = eta_s1_spectral([0.25])
    assert v.eta == pytest.approx(0.5, abs=1e-12)
    assert v.reduced == pytest.approx(0.25, abs=1e-12)


def test_eta_closed_complex_shift():
    v = eta_s1_spectral([0.25 + 0.1j])
    assert v.eta == pytest.approx(0.5 - 0.2j, abs=1e-12)
    assert v.reduced.imag == pytest.approx(v.eta.imag / 2, abs=1e-15)


def test_eta_closed_equals_linear_expression():
    rng = np.random.default_rng(30)
    mus = random_mus(rng, 6)
    v = eta_s1_spectral(mus)
    assert v.eta == pytest.approx(sum(1 - 2 * m for m in mus), abs=1e-11)


def test_eta_closed_matches_sign_sum_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = float(rng.uniform(0.05, 0.95))
        closed = eta_s1_spectral([mu]).eta
        oracle = sign_sum_eta_oracle(mu)
        assert abs(closed - oracle) <= 1e-6


def test_im_reduced_eta_matches_first_chern_pairing():
    # Im(reduced eta) = -(1/2 pi) * integral of c_1 over the circle,
    # checked across rank-1 and rank-2 diagonal non-unitary connections
    rng = np.random.default_rng(32)
    for rank in (1, 2):
        for _ in range(10):
            mus = random_mus(rng, rank)
            c = diagonal_connection_from_mus(mus)
            v = eta_s1_spectral(mus)
            pairing = subtorus_pairing(c.chern_odd(0))
            assert v.reduced.imag == pytest.approx(
                (-pairing / (2 * math.pi)).real, abs=1e-9
            )
            assert abs(pairing.imag) < 1e-12


# ---------------------------------------------------------------------------
# tower bookkeeping for arbitrary complex shifts


def test_spectral_eta_generic_matches_closed():
    res = eta_s1_spectral([0.25, 3.25, -1.75])
    # integer shifts land every tower at 0.25
    assert res.eta == pytest.approx(1.5, abs=1e-12)
    assert res.kernel_dim == 0
    assert res.excluded == ()


def test_spectral_eta_counts_kernel_modes():
    res = eta_s1_spectral([0.0, 1.0, -3.0, 0.5])
    assert res.kernel_dim == 3
    assert res.eta == pytest.approx(0.0, abs=1e-12)
    assert res.reduced == pytest.approx(1.5, abs=1e-12)


def test_spectral_eta_imaginary_axis_towers():
    beta = 0.3
    res = eta_s1_spectral([1j * beta])
    assert res.eta == pytest.approx(-2j * beta, abs=1e-12)
    assert res.excluded == (2j * math.pi * beta,)

    res2 = eta_s1_spectral([2 - 0.4j])
    assert res2.eta == pytest.approx(0.8j, abs=1e-12)
    assert res2.excluded == (-2j * math.pi * 0.4,)


def test_spectral_eta_upper_boundary_shift():
    # Re mu just below an integer: the tower is shifted down by one so the
    # near-axis eigenvalue is excluded and the remainder contributes -2 mu
    mu = 1 - 1e-12 + 0.2j
    res = eta_s1_spectral([mu])
    assert res.kernel_dim == 0
    assert len(res.excluded) == 1
    assert res.excluded[0] == pytest.approx(2j * math.pi * 0.2, abs=1e-9)
    assert res.eta == pytest.approx(-0.4j, abs=1e-9)


def test_spectral_eta_near_integer_is_kernel():
    res = eta_s1_spectral([1 - 1e-12, 5 + 1e-13j])
    assert res.kernel_dim == 2
    assert res.eta == pytest.approx(0.0, abs=1e-9)


def test_large_tower_shift_keeps_its_fraction():
    # at Re mu = 1e5 a float still resolves the tower's value nearest the
    # axis to 2 pi ulp(1e5) < AXIS_TOL, so the shift by 1e5 is a relabelling
    res = eta_s1_spectral([1e5 + 0.25])
    assert res.eta == 0.5 and res.kernel_dim == 0 and res.excluded == ()


@pytest.mark.parametrize(
    "mu", [2.0**20, -(2.0**20), 1e20 / (2 * math.pi), 3e102 + 0.07j, math.inf, math.nan]
)
def test_tower_shift_the_axis_rule_cannot_place_is_a_guard(mu):
    # from |Re mu| = 2^20 on, 2 pi ulp(Re mu) > AXIS_TOL: the axis rule
    # cannot tell a kernel mode from a tower off the axis, so no eta is given
    assert 2 * math.pi * math.ulp(2.0**19) <= AXIS_TOL < 2 * math.pi * math.ulp(2.0**20)
    eta_s1_spectral([2.0**20 - 1 + 0.25])  # the last float band it still places
    named = re.escape(f"tower of mu = {complex(mu)}")
    with pytest.raises(GuardError, match=named):
        eta_s1_spectral([0.25, mu])


# ---------------------------------------------------------------------------
# the entry point: one tower per eigenvalue 2 pi i mu of A_1


def _assert_same_eta(got, want):
    assert got.eta == pytest.approx(want.eta, abs=1e-10)
    assert got.kernel_dim == want.kernel_dim
    assert got.excluded == pytest.approx(want.excluded, abs=1e-9)


def test_constant_eta_reads_the_towers_of_a1():
    rng = np.random.default_rng(21)
    mus = random_mus(rng, 3)
    _assert_same_eta(
        constant_eta(diagonal_connection_from_mus(mus)), eta_s1_spectral(mus)
    )
    # non-diagonal A_1 = P diag(2 pi i mu) P^-1 with complex mu, one of
    # them outside the strip 0 <= Re < 1
    p = np.array([[1.0, 0.4 - 0.3j], [0.2j, 1.5]])
    for mus in ([0.3 + 0.2j, -1.35 - 0.1j], [2 + 0.15j, 0.6]):
        a1 = p @ np.diag([2j * math.pi * m for m in mus]) @ np.linalg.inv(p)
        got = constant_eta(Connection.from_constant(1, [a1]))
        _assert_same_eta(got, eta_s1_spectral(mus))
    assert got.excluded  # the second set has a tower on the axis


def test_constant_eta_refuses_higher_tori_and_oscillatory_connections():
    with pytest.raises(PreconditionError):
        constant_eta(Connection.from_constant(3, [np.zeros((1, 1))] * 3))
    a = TrigPolyForm.monomial(
        1, np.array([[2j * math.pi * 0.3]]), I=(1,)
    ) + TrigPolyForm.monomial(1, np.array([[0.5]]), k=(1,), I=(1,))
    with pytest.raises(PreconditionError):
        constant_eta(Connection(a))


def test_circle_eta_is_the_ball_count_plus_the_trace_term():
    # ROADMAP item 1's eta(0) = N(c) + integral of h_d over S^(d-1), at
    # d = 1: S^0 = {+-1} and h_1 = -tr V / 2 pi with V = -i A_1, so
    # eta(c) = N(c) + i tr A_1 / pi, N(c) the ball's sign count.  The
    # ball's axis values are the towers' kernel modes and excluded values.
    # A_1 = S (2 pi i diag(mu) + U) S^-1, U strictly upper triangular with
    # entries of modulus up to 3 (so A_1 is not normal), S a random complex basis of
    # condition number below 4; every fifth input has a tower on the axis
    # and every tenth a kernel tower
    rng = np.random.default_rng(44)
    windows = []
    for i in range(200):
        rank = 1 + i % 3
        mus = rng.uniform(-3, 3, rank) + 1j * rng.uniform(-0.5, 0.5, rank)
        if i % 5 == 0:
            mus[0] = rng.integers(-3, 4) + (i % 10 != 0) * 1j * rng.choice([-0.3, 0.2])
        size = rng.uniform(0, 3, (rank, rank))
        upper = np.triu(size * np.exp(2j * math.pi * rng.uniform(size=(rank, rank))), 1)
        basis = rng_matrix(rng, rank)
        while np.linalg.cond(basis) >= 4:
            basis = rng_matrix(rng, rank)
        a1 = basis @ (np.diag(2j * math.pi * mus) + upper) @ np.linalg.inv(basis)
        c = Connection.from_constant(1, [a1])
        e = constant_eta(c)
        t = ball_truncation(c, 64)
        count, axis = sign_count(t)
        assert abs(e.eta - (count + 1j * np.trace(a1) / math.pi)) <= 1e-12, i
        zero = on_axis(axis)[1]
        assert (e.kernel_dim, len(e.excluded)) == (zero.sum(), (~zero).sum()), i
        assert (e.kernel_dim, len(e.excluded)) == (i % 10 == 0, i % 10 == 5), i
        assert list(e.excluded) == pytest.approx(list(axis[~zero]), abs=1e-9), i
        windows.append(t.cutoff)
    assert max(windows) > 1  # the balls reach past the k = 0 mode


def _trace_floor_bound(rank: int, norm: float) -> float:
    """A bound on |eta - (rank + 2 <CS(0, c)> + 2 sum floor Re mu)| for a
    constant circle connection of rank ``rank`` with ||A_1||_F = norm, no
    tower on the axis and no Re mu within the bound of an integer (so the
    floors are exact).  LAPACK's eigenvalues are exact for A_1 + E with
    ||E||_F <= 8 rank u norm (backward stability, its constant taken as
    8), so their sum is off tr A_1 by |tr E| <= sqrt(rank) ||E||_F however
    far from normal A_1 is; ``cs_form``'s trace rounds by rank u norm
    more, and both reach eta over pi.  Each tower's 1 - 2 (mu - floor Re
    mu), |mu| <= norm / 2 pi, and its place in the sums on either side
    round by at most 4 u (3 + 2 norm / pi)."""
    u = 2.0**-53
    traces = (8 * rank * math.sqrt(rank) + rank) * u * norm / math.pi
    return traces + 4 * rank * u * (3 + 2 * norm / math.pi)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_circle_eta_is_the_trace_plus_the_floors(rank):
    # ROADMAP item 30: with mu over the eigenvalues of A_1 / 2 pi i, none on
    # the axis, eta = rank + 2 <CS(0, c)> + 2 sum floor Re mu, as sum mu =
    # tr A_1 / 2 pi i = -<CS(0, c)>.  A_1 = S (2 pi i diag(mu) + J) S^-1
    # from known mu, J zero or the nilpotent part of one Jordan block of
    # size 2 or 3, S a random complex basis of condition number below 4, so
    # the floors are known without a solve.  Re mu sits at least 0.05 from
    # an integer, and |Re mu| and |Im mu| stay below the scale, up to 20.
    # The bound is within 1e-12 of the terms' sizes, rank + 2 sum |mu|
    rng = np.random.default_rng(30 + rank)
    zero = _zero(1, rank)
    blocks = [size for size in (1, 2, 3) if size <= rank]
    for scale, imag, block in itertools.product((1, 5, 20), (0, 1), blocks):
        for _ in range(8):
            mus = rng.integers(-scale, scale, rank) + rng.uniform(0.05, 0.95, rank)
            mus = mus + imag * 1j * rng.uniform(-scale, scale, rank)
            mus[1:block] = mus[0]
            jordan = np.diag((np.arange(rank - 1) < block - 1).astype(float), 1)
            basis = rng_matrix(rng, rank)
            while np.linalg.cond(basis) >= 4:
                basis = rng_matrix(rng, rank)
            a1 = basis @ (np.diag(2j * math.pi * mus) + jordan) @ np.linalg.inv(basis)
            c = Connection.from_constant(1, [a1])
            floors = sum(math.floor(m.real) for m in mus)
            want = rank + 2 * _cs_pairing(zero, c) + 2 * floors
            e = constant_eta(c)
            bound = _trace_floor_bound(rank, np.linalg.norm(a1))
            assert (e.kernel_dim, e.excluded) == (0, ())
            assert abs(e.eta - want) <= bound, (scale, imag, block, mus)
            assert bound <= 1e-12 * (rank + 2 * np.abs(mus).sum())


# ---------------------------------------------------------------------------
# heat-smoothed estimate


def test_heat_estimate_symmetric_spectrum_is_zero():
    c = diagonal_connection_from_mus([0.5])
    est = eta_heat_estimate(build_truncation(c, 100))
    assert abs(est) < 1e-12


def test_heat_estimate_matches_closed_form_quarter():
    c = diagonal_connection_from_mus([0.25])
    est = eta_heat_estimate(build_truncation(c, 200))
    assert abs(est - 0.5) < 1e-3


def test_heat_estimate_t3_unitary_vanishes():
    mus = [0.23, -0.31, 0.11]
    c = Connection.from_constant(
        3, [np.array([[2j * math.pi * m]]) for m in mus]
    )
    est = eta_heat_estimate(build_truncation(c, 6))
    assert abs(est) < 1e-6


def _heat_over_every_copy(t):
    """The heat estimate summed over every eigenvalue with multiplicity,
    as ``spectrum`` hands them out: the formula before the estimate read
    one spinor copy and multiplied."""
    lam = spectrum(t).real
    lam = lam[~on_axis(lam)[0]]
    if lam.size and lam.min() < 0 < lam.max():
        window = min(-lam.min(), lam.max()) * (1 + 1e-12)
        lam = lam[np.abs(lam) <= window]
    roots = np.sqrt(np.asarray(_EPS_GRID))
    sign, size = np.sign(lam), np.abs(lam)
    vals = [float(np.sum(sign * eta_module._erfc(r * size))) for r in roots]
    return complex(np.polyfit(roots, vals, 2)[-1])


def test_heat_estimate_on_one_copy_matches_the_sum_over_every_copy():
    # S^1 has one copy: the same sums, bit for bit
    t = build_truncation(diagonal_connection_from_mus([0.25, 0.4]), 50)
    assert eta_heat_estimate(t) == _heat_over_every_copy(t)
    # T^3, rank 2, A_j not commuting: two copies, and an estimate near -2,
    # so a sum over one copy alone (about -1) is far outside the rounding
    c = random_unitary_constant_connection(np.random.default_rng(1), 3, 2, 3.0)
    t = build_truncation(c, 4)
    assert t.copies == 2 and t._line_values() is None
    est, want = eta_heat_estimate(t), _heat_over_every_copy(t)
    assert abs(want + 2) < 0.05 and abs(est - want) <= 1e-10 * abs(want)
    # T^5: four copies, an estimate that vanishes
    c = random_unitary_constant_connection(np.random.default_rng(1), 5, 1, 1.0)
    t = build_truncation(c, 2)
    assert t.copies == 4
    assert abs(eta_heat_estimate(t) - _heat_over_every_copy(t)) <= 1e-10


@pytest.fixture
def erfc_calls(monkeypatch):
    """Every array the heat estimate hands to ``etacalc.eta._erfc``."""
    calls, erfc = [], eta_module._erfc

    def recording(x):
        calls.append(np.array(x))
        return erfc(x)

    monkeypatch.setattr(eta_module, "_erfc", recording)
    return calls


def _split_unitary(rng, dim, rank):
    """A_j = S diag(2 pi i mu_j) S^H, S unitary: flat, unitary and split into
    lines, as the t3_constant workload draws it."""
    s = np.linalg.qr(rng_matrix(rng, rank))[0]
    mus = rng.uniform(0.05, 0.95, (dim, rank))
    mats = [s @ np.diag(2j * math.pi * row) @ s.conj().T for row in mus]
    return Connection.from_constant(dim, mats)


@pytest.mark.parametrize("dim, cutoffs", [(3, (4, 8)), (5, (2,))])
def test_heat_estimate_of_a_split_truncation_is_exactly_zero(dim, cutoffs, erfc_calls):
    # a split truncation's one-copy spectrum is its own negative bit for bit,
    # so every eigenvalue cancels against its partner and no erfc runs
    rng = np.random.default_rng(470 + dim)
    for _ in range(3):
        c = _split_unitary(rng, dim, 2)
        for t in [build_truncation(c, k) for k in cutoffs] + [ball_truncation(c, 8)]:
            assert t._line_values() is not None and t._spectrum.size
            assert eta_heat_estimate(t) == 0
    assert erfc_calls == []
    # the control: the circle's tower 2 pi (k + 1/4) pairs no value, so the
    # fixture records one erfc call per eps, over every value but the
    # window's unbalanced extreme
    t = build_truncation(diagonal_connection_from_mus([0.25]), 8)
    assert eta_heat_estimate(t) != 0
    assert [x.size for x in erfc_calls] == [t.size - 1] * len(_EPS_GRID)


def test_heat_estimate_cancels_only_bitwise_pairs(erfc_calls):
    # exact pairs at ranks 1 and 2 outward from 0, a near-pair at rank 3,
    # unmatched values at ranks 4 and 5, a zero mode, and an unmatched 40
    # that balances the window against -40
    near = 3.3 + 1e-9
    vals = [-40.0, -5.0, -3.3, -2.0, -1.0, 0.0, 1.0, 2.0, near, 4.0, 6.0, 40.0]
    c = _split_unitary(np.random.default_rng(47), 3, 1)
    t = build_truncation(c, 1)
    t.__dict__["_spectrum"] = np.array(vals, dtype=complex)
    est, want = eta_heat_estimate(t), _heat_over_every_copy(t)
    assert t.copies == 2 and abs(want - 2) < 0.5
    assert abs(est - want) <= 1e-12 * abs(want)
    # erfc sees the unmatched values alone, the near-pair's two included
    left = np.abs([-40.0, -5.0, -3.3, near, 4.0, 6.0, 40.0])
    roots = np.sqrt(np.asarray(_EPS_GRID))
    assert len(erfc_calls) == 2 * len(roots)  # the estimate's, then the oracle's
    for r, x in zip(roots, erfc_calls):
        assert x.tobytes() == (r * left).tobytes()


def _masked_heat_eta(t):
    """The heat estimate as it read its values before it bisected the sorted
    spectrum: boolean masks over every value for the axis band, the window
    and the cancelled pairs.  The oracle of ``eta_heat_estimate``, bit for
    bit, and of every array it hands to ``erfc``."""
    lam = t._spectrum.real
    lam = lam[~on_axis(lam)[0]]
    if lam.size and lam.min() < 0 < lam.max():
        window = min(-lam.min(), lam.max()) * (1 + 1e-12)
        lam = lam[np.abs(lam) <= window]
    i = int(np.searchsorted(lam, 0.0))
    n = min(i, lam.size - i)
    paired = lam[i - n : i][::-1] == -lam[i : i + n]
    keep = np.ones(lam.size, dtype=bool)
    keep[i - n : i], keep[i : i + n] = ~paired[::-1], ~paired
    lam = lam[keep]
    if not lam.size:
        return 0j
    roots = np.sqrt(np.asarray(_EPS_GRID))
    sign, size = np.sign(lam), np.abs(lam)
    vals = [t.copies * float(np.sum(sign * eta_module._erfc(r * size))) for r in roots]
    return complex(np.polyfit(roots, vals, 2)[-1])


def _injected(values):
    """A T^3 truncation whose cached one-copy spectrum is ``values``, sorted."""
    t = build_truncation(_split_unitary(np.random.default_rng(48), 3, 1), 1)
    t.__dict__["_spectrum"] = np.sort(np.array(values, dtype=float)).astype(complex)
    return t


def _heat_oracle_case(name):
    def up(x):
        return math.nextafter(x, math.inf)

    def down(x):
        return math.nextafter(x, -math.inf)

    if name.startswith("circle"):  # zero modes, an axis value, unbalanced edges
        mus = {
            "circle_zero_mode": [0.0, 0.25],
            "circle_axis_value": [1e-11, 0.4],
            "circle_balanced": [0.5],
            "circle_unbalanced": [0.25, 0.3, 0.9],
        }[name]
        return build_truncation(diagonal_connection_from_mus(mus), 12)
    if name == "axis_band_edges":  # +-AXIS_TOL are on the axis; one ulp out is not
        tol = AXIS_TOL
        return _injected([-4.0, down(-tol), -tol, -0.0, 0.0, tol, up(tol), 1.5, 4.0])
    if name == "window_edge_positive":  # +window kept, one ulp past it dropped
        w = 3.0 * (1 + 1e-12)
        return _injected([-3.0, -1.0, -AXIS_TOL, 1.0, 2.0, w, up(w), 5.0])
    if name == "window_edge_negative":  # -window kept, one ulp past it dropped
        w = 3.0 * (1 + 1e-12)
        return _injected([-5.0, down(-w), -w, -2.0, -1.0, 1.0, 2.5, 3.0])
    if name == "one_side_only":  # no window: every value is off to one side
        return _injected([0.0, 1.0, 2.0, 2.0, 7.5])
    if name == "t3_not_split":
        c = random_unitary_constant_connection(np.random.default_rng(2), 3, 2, 3.0)
        return build_truncation(c, 3)
    c = _split_unitary(np.random.default_rng(49), 3, 2)
    return ball_truncation(c, 8) if name == "t3_split_ball" else build_truncation(c, 4)


@pytest.mark.parametrize("name", [
    "circle_zero_mode", "circle_axis_value", "circle_balanced", "circle_unbalanced",
    "axis_band_edges", "window_edge_positive", "window_edge_negative", "one_side_only",
    "t3_not_split", "t3_split", "t3_split_ball",
])
def test_heat_estimate_is_bitwise_the_masked_formula(name, erfc_calls):
    # bisecting the sorted spectrum selects the values that the masks
    # selected, in the same order: the same erfc arguments and the same sum
    t = _heat_oracle_case(name)
    split = name in ("t3_split", "t3_split_ball")  # a spectrum its own negative
    if name.startswith("t3"):
        assert (t._lines is not None) == split
    got = eta_heat_estimate(t)
    seen = erfc_calls[:]
    erfc_calls.clear()
    want = _masked_heat_eta(t)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()
    assert [x.tobytes() for x in seen] == [x.tobytes() for x in erfc_calls]
    assert (got == 0) == split and (seen == []) == split


def test_heat_estimate_rejects_non_self_adjoint():
    c = diagonal_connection_from_mus([0.3 + 0.1j])
    t = build_truncation(c, 5)
    with pytest.raises(PreconditionError, match="Hermitian truncation"):
        eta_heat_estimate(t)


def test_heat_estimate_rejects_coupled_truncations():
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    c = gauged_t3_connection(rng.uniform(0.1, 0.9, (3, 2)), basis)
    t = build_truncation(c, 1)
    assert t.couplings and t.hermitian
    with pytest.raises(PreconditionError, match="constant-coefficient"):
        eta_heat_estimate(t)


# ---------------------------------------------------------------------------
# imaginary-axis census and the shifted invariant


def test_towers_and_the_ball_share_the_axis_rule():
    # a tower near the axis beside a spectator tower: the closed form and
    # the sign count of the Bauer--Fike ball (the spectral flow's view)
    # must agree on whether its value is a zero mode, another axis value
    # or off the axis, however close to the threshold it sits
    kinds = {"kernel": 0, "excluded": 0, "off": 0}
    for mu, on in near_axis_towers():
        c = diagonal_connection_from_mus([mu, 0.3 - 0.1j])
        e = constant_eta(c)
        _, axis = sign_count(ball_truncation(c, 8))
        zero = on_axis(axis)[1]
        assert (e.kernel_dim, len(e.excluded)) == (zero.sum(), (~zero).sum()), mu
        kind = ("kernel" if mu.imag == 0 else "excluded") if on else "off"
        assert (e.kernel_dim, len(e.excluded)) == (
            int(kind == "kernel"), int(kind == "excluded"),
        ), mu
        if e.excluded:
            assert e.excluded[0] == pytest.approx(axis[0], abs=1e-8)
        kinds[kind] += 1
    assert kinds == {"kernel": 108, "excluded": 216, "off": 414}


def test_m_minus_examples():
    assert m_minus([1.0, -2.0, 3.5]) == 0
    assert m_minus([-2j, 3j, 1 + 1j]) == 1
    assert m_minus([1e-10 - 5j, 1e-10 + 5j]) == 1
    assert m_minus([0.5 - 5j]) == 0  # off the axis


def test_m_minus_census_matches_spectral_route():
    for beta in (0.3, -0.25):
        res = eta_s1_spectral([1j * beta])
        c = diagonal_connection_from_mus([1j * beta])
        vals = spectrum(build_truncation(c, 10))
        assert m_minus(vals) == m_minus(res.excluded)
        assert m_minus(res.excluded) == (1 if beta < 0 else 0)


def test_eta_bk_arithmetic():
    e = EtaValue(eta=0.5, kernel_dim=0)
    assert eta_bk(e, 0) == pytest.approx(0.25)
    assert eta_bk(e, 2) == pytest.approx(-1.75)
    e2 = EtaValue(eta=0.5, kernel_dim=2)
    assert e2.reduced == pytest.approx(1.25)


def test_eta_bk_jumps_exactly_with_census():
    # family of towers mu(t) = i beta(t) crossing the imaginary axis:
    # the reduced invariant moves continuously, the census jumps by one,
    # so the shifted invariant jumps by exactly -1 at the crossing
    betas = np.linspace(0.3, -0.3, 10)  # grid avoids beta = 0
    assert not np.any(np.abs(betas) < 1e-12)
    vals = []
    for beta in betas:
        res = eta_s1_spectral([1j * float(beta)])
        m = m_minus(res.excluded)
        vals.append((res.reduced, m, eta_bk(res, m)))
    for (r0, m0, b0), (r1, m1, b1) in zip(vals, vals[1:]):
        if m0 == m1:
            assert abs(b1 - b0) == pytest.approx(abs(r1 - r0), abs=1e-12)
        else:
            assert m1 - m0 == 1
            jump = (b1 - b0) - (r1 - r0)
            assert jump == pytest.approx(-1.0, abs=1e-12)
    assert vals[0][1] == 0 and vals[-1][1] == 1


# ---------------------------------------------------------------------------
# the paper's local identity on T^d, through the symbol oracle
#
# ``symbol_eta`` gives eta(0) = N + vol(S^(d-1)) h_d(e_d) from the symbol
# alone: N from the Bauer--Fike ball, h_d from an eps-circle.  It shares no
# code with the form side (``cs_form``, ``subtorus_pairing``) that the
# identity compares it with.  The form side's rounding grows as |A|^d, so
# the identity is asserted to 1e-10 max(1, R)^d, R = ``ball_radius``.


def _tolerance(*cs: Connection) -> float:
    return 1e-10 * max(1.0, *map(ball_radius, cs)) ** cs[0].dim


def _cs_pairing(c0: Connection, c1: Connection) -> complex:
    return subtorus_pairing(cs_form(c0, c1))


def _zero(dim: int, rank: int) -> Connection:
    return Connection.from_constant(dim, [np.zeros((rank, rank))] * dim)


def test_symbol_eta_on_the_circle_is_the_towers():
    # 20 circle connections of ranks 1-3, A_1 = S (2 pi i diag(mu) + U)
    # S^-1 with U strictly upper triangular (not normal) and Re mu spread
    # over (-3, 3), so the balls reach past the k = 0 mode
    rng = np.random.default_rng(22)
    windows = []
    for i in range(20):
        rank = 1 + i % 3
        mus = rng.uniform(-3, 3, rank) + 1j * rng.uniform(-0.5, 0.5, rank)
        upper = np.triu(rng_matrix(rng, rank), 1)
        basis = rng_matrix(rng, rank) + 2 * np.eye(rank)
        a1 = basis @ (np.diag(2j * math.pi * mus) + upper) @ np.linalg.inv(basis)
        c = Connection.from_constant(1, [a1])
        eta, _, axis = symbol_eta(c, 16)
        assert len(axis) == 0, i
        assert abs(eta - constant_eta(c).eta) <= 1e-10, i
        windows.append(ball_truncation(c, 16).cutoff)
    assert max(windows) > 2


@pytest.mark.parametrize("dim", [3, 5])
def test_symbol_eta_is_the_structural_zero_on_flat_tori(dim):
    # commuting A_j = S D_j S^-1 (not normal), scaled to a ball radius R:
    # every block is a sum of lines, whose eigenvalues come in pairs +-z,
    # so N = 0 and h_d = 0
    rng = np.random.default_rng(dim)
    for rank in (1, 2, 3):
        for radius in (0.7, 1.6):
            c = random_flat_commuting_connection(rng, dim, rank)
            c = Connection(c.a * (radius / ball_radius(c)))
            eta, count, axis = symbol_eta(c, 8)
            assert (count, len(axis)) == (0, 0), (rank, radius)
            assert abs(eta) <= 1e-10, (rank, radius)


@pytest.mark.parametrize(
    "dim, rank, scale",
    [(3, 2, 3.0), (3, 3, 3.0), (3, 3, 5.0), (5, 3, 3.0)],
)
def test_local_identity_on_curved_tori(dim, rank, scale):
    # eta - N = 2 copies <CS(0, c)>: the symbol's sphere integral against
    # the form side's Chern--Simons pairing, on curved (non-commuting,
    # non-unitary) constant connections
    copies = clifford_model(dim).copies
    counts = []
    for seed in range(3):
        c = curved_constant_connection(np.random.default_rng(seed), dim, rank, scale)
        eta, count, axis = symbol_eta(c, 8)
        assert len(axis) == 0, seed
        form = 2 * copies * _cs_pairing(_zero(dim, rank), c)
        assert abs(form) > 0.1, seed  # the identity has content
        assert abs(eta - count - form) <= _tolerance(c), seed
        counts.append(count)
    if scale == 5.0:
        assert counts == [4, 0, 0]  # the ball counts something


@pytest.mark.parametrize("dim", [3, 5])
def test_symbol_density_is_constant_on_the_sphere_and_of_degree_d(dim):
    rng = np.random.default_rng(40 + dim)
    c = curved_constant_connection(rng, dim, 3, 3.0)
    h = symbol_density(c)
    for _ in range(3):
        assert abs(symbol_density(c, rng.standard_normal(dim)) - h) <= 1e-10
    for t in (0.7, 1.9, -1.3):
        assert abs(symbol_density(Connection(c.a * t)) - t**dim * h) <= 1e-10


@pytest.mark.parametrize(
    "dim, rank, scale, seeds, sf",
    [
        (3, 3, 5.0, (1, 0), 2),
        (3, 3, 5.0, (0, 1), -2),
        (3, 2, 8.0, (0, 1), -4),
        (5, 3, 6.5, (3, 2), 4),
    ],
    ids=["t3_sf2", "t3_sf-2", "t3_sf-4", "t5_sf4"],
)
def test_variation_on_tori_is_the_spectral_flow_plus_the_cs_cocycle(
    dim, rank, scale, seeds, sf
):
    # Delta eta_bar = sf + copies <CS(c0, c1)>, sf from flow.spectral_flow.
    # The integer sides cancel (sf is half the change of the same ball
    # counts that eta reads), so what this adds to the local identity is
    # the Chern--Simons cocycle: CS(0, c1) - CS(0, c0) pairs as CS(c0, c1)
    c0, c1 = (
        curved_constant_connection(np.random.default_rng(s), dim, rank, scale)
        for s in seeds
    )
    (eta0, _, axis0), (eta1, _, axis1) = symbol_eta(c0, 8), symbol_eta(c1, 8)
    assert len(axis0) == len(axis1) == 0  # no kernel: eta_bar = eta / 2
    assert spectral_flow(c0, c1, 8) == sf
    copies = clifford_model(dim).copies
    residual = (eta1 - eta0) / 2 - sf - copies * _cs_pairing(c0, c1)
    assert abs(residual) <= _tolerance(c0, c1)


# ---------------------------------------------------------------------------
# the re/im split, Gilkey's variation and eta tilde on curved T^d, through
# the same oracle
#
# With no kernel, eta_bar = eta / 2, and the local identity gives, in C,
#     eta_bar(c1) - eta_bar(c0) = (N1 - N0)/2 + w <CS(c0, c1)>
# with the weight w = ``clifford_model(d).copies``, the spinor modules in
# the even forms (1 on the circle).  N1 - N0 is even (N counts copies of
# each value, and the ball's value count has the rank's parity on S^1), so
# Gilkey's variation holds mod Z.  Along r -> CS(hermitian part, A + (1 +
# i r)/2 omega), which is c at r = i, <CS(h, c)> = sum_i i^i p_i with p_i
# the pairings of ``cs_r_poly``'s coefficients, which are real: the even
# p_i give the real part and the odd ones the imaginary part.  That is the
# re/im split of ``verify.check_re_im_split``, with its signs, at weight w.
# The form side is reached as the checks reach it.

#: (dim, rank, scale, seed) of curved inputs on which a p_2 flip moves the
#: real part by 2 w |p_2| >= 0.1 mod Z
CURVED = [
    (3, 2, 3.0, 0), (3, 2, 3.0, 4), (3, 3, 3.0, 0), (3, 3, 3.0, 1),
    (5, 3, 2.5, 1), (5, 3, 2.5, 4),
]


@functools.cache
def _curved(dim, rank, scale, seed) -> tuple:
    """A curved input c, eta_bar(c) and eta_bar of its Hermitian part, and
    their eta - N, from ``symbol_eta``."""
    c = curved_constant_connection(np.random.default_rng(seed), dim, rank, scale)
    (eta, count, axis), (eta_h, count_h, axis_h) = (
        symbol_eta(x, 8) for x in (c, c.hermitian_part())
    )
    assert len(axis) == len(axis_h) == 0  # no kernel: eta_bar = eta / 2
    return c, eta / 2, eta_h / 2, eta - count, eta_h - count_h


def _weight(dim: int) -> int:
    return clifford_model(dim).copies


def _split_sums(c: Connection) -> tuple[list, complex, complex]:
    """The p_i, and their even and odd sums with the split's signs."""
    p = [subtorus_pairing(f) for f in cs_r_poly(c)]
    even = sum((-1) ** (i // 2) * q for i, q in enumerate(p) if i % 2 == 0)
    odd = sum((-1) ** ((i - 1) // 2) * q for i, q in enumerate(p) if i % 2 == 1)
    return p, even, odd


@pytest.mark.parametrize("dim, rank, scale, seed", CURVED)
def test_re_im_split_on_curved_tori(dim, rank, scale, seed):
    c, bar, bar_h, _, _ = _curved(dim, rank, scale, seed)
    w = _weight(dim)
    p, even, odd = _split_sums(c)
    assert circle_distance(2 * w * p[2].real) >= 0.1  # a p_2 flip shows
    assert abs(p[3]) >= 1e-3  # and a p_3 flip
    tol = _tolerance(c)
    assert residual_for(bar.real, bar_h + w * even, "mod-Z") <= tol
    assert residual_for(bar.imag, w * odd, "absolute") <= tol


@pytest.mark.parametrize(
    "dim, rank, scale, seeds", [(3, 2, 3.0, (0, 4)), (3, 3, 3.0, (0, 1)), (5, 3, 2.5, (1, 4))]
)
def test_gilkey_variation_on_curved_tori(dim, rank, scale, seeds):
    # between two curved connections, and from c's Hermitian part to c
    (c0, bar0, _, _, _), (c1, bar1, bar1_h, _, _) = (
        _curved(dim, rank, scale, s) for s in seeds
    )
    w = _weight(dim)
    for (a, bar_a), (b, bar_b) in [
        ((c0, bar0), (c1, bar1)),
        ((c1.hermitian_part(), bar1_h), (c1, bar1)),
    ]:
        rhs = w * _cs_pairing(a, b)
        assert residual_for(rhs, 0, "mod-Z") >= 0.01  # the identity has content
        assert residual_for(bar_b - bar_a, rhs, "mod-Z") <= _tolerance(a, b)


@pytest.mark.parametrize("dim, rank, scale, seed", CURVED)
def test_eta_tilde_imaginary_part_on_curved_tori(dim, rank, scale, seed):
    # Im eta_bar(c) = w Im <CS(hermitian part, c)>, eta tilde as the
    # eta_tilde_imaginary check computes it
    c, bar, _, _, _ = _curved(dim, rank, scale, seed)
    tilde = _weight(dim) * eta_tilde(c)
    assert abs(tilde.imag) >= 0.01
    assert abs(bar.imag - tilde.imag) <= _tolerance(c)


@pytest.mark.parametrize(
    "dim, rank, scale, seed", [(1, 2, 3.0, 1), (1, 1, 3.0, 4), *CURVED[::2]]
)
def test_the_weight_is_the_number_of_spinor_copies(dim, rank, scale, seed):
    # the integer-free variation (eta - N) / 2 from the Hermitian part to c
    # is w <CS(h, c)>, with w = copies = 2^((d - 1)/2): 1 on the circle,
    # where no circle check can see it, 2 on T^3 and 4 on T^5
    c, _, _, local, local_h = _curved(dim, rank, scale, seed)
    pairing = _cs_pairing(c.hermitian_part(), c)
    assert abs(pairing) >= 0.01
    assert _weight(dim) == 2 ** ((dim - 1) // 2)
    assert abs((local - local_h) / 2 / pairing - _weight(dim)) <= 1e-8


def test_symbol_eta_reads_no_form_algebra(monkeypatch):
    # the oracle must stay independent of the form side it is compared with
    c = curved_constant_connection(np.random.default_rng(0), 3, 2, 3.0)
    expected = symbol_eta(c, 8)[0]

    def refused(*args, **kwargs):
        raise AssertionError("the symbol oracle reached the form side")

    for name in ("wedge", "ext_d", "integrate", "mat_trace", "phi_normalize"):
        monkeypatch.setattr(TrigPolyForm, name, refused)
    monkeypatch.setattr(geometry, "cs_form", refused)
    assert symbol_eta(c, 8)[0] == expected

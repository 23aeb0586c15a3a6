"""Eta invariants: circle closed forms against an independent series
oracle, heat-smoothed estimates, and the imaginary-axis census."""

import math

import numpy as np
import pytest

from etacalc.eta import (
    _EPS_GRID,
    EtaValue,
    constant_eta,
    eta_bk,
    eta_heat_estimate,
    eta_s1_spectral,
    m_minus,
)
from etacalc.forms import TrigPolyForm
from etacalc.geometry import Connection, PreconditionError, subtorus_pairing
from etacalc.spectral import (
    ball_truncation,
    build_truncation,
    on_axis,
    sign_count,
    spectrum,
)

from helpers import (
    diagonal_connection_from_mus,
    gauged_t3_connection,
    near_axis_towers,
    random_mus,
    random_unitary_constant_connection,
    rng_matrix,
    sign_sum_eta_oracle,
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
    from scipy.special import erfc

    lam = spectrum(t).real
    lam = lam[~on_axis(lam)[0]]
    if lam.size and lam.min() < 0 < lam.max():
        window = min(-lam.min(), lam.max()) * (1 + 1e-12)
        lam = lam[np.abs(lam) <= window]
    roots = np.sqrt(np.asarray(_EPS_GRID))
    vals = [float(np.sum(np.sign(lam) * erfc(r * np.abs(lam)))) for r in roots]
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

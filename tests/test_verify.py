"""Identity harness: residual modes, report determinism, and every check
family against its independent closed-form or spectral oracle."""

import copy
import inspect
import json
import math
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from etacalc import verify
from etacalc.eta import EtaValue, constant_eta
from etacalc.geometry import Connection, PreconditionError, gauge_transform, linear_path
from etacalc.forms import TrigPolyForm
from etacalc.verify import (
    assemble_report,
    bk_phase_factor,
    check_bk_phase,
    check_cs_odd_chern_pairing,
    check_eta_tilde_imaginary,
    check_gauge_pumping,
    check_gilkey_variation,
    check_psi_constancy,
    check_re_im_split,
    check_variation_complex,
    circle_distance,
    eta_tilde,
    make_entry,
    psi_local,
    residual_for,
    standard_suite,
    trivial_line_eta,
)

from helpers import (
    diagonal_connection_from_mus,
    near_axis_towers,
    padded_ball,
    random_flat_commuting_connection,
    random_mus,
    random_unitary_constant_connection,
)

TWO_PI_I = 2j * math.pi


def diag_t3(mu_rows):
    """Diagonal flat connection on T^3 from per-direction tower shifts."""
    mats = [np.diag([TWO_PI_I * m for m in row]) for row in mu_rows]
    return Connection.from_constant(3, mats)


# ----------------------------------------------------------------------
# residual modes and report plumbing


def test_residual_modes():
    assert residual_for(1.5, 1.25, "absolute") == pytest.approx(0.25)
    # mod-Z: integer real gaps vanish, imaginary gaps never do
    assert residual_for(2.3 + 0.1j, 0.3 + 0.1j, "mod-Z") == pytest.approx(0.0)
    assert residual_for(2.3 + 0.1j, 0.3 - 0.1j, "mod-Z") == pytest.approx(0.2)
    assert residual_for(0.9, 0.0, "mod-Z") == pytest.approx(0.1)
    assert residual_for(3.0, 5.0, "integer") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        residual_for(0, 0, "fuzzy")
    assert circle_distance(-0.98) == pytest.approx(0.02)


def test_make_entry_pass_flag():
    good = make_entry("x", "id", 1.0, 1.0 + 1e-12, "absolute", 1e-9)
    assert good.passed and good.residual < 1e-9
    bad = make_entry("x", "id", 1.0, 1.1, "absolute", 1e-9)
    assert not bad.passed


def test_report_sorted_and_deterministic_json():
    e1 = make_entry("b_check", "later", 0.0, 0.0, "absolute", 1e-9)
    e2 = make_entry("a_check", "earlier", 1.0, 2.0, "absolute", 1e-9)
    rep = assemble_report([e1, e2], seed=5)
    assert [e.check_id for e in rep.entries] == ["a_check", "b_check"]
    assert not rep.all_passed
    assert rep.failed() == (rep.entries[1],) or rep.failed() == (
        rep.entries[0],
    )
    obj = json.loads(rep.to_json())
    assert obj["meta"] == {"schema_version": "1", "seed": 5}
    assert obj["entries"][0]["lhs"] == {"re": 1.0, "im": 0.0}
    assert rep.to_json() == assemble_report([e2, e1], seed=5).to_json()


def test_summary_lines_mark_failures():
    rep = assemble_report(
        [make_entry("only", "fails on purpose", 0.0, 1.0, "absolute", 1e-9)]
    )
    text = "\n".join(rep.summary_lines())
    assert "FAIL" in text and "1 FAILED" in text


# ----------------------------------------------------------------------
# transgression vs odd Chern pairing


def test_cs_pairing_check_unitary_trivial():
    rng = np.random.default_rng(40)
    # diagonal real tower shifts: flat and unitary, so both sides vanish
    c = diag_t3([rng.uniform(0.1, 0.9, size=2) for _ in range(3)])
    for e in check_cs_odd_chern_pairing(c, r_values=[1.0]):
        assert e.passed
        assert abs(e.lhs) < 1e-12 and abs(e.rhs) < 1e-12


def test_cs_pairing_check_s1_closed_form():
    c = Connection.from_constant(1, [np.array([[1.0 + 2.0j]])])
    (entry,) = check_cs_odd_chern_pairing(c, r_values=[0.5])
    assert entry.passed and entry.mode == "absolute"
    # both sides equal r Re(a) / (2 pi) in rank one
    assert entry.lhs == pytest.approx(0.5 * 1.0 / (2 * math.pi), abs=1e-12)


def test_cs_pairing_check_t3_all_subtori():
    rng = np.random.default_rng(41)
    c = diag_t3([random_mus(rng, 2) for _ in range(3)])
    entries = check_cs_odd_chern_pairing(c, r_values=[1.0])
    assert len(entries) == 4  # three circles and the full torus
    assert {e.check_id.split("J=")[1].rstrip("]") for e in entries} == {
        "1",
        "2",
        "3",
        "123",
    }
    assert all(e.passed for e in entries)


def test_cs_pairing_computes_each_odd_chern_form_once(monkeypatch):
    rng = np.random.default_rng(43)
    c = random_flat_commuting_connection(rng, 3, 2)
    calls = []
    original = Connection.chern_odd

    def counted(self, j):
        calls.append(j)
        return original(self, j)

    monkeypatch.setattr(Connection, "chern_odd", counted)
    entries = check_cs_odd_chern_pairing(c, r_values=(0.5, 1.0, 2.0))
    assert calls == [0, 1]
    assert len(entries) == 12 and all(e.passed for e in entries)
    # the same entries as one r at a time
    one_by_one = [
        e for r in (0.5, 1.0, 2.0) for e in check_cs_odd_chern_pairing(c, r_values=[r])
    ]
    assert entries == one_by_one


def test_cs_pairing_check_rejects_nonflat():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = TrigPolyForm.monomial(3, n, k=(1, 0, 0), I=(2,))
    a = a + TrigPolyForm.constant_one_form(
        3, [np.eye(2) * 0.3j, np.zeros((2, 2)), n.T * 0.2]
    )
    with pytest.raises(PreconditionError):
        check_cs_odd_chern_pairing(Connection(a), r_values=[1.0])


# ----------------------------------------------------------------------
# variation mod Z


def test_gilkey_check_equal_connections():
    c = diagonal_connection_from_mus([0.3 + 0.1j])
    e = check_gilkey_variation(c, c)
    assert e.passed and e.residual < 1e-14


def test_gilkey_check_unitary_pair_closed_form():
    c0 = diagonal_connection_from_mus([0.2])
    c1 = diagonal_connection_from_mus([0.45])
    e = check_gilkey_variation(c0, c1)
    assert e.passed and e.mode == "mod-Z"
    # transgression side is mu0 - mu1 on the nose
    assert e.rhs == pytest.approx(0.2 - 0.45, abs=1e-12)
    assert e.lhs == pytest.approx(e.rhs, abs=1e-12)


def test_gilkey_check_complex_pair():
    c0 = diagonal_connection_from_mus([0.3 + 0.1j])
    c1 = diagonal_connection_from_mus([0.6 - 0.3j])
    e = check_gilkey_variation(c0, c1)
    assert e.passed and e.residual < 1e-8


def test_gilkey_check_integer_slack_is_absorbed():
    # same towers, transgression differing by one: passes only mod Z
    c0 = diagonal_connection_from_mus([0.25])
    c1 = Connection.from_constant(1, [np.array([[TWO_PI_I * 1.25]])])
    e = check_gilkey_variation(c0, c1)
    assert e.passed
    assert abs(e.lhs - e.rhs) == pytest.approx(1.0, abs=1e-9)


def test_gilkey_check_nonnormal_pair():
    a0 = np.array([[TWO_PI_I * 0.3, 1.0], [0.0, TWO_PI_I * (0.7 - 0.2j)]])
    a1 = np.array([[TWO_PI_I * (0.45 + 0.1j), 0.0], [2.0, TWO_PI_I * 0.6]])
    e = check_gilkey_variation(
        Connection.from_constant(1, [a0]), Connection.from_constant(1, [a1])
    )
    assert e.passed and e.residual < 1e-8


def test_gilkey_residual_gauge_invariant():
    c0 = diagonal_connection_from_mus([0.3 + 0.1j, 0.55])
    c1 = diagonal_connection_from_mus([0.2 - 0.05j, 0.7 + 0.2j])
    base = check_gilkey_variation(c0, c1)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    rest = np.diag([0.0, 1.0]).astype(complex)
    u = TrigPolyForm.constant(1, rest) + TrigPolyForm.monomial(1, e11, k=(1,))
    u_inv = TrigPolyForm.constant(1, rest) + TrigPolyForm.monomial(
        1, e11, k=(-1,)
    )
    moved = check_gilkey_variation(
        gauge_transform(c0, u, u_inv), gauge_transform(c1, u, u_inv)
    )
    assert moved.residual == pytest.approx(base.residual, abs=1e-12)


def test_gilkey_check_rejects_higher_dim():
    rng = np.random.default_rng(42)
    c = random_unitary_constant_connection(rng, 3, 1)
    with pytest.raises(PreconditionError):
        check_gilkey_variation(c, c)


def test_gilkey_check_passes_just_off_the_axis():
    # the tower's value 2 pi (5e-10 + 0.2i) is 3 AXIS_TOL from the axis:
    # its eta and the ball's sign count both put it off the axis
    c0 = diagonal_connection_from_mus([5e-10 + 0.2j, 0.3 - 0.1j])
    c1 = diagonal_connection_from_mus([0.45 + 0.1j, 0.7 - 0.05j])
    assert check_gilkey_variation(c0, c1).passed
    assert all(e.passed for e in check_re_im_split(c0))
    assert check_variation_complex(lambda t: c1 if t else c0).passed


def test_mod_z_checks_refuse_axis_eigenvalues():
    # an eigenvalue on the axis changes eta by 1 as it leaves, which no
    # comparison mod Z absorbs: both checks refuse it at either endpoint;
    # a kernel tower is absorbed by the reduced eta and stays accepted
    other = diagonal_connection_from_mus([0.45 + 0.1j, 0.7 - 0.05j])
    refused = 0
    for mu, on in near_axis_towers():
        if not on:
            continue
        c = diagonal_connection_from_mus([mu, 0.3 - 0.1j])
        if mu.imag == 0:
            assert check_gilkey_variation(c, other).passed, mu
            assert all(e.passed for e in check_re_im_split(c)), mu
            continue
        for pair in ((c, other), (other, c)):
            with pytest.raises(PreconditionError, match="imaginary axis"):
                check_gilkey_variation(*pair)
        with pytest.raises(PreconditionError, match="imaginary axis"):
            check_re_im_split(c)
        refused += 1
    assert refused == 216


# ----------------------------------------------------------------------
# exact complex variation


def test_variation_complex_constant_path():
    c = diagonal_connection_from_mus([0.3 + 0.1j])
    e = check_variation_complex(lambda t: c)
    assert e.passed and e.residual < 1e-12 and e.mode == "absolute"


def test_variation_complex_single_crossing():
    # tower shift slides 0.25 -> 1.25: reduced eta is periodic, so the
    # transgression's -1 must be absorbed by spectral flow +1
    def path(t):
        return Connection.from_constant(
            1, [np.array([[TWO_PI_I * (0.25 + t)]])]
        )

    e = check_variation_complex(path)
    assert e.passed and e.residual < 1e-10
    assert e.lhs == pytest.approx(0.0, abs=1e-12)


def test_variation_complex_gauge_path_triple_balance():
    from etacalc.flow import gauge_path

    c = diagonal_connection_from_mus([0.3 + 0.07j, 0.55 - 0.1j])
    e = check_variation_complex(gauge_path(c, 2))
    assert e.passed and e.residual < 1e-10
    # eta difference vanishes; sf = +2 cancels the transgression -2
    assert e.lhs == pytest.approx(0.0, abs=1e-12)
    assert e.rhs == pytest.approx(0.0, abs=1e-10)


def test_variation_complex_no_crossing_random():
    rng = np.random.default_rng(43)
    m0s = [0.2 + 0.1j, 0.7 - 0.25j]
    m1s = [0.35 - 0.2j, 0.8 + 0.1j]

    def path(t):
        return diagonal_connection_from_mus(
            [a + t * (b - a) for a, b in zip(m0s, m1s)]
        )

    e = check_variation_complex(path)
    assert e.passed and e.residual < 1e-10


def test_variation_complex_rejects_axis_endpoint():
    # the tower 2 pi (0.5i + 0.3 t) has pi i on the axis at t = 0; the
    # refusal names it, at either endpoint
    def path(t):
        return Connection.from_constant(
            1, [np.array([[TWO_PI_I * (0.5j + 0.3 * t)]])]
        )

    message = (
        f"eigenvalue(s) on the imaginary axis: {[1j * math.pi]}; "
        "perturb the connection"
    )
    for route in (path, lambda t: path(1 - t)):
        with pytest.raises(PreconditionError) as info:
            check_variation_complex(route)
        assert str(info.value) == message


_OFF_AXIS = diagonal_connection_from_mus([0.3 + 0.1j])


@pytest.mark.parametrize("at_start", [True, False])
def test_variation_complex_names_the_kernel_modes_it_refuses(at_start):
    kernel = diagonal_connection_from_mus([1.0, -2.0, 0.4])
    ends = (kernel, _OFF_AXIS) if at_start else (_OFF_AXIS, kernel)
    with pytest.raises(PreconditionError) as info:
        check_variation_complex(lambda t: ends[int(t)])
    end = "start" if at_start else "end"
    assert str(info.value) == (
        f"2 kernel mode(s) at the {end} of the path; the complex variation "
        "formula needs axis-free endpoints"
    )


def test_gauge_pumping_check_exact_integers():
    c = diagonal_connection_from_mus([0.3 + 0.07j, 0.55 - 0.1j])
    for w in (-3, 2):
        e = check_gauge_pumping(c, w)
        assert e.mode == "integer" and e.tolerance == 0.0
        assert e.passed and e.residual == 0.0
        assert e.lhs == complex(w)


# ----------------------------------------------------------------------
# real/imaginary split


def test_re_im_split_unitary():
    c = diagonal_connection_from_mus([0.35])
    re_e, im_e = check_re_im_split(c)
    assert re_e.passed and im_e.passed
    assert abs(im_e.lhs) < 1e-14 and abs(im_e.rhs) < 1e-14


def test_re_im_split_rank1_closed_form():
    c = diagonal_connection_from_mus([0.3 + 0.07j])
    re_e, im_e = check_re_im_split(c)
    assert re_e.passed and im_e.passed
    assert im_e.lhs == pytest.approx(-0.07, abs=1e-12)
    assert im_e.rhs == pytest.approx(-0.07, abs=1e-10)
    # real part: hermitian part has towers at Re(mu)
    assert re_e.lhs == pytest.approx(0.5 - 0.3, abs=1e-12)


def test_re_im_split_rank2_diagonal():
    rng = np.random.default_rng(44)
    mus = random_mus(rng, 2)
    re_e, im_e = check_re_im_split(diagonal_connection_from_mus(mus))
    assert re_e.passed and im_e.passed
    assert im_e.lhs == pytest.approx(-sum(m.imag for m in mus), abs=1e-10)


# ----------------------------------------------------------------------
# phase function


def test_psi_zero_on_circle():
    c = diagonal_connection_from_mus([0.3 + 0.2j])
    assert psi_local(c) == 0


def test_psi_local_nonzero_oracle():
    # deformation defect equal to the Pauli matrices: the antisymmetrized
    # triple trace is 12i, giving psi = -1/(4 pi^2)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    c = Connection.from_constant(3, [-0.5 * s for s in (s1, s2, s3)])
    assert psi_local(c) == pytest.approx(-1.0 / (4 * math.pi**2), abs=1e-12)


def test_psi_zero_for_diagonal_t3():
    rng = np.random.default_rng(45)
    c = diag_t3([random_mus(rng, 2) for _ in range(3)])
    assert abs(psi_local(c)) < 1e-14


def test_psi_constancy_along_diagonal_path():
    rng = np.random.default_rng(46)
    rows0 = [random_mus(rng, 2) for _ in range(3)]
    rows1 = [random_mus(rng, 2) for _ in range(3)]

    def path(t):
        return diag_t3(
            [
                [a + t * (b - a) for a, b in zip(r0, r1)]
                for r0, r1 in zip(rows0, rows1)
            ]
        )

    e = check_psi_constancy(path)
    assert e.passed and e.residual < 1e-14


def test_psi_constancy_needs_two_samples():
    with pytest.raises(ValueError):
        check_psi_constancy(
            lambda t: diagonal_connection_from_mus([0.3]), n_samples=1
        )


# ----------------------------------------------------------------------
# hermitian-reference transgression


def test_eta_tilde_zero_for_unitary_self_reference():
    c = diagonal_connection_from_mus([0.4])
    assert eta_tilde(c) == 0


def test_eta_tilde_imaginary_matches_spectral_rank1():
    c = diagonal_connection_from_mus([0.3 + 0.07j])
    e = check_eta_tilde_imaginary(c)
    assert e.passed
    assert eta_tilde(c).imag == pytest.approx(-0.07, abs=1e-12)


def test_eta_tilde_imaginary_matches_spectral_rank2():
    rng = np.random.default_rng(47)
    c = diagonal_connection_from_mus(random_mus(rng, 2))
    assert check_eta_tilde_imaginary(c).passed


# ----------------------------------------------------------------------
# untwisted census and phase factor


def test_trivial_line_census_s1():
    e = trivial_line_eta(1)
    assert e.eta == 0 and e.kernel_dim == 1
    assert e.reduced == pytest.approx(0.5)


def test_trivial_line_census_t3():
    e = trivial_line_eta(3, cutoff=2)
    assert e.eta == 0 and e.kernel_dim == 4
    assert e.reduced == pytest.approx(2.0)


def _recording_counts(monkeypatch, *owners):
    """Record every truncation whose spectrum the owners' ``sign_count``
    counts."""
    from etacalc.spectral import sign_count

    solved = []

    def recording(t):
        solved.append(t)
        return sign_count(t)

    for owner in owners:
        monkeypatch.setattr(owner, "sign_count", recording)
    return solved


def test_census_window_is_the_zero_connections_ball(monkeypatch):
    # R = 0: at every cutoff the census solves the one mode k = 0, whose
    # 2^(dim-1) eigenvalues over the copies are the zeros
    solved = _recording_counts(monkeypatch, verify)
    for dim in (1, 3, 5):
        for cutoff in (1, 2, 8):
            solved.clear()
            e = trivial_line_eta(dim, cutoff)
            assert e.eta == 0 and e.kernel_dim == 2 ** (dim - 1)
            assert check_bk_phase(3, dim, cutoff).passed
            assert [t.modes.tolist() for t in solved] == [[[0] * dim]] * 2
            assert [t.size for t in solved] == [2 ** (dim - 1)] * 2


def test_census_of_the_shared_zero_form_is_that_of_zero_matrices(monkeypatch):
    # the census counts the shared empty form; the zero matrices reduce to
    # it, so their ball, its symbol and flag, the count and the axis values
    # are the same bits
    from etacalc.spectral import ball_truncation, sign_count

    solved = _recording_counts(monkeypatch, verify)
    for dim in (1, 3, 5):
        zeros = Connection.from_constant(dim, [np.zeros((1, 1), dtype=complex)] * dim)
        for cutoff in (1, 2, 3):
            solved.clear()
            e = trivial_line_eta(dim, cutoff)
            want = ball_truncation(zeros, cutoff)
            count, axis = sign_count(want)
            [t] = solved
            got_count, got_axis = sign_count(t)
            assert e.eta == complex(count) and e.kernel_dim == len(axis)
            assert got_count == count and got_axis.tobytes() == axis.tobytes()
            assert t.symbol.tobytes() == want.symbol.tobytes()
            assert t.modes.tobytes() == want.modes.tobytes()
            assert t.hermitian and want.hermitian


def test_census_ball_is_built_once_and_counted_on_every_call(monkeypatch):
    # the census ball is shared: with the memo cleared, ten censuses read R
    # once, for the one ball they build, and count that ball ten times
    from etacalc import spectral

    verify._census_ball.cache_clear()
    solved, radii = _recording_counts(monkeypatch, verify), []
    ball_radius = spectral.ball_radius

    def radius(c):
        radii.append(c)
        return ball_radius(c)

    monkeypatch.setattr(spectral, "ball_radius", radius)
    for _ in range(10):
        e = trivial_line_eta(3, 4)
        assert e.eta == 0 and e.kernel_dim == 4
    assert len(radii) == 1 and len(solved) == 10
    assert all(t is solved[0] for t in solved)


def test_census_ball_of_a_replaced_clifford_model_is_not_handed_out(monkeypatch):
    # the memo is keyed by the model ``clifford_model`` returns at call
    # time: a ball built on a model with its orientation flipped (the
    # mutation test's) is not the one counted once the original is back
    from etacalc import spectral
    from etacalc.spectral import ball_truncation

    verify._census_ball.cache_clear()
    orig = spectral.clifford_model

    def flipped(dim):
        model = copy.copy(orig(dim))  # the cached model stays intact
        model.beta = [*model.beta[:-1], -model.beta[-1]]
        return model

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "clifford_model", flipped)
        trivial_line_eta(3, 1)
    solved = _recording_counts(monkeypatch, verify)
    trivial_line_eta(3, 1)
    [t] = solved
    zeros = Connection.from_constant(3, [np.zeros((1, 1), dtype=complex)] * 3)
    want = ball_truncation(zeros, 1)
    assert t.symbol.tobytes() == want.symbol.tobytes()
    assert t.modes.tobytes() == want.modes.tobytes()
    assert t.hermitian == want.hermitian


def _solved_ball_radius(t) -> float:
    """||V||_2 / 2 pi for V the block of mode k = 0 of a constant truncation."""
    zero = t.modes.tolist().index([0] * t.dim)
    return float(np.linalg.norm(t.stack[zero], 2)) / (2 * math.pi)


def test_constant_checks_solve_only_their_balls(monkeypatch):
    # every truncation that the spectral flow or the census solves over the
    # suite is a constant input's Bauer--Fike ball, found by brute force
    # from its own k = 0 block, and together they hold under a quarter of
    # the eigenvalues of the cubes they were cut from.  Each ball reads R
    # once, for its cap and its rows, and is solved as its stack, without
    # the coupling-component labelling.  The census ball of each dimension
    # is built once and shared, so with the memo cleared the 24 flow
    # endpoints and the 2 census balls (dims 1 and 3) read R, and the 9
    # censuses count those 2.
    from etacalc import flow, spectral, verify

    verify._census_ball.cache_clear()
    solved = _recording_counts(monkeypatch, flow, verify)
    radii, labelled = [], []
    ball_radius = spectral.ball_radius
    components = spectral.OperatorTruncation._components.func

    def radius(c):
        radii.append(c)
        return ball_radius(c)

    def recorded_components(t):
        labelled.append(t)
        return components(t)

    recorded = cached_property(recorded_components)
    recorded.__set_name__(spectral.OperatorTruncation, "_components")
    monkeypatch.setattr(spectral, "ball_radius", radius)
    monkeypatch.setattr(spectral.OperatorTruncation, "_components", recorded)
    for seed in range(3):
        standard_suite(seed)
    assert len(solved) == 33 and len(radii) == 26
    assert len({id(t) for t in solved}) == 26
    assert not any(t.couplings for t in solved) and not labelled
    for t in solved:
        assert t.modes.tolist() == padded_ball(t.dim, _solved_ball_radius(t))
    cubes = sum(t.size // len(t.modes) * (2 * t.cutoff + 1) ** t.dim for t in solved)
    assert 4 * sum(t.size for t in solved) < cubes


def test_bk_phase_factor_values():
    census = EtaValue(eta=0j, kernel_dim=1)
    assert bk_phase_factor(0, census) == 1
    assert bk_phase_factor(1, census) == pytest.approx(1j, abs=1e-15)
    assert bk_phase_factor(4, census) == pytest.approx(1.0, abs=1e-15)
    assert bk_phase_factor(3, EtaValue(eta=0j, kernel_dim=0)) == 1


def test_bk_phase_check_both_dims():
    for rank, dim in ((1, 1), (3, 1), (2, 3)):
        e = check_bk_phase(rank, dim=dim, cutoff=2)
        assert e.passed
        assert abs(abs(e.lhs) - 1.0) < 1e-12


# ----------------------------------------------------------------------
# the standard randomized suite


def test_standard_suite_passes_and_repeats():
    rep1 = standard_suite(seed=7)
    rep2 = standard_suite(seed=7)
    assert rep1.all_passed
    assert rep1.to_json() == rep2.to_json()
    ids = [e.check_id for e in rep1.entries]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert json.loads(rep1.to_json())["meta"]["seed"] == 7


def test_standard_suite_other_seed_passes():
    rep = standard_suite(seed=12345)
    assert rep.all_passed
    assert rep.meta["seed"] == 12345


# (check id, mode, tolerance) of every suite entry, in report order
SUITE_SHAPE = [
    ("bk_phase[rank=1,dim=1]", "absolute", 1e-12),
    ("bk_phase[rank=2,dim=3]", "absolute", 1e-12),
    ("bk_phase[rank=3,dim=1]", "absolute", 1e-12),
    ("cs_odd_chern_pairing.s1[r=0.5,J=1]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=0.5,J=123]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=0.5,J=1]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=0.5,J=2]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=0.5,J=3]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=1,J=123]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=1,J=1]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=1,J=2]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=1,J=3]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=2,J=123]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=2,J=1]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=2,J=2]", "absolute", 1e-9),
    ("cs_odd_chern_pairing.t3[r=2,J=3]", "absolute", 1e-9),
    ("eta_tilde_imaginary[rank1]", "absolute", 1e-8),
    ("eta_tilde_imaginary[rank2]", "absolute", 1e-8),
    ("gauge_pumping[w=2]", "integer", 0.0),
    ("gilkey_variation[complex]", "mod-Z", 1e-6),
    ("gilkey_variation[random-rank2]", "mod-Z", 1e-6),
    ("gilkey_variation[unitary]", "mod-Z", 1e-6),
    ("psi_constancy[circle]", "absolute", 1e-9),
    ("psi_constancy[t3-diagonal]", "absolute", 1e-9),
    ("re_im_split[rank1][im]", "absolute", 1e-8),
    ("re_im_split[rank1][re]", "mod-Z", 1e-6),
    ("re_im_split[rank2][im]", "absolute", 1e-8),
    ("re_im_split[rank2][re]", "mod-Z", 1e-6),
    ("variation_complex[crossing]", "absolute", 1e-8),
    ("variation_complex[gauge-w2]", "absolute", 1e-8),
    ("variation_complex[random]", "absolute", 1e-8),
]


def test_standard_suite_shape():
    # no computed value enters the table: a drift of a label or of a
    # tolerance fails it, numeric churn does not
    entries = standard_suite(seed=0).entries
    assert [(e.check_id, e.mode, e.tolerance) for e in entries] == SUITE_SHAPE


def test_suite_calls_each_check_through_the_module_at_call_time(monkeypatch):
    # the registry looks each check up in verify when it runs, so a patched
    # (or traced) check is the one the suite calls
    plain = standard_suite(0).to_json()
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in [n for n in vars(verify) if n.startswith("check_")]:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    assert standard_suite(0).to_json() == plain
    assert calls == {
        "check_cs_odd_chern_pairing": 2,
        "check_gilkey_variation": 3,
        "check_variation_complex": 3,
        "check_gauge_pumping": 1,
        "check_re_im_split": 2,
        "check_psi_constancy": 2,
        "check_eta_tilde_imaginary": 2,
        "check_bk_phase": 3,
    }


def _suite_path_ends(seed: int) -> dict:
    """The end of each suite path, as connections: the drawn ones replayed
    from ``seed`` in the order ``verify._suite_experiments`` draws them,
    skipping the draws that make no path, and the crossing row's fixed
    end.  The gauge row's end is the gauge transform, not a draw."""
    rng = np.random.default_rng(seed)
    for _ in range(5):  # the T^3 pairing's three directions, the Gilkey pair
        verify._suite_mus(rng, 2)
    banded = [verify._banded_mus(rng, 2) for _ in range(2)]
    verify._suite_mus(rng, 2)  # the rank-2 re/im split
    circle = [verify._suite_mus(rng, 2) for _ in range(2)]
    t3 = [[verify._suite_mus(rng, 2) for _ in range(3)] for _ in range(2)]
    return {
        "variation_complex[crossing]": verify._diagonal([1.25]),
        "variation_complex[random]": verify._diagonal(banded[1]),
        "psi_constancy[circle]": verify._diagonal(circle[1]),
        "psi_constancy[t3-diagonal]": verify._diagonal(*t3[1]),
    }


def _bits(c: Connection) -> tuple:
    return c.a._keys, c.a._mats.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_every_suite_path_is_the_linear_path_to_its_drawn_end(seed):
    # a suite path is what a scenario's path key builds: geometry.linear_path
    # between two connections, the gauge row's included (flow.gauge_path is
    # a linear_path), so its end is the drawn connection itself, bit for
    # bit, and not a tower-shift interpolation evaluated at t = 1
    ends = _suite_path_ends(seed)
    n_samples = inspect.signature(check_psi_constancy).parameters["n_samples"].default
    paths = {
        x.label: x.args["path"]
        for _, x in verify._suite_experiments(np.random.default_rng(seed))
        if "path" in x.args
    }
    assert sorted(paths) == sorted([*ends, "variation_complex[gauge-w2]"])
    for label, path in paths.items():
        if label in ends:
            assert _bits(path(1.0)) == _bits(ends[label]), label
        line = linear_path(path(0.0), path(1.0))
        for t in np.linspace(0.0, 1.0, n_samples):
            assert _bits(path(float(t))) == _bits(line(float(t))), (label, t)


def test_check_id_prefixes_every_entry_id():
    # each check's default check_id is its family name, and a given one
    # replaces that prefix and nothing else
    c0 = diagonal_connection_from_mus([0.3 + 0.07j, 0.55 - 0.1j])
    c1 = diagonal_connection_from_mus([0.35 + 0.05j, 0.6 - 0.1j])
    path = lambda t: diagonal_connection_from_mus([0.3 + 0.1 * t, 0.6])
    runs = {
        "cs_odd_chern_pairing": lambda **kw: check_cs_odd_chern_pairing(c0, **kw),
        "gilkey_variation": lambda **kw: [check_gilkey_variation(c0, c1, **kw)],
        "variation_complex": lambda **kw: [check_variation_complex(path, **kw)],
        "gauge_pumping": lambda **kw: [check_gauge_pumping(c0, 1, **kw)],
        "re_im_split": lambda **kw: check_re_im_split(c0, **kw),
        "psi_constancy": lambda **kw: [check_psi_constancy(path, **kw)],
        "eta_tilde_imaginary": lambda **kw: [check_eta_tilde_imaginary(c0, **kw)],
        "bk_phase": lambda **kw: [check_bk_phase(2, dim=3, **kw)],
    }
    for family, run in runs.items():
        ids = [e.check_id for e in run()]
        assert ids and all(i.startswith(family) for i in ids), family
        renamed = [e.check_id for e in run(check_id="x")]
        assert renamed == ["x" + i[len(family):] for i in ids], family
    assert [e.check_id for e in runs["gauge_pumping"]()] == ["gauge_pumping[w=1]"]
    assert [e.check_id for e in runs["bk_phase"]()] == ["bk_phase[rank=2,dim=3]"]

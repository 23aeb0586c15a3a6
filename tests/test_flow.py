"""Spectral flow between two connections as an endpoint inertia count
(crossing calibration, the window rule, gauge-path winding, cutoff growth)
and the gauge path itself."""

import itertools
import math

import numpy as np
import pytest

from etacalc import flow, spectral, verify
from etacalc.flow import CutoffInstabilityError, gauge_path, spectral_flow
from etacalc.forms import TrigPolyForm
from etacalc.geometry import Connection, PreconditionError, _gauge_form
from etacalc.spectral import (
    AXIS_TOL,
    ball_radius,
    ball_truncation,
    build_truncation,
    clifford_model,
    sign_count,
)

from helpers import (
    curved_constant_connection,
    diagonal_connection_from_mus,
    same_stored_terms,
)

TWO_PI_I = 2j * math.pi


def _cube_flow(c0: Connection, c1: Connection, cutoff: int) -> int:
    """The flow counted on the two cubes {|k_j| <= cutoff}."""
    return flow._flow(build_truncation(c0, cutoff), build_truncation(c1, cutoff))


def test_constant_path_has_constant_tracks_and_zero_flow():
    c = diagonal_connection_from_mus([1.5 + 0.2j, -0.7, 2.3 - 1.0j])
    assert spectral_flow(c, c, 8) == 0


def test_single_upward_crossing_is_plus_one():
    # classical sign convention: Re < 0 -> Re >= 0 counts +1 (the choice
    # forced by the complex variation formula; see flow module docstring);
    # the tower 2 pi (n + mu) with n = -1 crosses as mu goes 0.3 -> 1.3
    c0 = diagonal_connection_from_mus([0.3 + 0.2j])
    c1 = diagonal_connection_from_mus([1.3 + 0.2j])
    assert spectral_flow(c0, c1, 8) == 1


def test_single_downward_crossing_is_minus_one():
    c0 = diagonal_connection_from_mus([1.3 + 0.2j])
    c1 = diagonal_connection_from_mus([0.3 + 0.2j])
    assert spectral_flow(c0, c1, 8) == -1


def test_endpoint_on_axis_is_rejected():
    # Re mu = 0 puts the n = 0 eigenvalue 2 pi mu on the imaginary axis
    on_axis = diagonal_connection_from_mus([0.5j])
    off_axis = diagonal_connection_from_mus([0.3 + 0.5j])
    with pytest.raises(PreconditionError, match="start of path"):
        spectral_flow(on_axis, off_axis, 8)
    with pytest.raises(PreconditionError, match="end of path"):
        spectral_flow(off_axis, on_axis, 8)


def test_endpoint_sizes_must_agree():
    # a finite-dimensional path keeps its dimension; endpoints on different
    # bundles would shift the inertia count without any crossing
    c = diagonal_connection_from_mus([0.3])
    for other in (
        diagonal_connection_from_mus([0.3, 0.6]),
        Connection.from_constant(3, [np.zeros((1, 1))] * 3),
    ):
        with pytest.raises(PreconditionError, match="different bundles"):
            spectral_flow(c, other, 8)


def test_gauge_path_endpoints_are_gauge_related():
    c = diagonal_connection_from_mus([0.3])
    assert gauge_path(c, 2)(0.0).a.allclose(c.a)
    end = gauge_path(c, 2)(1.0)
    assert end.is_flat()
    (a1,) = np.linalg.eigvals(end.a.coefficient((0,), (1,)))
    assert a1 / (2j * math.pi) == pytest.approx(0.3 + 2, abs=1e-12)
    # w = 0 gives the constant path
    assert gauge_path(c, 0)(0.7).a.allclose(c.a)


def test_gauge_path_rejects_higher_tori():
    c3 = Connection.from_constant(3, [np.zeros((1, 1))] * 3)
    with pytest.raises(PreconditionError):
        gauge_path(c3, 1)


@pytest.mark.parametrize("w", [-1, 2])
def test_gauge_path_points_are_the_pointwise_formula(w):
    # the segment to the gauged endpoint gives each point's stored terms
    # exactly as (1 - t) A + t (u^-1 A u + u^-1 du) does
    c = diagonal_connection_from_mus([0.3 + 0.1j, 0.6])
    e11, rest = np.diag([1.0 + 0j, 0.0]), np.diag([0j, 1.0])
    u, u_inv = (
        TrigPolyForm.constant(1, rest) + TrigPolyForm.monomial(1, e11, k=(s * w,))
        for s in (1, -1)
    )
    gauged = _gauge_form(c.a, u, u_inv)
    path = gauge_path(c, w)
    for t in (0.0, 0.3, 1.0):
        assert same_stored_terms(path(t).a, c.a * (1 - t) + gauged * t), t


def test_gauge_path_transforms_once_per_path(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _gauge_form(*args)

    monkeypatch.setattr(flow, "_gauge_form", counted)
    c = diagonal_connection_from_mus([0.3, 0.55 - 0.1j])
    assert verify.check_psi_constancy(gauge_path(c, 1), n_samples=9).passed
    assert len(calls) == 1


def test_gauge_winding_pumps_flow_with_linear_tracks():
    c = diagonal_connection_from_mus([0.3])
    path = gauge_path(c, 2)
    assert spectral_flow(path(0.0), path(1.0), 10) == 2
    # every tower moves affinely in t, 2 pi (n + mu + w t): on a diagonal
    # connection the path is the constant one with mu shifted by w t
    for t in (0.0, 0.25, 0.5, 0.8, 1.0):
        assert path(t).a.allclose(
            diagonal_connection_from_mus([0.3 + 2 * t]).a, 1e-12
        )
    path = gauge_path(diagonal_connection_from_mus([0.3, 0.6 - 0.2j]), -1)
    for t in (0.1, 0.5, 0.9):
        assert path(t).a.allclose(
            diagonal_connection_from_mus([0.3 - t, 0.6 - 0.2j]).a, 1e-12
        )


def test_gauge_winding_negative():
    c = diagonal_connection_from_mus([0.3])
    path = gauge_path(c, -3)
    assert spectral_flow(path(0.0), path(1.0), 8) == -3


def test_gauge_path_dense_nonnormal_triangular():
    # upper-triangular constant part: the operator path stays triangular,
    # so the exact spectrum is the union of two scalar towers (one pumped,
    # one static complex) while the Galerkin matrix is genuinely coupled
    a = np.array([[2j * math.pi * 0.3, 0.1],
                  [0.0, 2j * math.pi * (0.62 + 0.1j)]])
    c = Connection.from_constant(1, [a])
    path = gauge_path(c, 1)
    end = path(1.0)
    assert not end.is_constant()
    assert spectral_flow(path(0.0), end, 6) == 1


def test_gauge_path_self_adjoint_avoided_crossing():
    a = np.array([[2j * math.pi * 0.3, 0.1],
                  [-0.1, 2j * math.pi * 0.55]])
    c = Connection.from_constant(1, [a])
    path = gauge_path(c, 1)
    assert spectral_flow(path(0.0), path(1.0), 6) == 1


def test_classical_two_by_two_crossing_family():
    # unitary circle connections A(t) = 2 pi i H(t) with the Hermitian
    # family H(t) = [[t - 1/2, 0.3], [0.3, t - 3/2]]: each eigenvalue
    # lambda(t) = t - 1 +- sqrt(1/4 + 0.09) of H carries the tower
    # 2 pi (n + lambda), and the upper and lower towers each cross the axis
    # once upward; a brute-force signed-crossing count on a fine grid agrees
    def h(t):
        return np.array([[t - 0.5, 0.3], [0.3, t - 1.5]])

    def c(t):
        return Connection.from_constant(1, [TWO_PI_I * h(t)])

    sf = spectral_flow(c(0.0), c(1.0), 8)
    assert sf == 2
    lam = np.array([np.linalg.eigvalsh(h(t)) for t in np.linspace(0, 1, 2001)])
    towers = (lam[:, :, None] + np.arange(-4, 5)).reshape(len(lam), -1)
    up = (towers[:-1] < 0) & (towers[1:] >= 0)
    down = (towers[:-1] >= 0) & (towers[1:] < 0)
    assert sf == int(np.sum(up) - np.sum(down))


def test_flow_stable_under_cutoff_growth():
    # coupled endpoints: the count at growing windows, not just K and K + 1
    c = Connection.from_constant(
        1, [np.array([[TWO_PI_I * 0.3, 0.1], [0.0, TWO_PI_I * 0.6]])]
    )
    path = gauge_path(c, 1)
    c0, c1 = path(0.0), path(1.0)
    assert not c1.is_constant()
    assert [_cube_flow(c0, c1, n) for n in (6, 9, 12)] == [1, 1, 1]


def test_spectral_flow_builds_each_constant_endpoint_once(monkeypatch):
    # A constant pair solves its two Bauer--Fike balls once each, start
    # first, reading one R per ball for its cap and its rows; a pair with
    # couplings solves its cubes at cutoff and cutoff + 1 and compares the
    # two counts.  Either flow is that of equal cubes.
    a = TWO_PI_I * np.array([[0.3 + 0.07j, 0.1], [0.05, 0.55 - 0.1j]])
    c = Connection.from_constant(1, [a])
    mus = diagonal_connection_from_mus
    d = mus([0.3 + 0.07j, 0.55 - 0.1j])
    cubes = [(8, 17), (8, 17), (9, 19), (9, 19)]  # (cutoff, modes)
    cases = [  # (start, end, the modes of each ball or the cubes solved, sf)
        (mus([0.25, 0.6 - 0.1j]), mus([1.25, 0.7 + 0.2j]), [[0], [-1, 0, 1]], 1),
        (d, gauge_path(d, 2)(1.0), [[0], [-2, -1, 0, 1, 2]], 2),
        (c, gauge_path(c, 1)(1.0), cubes, 1),
        (gauge_path(c, 1)(1.0), gauge_path(c, 2)(1.0), cubes, 1),
        (gauge_path(c, -1)(1.0), gauge_path(c, 1)(1.0), cubes, 2),
    ]
    solved, radii = [], []

    def counted(t):
        solved.append(t)
        return sign_count(t)

    def radius(c):
        radii.append(c)
        return ball_radius(c)

    monkeypatch.setattr(flow, "sign_count", counted)
    monkeypatch.setattr(spectral, "ball_radius", radius)
    for c0, c1, windows, sf in cases:
        solved.clear()
        radii.clear()
        assert spectral_flow(c0, c1, 8) == sf
        if c0.is_constant() and c1.is_constant():
            assert [t.modes.ravel().tolist() for t in solved] == windows
            assert len(radii) == 2 and radii[0] is c0 and radii[1] is c1
        else:
            assert sorted((t.cutoff, len(t.modes)) for t in solved) == windows
        for k in (8, 9):
            assert _cube_flow(c0, c1, k) == sf


def test_ball_past_the_cutoff_is_refused_before_assembly(monkeypatch):
    # R = 2.5 on the circle: window K = 3.  At cutoff 2 the ball is refused
    # naming cutoff 3 once R is read off the frequency-0 symbol, before
    # the window's symbol is built; at cutoff 3 that symbol is built for K
    # = 3, and the stack waits for a solve.  A flow names the window of the
    # first ball refused, start then end, not the larger one.
    built = []
    symbol = spectral._symbol

    def counted(c, reach):
        built.append(reach)
        return symbol(c, reach)

    monkeypatch.setattr(spectral, "_symbol", counted)
    wide = diagonal_connection_from_mus([2.5, 0.3])
    with pytest.raises(CutoffInstabilityError, match="needs cutoff 3, not 2"):
        ball_truncation(wide, 2)
    assert built == [0]
    t = ball_truncation(wide, 3)
    assert t.cutoff == 3 and built == [0, 0, 3] and "stack" not in vars(t)
    narrow, wider = (diagonal_connection_from_mus([mu, 0.3]) for mu in (0.6, 4.5))
    for c0, c1, window in ((wider, wide, 5), (wide, wider, 3), (narrow, wider, 5)):
        built.clear()
        with pytest.raises(CutoffInstabilityError, match=f"needs cutoff {window}, not 2"):
            spectral_flow(c0, c1, 2)
        assert built[-1] == 0 and window not in built


def test_cutoff_below_one_is_an_invalid_argument_on_every_route():
    # a cutoff below 1 is refused as a bad argument (ValueError), never as
    # a window past the cutoff (CutoffInstabilityError, exit 3), whether
    # the endpoints are constant (balls) or coupled (cubes)
    a = np.array([[TWO_PI_I * 0.3, 0.1], [0.0, TWO_PI_I * 0.6]])
    constant = Connection.from_constant(1, [a])
    coupled = gauge_path(constant, 1)(0.5)
    assert not coupled.is_constant()
    calls = [
        lambda: ball_truncation(constant, 0),
        lambda: build_truncation(constant, 0),
        lambda: spectral_flow(constant, constant, 0),
        lambda: spectral_flow(coupled, coupled, 0),
        lambda: verify.trivial_line_eta(3, 0),
        lambda: verify.check_bk_phase(1, cutoff=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            call()


def test_ball_pad_refuses_an_axis_eigenvalue_just_past_the_radius():
    # mu = -1 + 1e-11: R = |mu| lies just below 1, and the mode k = 1 has
    # the eigenvalue 2 pi (1 + mu) = 2 pi 1e-11, within AXIS_TOL of the axis.
    # The pad AXIS_TOL / 2 pi puts k = +-1 in the ball, so the endpoint is
    # refused as the cube at K = 1 refuses it; without the pad the ball is
    # k = 0 alone and the flow would read 1.
    near = diagonal_connection_from_mus([-1 + 1e-11])
    assert ball_radius(near) < 1
    assert ball_truncation(near, 1).modes.ravel().tolist() == [-1, 0, 1]
    with pytest.raises(PreconditionError, match="start of path"):
        spectral_flow(near, diagonal_connection_from_mus([0.3]), 8)
    with pytest.raises(PreconditionError, match="start of path"):
        _cube_flow(near, diagonal_connection_from_mus([0.3]), 1)


def _random_constant(rng, dim, rank, shift=0):
    mats = [
        np.pi * 1j * (rng.standard_normal((rank, rank))
                      + 1j * rng.standard_normal((rank, rank)))
        for _ in range(dim)
    ]
    mats[0] += TWO_PI_I * shift * np.eye(rank)
    return Connection.from_constant(dim, mats)


def test_ball_window_holds_the_whole_spectral_flow():
    # constant non-normal circle pairs, their towers shifted by up to three
    # modes so that narrow windows miss crossings, and non-commuting T^3
    # pairs: the flow read at the window of the balls is that of wider ones
    rng = np.random.default_rng(61)

    def draw(dim, rank):
        shift = rng.integers(-3, 4) if dim == 1 else 0
        return _random_constant(rng, dim, rank, shift)

    sfs = []
    for dim, rank in [(1, 2), (1, 3), (3, 2)] * 4:
        c0, c1 = draw(dim, rank), draw(dim, rank)
        sf = spectral_flow(c0, c1, 8)
        ball = math.ceil(max(ball_radius(c0), ball_radius(c1)))
        for k in (ball + 1, ball + 2):
            assert _cube_flow(c0, c1, k) == sf
        sfs.append(sf)
    assert any(sfs)


def _ball_count(c: Connection) -> int:
    """N(c): sum of sign Re over the eigenvalues of the one-copy blocks
    M(k) = sum_j beta_j (x) (2 pi i k_j + A_j) with |k| <= R, R the radius
    ||V||_2 / 2 pi of V = sum_j beta_j (x) A_j, each block by eigvals."""
    beta = clifford_model(c.dim).beta
    a = [c.a.coefficient((0,) * c.dim, (j + 1,)) for j in range(c.dim)]
    eye = np.eye(c.rank)
    v = sum(np.kron(b, aj) for b, aj in zip(beta, a))
    radius = np.linalg.norm(v, 2) / (2 * math.pi)
    reach = math.floor(radius)
    total = 0
    for k in itertools.product(range(-reach, reach + 1), repeat=c.dim):
        if np.linalg.norm(k) > radius:
            continue
        block = sum(
            np.kron(b, TWO_PI_I * kj * eye + aj) for b, kj, aj in zip(beta, k, a)
        )
        total += int(np.sum(np.sign(np.linalg.eigvals(block).real)))
    return total


def test_flow_is_half_the_change_of_the_ball_count():
    # outside its ball each mode has the balanced inertia of the free
    # operator, so on any window holding both balls #{Re >= 0} is
    # (size + copies N(c)) / 2, and sf = copies (N(c1) - N(c0)) / 2
    rng = np.random.default_rng(7)
    nonzero = set()
    for dim, rank in [(1, 2), (1, 3), (3, 2), (3, 3)] * 12:
        copies = 2 ** (dim // 2)
        scale = rng.uniform(0.3, 1.2) if dim == 3 else 1.0
        shift = rng.integers(-2, 3) if dim == 1 else 0
        c0 = _random_constant(rng, dim, rank, shift)
        c1 = _random_constant(rng, dim, rank)
        c0, c1 = (Connection(c.a * scale) for c in (c0, c1))
        sf = spectral_flow(c0, c1, 8)
        assert 2 * sf == copies * (_ball_count(c1) - _ball_count(c0))
        if sf:
            nonzero.add(dim)
    assert nonzero == {1, 3}


def _cube_cut_count(c: Connection) -> int:
    """N(c) on one copy from the cube at K = max(1, ceil(R)): sign Re over
    the eigenvalues of its rows in the padded ball, each block by eigvals."""
    radius = ball_radius(c)
    cube = build_truncation(c, max(1, math.ceil(radius)))
    keep = np.linalg.norm(cube.modes, axis=1) <= radius + AXIS_TOL / (2 * math.pi)
    return int(np.sum(np.sign(np.linalg.eigvals(cube.stack[keep]).real)))


def test_t5_flow_is_half_the_change_of_the_cube_cut_count():
    # two curved rank-3 T^5 inputs at R = 2.61 and 2.68, balls of 573 and
    # 893 modes enumerated from R, against the rows cut from their cubes
    # at K = 3 (16807 modes each)
    c0, c1 = (
        curved_constant_connection(np.random.default_rng(seed), 5, 3, 6.5)
        for seed in (3, 2)
    )
    assert [len(ball_truncation(c, 3).modes) for c in (c0, c1)] == [573, 893]
    counts = [_cube_cut_count(c) for c in (c0, c1)]
    assert counts == [0, 2]
    copies = clifford_model(5).copies
    assert 2 * spectral_flow(c0, c1, 3) == copies * (counts[1] - counts[0])

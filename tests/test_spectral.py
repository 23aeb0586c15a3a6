"""Clifford model and signature-operator truncations: algebraic relations,
the one-spinor-copy reduction against the full even-part operator, circle
calibration, block structure, and guard rails."""

import csv
import io
import math
import tracemalloc
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial import cKDTree

from etacalc import spectral
from etacalc.eta import eta_heat_estimate
from etacalc.flow import gauge_path
from etacalc.forms import TrigPolyForm
from etacalc.geometry import Connection, PreconditionError
from etacalc.spectral import (
    AXIS_TOL,
    MemoryGuardError,
    ball_radius,
    build_truncation,
    clifford_model,
    export_spectrum_csv,
    sign_count,
    spectrum,
    spectrum_rows,
)

from helpers import (
    build_sig_mode,
    coupled_dense_oracle,
    curved_constant_connection,
    diagonal_connection_from_mus,
    exterior_model,
    gauged_t3_connection,
    mode_components,
    padded_ball,
    random_flat_commuting_connection,
    random_mus,
    random_unitary_constant_connection,
    rng_matrix,
    similar_to_unitary,
)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# Clifford algebra relations of the exterior-algebra reference


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_clifford_anticommutators(dim):
    model = exterior_model(dim)
    n_states = 1 << dim
    for i in range(dim):
        for j in range(dim):
            anti = model.c[i] @ model.c[j] + model.c[j] @ model.c[i]
            expect = -2.0 * np.eye(n_states) if i == j else np.zeros((n_states,) * 2)
            assert np.allclose(anti, expect, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_clifford_skew_adjoint(dim):
    model = exterior_model(dim)
    for cj in model.c:
        assert np.allclose(cj.conj().T, -cj, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_gamma_squares_to_identity_and_hermitian(dim):
    model = exterior_model(dim)
    n_states = 1 << dim
    assert np.allclose(model.gamma @ model.gamma, np.eye(n_states), atol=1e-13)
    assert np.allclose(model.gamma, model.gamma.conj().T, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_b_matrices_anticommute_and_square(dim):
    model = exterior_model(dim)
    m = model.even_dim
    assert m == 1 << (dim - 1)
    for i in range(dim):
        assert np.allclose(model.b[i].conj().T, -model.b[i], atol=1e-13)
        for j in range(dim):
            anti = model.b[i] @ model.b[j] + model.b[j] @ model.b[i]
            expect = -2.0 * np.eye(m) if i == j else np.zeros((m, m))
            assert np.allclose(anti, expect, atol=1e-13)


def test_circle_b1_is_minus_i():
    assert np.allclose(exterior_model(1).b[0], np.array([[-1j]]))


# ---------------------------------------------------------------------------
# one irreducible spinor copy: beta against the full even-part B


def _right_action(dim):
    """r_j = e_j wedge + contraction on Lambda(C^d), bitmask basis; it
    anticommutes with every c(e_k)."""
    n_states = 1 << dim
    out = []
    for j in range(dim):
        bit = 1 << j
        mat = np.zeros((n_states, n_states))
        for s in range(n_states):
            sign = (-1) ** bin(s & (bit - 1)).count("1")
            mat[s ^ bit, s] = sign
        out.append(mat)
    return out


def _monomials(gens):
    """The products gens[i_1] ... gens[i_p] over all i_1 < ... < i_p."""
    eye = np.eye(len(gens[0]), dtype=complex)
    return [
        reduce(np.matmul, [gens[i] for i in idx], eye)
        for p in range(len(gens) + 1)
        for idx in combinations(range(len(gens)), p)
    ]


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_beta_is_one_irreducible_copy_of_b(dim):
    model, full = clifford_model(dim), exterior_model(dim)
    n = (dim - 1) // 2
    size = 1 << n
    assert model.copies == size and full.even_dim == size * size
    eye = np.eye(size)
    for i in range(dim):
        assert model.beta[i].shape == (size, size)
        for j in range(dim):
            anti = model.beta[i] @ model.beta[j] + model.beta[j] @ model.beta[i]
            assert np.array_equal(anti, -2.0 * eye if i == j else 0 * eye)
    # B_1...B_d is the scalar i^-(n+1), and so is beta_1...beta_d
    volume = (1j) ** (-(n + 1))
    assert np.allclose(reduce(np.matmul, full.b), volume * np.eye(size * size),
                       atol=1e-13)
    assert np.allclose(reduce(np.matmul, model.beta), volume * eye, atol=1e-13)
    # V spans the joint +1 eigenspace of the i r_{2a-1} r_{2a} on the even part
    right = _right_action(dim)
    assert all(np.allclose(r @ c + c @ r, 0) for r in right for c in full.c)
    proj = np.eye(1 << dim, dtype=complex)
    for a in range(n):
        proj = proj @ (np.eye(1 << dim) + 1j * right[2 * a] @ right[2 * a + 1]) / 2
    even = full.even_states
    proj = proj[np.ix_(even, even)]
    vals, vecs = np.linalg.eigh(proj)
    v = vecs[:, vals > 0.5]
    assert v.shape == (size * size, size)
    restricted = []
    for b_j in full.b:
        assert np.allclose(b_j @ proj, proj @ b_j, atol=1e-13)
        restricted.append(v.conj().T @ b_j @ v)
        # B_j maps span(V) into itself
        assert np.allclose(b_j @ v, v @ restricted[-1], atol=1e-13)
    # the restriction and beta are one irreducible module: averaging any X
    # over the Clifford monomials gives an invertible intertwiner
    x = np.random.default_rng(dim).standard_normal((size, size))
    inter = sum(
        g @ x @ np.linalg.inv(h)
        for g, h in zip(_monomials(restricted), _monomials(model.beta))
    )
    assert np.linalg.svd(inter, compute_uv=False).min() > 1e-6
    for r_j, beta_j in zip(restricted, model.beta):
        assert np.allclose(r_j @ inter, inter @ beta_j, atol=1e-12)


def test_circle_truncation_is_bitwise_the_full_b_one():
    # d = 1: one copy, beta_1 = B_1 = -i, so stack and spectrum are those
    # of the full even-part blocks, bit for bit
    model = clifford_model(1)
    assert model.copies == 1
    assert model.beta[0].tobytes() == exterior_model(1).b[0].tobytes()
    rng = np.random.default_rng(53)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
    c = Connection.from_constant(1, mats)
    t = build_truncation(c, 5)
    full = np.stack([build_sig_mode(c, k) for k in t.modes])
    assert t.stack.tobytes() == full.tobytes()
    vals = np.linalg.eigvals(full).ravel()
    assert np.array_equal(spectrum(t), vals[np.lexsort((vals.imag, vals.real))])


def test_circle_and_t3_beta_are_the_pauli_generators():
    # d = 1: beta_1 = -i with real part +0.0; d = 3: (i X, i Y, -i Z)
    assert clifford_model(1).beta[0].tobytes() == np.array([[complex(0, -1)]]).tobytes()
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1])
    beta = clifford_model(3).beta
    assert len(beta) == 3
    for got, want in zip(beta, (1j * x, 1j * y, -1j * z)):
        assert got.dtype == complex and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# mode blocks: circle calibration and T^3 patterns


def test_circle_mode_spectrum_is_shifted_lattice():
    mu = 0.25
    c = Connection.from_constant(1, [np.array([[2j * math.pi * mu]])])
    t = build_truncation(c, 3)
    vals = spectrum(t)
    expect = np.sort([TWO_PI * (k + mu) for k in range(-3, 4)])
    assert np.allclose(vals.real, expect, atol=1e-12)
    assert np.allclose(vals.imag, 0.0, atol=1e-12)


def test_circle_mode_spectrum_complex_shift():
    mu = 0.3 - 0.12j
    c = Connection.from_constant(1, [np.array([[2j * math.pi * mu]])])
    vals = spectrum(build_truncation(c, 4))
    expect = np.array([TWO_PI * (k + mu) for k in range(-4, 5)])
    expect = expect[np.lexsort((expect.imag, expect.real))]
    assert np.allclose(vals, expect, atol=1e-12)


def test_t3_free_mode_pair():
    c = Connection.from_constant(3, [np.zeros((1, 1))] * 3)
    t = build_truncation(c, 1)
    # one spinor copy: the pair +-2 pi, each twice over the two copies
    vals = np.sort(np.linalg.eigvals(t.blocks[(1, 0, 0)]).real)
    assert np.allclose(vals, [-TWO_PI, TWO_PI], atol=1e-12)
    assert np.max(np.abs(t.blocks[(0, 0, 0)])) == 0.0
    assert np.sum(spectrum(t) == 0) == 4  # 4-dim kernel over both copies


def test_t3_diagonal_blocks_are_symmetric_pairs():
    rng = np.random.default_rng(20)
    mus = random_mus(rng, 3, im_range=(0.0, 0.0))
    c = Connection.from_constant(3, [np.array([[2j * math.pi * m]]) for m in mus])
    blocks = build_truncation(c, 2).blocks
    for k in [(0, 0, 0), (1, -2, 0), (2, 1, 1)]:
        vals = np.linalg.eigvals(blocks[k])  # one spinor copy of two
        radius = TWO_PI * np.linalg.norm([k[j] + mus[j].real for j in range(3)])
        assert np.allclose(np.sort(vals.real), [-radius, radius], atol=1e-10)
        assert np.max(np.abs(vals.imag)) < 1e-10


def test_mode_block_rejects_oscillatory_connection():
    a = TrigPolyForm.monomial(1, np.array([[0.5]]), k=(1,), I=(1,))
    t = build_truncation(Connection(a), 2)
    assert t.couplings and t.blocks is None
    with pytest.raises(ValueError):
        build_sig_mode(Connection(a), (0,))


# ---------------------------------------------------------------------------
# truncations


def test_block_truncation_matches_full_matrix():
    mus = [0.2, -0.1 + 0.05j]
    c = Connection.from_constant(
        1, [np.diag([2j * math.pi * m for m in mus])]
    )
    t = build_truncation(c, 2)
    assert not t.couplings
    dense_vals = np.linalg.eigvals(scipy.linalg.block_diag(*t.blocks.values()))
    dense_vals = dense_vals[np.lexsort((dense_vals.imag, dense_vals.real))]
    assert np.allclose(spectrum(t), dense_vals, atol=1e-10)
    assert t.size == 2 * len(t.modes)


@pytest.mark.parametrize("dim, cutoff", [(1, 4), (3, 2)])
def test_modes_are_the_read_only_product_lattice(dim, cutoff):
    c = Connection.from_constant(dim, [np.zeros((1, 1))] * dim)
    modes = build_truncation(c, cutoff).modes
    oracle = list(product(range(-cutoff, cutoff + 1), repeat=dim))
    assert isinstance(modes, np.ndarray) and modes.dtype.kind == "i"
    assert modes.shape == (len(oracle), dim)
    assert [tuple(k) for k in modes.tolist()] == oracle
    assert not modes.flags.writeable
    with pytest.raises(ValueError):
        modes[0, 0] = 0


def test_unitary_truncation_is_hermitian_and_flagged():
    c = diagonal_connection_from_mus([0.25, 0.4])
    t = build_truncation(c, 2)
    assert t.hermitian
    for k in map(tuple, t.modes.tolist()):
        blk = t.blocks[k]
        assert np.allclose(blk, blk.conj().T, atol=1e-12)


def test_nonunitary_flagged_not_self_adjoint():
    c = Connection.from_constant(1, [np.array([[2j * math.pi * (0.3 + 0.1j)]])])
    t = build_truncation(c, 1)
    assert not t.hermitian


def test_cutoff_nesting_for_constant_connections():
    c = diagonal_connection_from_mus([0.3])
    small = spectrum(build_truncation(c, 2))
    large = spectrum(build_truncation(c, 4))
    for v in small:
        assert np.min(np.abs(large - v)) < 1e-12


def test_galerkin_interior_matches_exact_circle_tower():
    # On S^1 (rank 1) any purely oscillatory addition to A leaves the exact
    # spectrum untouched: eigenfunction phases absorb it, only the mean
    # frequency mu survives.  Interior Galerkin eigenvalues must agree.
    mu = 0.3 - 0.12j
    eps = 0.3
    a = (
        TrigPolyForm.monomial(1, np.array([[2j * math.pi * mu]]), k=(), I=(1,))
        + TrigPolyForm.monomial(1, np.array([[eps]]), k=(1,), I=(1,))
        - TrigPolyForm.monomial(1, np.array([[eps]]), k=(-1,), I=(1,))
    )
    t = build_truncation(Connection(a), 10)
    assert t.couplings
    vals = spectrum(t)
    expect = np.array([TWO_PI * (k + mu) for k in range(-3, 4)])
    expect = expect[np.lexsort((expect.imag, expect.real))]
    assert np.allclose(vals[10 - 3 : 10 + 4], expect, atol=1e-10)


def test_perturbation_moves_eigenvalues_at_most_norm():
    # Hermitian base block: every eigenvalue of the perturbed block stays
    # within ||E||_2 of the base spectrum.
    c = Connection.from_constant(
        3, [np.array([[2j * math.pi * m]]) for m in (0.2, -0.3, 0.1)]
    )
    base = build_truncation(c, 1).blocks[(1, 0, -1)]
    rng = np.random.default_rng(7)
    e = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    base_vals = np.linalg.eigvals(base)
    for v in np.linalg.eigvals(base + e):
        assert np.min(np.abs(base_vals - v)) <= np.linalg.norm(e, 2) + 1e-12


def _coupled_t3(axes):
    """A rank-2 T^3 connection with one coupling e^{2 pi i x_j} dx_j along
    each of ``axes``."""
    unit = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    terms = [((unit[j], (j,)), 0.1 * np.eye(2)) for j in axes]
    return Connection(TrigPolyForm(3, 2, terms))


def test_memory_guard_refuses_oversized_truncations(monkeypatch):
    # cutoff 12 on T^3: 15625 modes.  A coupling along x_1 splits them into
    # 625 lines of 25 modes, one batch of 625 matrices of order 100 (about
    # 100 MB), which fits; couplings along all three axes connect the whole
    # window into one matrix of order 62500 (about 6e10 bytes), which does
    # not, and the solve refuses it
    t = build_truncation(_coupled_t3([1]), 12)
    assert [members.shape for members in t._components] == [(625, 25)]
    t = build_truncation(_coupled_t3([1, 2, 3]), 12)
    assert [members.shape for members in t._components] == [(1, 15625)]
    with pytest.raises(MemoryGuardError):
        spectrum(t)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", 1000)
    with pytest.raises(MemoryGuardError):
        build_truncation(diagonal_connection_from_mus([0.25]), 50)


def test_memory_guard_fires_before_the_stack_is_allocated(monkeypatch):
    c = random_unitary_constant_connection(np.random.default_rng(3), 3, 2)
    # cutoff 2: 125 modes of 3 int64 coordinates, and a symbol of 3
    # directions by 5 frequencies of 4x4 one-copy terms; the stack of 125
    # 4x4 blocks, counted twice for its assembly, comes on first read
    lattice, symbol, stack = 125 * 3 * 8, 3 * 5 * 4 * 4 * 16, 125 * 4 * 4 * 16
    assert (lattice, symbol, stack) == (3000, 3840, 32000)
    sizes = []  # elements of each array allocated
    zeros, empty, indices = np.zeros, np.empty, np.indices

    def recording(alloc):
        def record(shape, *args, **kwargs):
            sizes.append(math.prod(np.atleast_1d(shape)))
            return alloc(shape, *args, **kwargs)
        return record

    monkeypatch.setattr(np, "zeros", recording(zeros))
    monkeypatch.setattr(np, "empty", recording(empty))
    monkeypatch.setattr(np, "indices", recording(indices))
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", lattice + symbol - 1)
    with pytest.raises(MemoryGuardError, match="lattice and symbol of 125 modes"):
        build_truncation(c, 2)
    assert sizes == []
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", lattice + symbol)
    t = build_truncation(c, 2)
    assert t.modes.nbytes + t.symbol.nbytes == lattice + symbol
    assert max(sizes) < 125 * 16 and "stack" not in vars(t)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", lattice + symbol + 2 * stack - 1)
    with pytest.raises(MemoryGuardError, match="stack of 125 modes"):
        t.stack
    assert max(sizes) < 125 * 16 and "stack" not in vars(t)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", lattice + symbol + 2 * stack)
    assert t.stack.nbytes == stack and max(sizes) == 125 * 16
    # a rank-1 circle, where the symbol is twice the lattice: with the
    # limit at the symbol alone nothing is allocated
    sizes.clear()
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", 101 * 16)
    with pytest.raises(MemoryGuardError, match="lattice and symbol of 101 modes"):
        build_truncation(diagonal_connection_from_mus([0.25]), 50)
    assert sizes == []


def test_memory_guard_fires_before_a_batch_is_allocated(monkeypatch):
    # the gauged T^3 connection at cutoff 2: a 32000-byte stack, a
    # 3000-byte lattice and one batch of 25 components of 5 modes, 25
    # matrices of order 20
    c, _ = _gauged_draw(np.random.default_rng(46), 2)
    batch_shape = (25, 5, 4, 5, 4)
    limit = 125 * 4 * 4 * 16 + 125 * 3 * 8 + 25 * 20 * 20 * 16
    shapes = []
    zeros = np.zeros

    def recording_zeros(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", limit - 1)
    t = build_truncation(c, 2)
    with pytest.raises(MemoryGuardError):
        spectrum(t)
    assert batch_shape not in shapes
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", limit)
    assert len(spectrum(build_truncation(c, 2))) == t.size
    assert batch_shape in shapes


# ---------------------------------------------------------------------------
# stacked blocks and the cached batched solve


def test_stacked_blocks_equal_per_mode_kron_oracle():
    rng = np.random.default_rng(41)
    mats = [
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(3)
    ]
    assert not np.allclose(mats[0] @ mats[0].conj().T, mats[0].conj().T @ mats[0])
    c = Connection.from_constant(3, mats)
    t = build_truncation(c, 2)
    beta = clifford_model(3).beta
    assert t.stack.shape == (125, 4, 4) and len(t.blocks) == 125
    for i, k in enumerate(map(tuple, t.modes.tolist())):
        assert np.array_equal(t.blocks[k], build_sig_mode(c, k, beta))
        assert np.shares_memory(t.blocks[k], t.stack[i])
    per_block = np.concatenate(
        [np.repeat(np.linalg.eigvals(build_sig_mode(c, k, beta)), 2) for k in t.modes]
    )
    per_block = per_block[np.lexsort((per_block.imag, per_block.real))]
    assert np.array_equal(spectrum(t), per_block)


def test_commuting_unitary_t3_spectrum_is_closed_form():
    # A_j = U diag(2 pi i mu_j) U^*: on each common eigenline the block is
    # sum_j B_j (2 pi i)(k_j + mu_j), whose square is -(2 pi)^2 |k + mu|^2
    # times the identity, and B_j has trace zero: +- 2 pi |k + mu|, each
    # with multiplicity 2^(d-2) = 2.
    rng = np.random.default_rng(42)
    mus = rng.uniform(0.05, 0.95, size=(3, 2))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(x)
    c = Connection.from_constant(
        3, [u @ np.diag(2j * math.pi * mus[j]) @ u.conj().T for j in range(3)]
    )
    t = build_truncation(c, 3)
    shifted = np.array(t.modes)[:, None, :] + mus.T  # (mode, eigenline, j)
    radii = TWO_PI * np.linalg.norm(shifted, axis=-1).ravel()
    expect = np.sort(np.concatenate([radii, radii, -radii, -radii]))
    vals = spectrum(t)
    assert len(vals) == t.size == len(expect)
    assert np.max(np.abs(vals.real - expect)) < 1e-9
    assert np.max(np.abs(vals.imag)) < 1e-9


def _random_coupled_connection(rng, dim, rank):
    """Zero-frequency terms in several directions plus one to three
    oscillatory frequencies (on T^3 each in one or two directions), with
    some exact zero entries."""
    def mat(scale):
        m = scale * (rng.standard_normal((rank, rank))
                     + 1j * rng.standard_normal((rank, rank)))
        m[rng.random((rank, rank)) < 0.25] = 0.0
        return m

    while True:
        terms = {((0,) * dim, (j,)): mat(1.0) for j in range(1, dim + 1)
                 if rng.random() < 0.8}
        for _ in range(int(rng.integers(1, 4))):
            q = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
            for j in rng.permutation(dim)[: int(rng.integers(1, min(dim, 2) + 1))]:
                terms[(q, (int(j) + 1,))] = mat(0.5)
        c = Connection(TrigPolyForm(dim, rank, list(terms.items())))
        if any(any(q) for q, _, _ in c.a.terms()):
            return c


@pytest.mark.parametrize("dim, ranks, cutoff", [(1, (1, 2, 3), 3), (3, (1, 2), 1)])
def test_coupled_dense_equals_per_mode_oracle(dim, ranks, cutoff):
    rng = np.random.default_rng(43 + dim)
    for rank in ranks:
        for _ in range(4):
            c = _random_coupled_connection(rng, dim, rank)
            t = build_truncation(c, cutoff)
            assert t.couplings and t.blocks is None
            oracle = coupled_dense_oracle(c, cutoff, clifford_model(dim).beta)
            assert np.array_equal(t.dense, oracle)
            # the oracle is exactly zero between components, and the
            # spectrum is that of its per-component principal submatrices
            per = t.stack.shape[1]
            rows = [
                (per * np.array(comp)[:, None] + np.arange(per)).ravel()
                for comp in mode_components(c, cutoff)
            ]
            label = np.empty(len(oracle), dtype=int)
            for i, r in enumerate(rows):
                label[r] = i
            assert not np.any(oracle[label[:, None] != label[None, :]])
            vals = np.concatenate(
                [np.repeat(np.linalg.eigvals(oracle[np.ix_(r, r)]), t.copies)
                 for r in rows]
            )
            assert np.array_equal(spectrum(t), vals[np.lexsort((vals.imag, vals.real))])


def test_truncations_share_one_representation():
    rng = np.random.default_rng(44)
    constant = build_truncation(random_unitary_constant_connection(rng, 3, 2), 1)
    assert constant.couplings == () and constant.dense is None
    assert constant.stack.shape == (27, 4, 4)  # one spinor copy, rank 2
    c = _random_coupled_connection(rng, 3, 2)
    coupled = build_truncation(c, 1)
    # the stack holds each mode's block with itself in both cases
    assert coupled.stack.shape == (27, 4, 4)
    assert coupled.dense.shape == (27 * 4, 27 * 4)
    for i in range(27):
        assert np.array_equal(
            coupled.stack[i], coupled.dense[4 * i : 4 * i + 4, 4 * i : 4 * i + 4]
        )
    assert [q for q, _ in coupled.couplings] == [
        q for q, _, _ in c.a.terms() if any(q)
    ]
    assert coupled.dense is coupled.dense  # built once
    for arr in (coupled.stack, coupled.dense, coupled.couplings[0][1]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# ---------------------------------------------------------------------------
# coupled truncations solved one connected mode component at a time


def _gauged_draw(rng, cutoff):
    """A gauged rank-2 T^3 connection with complex shifts (``bench``'s
    t3_coupled shape) and the closed-form eigenvalues of its ungauged
    connection at the modes |k_j| <= cutoff - 1, whose gauged
    eigenvectors stay inside the window."""
    mus = rng.uniform(0.1, 0.9, (3, 2)) + 1j * rng.uniform(-0.3, 0.3, (3, 2))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    basis, _ = np.linalg.qr(x)
    inner = np.array(list(product(range(1 - cutoff, cutoff), repeat=3)))
    shifted = inner[:, :, None] + mus[None, :, :]  # (mode, j, line)
    lam = (TWO_PI * np.sqrt(np.sum(shifted**2, axis=1))).ravel()
    return gauged_t3_connection(mus, basis), np.concatenate([lam, lam, -lam, -lam])


def test_gauged_t3_splits_into_lines_along_x1():
    c, _ = _gauged_draw(np.random.default_rng(45), 2)
    t = build_truncation(c, 2)
    assert {q for q, _ in t.couplings} == {(1, 0, 0), (-1, 0, 0)}
    (members,) = t._components
    assert members.shape == (25, 5)
    assert members.tolist() == mode_components(c, 2)
    # each component is the line of modes k + n e_1 through one (k_2, k_3)
    lines = np.array(t.modes)[members]
    assert np.all(lines[:, :, 0] == np.arange(-2, 3))
    assert np.all(lines[:, :, 1:] == lines[:, :1, 1:])


def test_even_frequency_splits_circle_by_parity():
    a = TrigPolyForm(1, 1, [(((2,), (1,)), np.array([[0.4 + 0.2j]])),
                           (((-2,), (1,)), np.array([[-0.3j]])),
                           (((0,), (1,)), np.array([[2j * math.pi * 0.3]]))])
    c = Connection(a)
    t = build_truncation(c, 3)
    # sizes ascending: the even modes -2, 0, 2, then the odd -3, -1, 1, 3
    even, odd = t._components
    assert even.tolist() == [[1, 3, 5]] and odd.tolist() == [[0, 2, 4, 6]]
    assert mode_components(c, 3) == [[0, 2, 4, 6], [1, 3, 5]]


def test_connected_window_is_the_dense_solve():
    rng = np.random.default_rng(47)
    terms = [
        ((q, (j,)), 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
        for j, q in ((1, (1, 0, 0)), (2, (0, -1, 0)), (3, (0, 0, 1)), (1, (0, 0, 0)))
    ]
    c = Connection(TrigPolyForm(3, 2, terms))
    t = build_truncation(c, 1)
    (members,) = t._components
    assert members.tolist() == [list(range(27))]
    vals = np.repeat(np.linalg.eigvals(t.dense), t.copies)
    assert np.array_equal(spectrum(t), vals[np.lexsort((vals.imag, vals.real))])


def test_coupled_spectrum_does_not_build_the_dense_matrix():
    c, _ = _gauged_draw(np.random.default_rng(48), 2)
    t = build_truncation(c, 2)
    spectrum(t)
    spectrum_rows(t)
    assert "dense" not in vars(t)
    # still there on request: one spinor copy of the two
    assert t.dense.shape == (t.size // 2, t.size // 2)


def test_gauged_t3_spectrum_contains_closed_form_inner_eigenvalues():
    c, expect = _gauged_draw(np.random.default_rng(49), 2)
    vals = spectrum(build_truncation(c, 2))
    uniq, counts = np.unique(expect, return_counts=True)
    found = np.sum(np.abs(vals[None, :] - uniq[:, None]) <= 1e-9, axis=1)
    assert np.all(found >= counts)


def test_gauged_t3_solves_at_cutoff_6():
    # 2197 modes in 169 components of 13; the window's dense matrix (about
    # 1.2 GB) is never counted.  An all-pairs match of the closed form
    # against the 17576 eigenvalues would take gigabytes, so a k-d tree
    # counts the eigenvalues near each closed-form value
    c, expect = _gauged_draw(np.random.default_rng(49), 6)
    t = build_truncation(c, 6)
    vals = spectrum(t)
    assert len(vals) == t.size
    uniq, counts = np.unique(expect, return_counts=True)
    tree = cKDTree(np.column_stack([vals.real, vals.imag]))
    found = tree.query_ball_point(
        np.column_stack([uniq.real, uniq.imag]), r=1e-9, return_length=True
    )
    assert np.all(found >= counts)


def _matched_distance(a, b):
    """Largest distance in a one-to-one matching of a and b that pairs each
    element of a in turn with the nearest unpaired element of b; when it is
    small, a and b agree as multisets to within it."""
    cost = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for row in cost:
        j = np.argmin(row)
        worst = max(worst, row[j])
        cost[:, j] = np.inf
    return worst


def _one_copy_case(name):
    rng = np.random.default_rng(54)

    def mat(rank):
        shape = (rank, rank)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if name == "curved_t3":
        # non-commuting (curved) and non-unitary
        c = Connection.from_constant(3, [mat(2) for _ in range(3)])
        assert not c.is_flat() and not c.omega_metric().is_zero(1e-3)
        return c, 2
    if name == "gauged_t3":
        c, _ = _gauged_draw(rng, 2)
        return c, 2
    return Connection.from_constant(5, [0.5 * mat(2) for _ in range(5)]), 1


@pytest.mark.parametrize("name", ["curved_t3", "gauged_t3", "t5"])
def test_one_copy_spectrum_repeated_is_the_full_b_spectrum(name):
    # each mode (component) of the one-copy truncation, its eigenvalues
    # repeated 2^n times, against the full even-part Galerkin matrix
    c, cutoff = _one_copy_case(name)
    t = build_truncation(c, cutoff)
    full = coupled_dense_oracle(c, cutoff) if t.couplings else None
    per = t.size // len(t.modes)
    assert per == t.stack.shape[1] * t.copies
    scale = np.max(np.abs(spectrum(t)))
    worst = 0.0
    for members, solved in zip(t._components, t._eigvals):
        for comp, vals in zip(members, np.repeat(solved, t.copies, axis=-1)):
            if full is None:
                block = build_sig_mode(c, t.modes[comp[0]])
            else:
                rows = (per * comp[:, None] + np.arange(per)).ravel()
                block = full[np.ix_(rows, rows)]
            worst = max(worst, _matched_distance(vals, np.linalg.eigvals(block)))
    assert worst <= 1e-12 * scale
    assert len(spectrum(t)) == t.size


def test_memory_guard_counts_one_spinor_copy(monkeypatch):
    # the gauged T^3 connection at cutoff 4: 729 modes in 81 components of
    # 9.  With the limit at the stack and lattice plus the batch of one
    # spinor copy (matrices of order 36), the batch of the full even-part
    # operator (order 72) would exceed it; the one copy solves
    c, _ = _gauged_draw(np.random.default_rng(55), 4)
    t = build_truncation(c, 4)
    (members,) = t._components
    assert members.shape == (81, 9)
    order = 9 * t.stack.shape[1]
    held = t.stack.nbytes + t.modes.nbytes
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", held + 16 * 81 * order**2)
    assert 16 * 81 * (order * t.copies) ** 2 > spectral.MEMORY_LIMIT
    assert len(spectrum(t)) == t.size == 729 * 8


# ---------------------------------------------------------------------------
# the two solve routes: eigvalsh for Hermitian truncations, eigvals
# otherwise


def _hermitian_case(name):
    rng = np.random.default_rng(51)
    if name == "s1":
        return build_truncation(random_unitary_constant_connection(rng, 1, 3), 6)
    if name == "t3":
        return build_truncation(random_unitary_constant_connection(rng, 3, 2), 3)
    if name == "t3_rank1":  # blocks of order 2
        return build_truncation(random_unitary_constant_connection(rng, 3, 1), 3)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    basis, _ = np.linalg.qr(x)
    return build_truncation(gauged_t3_connection(rng.uniform(0.1, 0.9, (3, 2)), basis), 2)


@pytest.mark.parametrize("name", ["s1", "t3", "t3_rank1", "gauged_t3"])
def test_hermitian_truncations_take_the_hermitian_route(name, monkeypatch):
    t = _hermitian_case(name)
    assert t.hermitian and bool(t.couplings) == (name == "gauged_t3")
    assert (t.stack.shape[1] == 2) == (name == "t3_rank1")

    def general_route(*args, **kwargs):
        raise AssertionError("a Hermitian truncation was solved by eigvals")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvals", general_route)
        vals = spectrum(t)
    assert np.all(vals.imag == 0)
    # Bauer--Fike: each eigenvalue of M lies within ||M - H||_2 of one of the
    # Hermitian H that the route reads, and ||M - H||_2 <= ||M - M^H||_F / sqrt 2
    for members, solved in zip(t._components, t._eigvals):
        assert solved.dtype == float
        mats = t._component_matrices(members)
        general = np.linalg.eigvals(mats)
        defect = np.linalg.norm(mats - mats.conj().swapaxes(1, 2), axis=(1, 2))
        scale = np.max(np.abs(general))
        assert np.max(defect) < 1e-13 * scale  # Hermitian up to rounding
        bound = (defect / math.sqrt(2) + 1e-12 * scale)[:, None]
        dist = np.abs(solved[:, :, None] - general[:, None, :])
        assert np.all(dist.min(axis=2) <= bound)
        assert np.all(dist.min(axis=1) <= bound)


@pytest.mark.parametrize("name", ["nonunitary", "similar_to_unitary"])
def test_other_truncations_are_solved_bitwise_by_eigvals(name):
    rng = np.random.default_rng(52)
    if name == "nonunitary":
        c = diagonal_connection_from_mus([0.3 + 0.1j, 0.55])
    else:
        # similar to a unitary connection, so its spectrum is real, yet the
        # stack is far from Hermitian and eigvalsh would read the wrong matrix
        c = similar_to_unitary(rng)
    t = build_truncation(c, 3)
    assert not t.hermitian
    if name == "similar_to_unitary":
        defect = t.stack - t.stack.conj().swapaxes(1, 2)
        assert np.max(np.linalg.norm(defect, axis=(1, 2))) > 1
    vals = np.repeat(np.linalg.eigvals(t.stack), t.copies, axis=-1).ravel()
    assert np.array_equal(spectrum(t), vals[np.lexsort((vals.imag, vals.real))])


def _flag_case(name):
    rng = np.random.default_rng(59)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    basis, _ = np.linalg.qr(mats[0])
    if name == "unitary_s1":
        return random_unitary_constant_connection(rng, 1, 3)
    if name == "nonunitary_s1":
        return diagonal_connection_from_mus([0.3 + 0.1j, 0.55])
    if name in ("gauge_path_unitary_s1", "gauge_path_nonunitary_s1"):
        mu = 0.3 if name == "gauge_path_unitary_s1" else 0.3 + 0.1j
        return gauge_path(diagonal_connection_from_mus([mu, 0.6]), 2)(0.4)
    if name == "curved_unitary_t3":  # non-commuting anti-Hermitian A_j
        return Connection.from_constant(3, [0.5 * (m - m.conj().T) for m in mats])
    if name == "curved_nonunitary_t3":
        return Connection.from_constant(3, mats)
    if name == "gauged_t3":
        return gauged_t3_connection(rng.uniform(0.1, 0.9, (3, 2)), basis)
    if name == "gauged_complex_t3":
        mus = rng.uniform(0.1, 0.9, (3, 2)) + 1j * rng.uniform(-0.3, 0.3, (3, 2))
        return gauged_t3_connection(mus, basis)
    if name == "similar_to_unitary":
        return similar_to_unitary(rng)
    # anti-Hermitian up to a Hermitian defect just inside or outside 1e-10
    eps = 0.5e-10 if name == "defect_inside_tol" else 2e-10
    return Connection.from_constant(3, [0.5 * (m - m.conj().T) + eps * np.eye(2) for m in mats])


_FLAG_CASES = {
    "unitary_s1": True,
    "nonunitary_s1": False,
    "gauge_path_unitary_s1": True,
    "gauge_path_nonunitary_s1": False,
    "curved_unitary_t3": True,
    "curved_nonunitary_t3": False,
    "gauged_t3": True,
    "gauged_complex_t3": False,
    "similar_to_unitary": False,
    "defect_inside_tol": True,
    "defect_outside_tol": False,
}


@pytest.mark.parametrize("name", list(_FLAG_CASES))
def test_hermitian_flag_is_omega_zero_on_the_identity_metric(name):
    c = _flag_case(name)
    flag = build_truncation(c, 1).hermitian
    assert flag == c.omega_metric().is_zero(1e-10)
    assert flag == _FLAG_CASES[name]


@pytest.mark.parametrize("hermitian", [True, False])
def test_spectrum_is_the_lexicographic_order_of_the_solve(hermitian):
    # one sort of the solve, repeated over the spinor copies and cast to
    # complex once: bitwise the (Re, Im) lexicographic order of the
    # complex eigenvalues of all copies
    rng = np.random.default_rng(57)
    if hermitian:
        c = random_unitary_constant_connection(rng, 3, 1)
    else:
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        c = Connection.from_constant(3, mats)
    t = build_truncation(c, 2)
    assert t.hermitian == hermitian
    solved = np.concatenate([v.ravel() for v in t._eigvals])
    vals = np.repeat(solved, t.copies).astype(complex)
    expect = vals[np.lexsort((vals.imag, vals.real))]
    got = spectrum(t)
    assert got.dtype == complex and got.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# flat unitary constant truncations solved as lines


def _commuting_unitary(mus, basis):
    """A_j = S diag(2 pi i mu_j) S^H for a unitary S = ``basis``; ``mus``
    has shape (dim, rank)."""
    mats = [basis @ np.diag(2j * math.pi * row) @ basis.conj().T for row in mus]
    return Connection.from_constant(len(mus), mats)


def _random_basis(rng, rank):
    x = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    return np.linalg.qr(x)[0]


def _solved_orders(t, monkeypatch):
    """The orders of the matrices that the solve of t hands to an eigen-solver,
    ``eigvalsh`` or ``eigvals``: none for a truncation split into lines."""
    orders = []

    def recording(solve):
        def solved(mats):
            orders.append(mats.shape[-1])
            return solve(mats)

        return solved

    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
    spectrum(t)
    return orders


def _assert_lines_within_weyl_bound(t):
    # each mode's sorted line eigenvalues against eigvalsh of its whole
    # block: within sqrt(2) times the split's bound 16 per u ||V||_2, plus
    # a rounding of 16 per u ||M(k)||_2 for each of the two solves
    eps, per = np.finfo(float).eps, t.stack.shape[1]
    split = 8 * per * eps * np.linalg.norm(t.stack[len(t.modes) // 2], 2)
    solves = 16 * per * eps * np.linalg.norm(t.stack, 2, axis=(1, 2))
    gap = np.abs(np.sort(t._eigvals[0], axis=1) - np.linalg.eigvalsh(t.stack))
    assert np.all(gap <= math.sqrt(2) * split + solves[:, None])


def _assert_closed_form(t, mus):
    # d = 1: 2 pi (k + mu_b); d >= 3: +-2 pi |k + mu_b|, each sign with
    # multiplicity 2^(d-2) over the copies
    shifted = t.modes[:, :, None] + mus[None]  # (mode, j, line)
    if t.dim == 1:
        expect = TWO_PI * shifted[:, 0].ravel()
    else:
        radii = TWO_PI * np.linalg.norm(shifted, axis=1).ravel()
        expect = np.repeat(np.concatenate([radii, -radii]), 2 ** (t.dim - 2))
    vals = spectrum(t)
    assert len(vals) == t.size == len(expect)
    assert np.max(np.abs(vals.real - np.sort(expect))) <= 1e-9
    assert np.all(vals.imag == 0)


@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("rank", [2, 3])
def test_commuting_unitary_truncation_splits_into_lines(dim, rank, monkeypatch):
    rng = np.random.default_rng(70 + 10 * dim + rank)
    mus = rng.uniform(-1, 1, (dim, rank))
    t = build_truncation(_commuting_unitary(mus, _random_basis(rng, rank)), 6 - dim)
    assert t.hermitian
    assert _solved_orders(t, monkeypatch) == []
    assert t._eigvals[0].shape == t.stack.shape[:2]
    _assert_lines_within_weyl_bound(t)
    _assert_closed_form(t, mus)


@pytest.mark.parametrize("dim, rank", [(1, 4), (3, 2), (3, 3), (5, 2)])
def test_random_commuting_unitary_draws_all_split(dim, rank):
    # the combination whose eigh basis starts U can nearly merge two lines
    # that differ in the A_j; the Newton step still brings the dropped part
    # under its bound (without it, 6 of the 60 T^3 rank-2 draws here would
    # keep the stack solve)
    rng = np.random.default_rng(78 + dim + rank)
    for _ in range(60):
        mus = rng.uniform(0.05, 0.95, (dim, rank))
        t = build_truncation(_commuting_unitary(mus, _random_basis(rng, rank)), 1)
        assert t._line_values() is not None


@pytest.mark.parametrize("name", ["scalar", "equal_mu_along_x1", "zero"])
@pytest.mark.parametrize("dim", [1, 3, 5])
def test_degenerate_commuting_inputs_split_into_lines(name, dim, monkeypatch):
    rng = np.random.default_rng(73 + dim)
    mus = rng.uniform(-1, 1, (dim, 2))
    basis = _random_basis(rng, 2)
    if name == "scalar":  # A_j = 2 pi i mu_j I exactly
        mus[:, 1], basis = mus[:, 0], np.eye(2)
    elif name == "equal_mu_along_x1":
        mus[0, 1] = mus[0, 0]
    else:
        mus[:] = 0
    t = build_truncation(_commuting_unitary(mus, basis), 6 - dim)
    assert _solved_orders(t, monkeypatch) == []
    _assert_lines_within_weyl_bound(t)
    _assert_closed_form(t, mus)
    if name == "zero":  # rank times the even exterior algebra, 2^(dim-1)
        assert np.count_nonzero(spectrum(t) == 0) == 2 * 2 ** (dim - 1)


def test_the_line_route_builds_no_stack():
    # the spectrum, the count and heat eta of a split truncation, cube or
    # ball, read its line blocks and V from the symbol; the stack, read
    # later, is bitwise the per-mode kron oracle
    rng = np.random.default_rng(79)
    c = _commuting_unitary(rng.uniform(-1, 1, (3, 2)), _random_basis(rng, 2))
    beta = clifford_model(3).beta
    for t in (build_truncation(c, 3), spectral.ball_truncation(c, 3)):
        spectrum(t), sign_count(t), eta_heat_estimate(t)
        assert t._line_values() is not None and "stack" not in vars(t)
        oracle = np.array([build_sig_mode(c, k, beta) for k in t.modes.tolist()])
        assert t.stack.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("rank", [2, 3])
def test_split_truncations_are_a_structural_zero(dim, rank, monkeypatch):
    # for d >= 3 each line block is traceless and squares to |x|^2 I, so the
    # one-copy spectrum of a split cube or ball is its own negative bit for
    # bit (0 - 0.0 is +0.0), and the count is 0
    rng = np.random.default_rng(400 + 10 * dim + rank)
    for _ in range(3):
        mus = rng.uniform(-1, 1, (dim, rank))
        c = _commuting_unitary(mus, _random_basis(rng, rank))
        for t in (build_truncation(c, 6 - dim), spectral.ball_truncation(c, 3)):
            assert _solved_orders(t, monkeypatch) == []
            vals = t._spectrum
            assert vals.tobytes() == (0 - vals[::-1]).tobytes()
            count, axis = sign_count(t)
            assert (count, axis.tolist()) == (0, [])


def _split_with_zero_radii(rng, dim, rank, name):
    """A split connection whose lines reach radius 0 at k = 0: the zero
    connection (every line), or diagonal A_j with one line at y_jb = 0 in
    every direction (exactly, as the split's basis is then the identity)."""
    mus = rng.uniform(-1, 1, (dim, rank))
    mus[:, 0] = 0
    if name == "zero":
        mus[:] = 0
    return _commuting_unitary(mus, np.eye(rank))


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("name", ["zero", "one_line_at_zero", "generic"])
def test_split_spectrum_is_the_stable_sort_of_the_line_values(dim, rank, name):
    # the mirrored sorted radii are bitwise the stable sort of the per-mode
    # -|x|, +|x| that spectrum_rows reads, cast to complex, on cubes and
    # balls; a zero radius gives +0.0 on both sides (0 - 0.0 is +0.0)
    rng = np.random.default_rng(480 + 10 * dim + rank)
    if name == "generic":
        c = _commuting_unitary(rng.uniform(-1, 1, (dim, rank)), _random_basis(rng, rank))
    else:
        c = _split_with_zero_radii(rng, dim, rank, name)
    for t in (build_truncation(c, 6 - dim), spectral.ball_truncation(c, 3)):
        assert t._lines is not None and t._lines.shape == (len(t.modes), rank)
        (solved,) = t._eigvals
        oracle = np.sort(solved.ravel(), kind="stable").astype(complex)
        assert t._spectrum.tobytes() == oracle.tobytes()
        assert not t._spectrum.flags.writeable
        zeros = np.count_nonzero(t._lines == 0)
        assert zeros == (rank if name == "zero" else name == "one_line_at_zero")
        assert np.count_nonzero(t._spectrum == 0) == zeros * solved.shape[1] // rank
        assert not np.any(np.signbit(t._spectrum.real[t._spectrum == 0]))


def test_fixed_part_is_the_assembled_block_of_the_mode_zero():
    # V, which the split reads, is bitwise the stack's block at k = 0
    rng = np.random.default_rng(482)
    for dim, rank in [(1, 2), (3, 2), (3, 3), (5, 2)]:
        c = random_unitary_constant_connection(rng, dim, rank)
        t = build_truncation(c, 2)
        centre = t.modes.tolist().index([0] * dim)
        assert spectral._fixed_part(t.symbol).tobytes() == t.stack[centre].tobytes()


@pytest.mark.parametrize("scale", [1e150, 1e154, 1e155])
def test_line_route_is_not_taken_where_its_squared_norms_overflow(scale):
    # A_j = diag(i s, i s / 2) on T^3: the points x reach |x| ~ sqrt(3) s,
    # whose square overflows past s ~ 1.3e154; there the truncation keeps
    # its stack solve, whose values are finite, and either way each mode's
    # values are within the Weyl bound of eigvalsh of its block
    c = Connection.from_constant(3, [np.diag([1j * scale, 0.5j * scale])] * 3)
    t = build_truncation(c, 1)
    assert t.hermitian
    assert (t._lines is not None) == (scale < 1e154)
    vals = spectrum(t)
    assert np.all(np.isfinite(vals)) and np.max(np.abs(vals.real)) > scale
    assert all(math.isfinite(re) for re, _, _ in spectrum_rows(t))
    _assert_lines_within_weyl_bound(t)


def _fallback_case(name):
    rng = np.random.default_rng(76)
    if name == "noncommuting":
        return random_unitary_constant_connection(rng, 3, 2)
    if name == "flat_nonunitary":
        return random_flat_commuting_connection(rng, 3, 2)
    c = _commuting_unitary(rng.uniform(-1, 1, (3, 2)), _random_basis(rng, 2))
    mats = [c.a.coefficient((0, 0, 0), (j,)) for j in (1, 2, 3)]
    if name == "commuting_plus_1e-9":  # an anti-Hermitian, non-commuting term
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mats[0] = mats[0] + 1e-9 * (x - x.conj().T)
    else:  # commuting, but anti-Hermitian only to 1e-11
        mats = [m + 1e-11 * np.eye(2) for m in mats]
    return Connection.from_constant(3, mats)


_FALLBACK_CASES = {  # name: the Hermitian flag
    "noncommuting": True,
    "commuting_plus_1e-9": True,
    "antihermitian_to_1e-11": True,
    "flat_nonunitary": False,
}


@pytest.mark.parametrize("name", list(_FALLBACK_CASES))
def test_truncations_that_do_not_split_keep_the_stack_solve_bitwise(name):
    t = build_truncation(_fallback_case(name), 2)
    assert t.hermitian == _FALLBACK_CASES[name]
    if t.hermitian:
        assert t._line_values() is None
    solve = np.linalg.eigvalsh if t.hermitian else np.linalg.eigvals
    (solved,) = t._eigvals
    assert solved.tobytes() == solve(t.stack).tobytes()


def _traced_peak(call):
    """The peak bytes that tracemalloc sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_guard_fires_before_the_line_batch_is_allocated(monkeypatch):
    # cutoff 6 on T^3 at rank 2: a 52728-byte lattice; the closed form adds,
    # for each of the 4394 lines, its point x (3 floats) and its 2
    # eigenvalues, counted three times over for their temporaries,
    # 3 * 2197 * 2 * (3 + 2) * 8 = 527280 bytes, and builds no stack
    rng = np.random.default_rng(77)
    c = _commuting_unitary(rng.uniform(-1, 1, (3, 2)), _random_basis(rng, 2))
    n = 13**3
    lattice, points, values = n * 3 * 8, n * 2 * 3 * 8, n * 2 * 2 * 8
    limit = lattice + 3 * (points + values)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", limit - 1)
    t = build_truncation(c, 6)
    assert t.modes.nbytes == lattice

    def refused():
        with pytest.raises(MemoryGuardError, match="4394 lines of 2 eigenvalues"):
            spectrum(t)

    assert _traced_peak(refused) < points  # refused before the points are formed
    # at the same limit a truncation that does not split is refused its
    # stack, which the line route never needed
    other = build_truncation(random_unitary_constant_connection(rng, 3, 2), 6)
    with pytest.raises(MemoryGuardError, match="stack of 2197 modes"):
        spectrum(other)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", limit)
    t = build_truncation(c, 6)
    assert _solved_orders(t, monkeypatch) == []
    assert t._eigvals[0].nbytes == values and "stack" not in vars(t)
    # what the closed form and its sorted spectrum hold at their peak is
    # within what the guard counts
    t = build_truncation(c, 6)
    assert _traced_peak(lambda: t._spectrum) <= limit - lattice


# ---------------------------------------------------------------------------
# Bauer--Fike balls of constant connections


def _assert_ball_rows_of_the_cube(t, c):
    # the padded ball's modes in product order, k = 0 at the centre, each
    # block and mode row bitwise that of the cube it was cut from
    assert t.modes.tolist() == padded_ball(c.dim, ball_radius(c))
    assert t.modes[len(t.modes) // 2].tolist() == [0] * c.dim
    assert t.cutoff == max(1, math.ceil(ball_radius(c)))
    cube = build_truncation(c, t.cutoff)
    rows = [cube.modes.tolist().index(k) for k in t.modes.tolist()]
    assert t.stack.tobytes() == cube.stack[rows].tobytes()
    assert t.hermitian == cube.hermitian and not t.couplings
    assert not t.modes.flags.writeable and not t.stack.flags.writeable


_BALL_RADII = {1: 2.6, 3: 1.5, 5: 1.2}  # balls of 5, 19 and 11 modes


@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("rank", [2, 3])
def test_ball_of_a_commuting_unitary_input_splits_into_lines(dim, rank, monkeypatch):
    # the line split reads V from the centre row of the stack: on a ball
    # too that is k = 0, and each mode's line eigenvalues are those of its
    # whole block
    rng = np.random.default_rng(90 + 10 * dim + rank)
    mus = rng.uniform(-1, 1, (dim, rank))
    mus *= _BALL_RADII[dim] / np.max(np.linalg.norm(mus, axis=0))  # R
    c = _commuting_unitary(mus, _random_basis(rng, rank))
    t = spectral.ball_truncation(c, math.ceil(_BALL_RADII[dim]))
    assert _solved_orders(t, monkeypatch) == []
    _assert_ball_rows_of_the_cube(t, c)
    assert len(t.modes) > 1 and t._line_values() is not None
    blocks = np.sort(np.linalg.eigvals(t.stack).real.ravel())
    expect = np.repeat(blocks, t.copies)
    assert np.max(np.abs(spectrum(t).real - expect)) <= 1e-12
    _assert_closed_form(t, mus)


@pytest.mark.parametrize("dim", [3, 5])  # one A_1 always commutes
@pytest.mark.parametrize("rank", [2, 3])
def test_ball_of_a_noncommuting_input_keeps_the_stack_solve(dim, rank):
    rng = np.random.default_rng(95 + 10 * dim + rank)
    c = random_unitary_constant_connection(rng, dim, rank)
    c = Connection(c.a * (_BALL_RADII[dim] / ball_radius(c)))
    t = spectral.ball_truncation(c, math.ceil(_BALL_RADII[dim]))
    _assert_ball_rows_of_the_cube(t, c)
    assert len(t.modes) > 1 and t.hermitian and t._line_values() is None
    (solved,) = t._eigvals
    assert solved.tobytes() == np.linalg.eigvalsh(t.stack).tobytes()


def test_t5_ball_past_the_cube_stack_guard_assembles_its_own_stack(monkeypatch):
    # a curved rank-3 T^5 input at R = 5.06: its cube at K = 6 holds
    # 371293 modes, whose stack the default guard refuses, but its padded
    # ball holds 16875, assembled under the same guard (not solved here),
    # each block the per-mode kron oracle
    c = curved_constant_connection(np.random.default_rng(5), 5, 3, 12.5)
    radius = ball_radius(c)
    assert 5.05 < radius < 5.06 and spectral.MEMORY_LIMIT == 512 * 1024**2

    def no_cube_truncation(*args):
        raise AssertionError("a ball builds no cube truncation")

    monkeypatch.setattr(spectral, "build_truncation", no_cube_truncation)
    t = spectral.ball_truncation(c, 6)
    monkeypatch.undo()
    grid = np.indices((13,) * 5).reshape(5, -1).T - 6
    inside = np.linalg.norm(grid, axis=1) <= radius + AXIS_TOL / TWO_PI
    assert t.cutoff == 6 and t.modes.tolist() == grid[inside].tolist()
    assert len(t.modes) == 16875 and "stack" not in vars(t)
    assert t.stack.shape == (16875, 12, 12) and not t.stack.flags.writeable
    beta = clifford_model(5).beta
    for i in np.random.default_rng(6).choice(16875, 12, replace=False):
        assert np.array_equal(t.stack[i], build_sig_mode(c, t.modes[i], beta))
    with pytest.raises(MemoryGuardError, match="stack of 371293 modes"):
        build_truncation(c, 6).stack


def _structural_zero_input(rng, dim, rank):
    """Commuting, non-normal A_j = Q (a_j I + b_j T) Q^-1, T nilpotent."""
    q = np.eye(rank) + 0.2 * rng_matrix(rng, rank)
    t = np.triu(rng_matrix(rng, rank, 0.5), 1)
    mats = []
    for _ in range(dim):
        a = complex(rng.normal(0, 0.5), TWO_PI * rng.choice([-1, 1]) * rng.uniform(0.4, 0.8))
        mats.append(q @ (a * np.eye(rank) + rng.normal() * t) @ np.linalg.inv(q))
    return Connection.from_constant(dim, mats)


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_flat_constant_balls_count_zero(dim, rank):
    # the A_j triangularise together, so each M(k) is block-triangular with
    # line blocks sum_j beta_j x_j, whose square is -(sum_j x_j^2) I for
    # d >= 3: every eigenvalue pairs with its negative, and the count is 0
    rng = np.random.default_rng(310 + 10 * dim + rank)
    for _ in range(3):
        c = _structural_zero_input(rng, dim, rank)
        c = Connection(c.a * (rng.uniform(1.2, 2.0) / ball_radius(c)))
        t = spectral.ball_truncation(c, 2)
        count, axis = sign_count(t)
        assert (count, axis.tolist()) == (0, [])
        assert len(t.modes) > 1 and np.any(t._spectrum.real > 0)


def test_ball_needs_a_constant_connection():
    a = np.array([[TWO_PI * 0.3j, 0.1], [0.0, TWO_PI * 0.6j]])
    coupled = gauge_path(Connection.from_constant(1, [a]), 1)(1.0)
    with pytest.raises(PreconditionError, match="constant connection"):
        spectral.ball_truncation(coupled, 8)
    zero = spectral.ball_truncation(Connection.from_constant(3, [np.zeros((1, 1))] * 3), 1)
    assert zero.modes.tolist() == [[0, 0, 0]] and zero.cutoff == 1


def test_sign_count_is_the_brute_force_count_of_the_spectrum():
    # random non-normal S^1 and T^3 balls, the T^3 and T^5 zero connections
    # (kernel 2^(dim-1)) and an endpoint with 2 pi (1 + mu) = 2 pi 1e-11 on
    # the axis, against the signs of ``spectrum`` read one by one
    rng = np.random.default_rng(300)
    draws = [
        Connection.from_constant(dim, [rng_matrix(rng, rank, 2.0) for _ in range(dim)])
        for dim, rank in [(1, 2), (1, 3), (3, 2), (3, 3)] * 2
    ]
    draws += [Connection.from_constant(d, [np.zeros((1, 1))] * d) for d in (3, 5)]
    draws.append(diagonal_connection_from_mus([-1 + 1e-11, 0.3]))
    found = []
    for c in draws:
        t = spectral.ball_truncation(c, 8)
        count, axis = sign_count(t)
        vals = spectrum(t)
        on = [v for v in vals if abs(v.real) <= AXIS_TOL]
        off = [1 if v.real > 0 else -1 for v in vals if abs(v.real) > AXIS_TOL]
        assert count == sum(off) and axis.tolist() == on
        found.append((count, len(axis)))
    assert any(count for count, _ in found[:-3])
    assert found[-3:] == [(0, 4), (0, 16), (-1, 1)]


@pytest.mark.parametrize("dim, rank", [(1, 2), (1, 3), (3, 2), (3, 3)])
def test_modes_off_the_padded_ball_are_balanced_and_off_the_axis(dim, rank):
    # unitary, flat non-normal and general non-normal draws: on the cube one
    # wider than the ball, each mode off the padded ball keeps |Re| above
    # 2 pi |k| - ||V||_2 > AXIS_TOL and the inertia of the free block M_0(k)
    rng = np.random.default_rng(200 + 10 * dim + rank)
    draws = []
    for _ in range(4):
        draws += [
            random_unitary_constant_connection(rng, dim, rank, 2.0),
            random_flat_commuting_connection(rng, dim, rank, 2.0),
            Connection.from_constant(
                dim, [rng_matrix(rng, rank, 2.0) for _ in range(dim)]
            ),
        ]
    zero = Connection.from_constant(dim, [np.zeros((rank, rank))] * dim)
    for c in draws:
        radius = ball_radius(c)
        cube = build_truncation(c, math.ceil(radius) + 1)
        ball = set(map(tuple, padded_ball(dim, radius)))
        modes = map(tuple, cube.modes.tolist())
        off = [i for i, k in enumerate(modes) if k not in ball]
        assert off
        vals = np.linalg.eigvals(cube.stack[off]).real
        bound = TWO_PI * (np.linalg.norm(cube.modes[off], axis=1) - radius)
        assert np.all(np.abs(vals) >= bound[:, None] - 1e-9)
        assert np.all(np.abs(vals) > AXIS_TOL)
        free = np.linalg.eigvalsh(build_truncation(zero, cube.cutoff).stack[off])
        assert np.array_equal(np.sum(vals > 0, axis=1), np.sum(free > 0, axis=1))


def _hand_off_case(name, dim):
    rng = np.random.default_rng(60 + dim)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(dim)]
    cutoff = 1 if dim == 5 else 2
    if name == "zero":  # exact zero modes, a value repeated across modes
        return Connection.from_constant(dim, [np.zeros((2, 2))] * dim), cutoff
    if name == "hermitian":
        return random_unitary_constant_connection(rng, dim, 2), cutoff
    if name == "nonhermitian":
        return Connection.from_constant(dim, mats), cutoff
    if name == "commuting":
        mus = rng.uniform(-1, 1, (dim, 2))
        return _commuting_unitary(mus, np.linalg.qr(mats[0])[0]), cutoff
    basis, _ = np.linalg.qr(mats[0])
    mus = rng.uniform(0.1, 0.9, (3, 2))
    if name == "gauged_complex":
        mus = mus + 1j * rng.uniform(-0.3, 0.3, (3, 2))
    return gauged_t3_connection(mus, basis), 1


_HAND_OFF_CASES = [
    *((name, dim) for name in ("zero", "hermitian", "nonhermitian") for dim in (1, 3, 5)),
    *(("commuting", dim) for dim in (1, 3, 5)),
    ("gauged", 3),
    ("gauged_complex", 3),
]


@pytest.mark.parametrize("name,dim", _HAND_OFF_CASES)
def test_spectrum_hand_off_is_bitwise_the_sort_of_the_repeated_solve(name, dim):
    # the oracle is the layout that repeats every spinor copy before one
    # stable sort; sorting one copy first (by numpy's default float sort
    # on the Hermitian route) and repeating after must give the same bytes
    c, cutoff = _hand_off_case(name, dim)
    t = build_truncation(c, cutoff)
    assert t.hermitian == (name in ("zero", "hermitian", "commuting", "gauged"))
    # solved as lines: the zero and commuting connections, and on the
    # circle every unitary one (one A_1 commutes with itself)
    split = t.hermitian and not t.couplings and t._line_values() is not None
    assert split == (name in ("zero", "commuting") or (name, dim) == ("hermitian", 1))
    assert bool(t.couplings) == name.startswith("gauged")
    repeated = [np.repeat(v, t.copies, axis=-1) for v in t._eigvals]
    oracle = np.sort(np.concatenate([v.ravel() for v in repeated]), kind="stable")
    oracle = oracle.astype(complex)
    assert spectrum(t).tobytes() == oracle.tobytes()
    if t.couplings:
        rows = [(v.real, v.imag, "") for v in oracle]
    else:
        labels = [" ".join(map(str, k)) for k in t.modes.tolist()]
        per_mode = np.sort(repeated[0], kind="stable").astype(complex)
        rows = [(v.real, v.imag, k) for k, vals in zip(labels, per_mode) for v in vals]

    def bits(rows):  # float.hex tells -0.0 from 0.0
        return [(float(a).hex(), float(b).hex(), k) for a, b, k in rows]

    assert bits(spectrum_rows(t)) == bits(rows)
    if name == "commuting":  # each mode label carries that mode's eigenvalues
        for k, vals in zip(labels, np.array([r[0] for r in rows]).reshape(len(labels), -1)):
            block = t.blocks[tuple(map(int, k.split()))]
            expect = np.repeat(np.linalg.eigvalsh(block), t.copies)
            assert np.max(np.abs(vals - expect)) <= 1e-12
    if name == "zero":  # rank times the even exterior algebra, 2^(dim-1)
        assert np.count_nonzero(spectrum(t) == 0) == 2 * 2 ** (dim - 1)


@pytest.mark.parametrize("name,dim", _HAND_OFF_CASES)
def test_csv_bytes_are_those_of_csv_writer(name, dim, tmp_path):
    # the oracle is csv.writer on the rows, each route as solved and again
    # with a solve that holds -0.0 in both parts (written "-0.0", not "0.0")
    c, cutoff = _hand_off_case(name, dim)
    t = build_truncation(c, cutoff)

    def oracle():
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([("re", "im", "mode"), *spectrum_rows(t)])
        return buf.getvalue().encode()

    path = tmp_path / "spec.csv"
    export_spectrum_csv(t, path)
    assert path.read_bytes() == oracle()
    shape = (t._spectrum if t.couplings else t._eigvals[0]).shape
    zeros = np.random.default_rng(64).choice([-0.0, 0.0, -1.5, 0.5], (2, *shape))
    signed = np.empty(shape, dtype=complex)
    signed.real, signed.imag = zeros
    t.__dict__["_spectrum" if t.couplings else "_eigvals"] = (
        np.sort(signed, kind="stable") if t.couplings else (signed,)
    )
    export_spectrum_csv(t, path)
    written = path.read_bytes()
    assert written == oracle() and b"\n-0.0," in written and b",-0.0," in written


def test_real_sort_puts_signed_zeros_in_the_order_of_the_solve():
    # numpy's default float sort orders -0.0 and +0.0 as its kernel likes;
    # a solve holding both (LAPACK may yield -0.0) must still hand out the
    # bytes of the stable sort of the repeated solve.  Rank 1: a truncation
    # that eigvalsh solves (a split one hands out +0.0 alone)
    t = build_truncation(Connection.from_constant(3, [np.zeros((1, 1))] * 3), 1)
    assert t.hermitian and t._lines is None
    solved = np.random.default_rng(63).choice([-0.0, 0.0, -1.5, 0.5], t._eigvals[0].shape)
    t.__dict__["_eigvals"] = (solved,)  # the cached solve, replaced
    oracle = np.sort(np.repeat(solved.ravel(), t.copies), kind="stable")
    assert spectrum(t).tobytes() == oracle.astype(complex).tobytes()


def _unitary_rank_two(dim):
    rng = np.random.default_rng(70 + dim)
    return build_truncation(random_unitary_constant_connection(rng, dim, 2), 1)


def test_spectrum_returns_a_copy_of_the_cached_solve():
    # every call hands out a fresh array, with one spinor copy (S^1) and
    # with the copies repeated (two on T^3, four on T^5): writing into one
    # leaves the next unchanged
    circle = build_truncation(diagonal_connection_from_mus([0.25, 0.4 - 0.1j]), 3)
    for t in (circle, _unitary_rank_two(3), _unitary_rank_two(5)):
        first, second = spectrum(t), spectrum(t)
        assert first.tobytes() == second.tobytes() and len(first) == t.size
        first[:] = 0
        assert spectrum(t).tobytes() == second.tobytes()
    with pytest.raises(ValueError):
        circle.blocks[(0,)][0, 0] = 1.0  # the stack behind the cache is read-only


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_cached_spectrum_holds_one_spinor_copy(dim):
    t = _unitary_rank_two(dim)
    assert t.copies == 2 ** (dim // 2)
    assert len(t._spectrum) == t.size // t.copies
    assert t._spectrum.dtype == complex and not t._spectrum.flags.writeable


def test_spectrum_rows_and_csv(tmp_path):
    c = diagonal_connection_from_mus([0.25])
    t = build_truncation(c, 1)
    rows = spectrum_rows(t)
    assert len(rows) == 3
    assert [r[2] for r in rows] == ["-1", "0", "1"]
    path = tmp_path / "spec.csv"
    export_spectrum_csv(t, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,mode"
    assert len(lines) == 4


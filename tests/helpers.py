"""Shared hypothesis strategies and small deterministic generators."""

from __future__ import annotations

import copy
import functools
import math
from fractions import Fraction
from itertools import product
from math import comb, factorial

import numpy as np
from hypothesis import strategies as st

from etacalc.forms import PHI_SCALE, TrigPolyForm
from etacalc.geometry import Connection, gauge_transform
from etacalc.spectral import (
    AXIS_TOL,
    _fixed_part,
    _frequencies,
    ball_truncation,
    clifford_model,
    sign_count,
)

# Small integer/rational-ish entries keep float roundoff tiny, so exact
# identities can be asserted at tight tolerances.
_entry = st.sampled_from(
    [0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1j, -1j, 0.5j, 1 + 1j, 1 - 0.5j]
)


@st.composite
def matrices(draw, rank: int):
    vals = draw(
        st.lists(_entry, min_size=rank * rank, max_size=rank * rank)
    )
    return np.array(vals, dtype=complex).reshape(rank, rank)


@st.composite
def index_tuples(draw, dim: int, degree: int | None = None):
    if degree is None:
        degree = draw(st.integers(min_value=0, max_value=dim))
    idx = draw(
        st.lists(
            st.integers(min_value=1, max_value=dim),
            min_size=degree,
            max_size=degree,
            unique=True,
        )
    )
    return tuple(sorted(idx))


@st.composite
def freq_vectors(draw, dim: int, max_freq: int = 2):
    return tuple(
        draw(
            st.lists(
                st.integers(min_value=-max_freq, max_value=max_freq),
                min_size=dim,
                max_size=dim,
            )
        )
    )


@st.composite
def forms(
    draw,
    dim: int | None = None,
    rank: int | None = None,
    degree: int | None = None,
    max_terms: int = 3,
    max_freq: int = 2,
):
    """Random small TrigPolyForm; fix dim/rank/degree to constrain it."""
    if dim is None:
        dim = draw(st.integers(min_value=1, max_value=3))
    if rank is None:
        rank = draw(st.integers(min_value=1, max_value=2))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n_terms):
        k = draw(freq_vectors(dim, max_freq))
        I = draw(index_tuples(dim, degree))
        M = draw(matrices(rank))
        terms.append(((k, I), M))
    return TrigPolyForm(dim, rank, terms)


@st.composite
def term_lists(draw, dim: int, rank: int, max_terms: int = 6, n_keys: int = 4):
    """(key, matrix) pairs for a form's constructor: keys drawn from a pool
    of ``n_keys`` so that some repeat, and dense float matrices from a
    drawn seed, so that the order of a sum shows in its last bits."""
    pool = draw(
        st.lists(
            st.tuples(freq_vectors(dim), index_tuples(dim)),
            min_size=n_keys,
            max_size=n_keys,
        )
    )
    picks = draw(st.lists(st.sampled_from(pool), max_size=max_terms))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    return [(key, rng_matrix(rng, rank)) for key in picks]


def _reference_merge(I: tuple, J: tuple) -> tuple[int, tuple]:
    """(sign, sorted index tuple) of dx_I ^ dx_J by counting inversions."""
    merged = I + J
    if len(set(merged)) < len(merged):
        return 0, ()
    inversions = sum(
        merged[a] > merged[b]
        for a in range(len(merged))
        for b in range(a + 1, len(merged))
    )
    return (-1) ** inversions, tuple(sorted(merged))


class ReferenceForm:
    """Per-term reference for ``TrigPolyForm``: a dict from key ``(k, I)``
    to one matrix.  Matrices of equal keys are summed in input order, exact
    zero sums are dropped, and every operation works one term (or one pair
    of terms) at a time, in the order the stacked form keeps its keys."""

    def __init__(self, dim: int, rank: int, pairs):
        self.dim, self.rank = dim, rank
        out: dict = {}
        for key, mat in pairs:
            mat = np.asarray(mat, dtype=np.complex128)
            cur = out.get(key)
            out[key] = mat if cur is None else cur + mat
        self.terms = {key: mat for key, mat in out.items() if mat.any()}

    def _new(self, pairs, rank: int | None = None) -> "ReferenceForm":
        return ReferenceForm(self.dim, self.rank if rank is None else rank, pairs)

    def __add__(self, other: "ReferenceForm") -> "ReferenceForm":
        return self._new(list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> "ReferenceForm":
        return self._new((key, -mat) for key, mat in self.terms.items())

    def __sub__(self, other: "ReferenceForm") -> "ReferenceForm":
        return self + (-other)

    def wedge(self, other: "ReferenceForm") -> "ReferenceForm":
        pairs = []
        for (k, I), M in self.terms.items():
            for (l, J), N in other.terms.items():
                sign, K = _reference_merge(I, J)
                if sign:
                    key = (tuple(a + b for a, b in zip(k, l)), K)
                    pairs.append((key, sign * (M @ N)))
        return self._new(pairs)

    def ext_d(self) -> "ReferenceForm":
        pairs = []
        for (k, I), M in self.terms.items():
            for j, kj in enumerate(k, start=1):
                sign, K = _reference_merge((j,), I)
                if kj and sign:
                    pairs.append(((k, K), (sign * 2j * math.pi * kj) * M))
        return self._new(pairs)

    def dagger(self) -> "ReferenceForm":
        return self._new(
            ((tuple(-v for v in k), I), mat.conj().T)
            for (k, I), mat in self.terms.items()
        )

    def mat_trace(self) -> "ReferenceForm":
        traces = ((key, np.array([[np.trace(m)]])) for key, m in self.terms.items())
        return self._new(traces, rank=1)

    def degree_component(self, p: int) -> "ReferenceForm":
        return self._new(
            (key, mat) for key, mat in self.terms.items() if len(key[1]) == p
        )

    def same_bits(self, form: TrigPolyForm) -> bool:
        """``form`` has exactly these keys, rank and matrices, bit for bit
        (signed zeros included)."""
        if form.rank != self.rank:
            return False
        got = {(k, I): mat for k, I, mat in form.terms()}
        return got.keys() == self.terms.keys() and all(
            mat.dtype == np.complex128
            and mat.tobytes() == self.terms[key].tobytes()
            for key, mat in got.items()
        )


def same_stored_terms(f: TrigPolyForm, h: TrigPolyForm) -> bool:
    """``f`` and ``h`` store the same keys in the same order and equal
    matrices (``np.array_equal``: the sign of a zero aside)."""
    return (
        f.rank == h.rank
        and f._keys == h._keys
        and f._mats.shape == h._mats.shape
        and np.array_equal(f._mats, h._mats)
    )


def reference_of(f: TrigPolyForm) -> ReferenceForm:
    """The per-term reference holding the terms of ``f``."""
    return ReferenceForm(f.dim, f.rank, [((k, I), m) for k, I, m in f.terms()])


def rng_matrix(rng: np.random.Generator, rank: int, scale: float = 1.0):
    return scale * (
        rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    )


def rng_form(
    rng: np.random.Generator,
    dim: int,
    rank: int,
    degree: int | None = None,
    n_terms: int = 3,
    max_freq: int = 2,
    scale: float = 1.0,
) -> TrigPolyForm:
    """Dense-float random form for the acceptance-style stress tests."""
    degrees = list(range(dim + 1)) if degree is None else [degree]
    terms = []
    for _ in range(n_terms):
        p = degrees[rng.integers(len(degrees))]
        I = tuple(
            sorted(rng.choice(np.arange(1, dim + 1), size=p, replace=False).tolist())
        )
        k = tuple(int(v) for v in rng.integers(-max_freq, max_freq + 1, size=dim))
        terms.append(((k, I), rng_matrix(rng, rank, scale)))
    return TrigPolyForm(dim, rank, terms)


# ----------------------------------------------------------------------
# connection generators


def random_mus(
    rng: np.random.Generator,
    count: int,
    re_range=(0.08, 0.92),
    im_range=(-0.35, 0.35),
    min_sep: float = 0.05,
) -> list[complex]:
    """Eigenvalue shifts mu with real parts inside the open unit strip and
    pairwise separation (keeps their eigenvalue towers apart)."""
    mus: list[complex] = []
    while len(mus) < count:
        cand = complex(rng.uniform(*re_range), rng.uniform(*im_range))
        if all(abs(cand - m) >= min_sep for m in mus):
            mus.append(cand)
    return mus


def diagonal_connection_from_mus(mus) -> Connection:
    """S^1 connection whose eigenvalue towers sit at 2*pi*(n + mu_k)."""
    a1 = np.diag([2j * np.pi * m for m in mus])
    return Connection.from_constant(1, [a1])


def near_axis_towers() -> list[tuple[complex, bool]]:
    """Tower shifts mu = n + off + i im about the axis rule's threshold,
    each with whether the tower's value 2 pi (mu - n) is on the axis:
    n in {-1, 0, 2}, im in {0, 0.2, -0.15} and +-off, off log-spaced over
    1e-12..1e-7, skipping offsets within 1% of AXIS_TOL / 2 pi; 738 in all.
    Those on the axis are zero modes for im = 0 (108) and excluded from
    eta otherwise (216)."""
    threshold = AXIS_TOL / (2 * math.pi)
    offs = [o for o in np.logspace(-12, -7, 41) if abs(o / threshold - 1) > 0.01]
    return [
        (complex(n + sign * off, im), bool(off < threshold))
        for n in (-1, 0, 2)
        for im in (0.0, 0.2, -0.15)
        for off in offs
        for sign in (1, -1)
    ]


def random_unitary_constant_connection(
    rng: np.random.Generator, dim: int, rank: int, scale: float = 0.8
) -> Connection:
    mats = []
    for _ in range(dim):
        x = rng_matrix(rng, rank, scale)
        mats.append(0.5 * (x - x.conj().T))  # anti-Hermitian
    return Connection.from_constant(dim, mats)


def curved_constant_connection(
    rng: np.random.Generator, dim: int, rank: int, scale: float
) -> Connection:
    """A_j = scale (X_j + 0.3 H_j) / ||X_j + 0.3 H_j||_2, with X_j and H_j
    the skew-Hermitian and Hermitian parts of a random complex matrix:
    not unitary, and curved, as the A_j do not commute."""
    mats = []
    for _ in range(dim):
        x = rng_matrix(rng, rank)
        m = (x - x.conj().T) / 2 + 0.3 * (x + x.conj().T) / 2
        mats.append(scale * m / np.linalg.norm(m, 2))
    return Connection.from_constant(dim, mats)


def random_flat_commuting_connection(
    rng: np.random.Generator, dim: int, rank: int, scale: float = 0.5
) -> Connection:
    """Flat (pairwise-commuting constant) connection, generically
    non-unitary and non-normal: A_j = S D_j S^{-1} with diagonal D_j."""
    while True:
        s = np.eye(rank) + 0.7 * rng_matrix(rng, rank)
        if np.linalg.cond(s) < 40:
            break
    s_inv = np.linalg.inv(s)
    mats = []
    for _ in range(dim):
        d = np.diag(scale * (rng.standard_normal(rank) + 1j * rng.standard_normal(rank)))
        mats.append(s @ d @ s_inv)
    return Connection.from_constant(dim, mats)


def random_nonflat_connection(
    rng: np.random.Generator, dim: int, rank: int, scale: float = 0.4
) -> Connection:
    """Constant + oscillatory connection with generically nonzero curvature."""
    terms = []
    for j in range(1, dim + 1):
        terms.append((((0,) * dim, (j,)), rng_matrix(rng, rank, scale)))
    # one oscillatory term to make the curvature x-dependent
    k = [0] * dim
    k[int(rng.integers(dim))] = int(rng.choice([-1, 1]))
    j = int(rng.integers(1, dim + 1))
    terms.append(((tuple(k), (j,)), rng_matrix(rng, rank, 0.5 * scale)))
    return Connection(TrigPolyForm(dim, rank, terms))


def similar_to_unitary(rng: np.random.Generator) -> Connection:
    """A unitary constant rank-2 T^3 connection gauged by the constant
    u = [[1, 0.7], [0, 1.3]], which is not unitary: similar to a unitary
    connection (the same operator spectrum), yet omega != 0, so its
    Galerkin matrices are not Hermitian."""
    u = np.array([[1.0, 0.7], [0.0, 1.3]], dtype=complex)
    c = random_unitary_constant_connection(rng, 3, 2)
    return gauge_transform(
        c, TrigPolyForm.constant(3, u), TrigPolyForm.constant(3, np.linalg.inv(u))
    )


def r_deformation(c: Connection, r: complex) -> Connection:
    """d + A + (1 + i r)/2 omega: the family that ``cs_r_poly`` expands,
    built directly as the reference it is tested against.  r = 0 gives the
    Hermitian part, r = i the connection itself, r = -i its adjoint; real r
    stays unitary."""
    return Connection(c.a + (1.0 + 1j * complex(r)) / 2.0 * c.omega_metric())


def r_poly_at(coeffs, r: complex) -> TrigPolyForm:
    """sum_i r^i coeffs[i]: a ``cs_r_poly`` expansion evaluated at r."""
    acc = TrigPolyForm.zero(coeffs[0].dim, coeffs[0].rank)
    for i, f in enumerate(coeffs):
        acc = acc + (complex(r) ** i) * f
    return acc


def exp_nilpotent(form: TrigPolyForm) -> TrigPolyForm:
    """Fiberwise exponential of a form with only even degrees >= 2.

    Each wedge power raises the degree by at least 2, so the series
    terminates after at most dim/2 powers and the result is exact.
    Restricting to even degrees keeps the summands in the commutative
    center of the grading (no hidden sign subtleties for curvature
    exponentials).
    """
    if any(p == 0 or p % 2 for p in form.degrees()):
        raise ValueError("exp_nilpotent requires even degrees >= 2 only")
    result = TrigPolyForm.identity(form.dim, form.rank)
    power = result
    for m in range(1, form.dim // 2 + 1):
        power = (1 / m) * power.wedge(form)  # forms are scaled, never divided
        if not power.num_terms():
            break
        result = result + power
    return result


def cs_form_quadrature(c0: Connection, c1: Connection) -> TrigPolyForm:
    """``geometry.cs_form`` by quadrature in t, an independent reference:
    the t-integrand Tr[Adot exp(-Theta_t)] is a polynomial of degree at
    most dim, so Gauss--Legendre with ceil(dim/2) + 1 nodes integrates it
    exactly, A_t, Theta_t and exp(-Theta_t) rebuilt at every node."""
    d = c0.dim
    nodes, weights = np.polynomial.legendre.leggauss((d + 1) // 2 + 1)
    adot = c1.a - c0.a
    acc = TrigPolyForm.zero(d, 1)
    for x, w in zip(nodes, weights):
        t = 0.5 * (x + 1.0)
        at = c0.a + t * adot
        theta = at.ext_d() + at.wedge(at)
        integrand = adot.wedge(exp_nilpotent(-theta)).mat_trace()
        acc = acc + (0.5 * w) * integrand
    return (-1.0 / PHI_SCALE) * acc.phi_normalize()


def chern_character(c: Connection) -> TrigPolyForm:
    """phi Tr[exp(-curvature)]: rank in degree 0 plus curvature corrections
    (the oracle that cs_form transgresses)."""
    return exp_nilpotent(-c.curvature()).mat_trace().phi_normalize()


def phi_normalize_other_root(f: TrigPolyForm) -> TrigPolyForm:
    """``phi_normalize`` with the other square root -PHI_SCALE of 2 pi i:
    each p-form divided by (-PHI_SCALE)^p, degree by degree."""
    out = TrigPolyForm.zero(f.dim, f.rank)
    for p in f.degrees():
        out = out + (1 / (-PHI_SCALE) ** p) * f.degree_component(p)
    return out


class ExteriorModel:
    """The odd signature operator's Clifford data on the whole exterior
    algebra Lambda(C^d), d = 2n+1: c(e_j) = e_j wedge - contraction, the
    chirality-style Gamma = i^{n+1} c(e_1)...c(e_d), the even states, and
    B_j = (Gamma c(e_j))|_even, of order 4^n.  Basis: subsets of {1..d} as
    bitmasks, ordered by integer value.  The reference that the closed-form
    generators of ``spectral.CliffordModel`` are checked against; nothing
    in the package builds it."""

    def __init__(self, dim: int) -> None:
        n_states = 1 << dim
        self.c = []
        for j in range(dim):
            mat = np.zeros((n_states, n_states), dtype=complex)
            bit = 1 << j
            for s in range(n_states):
                # sign: number of basis indices below j already present
                sign = (-1) ** bin(s & (bit - 1)).count("1")
                # wedge inserts e_j, contraction removes it
                mat[s ^ bit, s] = -sign if s & bit else sign
            self.c.append(mat)
        n = (dim - 1) // 2
        gamma = np.eye(n_states, dtype=complex)
        for cj in self.c:
            gamma = gamma @ cj
        self.gamma = (1j) ** (n + 1) * gamma
        self.even_states = [s for s in range(n_states) if bin(s).count("1") % 2 == 0]
        self.b = [
            (self.gamma @ cj)[np.ix_(self.even_states, self.even_states)]
            for cj in self.c
        ]

    @property
    def even_dim(self) -> int:
        return len(self.even_states)


@functools.cache
def exterior_model(dim: int) -> ExteriorModel:
    return ExteriorModel(dim)


def build_sig_mode(c: Connection, k, gens=None) -> np.ndarray:
    """Signature-operator block on the Fourier mode e^{2 pi i k.x} for a
    constant connection, one Kronecker product per direction:
    sum_j G_j (x) (2 pi i k_j I + A_j) (the oracle of the stacked blocks).
    The generators G_j default to the full even-part B_j of
    ``exterior_model``; pass ``clifford_model(dim).beta`` for the one-copy
    blocks the stack holds."""
    gens = exterior_model(c.dim).b if gens is None else gens
    k = tuple(int(v) for v in k)
    if len(k) != c.dim:
        raise ValueError("mode frequency has wrong length")
    if any(any(q) for q, _, _ in c.a.terms()):
        raise ValueError("mode blocks need a constant connection")
    zero = (0,) * c.dim
    mats = [c.a.coefficient(zero, (j,)) for j in range(1, c.dim + 1)]
    out = np.zeros((len(gens[0]) * c.rank,) * 2, dtype=complex)
    eye_r = np.eye(c.rank)
    for j in range(c.dim):
        out += np.kron(gens[j], 2j * math.pi * k[j] * eye_r + mats[j])
    return out


def coupled_dense_oracle(c: Connection, cutoff: int, gens=None) -> np.ndarray:
    """Galerkin matrix of any connection, assembled mode by mode: the
    block sum_j G_j (x) (2 pi i k_j I + A_j) of each mode k on the
    diagonal, A_j the zero-frequency coefficient of dx_j, then G_j (x) A_q
    added to block (k + q, k) for every oscillatory term A_q dx_j and every
    mode k whose target k + q is in the window (the oracle of the
    stack-plus-couplings truncation).  The generators G_j default to the
    full even-part B_j of ``exterior_model``; pass
    ``clifford_model(dim).beta`` for one copy.
    Each diagonal block is summed direction by direction, in the stack's
    order: the beta_j of T^3 share entries, so the order sets the last bit."""
    gens = exterior_model(c.dim).b if gens is None else gens
    per = len(gens[0]) * c.rank
    modes = list(product(range(-cutoff, cutoff + 1), repeat=c.dim))
    index = {k: i for i, k in enumerate(modes)}
    size = len(modes) * per
    dense = np.zeros((size, size), dtype=complex)
    eye_r = np.eye(c.rank)
    zero = (0,) * c.dim
    for k, i in index.items():
        blk = np.zeros((per, per), dtype=complex)
        for j in range(c.dim):
            a_j = c.a.coefficient(zero, (j + 1,))
            blk += np.kron(gens[j], 2j * math.pi * k[j] * eye_r + a_j)
        dense[i * per : (i + 1) * per, i * per : (i + 1) * per] = blk
    for q, I, mat in c.a.terms():
        if not any(q):
            continue
        coupling = np.kron(gens[I[0] - 1], mat)
        for k, i in index.items():
            it = index.get(tuple(a + b for a, b in zip(k, q)))
            if it is not None:
                dense[it * per : (it + 1) * per, i * per : (i + 1) * per] += coupling
    return dense


def mode_components(c: Connection, cutoff: int) -> list[list[int]]:
    """Mode indices (``product`` order) of the connected components of the
    graph joining k and k + q for every oscillatory frequency q of c with
    both ends in the window, found by a search mode by mode; each list is
    ascending, the lists ordered by their first mode."""
    modes = list(product(range(-cutoff, cutoff + 1), repeat=c.dim))
    index = {k: i for i, k in enumerate(modes)}
    freqs = {q for q, _, _ in c.a.terms() if any(q)}
    seen: set[tuple[int, ...]] = set()
    components = []
    for start in modes:
        if start in seen:
            continue
        seen.add(start)
        todo, found = [start], []
        while todo:
            k = todo.pop()
            found.append(index[k])
            for q in freqs:
                for step in (1, -1):
                    nb = tuple(a + step * b for a, b in zip(k, q))
                    if nb in index and nb not in seen:
                        seen.add(nb)
                        todo.append(nb)
        components.append(sorted(found))
    return components


def padded_ball(dim: int, radius: float) -> list[list[int]]:
    """The lattice points k with |k| <= radius + AXIS_TOL / 2 pi, in
    ``product`` order, found by brute force on a cube one wider."""
    reach = math.ceil(radius) + 1
    bound = radius + AXIS_TOL / (2 * math.pi)
    return [
        list(k) for k in product(range(-reach, reach + 1), repeat=dim)
        if math.sqrt(sum(v * v for v in k)) <= bound
    ]


def gauged_t3_connection(mus: np.ndarray, basis: np.ndarray) -> Connection:
    """The constant connection diag(2 pi i mus[j]) on T^3 (mus of shape
    (3, 2)) gauge-transformed by u = Q + P e^{2 pi i x_1}, P and Q the
    orthogonal projections onto the columns of the unitary ``basis``: flat,
    with frequencies 0 and +-e_1 only, unitary when mus is real."""
    p = np.outer(basis[:, 0], basis[:, 0].conj())
    q = np.outer(basis[:, 1], basis[:, 1].conj())
    u = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(1, 0, 0))
    u_inv = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(-1, 0, 0))
    diag = Connection.from_constant(3, [np.diag(2j * math.pi * row) for row in mus])
    return gauge_transform(diag, u, u_inv)

def circle_holonomy(c: Connection, steps: int = 1024) -> tuple[np.ndarray, float]:
    """The holonomy P(1) of a connection c on the circle, P' = -A(x) P,
    P(0) = I, so that a constant A = 2 pi i mu gives e^{-2 pi i mu}: a
    path-ordered exponential, by the fixed-step exponential midpoint rule
    P_N = exp(-h A(x_N)) ... exp(-h A(x_1)), h = 1/N, x_m = (m - 1/2) h,
    later steps on the left.  Returns P_2N, N = ``steps``, and the
    step-doubling error estimate ||P_2N - P_N||_2 / 3 of that rule, whose
    error is of order h^2.  Each step's exponential is its Taylor series,
    summed to rounding, as every step's ||h A||_2 stays below 1/2."""
    terms = [(q, mat) for (q,), _, mat in c.a.terms()]

    def product_at(n: int) -> np.ndarray:
        x = (np.arange(n) + 0.5) / n
        step = sum(np.exp(2j * math.pi * q * x)[:, None, None] * mat for q, mat in terms)
        step = -step / n
        assert np.linalg.norm(step, 2, axis=(1, 2)).max() < 0.5
        exp = term = np.broadcast_to(np.eye(c.rank, dtype=complex), step.shape)
        for order in range(1, 24):
            term = term @ step / order
            exp = exp + term
        return functools.reduce(lambda p, e: e @ p, exp, np.eye(c.rank, dtype=complex))

    coarse, fine = product_at(steps), product_at(2 * steps)
    return fine, float(np.linalg.norm(fine - coarse, 2)) / 3


# ----------------------------------------------------------------------
# independent eta oracle


def sign_sum_eta_oracle(mu: float, n_terms: int = 2000, n_nodes: int = 7) -> float:
    """Eta of the tower {2 pi (n + mu)} straight from its defining series.

    The sign-split sum sum_{n>=0} (n+mu)^{-s} - sum_{n>=1} (n-mu)^{-s} is
    truncated at n_terms, corrected by the integral tail and half-endpoint
    terms, evaluated on the geometric ladder s_j = 1/2^{j+1}, and
    Neville-extrapolated to s = 0.  Probe accuracy: ~2e-9 for mu in (0,1),
    far inside the 1e-6 comparisons it anchors.  No shared code with the
    closed form 1 - 2 mu it is used to check.
    """
    n_pos = np.arange(0, n_terms + 1, dtype=float)
    n_neg = np.arange(1, n_terms + 1, dtype=float)

    def truncated(s: float) -> float:
        head = np.sum((n_pos + mu) ** (-s)) - np.sum((n_neg - mu) ** (-s))
        tail = ((n_terms + mu) ** (1 - s) - (n_terms - mu) ** (1 - s)) / (s - 1)
        half = 0.5 * ((n_terms + mu) ** (-s) - (n_terms - mu) ** (-s))
        return head + tail - half

    svals = [0.5 / 2**j for j in range(n_nodes)]
    t = [truncated(s) for s in svals]
    for level in range(1, n_nodes):
        for i in range(n_nodes - level):
            t[i] = t[i + 1] + (t[i + 1] - t[i]) * svals[i + level] / (
                svals[i] - svals[i + level]
            )
    return t[0]


def symbol_density(c: Connection, direction=None, n_points: int = 128) -> complex:
    """h_d(k), the eta density of a constant connection on the unit sphere
    of frequencies at ``direction`` (default e_d): -copies f_d, with f_d
    the coefficient of eps^d in tr F(M_0(k) + eps V), F(z) = sign(Re z)
    log(sign(Re z) z) on the eigenvalues, M_0(k) = sum_j beta_j (x) 2 pi i
    k_j I and V = sum_j beta_j (x) A_j.  M_0(k) is Hermitian with
    eigenvalues +-2 pi, so by Bauer--Fike no eigenvalue of M_0(k) + eps V
    reaches the axis for |eps| < 2 pi / ||V||_2 and tr F is analytic there;
    f_d is its Cauchy integral on the circle |eps| = pi / ||V||_2, the mean
    over ``n_points`` equispaced points (an error of 2^-n_points, besides
    rounding).  It reads V through ``spectral._fixed_part``, bitwise the
    k = 0 block the operator's stack holds, and no form algebra."""
    v = _fixed_part(_frequencies(c)[(0,) * c.dim])
    norm = np.linalg.norm(v, 2)
    if norm == 0:
        return 0j
    model = clifford_model(c.dim)
    k = np.eye(c.dim)[-1] if direction is None else np.asarray(direction, float)
    k = k / np.linalg.norm(k)
    m0 = sum(np.kron(b, 2j * math.pi * kj * np.eye(c.rank))
             for b, kj in zip(model.beta, k))
    eps = math.pi / norm * np.exp(2j * math.pi * np.arange(n_points) / n_points)
    lam = np.linalg.eigvals(m0 + eps[:, None, None] * v)
    sign = np.sign(lam.real)
    f_d = np.mean(np.sum(sign * np.log(sign * lam), axis=1) * eps ** -c.dim)
    return complex(-model.copies * f_d)


def symbol_eta(c: Connection, cutoff: int) -> tuple[complex, int, np.ndarray]:
    """(eta(0), N, axis values) of a constant connection on T^d, from its
    symbol alone: the independent oracle of the paper's local eta identity.

    Write M(k) = M_0(k) + V and eta(s) = sum_k sum_lambda sign(Re lambda)
    (sign(Re lambda) lambda)^-s, the continuation ``eta_s1_spectral`` takes
    on the circle.  Expanded in powers of V, the order-m term at s = 0 is
    -s f_m(k/|k|) |k|^(-m-s) + O(s^2), f_m = [eps^m] tr F(M_0(k/|k|) +
    eps V).  A lattice sum of g(k/|k|) |k|^-a has its one pole at a = d,
    with residue the integral of g over S^(d-1) (Epstein), so eta(0) = N +
    integral of h_d over S^(d-1), h_d = -copies f_d (``symbol_density``).
    Off the Bauer--Fike ball each block has the inertia of M_0(k), which
    -k's cancels, so N, the count of sign Re, and the values on the axis
    are ``sign_count(ball_truncation(c, cutoff))``.  h_d is constant on
    the sphere, so the integral is vol(S^(d-1)) h_d(e_d), vol(S^(d-1)) =
    2 pi^(d/2) / Gamma(d/2): 2 on the circle, whose "sphere" is {+-1}.
    Neither ``cs_form`` nor the form algebra is read: the local identity
    compares this with them."""
    count, axis = sign_count(ball_truncation(c, cutoff))
    volume = 2 * math.pi ** (c.dim / 2) / math.gamma(c.dim / 2)
    return count + volume * symbol_density(c), count, axis


#: ``exact_cs_pairing`` reads matrix entries on the grid 2^-CS_GRID_BITS Z[i]
CS_GRID_BITS = 12


def _gaussian_integers(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2^CS_GRID_BITS m as (re, im), object arrays of Python ints; an entry
    off the grid is refused (ValueError).  Scaling by a power of 2 is exact."""
    scaled = np.asarray(m, dtype=complex) * 2.0**CS_GRID_BITS
    parts = (scaled.real, scaled.imag)
    if not all(np.array_equal(x, np.round(x)) for x in parts):
        raise ValueError(f"an entry of {m} is not on the 2^-{CS_GRID_BITS} grid")
    return tuple(np.frompyfunc(int, 1, 1)(x) for x in parts)


def _gaussian_product(a: tuple, b: tuple) -> tuple:
    (ar, ai), (br, bi) = a, b
    return ar @ br - ai @ bi, ar @ bi + ai @ br


def _standard_trace(mats: list[np.ndarray]) -> complex:
    """``_exact_standard_trace`` rounded once, to complex."""
    return complex(*_exact_standard_trace(mats))


def _exact_standard_trace(mats: list[np.ndarray]) -> tuple[int, int]:
    """2^(12 m) tr s_m(X_1, ..., X_m) for the m matrices ``mats``, entries
    on the 2^-12 grid, exactly, as a Gaussian integer (re, im) of Python
    ints: s_m(X_1, ..., X_m) = sum_sigma sgn(sigma) X_sigma(1) ...
    X_sigma(m) is the standard polynomial.  It is summed in (re, im) pairs
    of Python-int object arrays of 2^12 X_i by a recursion over the subsets
    T of the positions on the first factor: s(T) = sum_{t in T} (-1)^#{u in
    T: u < t} X_t s(T - t), with s({}) = I, so m 2^(m-1) products instead
    of m! words.  By Amitsur--Levitzki (1950), s_m vanishes on matrices of
    rank <= m/2, and then so does this, exactly."""
    m = len(mats)
    mats = [_gaussian_integers(x) for x in mats]
    rank = mats[0][0].shape[0]
    zero = np.full((rank, rank), 0, dtype=object)
    eye = zero.copy()
    np.fill_diagonal(eye, 1)
    s = [(eye, zero)]  # s[T] for each subset T of positions, as a bit mask
    for subset in range(1, 1 << m):
        re, im, below = zero, zero, 0
        for t in (t for t in range(m) if subset >> t & 1):
            pr, pi = _gaussian_product(mats[t], s[subset ^ (1 << t)])
            sign, below = (-1) ** below, below + 1
            re, im = re + sign * pr, im + sign * pi
        s.append((re, im))
    re, im = s[-1]
    return int(sum(np.diagonal(re))), int(sum(np.diagonal(im)))


def _odd_region(c: Connection, region: tuple[int, ...] | None) -> tuple[int, ...]:
    J = tuple(range(1, c.dim + 1)) if region is None else tuple(region)
    if len(J) % 2 == 0:
        raise ValueError(f"region {J} is not odd-sized")
    return J


def exact_cs_pairing(c: Connection, region: tuple[int, ...] | None = None) -> complex:
    """<CS(0, c)>_J for a constant connection whose A_j have entries on the
    2^-12 grid, exact until the trace is rounded to complex and multiplied
    by K_m: the oracle of the form side, ``subtorus_pairing(cs_form(0, c),
    J)``.

    J is ``region``, odd-sized (default: the whole torus).  For a constant
    connection dA = 0 and the degree-m part of CS(0, c), m = |J| = 2j + 1,
    is a multiple of tr A^m, whose dx_J coefficient is tr s_m(A_J), the
    standard polynomial of the A_i, i in J (``_standard_trace``).  So

        <CS(0, c)>_J = K_m tr s_m(A_J),
        K_m = (-1)^(j+1) / (j! m (2 pi i)^(j+1)) = i^(j+1) / (j! m (2 pi)^(j+1)):

    i/2pi, -1/12pi^2, -i/80pi^3 and 1/672pi^4 for m = 1, 3, 5 and 7.
    It reads only the A_i (``TrigPolyForm.coefficient``), never the form
    algebra, and is exactly 0 at rank <= (m-1)/2 (Amitsur--Levitzki)."""
    J = _odd_region(c, region)
    m, j = len(J), (len(J) - 1) // 2
    trace = _standard_trace([c.a.coefficient((0,) * c.dim, (i,)) for i in J])
    k_m = (1, 1j, -1, -1j)[(j + 1) % 4] / (factorial(j) * m * (2 * math.pi) ** (j + 1))
    return math.ldexp(1.0, -CS_GRID_BITS * m) * trace * k_m


def exact_chern_odd_pairing(
    c: Connection, region: tuple[int, ...] | None = None
) -> complex:
    """<c_m>_J, m = |J| = 2j + 1, for a constant connection whose A_i have
    entries on the 2^-12 grid, exact until the trace is rounded to complex
    and weighted: the oracle of ``subtorus_pairing(c.chern_odd(j), J)``.

    c_m = (2 pi i)^(-j) 2^(-m) tr omega^m with the 1-form omega =
    -(A^dagger + A) = sum_i omega_i dx_i, so omega_i = -(A_i^dagger + A_i)
    is on the grid when A_i is.  Expanded, the dx_J coefficient of omega^m
    is s_m(omega_J), the standard polynomial of the omega_i, i in J
    (``_standard_trace``), so

        <c_m>_J = (2 pi i)^(-j) 2^(-m) tr s_m(omega_J),
        (2 pi i)^(-j) = (-i)^j / (2 pi)^j.

    A unitary connection has omega = 0, so every pairing 0; and this is
    exactly 0 at rank <= j (Amitsur--Levitzki).  It reads only the A_i,
    never the form algebra."""
    J = _odd_region(c, region)
    m, j = len(J), (len(J) - 1) // 2
    a = [c.a.coefficient((0,) * c.dim, (i,)) for i in J]
    trace = _standard_trace([-(x.conj().T + x) for x in a])
    weight = (1, -1j, -1, 1j)[j % 4] / (2 * math.pi) ** j
    return math.ldexp(1.0, -CS_GRID_BITS * m - m) * trace * weight


def exact_cs_r_poly_pairing(
    c: Connection, region: tuple[int, ...] | None = None
) -> list[complex]:
    """The r^k coefficients, k = 0..m, of <CS(h, h + r delta)>_J, m = |J| =
    2j + 1, for a constant connection whose A_i have entries on the 2^-12
    grid, each exact until it is rounded to complex and multiplied by K_m:
    the oracle of ``subtorus_pairing(cs_r_poly(c)[k], J)``.

    h = (A - A^dagger)/2 is the Hermitian part and delta = (i/2) omega =
    -(i/2)(A^dagger + A), so h + r delta is the family A + (1 + i r)/2 omega.
    For constant connections <CS(c0, c1)>_J = <CS(0, c1)>_J - <CS(0, c0)>_J
    = K_m (tr s_m(A1_J) - tr s_m(A0_J)) (``exact_cs_pairing``), and tr s_m
    is linear in each of its m slots, so, polarized,

        tr s_m(h_J + r delta_J) = sum_S r^|S| tr s_m(X^S),

    over the subsets S of the slots, X^S_i = delta_i for i in S and h_i
    elsewhere.  The r^0 term is h's own and cancels; the r^k coefficient is
    K_m times the sum over |S| = k.  2 h_i = A_i - A_i^dagger and 2 delta_i
    = -i (A_i^dagger + A_i) are on the grid, and tr s_m(2X) = 2^m tr
    s_m(X), so the sums are taken exactly in Gaussian integers
    (``_exact_standard_trace``).  It reads only the A_i, never the form
    algebra, and is exactly 0 at rank <= j (Amitsur--Levitzki)."""
    J = _odd_region(c, region)
    m, j = len(J), (len(J) - 1) // 2
    a = [c.a.coefficient((0,) * c.dim, (i,)) for i in J]
    slots = [(x - x.conj().T, -1j * (x.conj().T + x)) for x in a]  # (2 h_i, 2 delta_i)
    sums = [[0, 0] for _ in range(m + 1)]
    for subset in range(1, 1 << m):
        re, im = _exact_standard_trace([pair[subset >> i & 1] for i, pair in enumerate(slots)])
        total = sums[bin(subset).count("1")]
        total[0] += re
        total[1] += im
    k_m = (1, 1j, -1, -1j)[(j + 1) % 4] / (factorial(j) * m * (2 * math.pi) ** (j + 1))
    scale = math.ldexp(1.0, -CS_GRID_BITS * m - m)
    return [scale * complex(re, im) * k_m for re, im in sums]


def a_coeff_exact(j: int, r_squared: Fraction) -> Fraction:
    """a_j at rational r^2, in exact arithmetic (r^2 = -1 corresponds to r = i):
    the oracle of ``geometry.a_coeff``."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return sum(
        Fraction(comb(j, m)) * r_squared**m / (2 * m + 1) for m in range(j + 1)
    )


def _tagged_branch(
    tag: str, value: str, required: tuple[str, ...], props: dict
) -> dict:
    """Applies ``props``, and no other keys, to objects whose ``tag`` is
    ``value``.  One such branch per path kind reports a broken path against
    its own kind, where a ``oneOf`` would report whichever failed last."""
    only_this = {"const": value}
    return {
        "if": {"required": [tag], "properties": {tag: only_this}},
        "then": {
            "additionalProperties": False,
            "required": list(required),
            "properties": {tag: only_this, **props},
        },
    }


def reference_scenario_schema() -> dict:
    """The scenario format as a JSON Schema once stated it, frozen: the
    oracle of ``cli.load_scenario``, which reads and checks the format
    itself.  It is one document, in which every experiment goes through an
    ``if``/``then`` branch of every check (``_tagged_branch``) over the
    check schemas in ``$defs``, in an ``allOf``.  The connection format is
    ``reference_connection_schema``'s."""
    name = {"type": "string"}
    params = {
        "connection": name,
        "from": name,
        "to": name,
        "reference": name,
        "path": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["linear", "gauge"]}},
            "allOf": [
                _tagged_branch(
                    "kind", "linear", ("from", "to"), {"from": name, "to": name}
                ),
                _tagged_branch(
                    "kind",
                    "gauge",
                    ("connection", "winding"),
                    {"connection": name, "winding": {"type": "integer"}},
                ),
            ],
        },
        "r_values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "cutoff": {"type": "integer", "minimum": 1},
        "winding": {"type": "integer"},
        "samples": {"type": "integer", "minimum": 2},
        "rank": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    }
    # a label names a report entry and an artifact file in csv_dir, so it
    # is one file name: no path separator, NUL, "." or ".."
    label = {
        "type": "string",
        "minLength": 1,
        "pattern": r"^[^/\\\x00]*$",
        "not": {"enum": [".", ".."]},
    }
    # check -> (the keys it takes, the required ones among them)
    one = ("connection",)
    checks = {
        "cs_odd_chern_pairing": (("connection", "r_values", "tolerance"), one),
        "gilkey_variation": (("from", "to", "tolerance"), ("from", "to")),
        "variation_complex": (("path", "tolerance", "cutoff"), ("path",)),
        "gauge_pumping": (("connection", "winding", "cutoff"), (*one, "winding")),
        "re_im_split": (("connection", "tolerance"), one),
        "psi_constancy": (("path", "samples", "tolerance"), ("path",)),
        "eta_tilde_imaginary": (("connection", "reference", "tolerance"), one),
        "bk_phase": (("rank", "cutoff"), ()),
        "spectrum": (("connection", "cutoff"), one),
    }
    defs = {
        check: {
            "additionalProperties": False,
            "required": list(required),
            "properties": {
                "check": {"const": check},
                "label": label,
                **{key: params[key] for key in keys},
            },
        }
        for check, (keys, required) in checks.items()
    }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "additionalProperties": False,
        "required": ["manifold", "bundle", "experiments"],
        "properties": {
            "manifold": {
                "type": "object",
                "additionalProperties": False,
                "required": ["dim"],
                "properties": {"dim": {"enum": [1, 3, 5]}},
            },
            "bundle": {
                "type": "object",
                "additionalProperties": False,
                "required": ["rank"],
                "properties": {"rank": {"type": "integer", "minimum": 1}},
            },
            "connections": {
                "type": "object",
                "additionalProperties": {"type": "object"},
            },
            "experiments": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["check"],
                    "properties": {"check": {"enum": list(checks)}},
                    "allOf": [
                        _tagged_branch(
                            "check",
                            check,
                            tuple(branch["required"]),
                            {
                                k: v
                                for k, v in branch["properties"].items()
                                if k != "check"
                            },
                        )
                        for check, branch in defs.items()
                    ],
                },
                "minItems": 1,
            },
            "output": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "report": {"type": "string", "minLength": 1},
                    "csv_dir": {"type": "string", "minLength": 1},
                },
            },
        },
        "$defs": defs,
    }


def reference_connection_schema() -> dict:
    """The connection format as the scenario schema once stated it: the
    oracle of ``Connection.from_json_obj``, which checks it where a
    connection is read.  Matrix entries, key entries and shapes were left
    to the reading then too."""
    form = {
        "type": "object",
        "additionalProperties": False,
        "required": ["dim", "rank", "terms"],
        "properties": {
            "dim": {"type": "integer", "minimum": 1},
            "rank": {"type": "integer", "minimum": 1},
            "terms": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["k", "I", "re", "im"],
                    "properties": dict.fromkeys(("k", "I", "re", "im"), {"type": "array"}),
                },
            },
        },
    }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "additionalProperties": False,
        "required": ["dim", "rank", "A"],
        "properties": {
            "dim": {"type": "integer"},
            "rank": {"type": "integer", "minimum": 1},
            "A": form,
            "g": form,
        },
    }


def json_mutations(node, values=("x", True, None, -1, 0, 1.5, [], {})):
    """Every single mutation of the JSON value ``node``: in each object one
    key dropped or an unknown one added, and each member of an object or
    array, at any depth, set to each of ``values``."""
    if isinstance(node, dict):
        for key in node:
            yield {k: v for k, v in node.items() if k != key}
        yield {**node, "surprise": 1}
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        for new in [*values, *json_mutations(value, values)]:
            out = copy.copy(node)
            out[key] = copy.deepcopy(new)
            yield out

"""Shared hypothesis strategies and small deterministic generators."""

from __future__ import annotations

import copy
import functools
import math
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
from hypothesis import strategies as st

from etacalc import cli
from etacalc.forms import PHI_SCALE, TrigPolyForm
from etacalc.geometry import Connection, gauge_transform
from etacalc.spectral import AXIS_TOL

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
        power = power.wedge(form) / m
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


def a_coeff_exact(j: int, r_squared: Fraction) -> Fraction:
    """a_j at rational r^2, in exact arithmetic (r^2 = -1 corresponds to r = i):
    the oracle of ``geometry.a_coeff``."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return sum(
        Fraction(comb(j, m)) * r_squared**m / (2 * m + 1) for m in range(j + 1)
    )


def reference_scenario_schema() -> dict:
    """The scenario schema as one document, in which every experiment goes
    through an ``if``/``then`` branch of every check: ``cli._tagged_branch``
    over the check schemas in ``$defs``, in an ``allOf``.  The oracle of
    ``cli.load_scenario``, which checks each experiment against its own
    check's schema only."""
    schema = copy.deepcopy(cli.SCENARIO_SCHEMA)
    schema["properties"]["experiments"]["items"]["allOf"] = [
        cli._tagged_branch(
            "check",
            name,
            tuple(branch["required"]),
            {k: v for k, v in branch["properties"].items() if k != "check"},
        )
        for name, branch in schema["$defs"].items()
    ]
    return schema

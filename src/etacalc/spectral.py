"""Twisted odd signature operators on S^1, T^3 (and T^5) via Fourier modes.

The operator is D = Gamma sum_j c(e_j) (d/dx_j + A_j(x)) acting on
even-degree exterior forms twisted by the bundle, where c(X) = X^* - i_X is
the Clifford action on the full exterior algebra and
Gamma = i^{n+1} c(e_1)...c(e_d) for d = 2n+1.  On a flat torus D is the
spin Dirac operator twisted by the bundle and by the trivial spinor bundle
(APS II, 1975), so it is unitarily 2^n copies of
sum_j beta_j (x) (d/dx_j + A_j), where beta_1..beta_d are the generators
of one irreducible Clifford module (beta_j beta_k + beta_k beta_j =
-2 delta_jk) of dimension 2^n.  B_1...B_d, with B_j = (Gamma c(e_j))|_even,
is the scalar i^{-(n+1)}, and for odd d that scalar fixes the module up to
equivalence; ``CliffordModel`` writes its generators down in closed form
(the tests check them against the B_j built on the whole exterior
algebra).  Every Galerkin matrix below is built from the beta_j, and each
of its eigenvalues stands for 2^n eigenvalues of the operator on the even
forms.

For constant connection forms the Fourier modes decouple: one block of
size 2^n * rank per frequency k, namely
    M(k) = sum_j beta_j (x) (2 pi i k_j I + A_j).
The orientation of Gamma is fixed by the circle calibration: for d = 1
(beta_1 = B_1 = -i) and A = 2 pi i mu, the spectrum over the modes is
exactly {2 pi (k + mu)}.

Every truncation is the (n_modes, d) integer lattice of its modes
{|k_j| <= K}, or of a ball in it (``ball_truncation``, under a cap), plus
the (d, rank, rank) zero-frequency coefficients A_j of A.  Their symbol
holds, for each direction j and each frequency k with |k| <= K, the term
kron(beta_j, 2 pi i k I + A_j).  A mode block M(k) = M_0(k) + V is the sum
of one term per direction, and V = sum_j beta_j (x) A_j is M(0).  The
(n_modes, n, n) stack of the mode blocks is assembled from the symbol
without a loop over modes, and the symbol and the stack are built only
when a solve, ``blocks`` or ``dense`` reads the stack.  One coupling
beta_j (x) A_q per oscillatory term A_q e^{2 pi i q.x} dx_j maps mode k to
k + q.  The couplings split the modes into the connected components of
the graph with an edge k -> k + q, each an eigenproblem of its own: the
spectrum is one batched eigen-solve per component size, over the
components' Galerkin matrices assembled from the stack and the couplings
(without couplings, the stack itself), for one spinor copy, cached on the
truncation.  A memory guard, checked where arrays are allocated, refuses
a lattice and symbol, a stack or the line values next to them, a batch
of component matrices next to the stack, or the rows of a spectrum CSV,
that would not fit; so a window that its couplings split into small
components solves.  The symbol is counted, not built, until it is read.

The solve has two routes, chosen by one flag of the truncation,
``hermitian``: the connection is unitary (omega vanishes to 1e-10).  Then
every Galerkin matrix M is Hermitian up to rounding, and the Hermitian
route solves it by one batched ``eigvalsh`` per size class, which reads
only the real part of its diagonal and its lower triangle and keeps the
eigenvalues real.  Every other truncation is solved by one batched
``eigvals`` per size class.  The Hermitian route solves the Hermitian
matrix H that agrees with M on that triangle and on the real part of the
diagonal.  By Bauer--Fike (H is normal) every eigenvalue of M lies within
||M - H||_2 <= ||M - M^H||_F / sqrt(2) of an eigenvalue of H; for the
unitary connections in this package that is rounding, about 1e-15 of the
matrix scale.

A flat unitary constant connection is a sum of flat lines, and a
Hermitian constant truncation of rank >= 2 is solved as one when its A_j
allow.  U is the ``eigh`` basis of sum_j sqrt(j + 1) i A_j; only when
that basis misses the bound below is it moved by one Newton step, a
Cayley rotation, towards the common eigenbasis of the A_j, and the bound
tested again.  W = I (x) U commutes with M_0(k) =
sum_j beta_j (x) 2 pi i k_j I, and K keeps, of P = W^H V W, the Hermitian
part sum_j beta_j i y_jb, y_jb = Im (U^H A_j U)_bb, of each line's block.
Then M(k) = W (M_0(k) + K) W^H + E, ||E||_F = delta = ||P - K||_F =
2^(n/2) ||U^H A U - i diag(y)||_F, so the Hermitian matrices the route
reads of M(k) and of W (M_0(k) + K) W^H, and by Weyl's inequality their
sorted eigenvalues, differ by at most sqrt(2) delta.  M_0(k) + K is the
direct sum of the line blocks H = sum_j beta_j i x_j, x_j = 2 pi k_j + y_jb,
with eigenvalues in closed form (its rounding in place of a solver's):
H = x_1 on the circle (beta_1 = -i); for d >= 3, H^2 = |x|^2 I and
tr H = 0, so -|x| and +|x|, 2^(n-1) times each.  The split needs
delta <= 16 per u ||V||_2, u = 2^-53: the order of LAPACK's backward error
bound p(per) u ||M(0)||_2 for ``eigvalsh``, p modest; commuting unitary
inputs stay under 6 per u ||V||_2.  ||V||_2 is read as ||K||_2 =
max_b |y_b|, equal to it within delta, so the split takes no SVD of V.
It also needs d (2 pi K + rank max |A_j|)^2 < 2^1020, a bound on |x|^2
from |x_j| <= 2 pi K + ||A_j||_2: past it (|x| from about 1e153) a square
could overflow, to +-inf where the stack's solve is finite.  Each split
it accepts, on the ``eigh`` basis or after the step, carries that one
certificate.  The line route reads the A_j alone: it forms no V, solves
nothing and builds neither the symbol nor the stack.  Any other input
(non-commuting A_j, A_j anti-Hermitian only to the flag's 1e-10, rank 1,
couplings, ``eigvals``, points that large) keeps the solve of its stack.

The one copy's eigenvalues are sorted and cast to complex once, and cached
so; ``spectrum`` and ``spectrum_rows`` repeat each of them 2^n times where
they hand them out, and ``sign_count`` counts the one copy and multiplies.
The copies of a value stay adjacent and in order, so the hand-out is
bitwise the sort of the repeated solve.  A split T^d truncation, d >= 3,
keeps its lines as their (n_modes, rank) radii |x| and sorts those once:
its one copy is 0 - the sorted radii in reverse, then the sorted radii,
each 2^(n-1) times, written into the real part of one complex array.
That is bitwise the stable sort of the per-mode -|x|, +|x| (0 - 0.0 is
+0.0, so every zero is +0.0), which are expanded only for
``spectrum_rows``, and it is its own negative bit for bit.  Other complex
eigenvalues are ordered by (Re, Im) with a stable ``np.sort``.  Other real
ones (the Hermitian route: the circle's closed forms and LAPACK alike)
take numpy's default float sort, whose order among equal values depends
on the machine's sort kernel; NaN-free float64 values that compare equal
are bitwise equal except -0.0 and +0.0, so the zeros, contiguous after the
sort, are put back in the order of the solve: bitwise the stable sort on
every route, whether or not a solve yields -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import repeat
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .geometry import Connection, PreconditionError

AXIS_TOL = 1e-9  # the one axis tolerance: ``on_axis`` and the ball pad


def on_axis(vals):
    """The one axis rule, for a number or elementwise over an array: whether
    it is on the imaginary axis, |Re lambda| <= AXIS_TOL, and whether it is
    a zero mode there, |lambda| <= AXIS_TOL.  ``sign_count``, the circle's
    towers, heat eta and ``eta.m_minus`` all decide by it."""
    return abs(vals.real) <= AXIS_TOL, abs(vals) <= AXIS_TOL


# bytes one allocation may take: a truncation's stack or line values and
# mode lattice, or those plus one batch of its complex128 component matrices
MEMORY_LIMIT = 512 * 1024 * 1024


class GuardError(RuntimeError):
    """A numerical guard refused the input; exit 3."""


class MemoryGuardError(GuardError):
    """A requested truncation exceeds the configured memory budget."""


class CutoffInstabilityError(GuardError):
    """A window past the cutoff is needed: a constant connection's ball
    reaches past it, or a coupled flow changed from cutoff K to K + 1."""


# bytes the CSV export of a spectrum holds at its peak, at most, per row
# and per mode (tracemalloc: 153-214 a row on T^5, 334 on a rank-1 circle,
# one row a mode): each row's tuple, floats and text, each mode's label and
# lists; they bound the hand-out of ``spectrum`` too, 16 bytes a row
ROW_BYTES, MODE_BYTES = 256, 512


def _require_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating it, ``what`` needing ``nbytes`` bytes
    beyond ``MEMORY_LIMIT``."""
    if nbytes > MEMORY_LIMIT:
        raise MemoryGuardError(
            f"{what} would need {nbytes} bytes (limit {MEMORY_LIMIT}); "
            "lower the cutoff"
        )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class CliffordModel:
    """The generators ``beta`` of one irreducible Clifford module on
    C^(2^n), d = 2n+1, in closed form: Jordan--Wigner Pauli strings times i,
        beta_{2a-1} = i Z^(a-1) (x) X (x) I^(n-a),
        beta_{2a}   = i Z^(a-1) (x) Y (x) I^(n-a),
        beta_d      = -i Z^n,
    so that beta_1...beta_d = i^-(n+1), the scalar by which B_1...B_d acts
    on the even forms; those are ``copies`` = 2^n copies of this module.
    Every entry is 0, +-1 or +-i with no signed zeros: d = 1 gives
    beta_1 = -i, d = 3 gives (i X, i Y, -i Z).
    """

    def __init__(self, dim: int) -> None:
        if dim < 1 or dim % 2 == 0:
            raise ValueError("dim must be odd and >= 1")
        n = (dim - 1) // 2
        self.dim = dim
        self.copies = 1 << n
        eye, z = np.eye(2), np.diag([1, -1])
        x, iy = np.array([[0, 1], [1, 0]]), np.array([[0, 1], [-1, 0]])  # i Y is real

        def string(*factors: np.ndarray) -> np.ndarray:
            return reduce(np.kron, factors, np.eye(1))

        beta = []
        for a in range(n):
            left, right = [z] * a, [eye] * (n - a - 1)
            beta += [1j * string(*left, x, *right), string(*left, iy, *right)]
        beta.append(-1j * string(*[z] * n))
        # + 0j turns every -0.0 the products leave into +0.0; read-only, as
        # ``clifford_model`` hands the same model to every caller
        self.beta = tuple(_read_only(b + 0j) for b in beta)
        # i sqrt(j + 1), j = 1..dim: the combination the line split's
        # ``eigh`` basis diagonalizes
        self.weights = _read_only(1j * np.sqrt(np.arange(2, dim + 2)))


@cache
def clifford_model(dim: int) -> CliffordModel:
    return CliffordModel(dim)


@dataclass(frozen=True)
class OperatorTruncation:
    """Finite section of the twisted odd signature operator, on one
    irreducible spinor copy (``copies`` = 2^n of them make up the even
    exterior forms on T^d, d = 2n+1; see the module docstring).

    Every truncation is stored the same way, built from the irreducible
    generators beta_j, so per = 2^n * rank.  ``modes`` is the (n_modes, dim)
    integer array of the window's (or a ball's) Fourier modes in ``product``
    order.  ``cutoff`` is the window K: the cube {|k_j| <= K}, or for a ball
    only the cube it lies in and the cap it was checked against.  ``a0``
    holds the (dim, rank, rank) zero-frequency coefficients A_j of A.
    ``symbol``, of shape (dim, 2K + 1, per, per), the terms
    kron(beta_j, 2 pi i k I + A_j) for |k| <= K (see the module docstring),
    is built from them on first read, and ``stack``, of shape (n_modes,
    per, per), is assembled from the symbol on first read (a solve,
    ``blocks``, ``dense``; the line route reads neither): block i maps the
    mode modes[i] to itself, the derivative part plus the zero-frequency
    part of A.  ``couplings`` holds one (q, beta_j (x) A_q) pair per
    oscillatory term of A, which maps each mode k to k + q; it is empty for
    constant connections.  ``blocks`` (constant connections only) is a read-only
    mapping from each frequency, a tuple of ints, to its (per, per) view
    of the stack, and ``dense`` (coupled connections only) is the Galerkin
    matrix of the one copy, built on first use and guarded as one batch.
    ``size`` counts the eigenvalues of the operator on all copies:
    ``copies`` times the one copy's, which ``_spectrum`` caches (the order
    of ``dense``).

    ``hermitian`` says that every Galerkin matrix is Hermitian: the
    connection is unitary.

    The one copy's eigenvalues are computed on first use as the module
    docstring describes (flat lines in closed form from the A_j, the
    ``eigh`` basis refined only when the split's bound asks), without
    building ``dense``; they are repeated over the copies only when handed
    out.
    Every array is read-only so that the cached values cannot go stale.
    """

    dim: int
    rank: int
    cutoff: int
    modes: np.ndarray
    a0: np.ndarray
    couplings: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    hermitian: bool

    @cached_property
    def symbol(self) -> np.ndarray:
        """Built on first read, by the stack's assembly; the memory guards
        count its bytes without it."""
        return _symbol(self.a0, self.cutoff)

    @cached_property
    def stack(self) -> np.ndarray:
        """The mode blocks M(k), guarded twice over (what ``_assemble``
        holds at most) next to the lattice and symbol."""
        n, per = len(self.modes), self.copies * self.rank
        symbol = 16 * self.dim * (2 * self.cutoff + 1) * per * per
        _require_memory(
            32 * n * per * per + self.modes.nbytes + symbol,
            f"the stack of {n} modes, its assembly, the lattice and symbol",
        )
        return _read_only(_assemble(self.symbol, self.modes))

    @cached_property
    def blocks(self) -> Mapping[tuple[int, ...], np.ndarray] | None:
        if self.couplings:
            return None
        keys = map(tuple, self.modes.tolist())
        return MappingProxyType(dict(zip(keys, self.stack)))

    @cached_property
    def _coupling_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """For each coupling, in term order, the mode indices (source,
        target) of the pairs k -> k + q whose target lies in the window
        (the Galerkin projection drops the others), sources ascending.  A
        shift with some |q_j| > 2K has no pair, and gets none before any
        index arithmetic, which past the int64 range would fail."""
        lattice_shape = (2 * self.cutoff + 1,) * self.dim
        pairs = []
        for q, _ in self.couplings:
            if max(map(abs, q)) > 2 * self.cutoff:
                pairs.append((np.empty(0, int), np.empty(0, int)))
                continue
            target = self.modes + q
            inside = np.flatnonzero(np.abs(target).max(axis=1) <= self.cutoff)
            shifted = (target[inside] + self.cutoff).T
            pairs.append((inside, np.ravel_multi_index(shifted, lattice_shape)))
        return tuple(pairs)

    @cached_property
    def dense(self) -> np.ndarray | None:
        """The coupled Galerkin matrix: the whole window assembled as one
        component.  None for a block-diagonal truncation."""
        if not self.couplings:
            return None
        whole = np.arange(len(self.modes))[None]
        return _read_only(self._component_matrices(whole)[0])

    @property
    def size(self) -> int:
        return len(self.modes) * self.rank * self.copies**2

    @property
    def copies(self) -> int:
        return clifford_model(self.dim).copies

    @cached_property
    def _components(self) -> tuple[np.ndarray, ...]:
        """The connected components of the mode graph with an edge k -> k + q
        for every coupling pair, grouped by size: one (m, s) array of mode
        indices per component size s, sizes ascending.  Each row is one
        component, its modes ascending; rows are ordered by first mode."""
        # label every mode by the first mode of its component: take the
        # smaller label across each edge, then jump to the label's label
        labels = np.arange(len(self.modes))
        while True:
            low = labels.copy()
            for source, target in self._coupling_pairs:
                np.minimum.at(low, source, labels[target])
                np.minimum.at(low, target, labels[source])
            low = low[low]
            if np.array_equal(low, labels):
                break
            labels = low
        sizes = np.bincount(labels)[labels]
        order = np.lexsort((labels, sizes))  # stable: modes stay ascending
        sizes = sizes[order]
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1), len(order)]
        return tuple(
            order[a:b].reshape(-1, sizes[a]) for a, b in zip(bounds, bounds[1:])
        )

    def _component_matrices(self, members: np.ndarray) -> np.ndarray:
        """The (m, s * per, s * per) Galerkin matrices of the m components of
        s modes in ``members``: each has the stack of its modes on the block
        diagonal, and each coupling added, in term order, to the blocks
        (k + q, k) of its pairs k -> k + q.  Every pair with its source in
        a component has its target there too, so these are the principal
        submatrices of ``dense``, bitwise.  The memory guard counts them,
        the stack and the lattice before they are allocated."""
        m, s = members.shape
        n, per, _ = self.stack.shape
        _require_memory(
            self.stack.nbytes + self.modes.nbytes + 16 * m * (s * per) ** 2,
            f"the stack, lattice and a batch of shape {(m, s * per, s * per)}",
        )
        out = np.zeros((m, s, per, s, per), dtype=complex)
        pos = np.arange(s)
        out[:, pos, :, pos, :] = self.stack[members].swapaxes(0, 1)
        row = np.full(n, -1)
        row[members] = np.arange(m)[:, None]
        col = np.empty(n, dtype=int)
        col[members] = pos
        for (_, coupling), (source, target) in zip(self.couplings, self._coupling_pairs):
            inside = row[source] >= 0
            source, target = source[inside], target[inside]
            out[row[source], col[target], :, col[source], :] += coupling
        return out.reshape(m, s * per, s * per)

    @cached_property
    def _lines(self) -> np.ndarray | None:
        """``_line_values()``, read once, for a Hermitian constant truncation
        of rank >= 2; None for every truncation that solves its stack."""
        if self.hermitian and self.rank > 1 and not self.couplings:
            return self._line_values()
        return None

    @cached_property
    def _eigvals(self) -> tuple[np.ndarray, ...]:
        """Unsorted eigenvalues of one spinor copy, not yet repeated
        ``copies`` times (real ones from ``eigvalsh`` if ``hermitian``, else
        ``eigvals``): with couplings an (m, s * per) array per entry of
        ``_components``, one row per component, one batched solve per size;
        without, one row per mode, the solve of the stack or, where it splits
        into lines (see the module docstring), their closed form, line by
        line: on T^d, d >= 3, -|x| and then +|x|, 2^(n-1) times each."""
        solve = np.linalg.eigvalsh if self.hermitian else np.linalg.eigvals
        if self.couplings:
            return tuple(solve(self._component_matrices(m)) for m in self._components)
        lines = self._lines
        if lines is None:
            return (solve(self.stack),)
        if self.dim == 1:
            return (lines,)
        signed = np.stack([0 - lines, lines], -1)[..., None]  # (mode, line, sign, 1)
        # 2^(n-1) copies of each sign; a view, not a copy, on T^3
        shape = (*lines.shape, 2, self.copies // 2)
        return (np.broadcast_to(signed, shape).reshape(len(lines), -1),)

    def _line_values(self) -> np.ndarray | None:
        """The (n_modes, rank) closed forms of the line blocks, or None when V
        does not split (see the module docstring): on the circle the
        eigenvalues 2 pi k + y_b, on T^d, d >= 3, the radii |x|."""
        model = clifford_model(self.dim)
        n, e, r, a = len(self.modes), model.copies, self.rank, self.a0
        # |x_j| <= 2 pi K + ||A_j||_2, ||A_j||_2 <= r max |A_j|: no square
        # below overflows unless |x|^2 could (False on NaN, too)
        reach = 2 * math.pi * self.cutoff + r * float(np.abs(a).max())
        if not self.dim * reach * reach < 2.0**1020:
            return None
        u = np.linalg.eigh(np.einsum("j,jbd->bd", model.weights, a))[1]
        d, diag = _rotated(a, u)
        if not _within_split_bound(d, diag.imag, e):
            # one Newton step towards the common eigenbasis, as a Cayley rotation
            gap = diag[:, None, :] - diag[:, :, None]
            norm = np.sum(abs(gap) ** 2, axis=0)
            x = np.sum(gap.conj() * d, axis=0) / np.where(norm > 0, norm, 1)
            x = (x - x.conj().T) / 4
            u = u @ np.linalg.solve(np.eye(r) - x, np.eye(r) + x)
            d, diag = _rotated(a, u)
            if not _within_split_bound(d, diag.imag, e):
                return None
        _require_memory(  # the points x three times over (temporaries), and
            # 24 bytes an eigenvalue: the complex spectrum and sorted radii
            self.modes.nbytes + 24 * n * r * (self.dim + e),
            f"the lattice and {n * r} lines of {e} eigenvalues",
        )
        xs = 2 * math.pi * self.modes[:, None, :] + diag.imag.T  # (mode, line, j)
        if self.dim == 1:  # the line block beta_1 i x: x, as beta_1 = -i
            return (1j * model.beta[0][0, 0]).real * xs[..., 0]
        return np.sqrt(np.einsum("mbj,mbj->mb", xs, xs))

    @cached_property
    def _spectrum(self) -> np.ndarray:
        if self.dim > 1 and self._lines is not None:  # mirrored radii
            radii = np.sort(self._lines, axis=None)
            vals = np.zeros(self.copies * radii.size, dtype=complex)
            real = vals.real.reshape(2, radii.size, self.copies // 2)  # a view
            np.subtract(0, radii[::-1, None], out=real[0])
            real[1] = radii[:, None]
            return _read_only(vals)
        solved = np.concatenate([v.ravel() for v in self._eigvals])
        if solved.dtype == complex:
            vals = np.sort(solved, kind="stable")
        else:  # see the module docstring: signed zeros keep the solve's order
            vals = np.sort(solved)
            vals[vals == 0] = solved[solved == 0]
        return _read_only(vals.astype(complex, copy=False))


def _rotated(a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U^H A_j U - i diag(y_j), y_jb = Im (U^H A_j U)_bb, and the (dim,
    rank) diagonals (U^H A_j U)_bb."""
    d = u.conj().T @ a @ u
    pos = np.arange(len(u))
    diag = d[:, pos, pos]
    d[:, pos, pos] = diag.real
    return d, diag


def _within_split_bound(d: np.ndarray, shifts: np.ndarray, copies: int) -> bool:
    """Whether delta = sqrt(copies) ||d||_F <= 16 per u ||V||_2, u = 2^-53,
    per = copies * rank, with ||V||_2 read as ||K||_2 = max_b |y_b| (see
    the module docstring); False on NaN."""
    scale = np.linalg.norm(shifts, axis=0).max()
    bound = 2**-49 * copies * d.shape[-1] * scale
    return bool(math.sqrt(copies) * np.linalg.norm(d) <= bound)


def _symbol(a: np.ndarray, reach: int) -> np.ndarray:
    """The (dim, 2 reach + 1, per, per) terms kron(beta_j, 2 pi i k I + A_j)
    of the zero-frequency coefficients ``a`` = (A_j) on one copy, formed in
    place in the (j, k, a, ., b, .) view, all directions in one broadcast:
    ``_assemble`` sums them into blocks bitwise equal to summing the
    ``np.kron`` terms mode by mode."""
    dim, r = a.shape[:2]
    beta = np.array(clifford_model(dim).beta)
    e = beta.shape[1]
    ks = np.arange(-reach, reach + 1)
    terms = np.empty((dim, len(ks), e, r, e, r), dtype=complex)
    np.multiply(2j * math.pi, ks[:, None, None, None, None], out=terms)
    terms *= np.eye(r)[:, None, :]
    terms += a[:, None, None, :, None, :]
    terms *= beta[:, None, :, None, :, None]
    return _read_only(terms.reshape(dim, len(ks), e * r, e * r))


def _assemble(symbol: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The blocks M(k) = sum_j symbol[j, k_j], for ``modes`` points of the
    symbol's window: each direction's terms, gathered by the modes'
    frequencies, are added to zeros in turn, so no block holds -0.0."""
    index = (modes + symbol.shape[1] // 2).T  # of each mode's frequencies
    out = np.zeros((len(modes),) + symbol.shape[-2:], dtype=complex)
    for j, freqs in enumerate(index):
        out += symbol[j][freqs]
    return out


def _zero_frequency(c: Connection) -> np.ndarray:
    """The (dim, rank, rank) zero-frequency coefficients A_j of c, read in
    one pass over its terms."""
    a = np.zeros((c.dim, c.rank, c.rank), dtype=complex)
    for k, (j,), mat in c.a.terms():
        if not any(k):
            a[j - 1] = mat
    return _read_only(a)


def _fixed_part(a: np.ndarray) -> np.ndarray:
    """V = M(0) = sum_j beta_j (x) A_j: the terms (0 + A_j) beta_j formed as
    ``_symbol`` forms its k = 0 terms and added to zeros in direction
    order, bitwise ``_assemble``'s block of the mode 0."""
    dim, r = a.shape[:2]
    beta = np.array(clifford_model(dim).beta)
    e = beta.shape[1]
    terms = np.zeros((dim, e, r, e, r), dtype=complex)
    terms += a[:, None, :, None, :]
    terms *= beta[:, :, None, :, None]
    v = np.zeros((e * r, e * r), dtype=complex)
    for term in terms.reshape(dim, e * r, e * r):
        v += term
    return v


def ball_radius(c: Connection) -> float:
    """R = ||V||_2 / 2 pi, V = sum_j beta_j (x) A_j the k = 0 block of c."""
    v = _fixed_part(_zero_frequency(c))
    return float(np.linalg.svd(v, compute_uv=False)[0]) / (2 * math.pi)


def ball_truncation(c: Connection, cutoff: int) -> OperatorTruncation:
    """The truncation of a constant c on its lattice points k with
    |k| <= R + AXIS_TOL / 2 pi, R = ``ball_radius(c)``: the rows of the
    cube of the window K = max(1, ceil(R)) inside that radius, in
    ``product`` order, so each block is bitwise the cube's at K.  A K past
    ``cutoff`` raises CutoffInstabilityError before any assembly, and a
    ``cutoff`` below 1 ValueError, as in ``build_truncation``.
    M(k) = M_0(k) + V with M_0(k) = sum_j beta_j (x) 2 pi i k_j Hermitian,
    of eigenvalues +-2 pi |k|; by Bauer--Fike (1960) every eigenvalue of
    M_0(k) + t V, 0 <= t <= 1, has |Re| >= 2 pi |k| - t ||V||_2 > AXIS_TOL
    off the ball.  There M(k) has the inertia of M_0(k), which -k's cancels,
    and no eigenvalue on the axis: the ball's ``sign_count`` is any window's."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not c.is_constant():
        raise PreconditionError("a Bauer--Fike ball needs a constant connection")
    radius = ball_radius(c)
    window = max(1, math.ceil(radius))
    if window > cutoff:
        raise CutoffInstabilityError(
            f"a Bauer--Fike ball needs cutoff {window}, not {cutoff}"
        )
    modes = _cube(c, window)
    # the squared norms are exact integers, so the test is the norm's
    inside = np.sqrt(np.sum(modes * modes, axis=1)) <= radius + AXIS_TOL / (2 * math.pi)
    return _truncation(c, window, modes[inside])


def _cube(c: Connection, cutoff: int) -> np.ndarray:
    """The (n_modes, dim) lattice {k : |k_j| <= cutoff}, mode k at row i in
    ``product`` order (the last axis varies fastest).  The lattice and the
    symbol of its window are refused together beyond MEMORY_LIMIT, before
    they are allocated."""
    n_modes = (2 * cutoff + 1) ** c.dim
    per = len(clifford_model(c.dim).beta[0]) * c.rank
    _require_memory(
        n_modes * 8 * c.dim + 16 * c.dim * (2 * cutoff + 1) * per * per,
        f"the lattice and symbol of {n_modes} modes",
    )
    modes = np.indices((2 * cutoff + 1,) * c.dim).reshape(c.dim, -1).T
    modes -= cutoff
    return modes


def _truncation(c: Connection, cutoff: int, modes: np.ndarray) -> OperatorTruncation:
    beta = clifford_model(c.dim).beta
    couplings = tuple(
        (q, _read_only(np.kron(beta[I[0] - 1], mat)))
        for q, I, mat in c.a.terms() if any(q)
    )
    # every Galerkin matrix is Hermitian exactly when c is unitary
    return OperatorTruncation(
        c.dim, c.rank, cutoff, _read_only(modes), _zero_frequency(c),
        couplings, c.omega_metric().is_zero(1e-10),
    )


def build_truncation(c: Connection, cutoff: int) -> OperatorTruncation:
    """Assemble the Galerkin section over modes {k : |k_j| <= cutoff}.

    The (n_modes, dim) integer lattice of modes and the zero-frequency
    coefficients A_j are read for every connection, plus one coupling
    beta_j (x) A_q per oscillatory term q of A, on one spinor copy; the
    symbol and the stack wait for the stack's first read.
    Refuses, before allocating them, a lattice and symbol of more than
    ``MEMORY_LIMIT`` bytes together; the stack, and each batch of
    component matrices a solve assembles, are checked in the same way.
    The index arrays of the coupling pairs and of the component labelling
    are not counted: on a rank-1 circle with one coupling they peak at
    about 3.3 times the counted bytes.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return _truncation(c, cutoff, _cube(c, cutoff))


def spectrum(t: OperatorTruncation) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by (Re, Im): a fresh array,
    the truncation's cached one-copy solve with each value repeated
    ``copies`` times."""
    return np.repeat(t._spectrum, t.copies)


def sign_count(t: OperatorTruncation) -> tuple[int, np.ndarray]:
    """Sum of sign Re over the eigenvalues off the axis (``on_axis``), and
    those on it, with multiplicity: ``copies`` times the one copy's sum,
    and its axis values each repeated ``copies`` times."""
    vals = t._spectrum
    axis = on_axis(vals)[0]
    count = int(np.sum(np.sign(vals.real[~axis])))
    return t.copies * count, np.repeat(vals[axis], t.copies)


def spectrum_rows(t: OperatorTruncation) -> list[tuple[float, float, str]]:
    """(Re, Im, mode-label) rows; mode column is empty for coupled matrices."""
    if t.couplings:
        vals = spectrum(t)
        return list(zip(vals.real.tolist(), vals.imag.tolist(), repeat("")))
    rows = []
    per_mode = np.repeat(np.sort(t._eigvals[0], kind="stable"), t.copies, axis=-1)
    parts = zip(t.modes.tolist(), per_mode.real.tolist(), per_mode.imag.tolist())
    for k, re, im in parts:  # one lone mode per row
        rows.extend(zip(re, im, repeat(" ".join(map(str, k)))))
    return rows


def require_export_memory(t: OperatorTruncation) -> None:
    """Refuse, before any row is built, a CSV export of t whose rows would
    need more than ``MEMORY_LIMIT`` bytes (``ROW_BYTES``, ``MODE_BYTES``)."""
    _require_memory(
        ROW_BYTES * t.size + MODE_BYTES * len(t.modes),
        f"the {t.size} rows of a spectrum CSV",
    )


def export_spectrum_csv(t: OperatorTruncation, path) -> None:
    """The rows as ``csv.writer`` writes them: CRLF lines, each float as its
    ``repr``; no field needs quoting (labels are integers and spaces)."""
    rows = spectrum_rows(t)
    with open(path, "w", newline="") as fh:
        fh.write("re,im,mode\r\n")
        fh.writelines(f"{re!r},{im!r},{k}\r\n" for re, im, k in rows)

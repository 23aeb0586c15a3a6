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
{|k_j| <= K}, or of a ball in it (``ball_truncation``, under a cap), one stacked
(n_modes, n, n) array of these mode-diagonal blocks (A_j its zero-frequency
part), assembled without a loop over modes, and one coupling beta_j (x) A_q
per oscillatory term A_q e^{2 pi i q.x} dx_j, which maps mode k to k + q.
The couplings split the modes into the connected components of the graph
with an edge k -> k + q, each an eigenproblem of its own: the spectrum is
one batched eigen-solve per component size, over the components' Galerkin
matrices assembled from the stack and the couplings (without couplings, the
stack itself), for one spinor copy, cached on the truncation.  A memory
guard, checked where arrays are allocated, refuses a stack and lattice, or
a batch of component matrices next to them, that would not fit; so a window
that its couplings split into small components solves.

The solve has two routes, chosen by one flag of the truncation,
``hermitian``: the connection is unitary (omega vanishes to 1e-10) and its
fiber metric is exactly the identity.  Then every Galerkin matrix M is
Hermitian up to rounding, and the Hermitian route reads only the real
part of its diagonal and its lower triangle: order 2 in closed form,
(a + d)/2 -+ hypot((a - d)/2, |b|) with b = M[1, 0], larger orders by one
batched ``eigvalsh`` (which reads the same lower triangle) per size class,
keeping the eigenvalues real.  Every other truncation is solved by one
batched ``eigvals`` per size class.  The Hermitian route solves the
Hermitian matrix H that agrees with M on that triangle and on the real
part of the diagonal.  By Bauer--Fike (H is normal) every eigenvalue of M
lies within ||M - H||_2 <= ||M - M^H||_F / sqrt(2) of an eigenvalue of H;
for the unitary connections in this package that is rounding, about
1e-15 of the matrix scale.  A connection that is unitary for another
metric is self-adjoint for the g-weighted inner product but not for the
standard one the matrices are written in, so its stack is not Hermitian
and keeps ``eigvals``.

A flat unitary constant connection is a sum of flat lines, and a
Hermitian constant truncation of rank >= 2 is solved as one when its k = 0
block V = sum_j beta_j (x) A_j allows.  U is the ``eigh`` basis of
sum_j sqrt(j + 1) i A_j (A_j read off V by tr(beta_j^H beta_l) =
2^n delta_jl), moved by one Newton step, a Cayley rotation, towards the
common eigenbasis of the A_j.  W = I (x) U commutes with M_0(k) =
sum_j beta_j (x) 2 pi i k_j I, and K keeps, of P = W^H V W, the Hermitian
part K_b of each line's diagonal block.  Then M(k) = W (M_0(k) + K) W^H + E
with ||E||_F = delta = ||P - K||_F, so the Hermitian matrices the route
reads of M(k) and of W (M_0(k) + K) W^H differ by at most sqrt(2) delta,
and by Weyl's inequality so do their sorted eigenvalues.  M_0(k) + K is
the direct sum of the line blocks M_0(k) + K_b of order 2^n, one batch (on
T^3 in closed form).  The split needs delta <= 16 per u ||V||_2, u = 2^-53:
the order of LAPACK's backward error bound p(per) u ||M(0)||_2 for
``eigvalsh``, p modest; commuting unitary inputs stay under 6 per u ||V||_2.
Any other input (non-commuting A_j, A_j anti-Hermitian only to the flag's
1e-10, rank 1, couplings, ``eigvals``) keeps the solve of its stack.

The one copy's eigenvalues are sorted, then each is repeated 2^n times
and the whole cast to complex once, where ``spectrum`` and
``spectrum_rows`` hand them out.  The copies of a value stay adjacent and
in order, so this is bitwise the sort of the repeated solve.  Complex
eigenvalues are ordered by (Re, Im) with a stable ``np.sort``.  Real ones
(the Hermitian route, closed form and LAPACK alike) take numpy's default
float sort, whose order among equal values depends on the machine's sort
kernel; NaN-free float64 values that compare equal are bitwise equal
except -0.0 and +0.0, so the zeros, contiguous after the sort, are put
back in the order of the solve.  That is bitwise the stable sort on every
route, whether or not a solve yields -0.0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .geometry import Connection, PreconditionError

AXIS_TOL = 1e-9  # |Re| at or below this is on the axis: ``sign_count``, the ball pad

# bytes one allocation may take: a truncation's stack and mode lattice, or
# those plus one batch of its complex128 component matrices
MEMORY_LIMIT = 512 * 1024 * 1024


class GuardError(RuntimeError):
    """A numerical guard refused the input; exit 3."""


class MemoryGuardError(GuardError):
    """A requested truncation exceeds the configured memory budget."""


class CutoffInstabilityError(GuardError):
    """A window past the cutoff is needed: a constant connection's ball
    reaches past it, or a coupled flow changed from cutoff K to K + 1."""


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
    order, and ``stack`` has shape (n_modes, per, per): block i maps the mode
    modes[i] to itself, the derivative part plus the zero-frequency part of A.
    ``couplings`` holds one (q, beta_j (x) A_q) pair per oscillatory term
    of A, which maps each mode k to k + q; it is empty for constant
    connections.  ``blocks`` (constant connections only) is a read-only
    mapping from each frequency, a tuple of ints, to its (per, per) view
    of the stack, and ``dense`` (coupled connections only) is the Galerkin
    matrix of the one copy, built on first use and guarded as one batch.
    ``size`` counts the eigenvalues of the operator on all copies:
    ``copies`` times the order of ``dense``.

    ``hermitian`` says that every Galerkin matrix is Hermitian: the
    connection is unitary and its fiber metric is the identity.

    The eigenvalues are computed once per truncation, on first use, as
    the module docstring describes, without building ``dense``.  Every
    array is read-only so that the cached values cannot go stale.
    """

    dim: int
    rank: int
    cutoff: int
    modes: np.ndarray
    stack: np.ndarray
    couplings: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    hermitian: bool

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
        (the Galerkin projection drops the others), sources ascending."""
        lattice_shape = (2 * self.cutoff + 1,) * self.dim
        pairs = []
        for q, _ in self.couplings:
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
        return len(self.modes) * self.stack.shape[1] * self.copies

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
        if s == 1:  # lone modes: their blocks of the stack
            return self.stack[members[:, 0]]
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
    def _eigvals(self) -> tuple[np.ndarray, ...]:
        """Unsorted eigenvalues of one spinor copy, one batched solve per
        component size (real ones from ``_eigvalsh`` if ``hermitian``, else
        ``eigvals``): an (m, s * per) array per entry of ``_components``,
        one row per component, not yet repeated ``copies`` times.  Without
        couplings the solve is that of the stack, one row per mode, or, where
        a Hermitian stack splits into lines (see the module docstring), of
        the rank line blocks of each mode, row k holding those of mode k."""
        solve = _eigvalsh if self.hermitian else np.linalg.eigvals
        if self.couplings:
            return tuple(solve(self._component_matrices(m)) for m in self._components)
        lines = self._line_blocks() if self.hermitian and self.rank > 1 else None
        if lines is not None:
            return (_eigvalsh(lines).reshape(len(self.modes), -1),)
        return (solve(self.stack),)

    def _line_blocks(self) -> np.ndarray | None:
        """The (n_modes * rank, 2^n, 2^n) line blocks M_0(k) + K_b, mode by
        mode, or None when V does not split (see the module docstring)."""
        n, per, _ = self.stack.shape
        beta = np.array(clifford_model(self.dim).beta)
        e, r, pos = beta.shape[1], self.rank, np.arange(self.rank)
        v = self.stack[n // 2]  # V, the block of k = 0
        a = np.einsum("jac,abcd->jbd", beta.conj(), v.reshape(e, r, e, r))  # 2^n A_j
        weights = 1j * np.sqrt(np.arange(2, self.dim + 2))
        u = np.linalg.eigh(np.einsum("j,jbd->bd", weights, a))[1]
        d = u.conj().T @ a @ u  # then one Newton step, as a Cayley rotation
        gap = d[:, None, pos, pos] - d[:, pos, pos, None]
        norm = np.sum(abs(gap) ** 2, axis=0)
        x = np.sum(gap.conj() * d, axis=0) / np.where(norm > 0, norm, 1)
        x = (x - x.conj().T) / 4
        u = u @ np.linalg.solve(np.eye(r) - x, np.eye(r) + x)
        p = np.einsum("bx,abcd,dy->axcy", u.conj(), v.reshape(e, r, e, r), u)
        lines = (p[:, pos, :, pos] + p[:, pos, :, pos].conj().swapaxes(1, 2)) / 2
        p[:, pos, :, pos] -= lines
        if np.linalg.norm(p) > 8 * per * np.finfo(float).eps * np.linalg.norm(v, 2):
            return None
        _require_memory(
            self.stack.nbytes + self.modes.nbytes + 16 * n * (1 + r) * e * e,
            f"the stack, lattice, M_0(k) and {n * r} line blocks of order {e}",
        )
        free = np.einsum("kj,jac->kac", 2j * math.pi * self.modes, beta)
        return (free[:, None] + lines).reshape(n * r, e, e)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        solved = np.concatenate([v.ravel() for v in self._eigvals])
        if solved.dtype == complex:
            vals = np.sort(solved, kind="stable")
        else:  # see the module docstring: signed zeros keep the solve's order
            vals = np.sort(solved)
            vals[vals == 0] = solved[solved == 0]
        return np.repeat(vals.astype(complex, copy=False), self.copies)


def _eigvalsh(matrices: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a batch of Hermitian matrices, from the
    real diagonal and the lower triangle (see the module docstring)."""
    if matrices.shape[-1] != 2:
        return np.linalg.eigvalsh(matrices)
    a, d = matrices[..., 0, 0].real, matrices[..., 1, 1].real
    mid, radius = (a + d) / 2, np.hypot((a - d) / 2, np.abs(matrices[..., 1, 0]))
    return np.stack([mid - radius, mid + radius], axis=-1)


def _galerkin_hermitian(c: Connection) -> bool:
    """Whether c's Galerkin matrices are Hermitian: the fiber metric is
    exactly the constant identity, one term, and omega vanishes to 1e-10.
    On that metric omega is -(A^dagger + A), the same terms summed in the
    other order, so A + A^dagger gives the same answer without the wedges
    of ``omega_metric``."""
    (k, _, g), *rest = c.g.terms()
    if rest or any(k) or g.tolist() != np.eye(c.rank).tolist():
        return False
    return (c.a + c.a.dagger()).is_zero(1e-10)


def _stacked_blocks(c: Connection, cutoff: int) -> np.ndarray:
    """The mode blocks M(k) = sum_j beta_j (x) (2 pi i k_j I + A_j) for every
    k in the lattice, stacked in ``product`` order, where A_j is the
    zero-frequency coefficient of dx_j.

    The stack is viewed as (k_1, ..., k_d, a, ., b, .), so that each
    direction j forms its term kron(beta_j, 2 pi i k_j I + A_j), once per
    frequency and in place in one (n_freqs, per, per) buffer, and adds it
    with one broadcast along lattice axis j.  Same operands and order as
    summing the ``np.kron`` terms mode by mode, so the blocks are bitwise
    equal to it: the zeros of beta_j add zeros, and the stack holds no -0.0.
    """
    model = clifford_model(c.dim)
    e, r = len(model.beta[0]), c.rank
    ks = np.arange(-cutoff, cutoff + 1)
    n_freqs = len(ks)
    stack = np.zeros((n_freqs**c.dim, e * r, e * r), dtype=complex)
    grid = stack.reshape((n_freqs,) * c.dim + (e, r, e, r))
    term = np.empty((n_freqs, e, r, e, r), dtype=complex)
    for j in range(c.dim):
        np.multiply(2j * math.pi, ks[:, None, None, None, None], out=term)
        term *= np.eye(r)[:, None, :]
        term += c.a.coefficient((0,) * c.dim, (j + 1,))[:, None, :]
        term *= model.beta[j][:, None, :, None]
        shape = (1,) * j + (n_freqs,) + (1,) * (c.dim - 1 - j) + term.shape[1:]
        grid += term.reshape(shape)
    return _read_only(stack)


def ball_radius(c: Connection) -> float:
    """R = ||V||_2 / 2 pi, V = sum_j beta_j (x) A_j the k = 0 block of c."""
    v = _stacked_blocks(c, 0)[0]  # ||V||_2 is its largest singular value
    return float(np.linalg.svd(v, compute_uv=False)[0]) / (2 * math.pi)


def ball_truncation(c: Connection, cutoff: int) -> OperatorTruncation:
    """The rows k of ``build_truncation(c, K)``, K = max(1, ceil(R)), with
    |k| <= R + AXIS_TOL / 2 pi, R = ``ball_radius(c)``, for a constant c; a
    K past ``cutoff`` raises CutoffInstabilityError before any assembly.
    M(k) = M_0(k) + V with M_0(k) = sum_j beta_j (x) 2 pi i k_j Hermitian,
    of eigenvalues +-2 pi |k|; by Bauer--Fike (1960) every eigenvalue of
    M_0(k) + t V, 0 <= t <= 1, has |Re| >= 2 pi |k| - t ||V||_2 > AXIS_TOL
    off the ball.  There M(k) has the inertia of M_0(k), which -k's cancels,
    and no eigenvalue on the axis: the ball's ``sign_count`` is any window's."""
    if not c.is_constant():
        raise PreconditionError("a Bauer--Fike ball needs a constant connection")
    radius = ball_radius(c)
    window = max(1, math.ceil(radius))
    if window > cutoff:
        raise CutoffInstabilityError(
            f"a Bauer--Fike ball needs cutoff {window}, not {cutoff}"
        )
    cube = build_truncation(c, window)
    keep = np.linalg.norm(cube.modes, axis=1) <= radius + AXIS_TOL / (2 * math.pi)
    modes, stack = (_read_only(x[keep]) for x in (cube.modes, cube.stack))
    return replace(cube, modes=modes, stack=stack)


def build_truncation(c: Connection, cutoff: int) -> OperatorTruncation:
    """Assemble the Galerkin section over modes {k : |k_j| <= cutoff}.

    The (n_modes, dim) integer lattice of modes and the mode-diagonal stack
    are built for every connection, plus one coupling beta_j (x) A_q per
    oscillatory term q of A, on one spinor copy.  Refuses, before
    allocating them, a stack and lattice of more than ``MEMORY_LIMIT``
    bytes together; a solve checks each batch of component matrices it
    assembles in the same way.  The index arrays of the coupling pairs and
    of the component labelling are not counted: on a rank-1 circle with
    one coupling they peak at about 3.3 times the counted bytes.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    model = clifford_model(c.dim)
    n_modes = (2 * cutoff + 1) ** c.dim
    per = len(model.beta[0]) * c.rank
    _require_memory(
        n_modes * (16 * per * per + 8 * c.dim),
        f"the stack and lattice of {n_modes} modes",
    )
    # mode k at row i in ``product`` order: the last axis varies fastest
    modes = np.indices((2 * cutoff + 1,) * c.dim).reshape(c.dim, -1).T
    modes -= cutoff
    couplings = tuple(
        (q, _read_only(np.kron(model.beta[I[0] - 1], mat)))
        for q, I, mat in c.a.terms() if any(q)
    )
    return OperatorTruncation(
        c.dim, c.rank, cutoff, _read_only(modes),
        _stacked_blocks(c, cutoff), couplings, _galerkin_hermitian(c),
    )


def spectrum(t: OperatorTruncation) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by (Re, Im); a copy of the
    truncation's cached solve."""
    return t._spectrum.copy()


def sign_count(t: OperatorTruncation) -> tuple[int, np.ndarray]:
    """Sum of sign Re over the eigenvalues off the axis, and those on it."""
    vals = t._spectrum
    axis = np.abs(vals.real) <= AXIS_TOL
    return int(np.sum(np.sign(vals.real[~axis]))), vals[axis]


def spectrum_rows(t: OperatorTruncation) -> list[tuple[float, float, str]]:
    """(Re, Im, mode-label) rows; mode column is empty for coupled matrices."""
    if t.couplings:
        return [(float(v.real), float(v.imag), "") for v in t._spectrum]
    rows = []
    sorted_rows = np.sort(t._eigvals[0], kind="stable")  # one lone mode per row
    sorted_rows = np.repeat(sorted_rows, t.copies, axis=-1)
    for k, vals in zip(t.modes.tolist(), sorted_rows):
        label = " ".join(str(v) for v in k)
        rows.extend((float(v.real), float(v.imag), label) for v in vals)
    return rows


def export_spectrum_csv(t: OperatorTruncation, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "mode"])
        writer.writerows(spectrum_rows(t))

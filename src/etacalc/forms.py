"""Matrix-valued trigonometric-polynomial differential forms on flat tori.

The basic object is a finite sum of terms

    M * exp(2*pi*i <k, x>) * dx_{i_1} ^ ... ^ dx_{i_p}

where M is a fixed (rank x rank) complex matrix, k an integer frequency
vector, and 1 <= i_1 < ... < i_p <= dim.  This family of forms is closed
under addition, wedge product, exterior derivative, conjugate transpose
and trace, so every identity downstream (Chern--Simons transgression,
L-form factorization, odd Chern character calibrations) can be verified
exactly -- up to float roundoff -- rather than on a sampling
grid.

Coordinates live on the unit torus R^d / Z^d, so the volume of the full
torus is 1 and ``exp(2*pi*i*k*x)`` is periodic for integer k.

A form stores its terms stacked: a tuple of distinct keys ``(k, I)`` and
one read-only complex array of shape ``(n, rank, rank)`` whose row ``i`` is
the matrix of key ``i``; no row is zero.  Each operation walks the keys in
Python and does its matrix work in a few numpy calls over the whole stack
(a wedge is one batched matrix product over all key pairs), instead of
several calls per term.

Outside input is validated once, where it enters: the ``TrigPolyForm``
constructor checks every key (1.0 passes; a bool, a string or 1.5 is
refused, not rounded) and shape, copies every matrix, and raises
:class:`InvalidInputError` when input is no form.  ``from_json_obj`` is
where the JSON format is checked, the whole of it: an object with exactly
its keys at each level, integer ``dim`` and ``rank``, lists where lists
belong, and matrices of ``rank`` rows of ``rank`` finite numbers; no
schema restates it.  Each refusal of JSON starts with the JSON path of
what it refuses, as the readers ``_json_fields``, ``_integer`` and
``_number`` name it, which ``etacalc.cli`` reads a scenario with too.
Operations on valid forms skip those checks, and the one routine
``_sum_terms`` sums the terms of every result they compute, the
constructor's included.  The units cost no numpy call, since the general
route would only rebuild an operand:

* ``x + 0``, ``0 + x``, ``0 ^ x`` and ``x ^ 0`` return an operand, as do
  ``I ^ x`` and ``x ^ I`` for the shared ``identity(dim, rank)`` (the
  general route multiplies by 1 and adds exact zeros, so it differs at most
  in the sign of a zero entry);
* ``ext_d`` of a form whose every term d kills (a constant form among
  them) and a product with the scalar 0 return the shared
  ``zero(dim, rank)``;
* negation, ``dagger`` and ``degree_component`` keep distinct keys and
  nonzero rows, so ``_sum_terms`` skips its summing and its zero-row scan.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Terms whose matrix norm falls at or below this are treated as zero by
# comparison helpers.  Arithmetic itself only prunes exact zeros, so exact
# identities (d of d, telescoping sums) collapse to the empty form.
EQ_TOL = 1e-12

# The principal square root sqrt(2 pi) e^{i pi/4} of 2 pi i: the degree
# normalization phi divides a p-form by its p-th power.
PHI_SCALE = math.sqrt(2.0 * math.pi) * np.exp(0.25j * math.pi)


class InvalidInputError(ValueError):
    """Outside input describes no valid form, connection or scenario (a
    bad shape, index or entry; a key missing or unknown; a fiber metric
    other than the identity).  Only input validation raises it, so it
    never stands for a failure inside the numerics."""


TermKey = tuple[tuple[int, ...], tuple[int, ...]]
Term = tuple[TermKey, np.ndarray]


@cache
def _merge_sign(I: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign of sorting the concatenation I+J, or (0, ()) on a repeated index.

    This is the sign picked up when moving dx_I ^ dx_J into increasing
    order; a repeated index means the wedge vanishes.  Cached: a torus of
    dimension d has at most 4^d index-tuple pairs.
    """
    merged = list(I) + list(J)
    sign = 1
    for a in range(1, len(merged)):
        b = a
        while b > 0 and merged[b - 1] > merged[b]:
            merged[b - 1], merged[b] = merged[b], merged[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and merged[b - 1] == merged[b]:
            return 0, ()
    return sign, tuple(merged)


def _sum_terms(
    keys: Sequence[TermKey], mats: np.ndarray, unique: bool = False, nonzero: bool = False
) -> tuple[tuple[TermKey, ...], np.ndarray]:
    """The terms of a form from one key per row of the (n, rank, rank)
    array ``mats``: the rows of equal keys are summed in input order into
    the row of the key's first appearance (skipped when the caller knows the
    keys are ``unique``), rows whose sum is exactly zero are dropped (the
    scan skipped when the caller knows the keys are unique and no row is
    zero: ``nonzero``), and the array kept is made read-only in place, not
    copied.  So ``mats`` must be fresh or already read-only, and may be
    shared."""
    if not (unique or nonzero):
        slot: dict[TermKey, int] = {}
        first: list[int] = []
        rest: list[int] = []
        rest_slot: list[int] = []
        for i, key in enumerate(keys):
            s = slot.setdefault(key, len(slot))
            if s == len(first):
                first.append(i)
            else:
                rest.append(i)
                rest_slot.append(s)
        if rest:
            summed = mats.take(first, axis=0)
            np.add.at(summed, rest_slot, mats.take(rest, axis=0))  # sequential
            keys, mats = tuple(slot), summed
    if not nonzero:
        kept = mats.any(axis=(1, 2)).tolist()
        if not all(kept):
            keys = [key for key, keep in zip(keys, kept) if keep]
            mats = mats[kept]
    mats.flags.writeable = False
    return tuple(keys), mats


def _integer(v, at: str, least: float = -math.inf) -> int:
    """The value ``v`` that ``at`` names as an int: an int or an integral
    float, not a bool, and at least ``least``."""
    if type(v) is int:
        n = v
    elif isinstance(v, (int, np.integer)) and not isinstance(v, bool) or (
        isinstance(v, (float, np.floating)) and float(v).is_integer()
    ):
        n = int(v)
    else:
        raise InvalidInputError(f"{at} {v!r} is not an integer")
    if n < least:
        raise InvalidInputError(f"{at} {n} is less than {least}")
    return n


def _number(value, at: str) -> int | float:
    """``value`` if it is a number that a float holds: not a bool (as in
    JSON Schema), and neither NaN, an infinity nor an int past the float
    range."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise InvalidInputError(f"{at} {value!r} is not a finite number")
    return value


def _json_fields(obj, at: str, keys: tuple, optional: tuple = (), lists: tuple = ()):
    """The values of ``keys`` in the JSON value ``obj`` at the JSON path
    ``at``, which must be an object with all of ``keys``, those of
    ``optional`` at most and no other key, and lists under ``lists``.  A
    refusal names the keys missing and unknown."""
    odd = ["it is no object"]
    if isinstance(obj, Mapping):
        odd = [f"no {k!r}" for k in keys if k not in obj]
        odd += [f"unknown {k!r}" for k in obj if k not in keys and k not in optional]
    if odd:
        raise InvalidInputError(
            f"{at} must be an object with the keys "
            + ", ".join([*keys, *(f"{k} (optional)" for k in optional)])
            + f": {', '.join(odd)}"
        )
    for key in lists:
        if not isinstance(obj[key], list):
            raise InvalidInputError(f"{at}.{key} {obj[key]!r} is not a list")
    return tuple(obj[key] for key in keys)


def _key(k, I, dim: int, at: str) -> TermKey:
    """The key of the term at ``at`` as ints: ``k`` a frequency vector of
    ``dim`` integers and ``I`` an index tuple strictly increasing in
    1..dim."""
    k = tuple(_integer(v, f"{at}.k[{j}]") for j, v in enumerate(k))
    I = tuple(_integer(v, f"{at}.I[{j}]") for j, v in enumerate(I))
    if len(k) != dim:
        raise InvalidInputError(f"{at}.k {list(k)} does not have dim={dim} entries")
    if any(a >= b for a, b in zip(I, I[1:])) or any(not 1 <= i <= dim for i in I):
        raise InvalidInputError(f"{at}.I {list(I)} is not strictly increasing in 1..{dim}")
    return k, I


def _matrix(rows, rank: int, at: str) -> np.ndarray:
    """The JSON value ``rows`` at ``at`` as a float array: ``rank`` rows of
    ``rank`` numbers (``_number``) each."""
    if not isinstance(rows, list) or len(rows) != rank or any(
        not isinstance(row, list) or len(row) != rank for row in rows
    ):
        raise InvalidInputError(f"{at} is not a list of rows of numbers, {rank} by {rank}")
    return np.array(
        [[_number(x, f"{at}[{i}][{j}]") for j, x in enumerate(row)]
         for i, row in enumerate(rows)],
        dtype=float,
    )


class TrigPolyForm:
    """An inhomogeneous matrix-valued form with trig-polynomial coefficients.

    Immutable: all operations return new instances and the stacked matrix
    array is read-only, so results share it freely.  The constructor
    validates its input and copies the matrices; operations build their
    results from valid forms without either, through ``_new``.
    """

    __slots__ = ("dim", "rank", "_keys", "_mats")

    def __init__(
        self,
        dim: int,
        rank: int,
        terms: Mapping[TermKey, np.ndarray] | Iterable[Term] = (),
    ) -> None:
        self.dim, self.rank = _integer(dim, "dim", 1), _integer(rank, "rank", 1)
        keys: list[TermKey] = []
        mats: list[np.ndarray] = []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for n, ((k, I), mat) in enumerate(items):
            keys.append(_key(k, I, self.dim, f"terms[{n}]"))
            mat = np.asarray(mat, dtype=np.complex128)
            if mat.shape != (self.rank, self.rank):
                raise InvalidInputError(
                    f"terms[{n}] matrix shape {mat.shape} != ({rank},{rank})"
                )
            mats.append(mat)
        # np.array copies, so the caller keeps their matrices
        if mats:
            stack = np.array(mats)
        else:
            stack = np.zeros((0, self.rank, self.rank), dtype=np.complex128)
        self._keys, self._mats = _sum_terms(keys, stack)

    def _new(
        self,
        keys: Sequence[TermKey],
        mats: np.ndarray,
        rank: int | None = None,
        unique: bool = False,
        nonzero: bool = False,
    ) -> "TrigPolyForm":
        """A form on this torus (of this rank unless given) from keys and a
        stack that an operation computed from valid forms: neither checked
        nor copied.  ``unique`` says the keys are already distinct,
        ``nonzero`` that they are and that no row is zero."""
        out = object.__new__(TrigPolyForm)
        out.dim = self.dim
        out.rank = self.rank if rank is None else rank
        out._keys, out._mats = _sum_terms(keys, mats, unique, nonzero)
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int, rank: int) -> "TrigPolyForm":
        """The empty form, built once per (dim, rank), as ``identity`` is."""
        return _zero(dim, rank)

    @classmethod
    def constant(cls, dim: int, mat: np.ndarray) -> "TrigPolyForm":
        """Degree-0 form with constant coefficient ``mat``."""
        mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
        return cls(dim, mat.shape[0], {((0,) * dim, ()): mat})

    @classmethod
    def identity(cls, dim: int, rank: int) -> "TrigPolyForm":
        """The constant identity, built once per (dim, rank): forms are
        immutable, so every caller may share it."""
        return _identity(dim, rank)

    @classmethod
    def monomial(
        cls,
        dim: int,
        mat: np.ndarray,
        k: Iterable[int] = (),
        I: Iterable[int] = (),
    ) -> "TrigPolyForm":
        """Single term M exp(2 pi i <k,x>) dx_I (k defaults to 0)."""
        mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
        kk = tuple(k) if k else (0,) * dim
        return cls(dim, mat.shape[0], {(tuple(kk), tuple(I)): mat})

    @classmethod
    def constant_one_form(cls, dim: int, mats: Iterable[np.ndarray]) -> "TrigPolyForm":
        """sum_j M_j dx_j with constant matrices M_j (j = 1..dim)."""
        mats = [np.atleast_2d(np.asarray(m, dtype=np.complex128)) for m in mats]
        if len(mats) != dim:
            raise InvalidInputError("need one matrix per coordinate")
        rank = mats[0].shape[0]
        return cls(
            dim, rank, {((0,) * dim, (j + 1,)): mats[j] for j in range(dim)}
        )

    # ------------------------------------------------------------------
    # inspection

    def terms(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], np.ndarray]]:
        keys = self._keys
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            k, I = keys[i]
            yield k, I, self._mats[i]

    def num_terms(self) -> int:
        return len(self._keys)

    def degrees(self) -> set[int]:
        return {len(I) for (_, I) in self._keys}

    def coefficient(self, k: Iterable[int], I: Iterable[int]) -> np.ndarray:
        key = (tuple(int(v) for v in k), tuple(int(v) for v in I))
        if key not in self._keys:
            return np.zeros((self.rank, self.rank), dtype=np.complex128)
        return np.array(self._mats[self._keys.index(key)])

    def max_abs(self) -> float:
        if not self._keys:
            return 0.0
        return float(np.max(np.abs(self._mats)))

    def is_zero(self, tol: float = EQ_TOL) -> bool:
        return self.max_abs() <= tol

    def allclose(self, other: "TrigPolyForm", tol: float = EQ_TOL) -> bool:
        return (self - other).is_zero(tol)

    def __repr__(self) -> str:  # short, for debugging/tests
        return (
            f"TrigPolyForm(dim={self.dim}, rank={self.rank}, "
            f"terms={len(self._keys)}, degrees={sorted(self.degrees())})"
        )

    # ------------------------------------------------------------------
    # linear structure

    def _check_compatible(self, other: "TrigPolyForm") -> None:
        if self.dim != other.dim or self.rank != other.rank:
            raise ValueError("forms live on different tori or bundle ranks")

    def __add__(self, other: "TrigPolyForm") -> "TrigPolyForm":
        self._check_compatible(other)
        if not other._keys:
            return self
        if not self._keys:
            return other
        return self._new(
            self._keys + other._keys, np.concatenate((self._mats, other._mats))
        )

    def __neg__(self) -> "TrigPolyForm":
        return self._new(self._keys, -self._mats, nonzero=True)

    def __sub__(self, other: "TrigPolyForm") -> "TrigPolyForm":
        return self + (-other)

    def __mul__(self, scalar: complex) -> "TrigPolyForm":
        scalar = complex(scalar)
        if scalar == 0:
            return _zero(self.dim, self.rank)
        return self._new(self._keys, scalar * self._mats, unique=True)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "TrigPolyForm":
        return self * (1.0 / complex(scalar))

    # ------------------------------------------------------------------
    # graded algebra

    def wedge(self, other: "TrigPolyForm") -> "TrigPolyForm":
        """Wedge product; matrix coefficients multiply in order.  A product
        with the empty form is that operand, and one with the shared
        ``identity`` the other operand, as the general route computes it
        (up to the sign of a zero entry)."""
        self._check_compatible(other)
        unit = _identity(self.dim, self.rank)
        if not self._keys or other is unit:
            return self
        if not other._keys or self is unit:
            return other
        keys: list[TermKey] = []
        left: list[int] = []
        right: list[int] = []
        signs: list[int] = []
        for ia, (k, I) in enumerate(self._keys):
            for ib, (l, J) in enumerate(other._keys):
                sign, K = _merge_sign(I, J)
                if sign != 0:
                    keys.append((tuple(map(add, k, l)), K))
                    left.append(ia)
                    right.append(ib)
                    signs.append(sign)
        products = self._mats.take(left, axis=0) @ other._mats.take(right, axis=0)
        return self._new(keys, np.array(signs)[:, None, None] * products)

    def ext_d(self) -> "TrigPolyForm":
        """Exterior derivative: d(M e^{2 pi i k.x} dx_I)
        = sum_j (2 pi i k_j) M e^{2 pi i k.x} dx_j ^ dx_I."""
        keys: list[TermKey] = []
        rows: list[int] = []
        coefs: list[complex] = []
        for i, (k, I) in enumerate(self._keys):
            for j, kj in enumerate(k, start=1):
                if kj == 0:
                    continue
                sign, K = _merge_sign((j,), I)
                if sign != 0:
                    keys.append((k, K))
                    rows.append(i)
                    coefs.append(sign * 2j * math.pi * kj)
        if not keys:  # d kills every term, as it does a constant form's
            return _zero(self.dim, self.rank)
        coef = np.array(coefs, dtype=np.complex128)[:, None, None]
        return self._new(keys, coef * self._mats.take(rows, axis=0))

    def dagger(self) -> "TrigPolyForm":
        """Fiberwise conjugate transpose.

        Matrices go to M^*, frequencies to -k (conjugating the phase), and
        the real coordinate differentials are fixed.  For homogeneous forms
        this satisfies (a ^ b)^dagger = (-1)^{pq} b^dagger ^ a^dagger.
        """
        keys = [(tuple(-v for v in k), I) for k, I in self._keys]
        return self._new(keys, self._mats.conj().transpose(0, 2, 1), nonzero=True)

    def mat_trace(self) -> "TrigPolyForm":
        """Fiberwise matrix trace; result has rank 1 so the algebra stays closed."""
        traces = np.trace(self._mats, axis1=1, axis2=2)[:, None, None]
        return self._new(self._keys, traces, rank=1, unique=True)

    def degree_component(self, p: int) -> "TrigPolyForm":
        keep = [len(I) == p for _, I in self._keys]
        keys = [key for key, kept in zip(self._keys, keep) if kept]
        return self._new(keys, self._mats[np.array(keep, dtype=bool)], nonzero=True)

    # ------------------------------------------------------------------
    # normalization, evaluation, integration

    def phi_normalize(self) -> "TrigPolyForm":
        """Degree-dependent rescaling: a p-form is divided by s^p with
        s = PHI_SCALE, so s^2 = 2 pi i.

        The other square root -s would flip the odd-degree parts only, so
        Chern characters (even degrees) and Chern--Simons forms (odd
        degrees, divided by s once more) do not depend on the choice.
        """
        scales = np.array([PHI_SCALE ** len(I) for _, I in self._keys], dtype=complex)
        return self._new(self._keys, self._mats / scales[:, None, None], unique=True)

    def integrate(self, region: tuple[int, ...] | None = None) -> np.ndarray:
        """Integrate over the coordinate subtorus through 0 whose directions
        are the 1-based, increasing indices ``region`` (default: the full
        torus).

        The form is pulled back to the subtorus (the other coordinates
        pinned at 0, so a term's phase there is 1) and its top-degree part
        integrated with unit total volume.  Terms whose index set is a
        *proper* subset of the subtorus directions would pull back to a
        nonzero lower-degree form: that is a degree mismatch and raises
        ValueError.  Callers integrating an inhomogeneous form should select
        ``degree_component(len(region))`` first.
        """
        if region is None:
            region = tuple(range(1, self.dim + 1))
        Jset = frozenset(region)
        total = np.zeros((self.rank, self.rank), dtype=np.complex128)
        for (k, I), mat in zip(self._keys, self._mats):
            if not set(I) <= Jset:
                continue  # a dx outside the subtorus pulls back to zero
            if len(I) != len(region):
                raise ValueError(
                    "integrand has a lower-degree component on the subtorus; "
                    "take degree_component first"
                )
            if any(k[j - 1] != 0 for j in region):
                continue  # oscillatory in an integrated direction: mean zero
            total += mat
        return total

    # ------------------------------------------------------------------
    # serialization

    def to_json_obj(self) -> dict:
        terms = []
        for k, I, mat in self.terms():
            terms.append(
                {
                    "k": list(k),
                    "I": list(I),
                    "re": np.real(mat).tolist(),
                    "im": np.imag(mat).tolist(),
                }
            )
        return {"dim": self.dim, "rank": self.rank, "terms": terms}

    @classmethod
    def from_json_obj(cls, obj: Mapping, at: str = "$") -> "TrigPolyForm":
        """The form of ``to_json_obj``, read from the JSON value ``obj`` that
        stands at the JSON path ``at``: an object with exactly the keys
        ``dim``, ``rank`` and ``terms``, ``dim`` and ``rank`` integers >= 1
        (``_integer``), ``terms`` a list of objects with exactly the keys
        ``k``, ``I``, ``re`` and ``im``, whose ``k`` and ``I`` are lists
        that make a key (``_key``) and whose ``re`` and ``im`` are ``rank``
        rows of ``rank`` finite numbers (``_matrix``).  Anything else raises
        InvalidInputError, starting with the JSON path of what it refuses,
        down to an entry such as ``$.terms[0].re[0][1]``."""
        dim, rank, terms = _json_fields(obj, at, ("dim", "rank", "terms"), lists=("terms",))
        dim, rank = _integer(dim, f"{at}.dim", 1), _integer(rank, f"{at}.rank", 1)
        pairs: list[Term] = []
        for i, term in enumerate(terms):
            where = f"{at}.terms[{i}]"
            k, I, re, im = _json_fields(term, where, ("k", "I", "re", "im"), lists=("k", "I"))
            mat = _matrix(re, rank, f"{where}.re") + 1j * _matrix(im, rank, f"{where}.im")
            pairs.append((_key(k, I, dim, where), mat))
        return cls(dim, rank, pairs)


# The shared units of ``identity`` and ``zero``, built once per (dim, rank);
# the operations look them up here, one cached call.
@cache
def _identity(dim: int, rank: int) -> TrigPolyForm:
    return TrigPolyForm.constant(dim, np.eye(rank))


@cache
def _zero(dim: int, rank: int) -> TrigPolyForm:
    return TrigPolyForm(dim, rank)

"""Connections on trivialized bundles over flat tori and the transgression
and characteristic forms built from them.

A connection is d + A for a degree-1 trig-polynomial form A, together with
a Hermitian fiber metric g.  The central derived objects:

* ``omega_metric``: the failure of d + A to preserve g (zero exactly for
  unitary connections), computed once per connection;
* ``hermitian_part``, the metric-compatible connection A + omega/2;
* Chern--Simons transgression forms between two connections, their
  expansion ``cs_r_poly`` in r along the family A + (1 + i r)/2 omega (both
  from one closed-form expansion), and odd Chern forms.

A metric is checked once, where it enters: in the ``Connection``
constructor, which ``gauge_transform`` (a new metric from the caller's u)
also runs.  Invalid input raises :class:`~etacalc.forms.InvalidInputError`
there, as does a non-constant metric or u given without its inverse.
``hermitian_part``, ``linear_path`` and :func:`etacalc.flow.gauge_path`
derive connections that keep their parent's checked metric through
``Connection.with_form``, which checks nothing.

All conventions are pinned by exactly-computable calibrations in the test
suite (flat-circle Chern--Simons values, winding numbers, metric
compatibility checks), so every sign here is load-bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from math import comb, factorial
from operator import add
from typing import Callable, Sequence

import numpy as np

from .forms import EQ_TOL, PHI_SCALE, InvalidInputError, TrigPolyForm

TWO_PI_I = 2j * math.pi


class PreconditionError(ValueError):
    """The inputs are outside the domain of a check or a construction (a
    non-flat connection, the wrong torus, endpoints on the imaginary axis,
    different fiber metrics): the question asked is inapplicable, not
    answered wrongly."""


# Deterministic sample points for positive-definiteness spot checks.
_SPOT_FRACTIONS = (0.0, 0.31830988618, 0.61803398875, 0.14142135623)


def invert_degree0(g: TrigPolyForm) -> TrigPolyForm:
    """Invert a constant degree-0 form by plain linear algebra.  Any other
    form, and a singular constant, is refused with InvalidInputError: the
    inverse of a non-constant metric is the caller's to pass (``g_inv``)."""
    terms = list(g.terms())
    if any(any(k) or I for k, I, _ in terms):
        raise InvalidInputError(
            "only a constant degree-0 form is inverted: pass g_inv for a "
            "non-constant metric; a scenario metric must be constant"
        )
    mat = terms[0][2] if terms else np.zeros((g.rank, g.rank))
    try:
        inverse = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:  # raised only when singular
        raise InvalidInputError(f"constant form is singular: {exc}") from exc
    return TrigPolyForm.constant(g.dim, inverse)


@dataclass(frozen=True)
class Connection:
    """d + a on a trivialized rank-r bundle over T^dim, with fiber metric g.

    ``a`` must be pure degree 1.  ``g`` (degree 0) defaults to the identity;
    it must be Hermitian and positive definite (spot-checked on sample
    points).  ``g_inv`` must be supplied when g is not constant, since
    :func:`invert_degree0` inverts constant forms only.  The constructor
    checks all of this and raises InvalidInputError; :meth:`with_form`
    reuses the checked metric.  omega is computed once.

    A metric that is exactly the constant identity (given, read from JSON
    or left out) is held as the shared ``TrigPolyForm.identity``, which is
    Hermitian, positive and its own inverse, so only a ``g_inv`` the caller
    supplies is checked; the wedges by it in omega then return their other
    operand and d of it the empty form, so omega is -(A^dagger + A) through
    the one general formula.
    """

    a: TrigPolyForm
    g: TrigPolyForm = None  # type: ignore[assignment]
    g_inv: TrigPolyForm = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if set(self.a.degrees()) - {1}:
            raise InvalidInputError("connection form must be pure degree 1")
        ident = TrigPolyForm.identity(self.a.dim, self.a.rank)
        g = ident if self.g is None else self.g
        if g.dim != self.a.dim or g.rank != self.a.rank:
            raise InvalidInputError("metric shape mismatch")
        if g is ident or g.allclose(ident, 0.0):
            # exactly I: Hermitian, positive definite and its own inverse
            object.__setattr__(self, "g", ident)
            if self.g_inv is None:
                object.__setattr__(self, "g_inv", ident)
                return
        else:
            if set(g.degrees()) - {0}:
                raise InvalidInputError("metric must be a degree-0 form")
            if not g.allclose(g.dagger(), 1e-10):
                raise InvalidInputError("metric must be Hermitian")
            if self.g_inv is None:
                object.__setattr__(self, "g_inv", invert_degree0(g))
        if not self.g.wedge(self.g_inv).allclose(ident, 1e-9):
            raise InvalidInputError("g_inv is not an inverse of g")
        if self.g is not ident:
            self._spot_check_positive()

    def with_form(self, a: TrigPolyForm) -> "Connection":
        """d + a on this metric, unchecked: a must be degree 1, of this shape."""
        derived = object.__new__(Connection)
        vars(derived).update(a=a, g=self.g, g_inv=self.g_inv)
        return derived

    def _spot_check_positive(self) -> None:
        d = self.dim
        for i in range(3):
            x = [(_SPOT_FRACTIONS[(i + j) % len(_SPOT_FRACTIONS)]) for j in range(d)]
            mat = self.g.evaluate_at(x).get((), np.zeros((self.rank, self.rank)))
            vals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
            if np.min(vals) <= 0:
                raise InvalidInputError(
                    "metric is not positive definite at sample point"
                )

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.a.dim

    @property
    def rank(self) -> int:
        return self.a.rank

    @classmethod
    def from_constant(
        cls,
        dim: int,
        mats: Sequence[np.ndarray],
        g: TrigPolyForm | None = None,
    ) -> "Connection":
        """Connection with constant coefficient matrices A_1..A_dim."""
        return cls(TrigPolyForm.constant_one_form(dim, list(mats)), g)

    # ------------------------------------------------------------------
    # metric structure

    def curvature(self) -> TrigPolyForm:
        """dA + A^A; identically zero exactly for flat connections."""
        return self.a.ext_d() + self.a.wedge(self.a)

    def is_flat(self, tol: float = 1e-10) -> bool:
        return self.curvature().is_zero(tol)

    def is_constant(self) -> bool:
        return not any(any(k) for k, _, _ in self.a.terms())

    @cached_property
    def _omega(self) -> TrigPolyForm:
        nabla_g = (
            self.g.ext_d() - self.a.dagger().wedge(self.g) - self.g.wedge(self.a)
        )
        return self.g_inv.wedge(nabla_g)

    def omega_metric(self) -> TrigPolyForm:
        """g^{-1} (dg - A^dagger g - g A): the defect of metric compatibility.

        d + A + omega is the metric adjoint of d + A; omega vanishes exactly
        when the connection is unitary for g.  For g = I this is -(A^dagger + A).
        """
        return self._omega

    def hermitian_part(self) -> "Connection":
        """The metric-compatible connection d + A + omega/2."""
        return self.with_form(self.a + 0.5 * self.omega_metric())

    def chern_odd(self, j: int) -> TrigPolyForm:
        """Odd Chern form of degree 2j+1: (2 pi i)^{-j} 2^{-(2j+1)} Tr[omega^{2j+1}]."""
        if j < 0:
            raise ValueError("j must be >= 0")
        w = self.omega_metric()
        power = w
        for _ in range(2 * j):
            power = power.wedge(w)
        return (TWO_PI_I ** (-j) * 2.0 ** (-(2 * j + 1))) * power.mat_trace()

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "rank": self.rank,
            "A": self.a.to_json_obj(),
            "g": self.g.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Connection":
        """The connection of ``to_json_obj``; its ``dim`` and ``rank`` keys
        must agree with the form ``A``."""
        a = TrigPolyForm.from_json_obj(obj["A"])
        if (obj["dim"], obj["rank"]) != (a.dim, a.rank):
            raise InvalidInputError(
                f"connection declares dim={obj['dim']} rank={obj['rank']}, "
                f"its form A is dim={a.dim} rank={a.rank}"
            )
        g = TrigPolyForm.from_json_obj(obj["g"]) if "g" in obj and obj["g"] else None
        return cls(a, g)


# ----------------------------------------------------------------------
# deformation coefficients


def a_coeff(j: int, r: complex) -> complex:
    """a_j(r) = integral_0^1 (1 + u^2 r^2)^j du = sum_m C(j,m) r^{2m}/(2m+1)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    r = complex(r)
    return sum(comb(j, m) * r ** (2 * m) / (2 * m + 1) for m in range(j + 1))


# ----------------------------------------------------------------------
# transgression and characteristic forms


def _require_common_metric(c0: Connection, c1: Connection) -> None:
    if c0.dim != c1.dim or c0.rank != c1.rank:
        raise PreconditionError("connections live on different bundles")
    if c0.g is not c1.g and not c0.g.allclose(c1.g, 1e-10):
        raise PreconditionError(
            "the linear path between two connections requires a common metric"
        )


def linear_path(c0: Connection, c1: Connection) -> Callable[[float], Connection]:
    """t -> d + (1 - t) A_0 + t A_1 on the metric c0 and c1 share."""
    _require_common_metric(c0, c1)
    return lambda t: c0.with_form(c0.a * (1.0 - t) + c1.a * t)


def _cs_integral(a0: TrigPolyForm, delta: TrigPolyForm) -> list[TrigPolyForm]:
    """integral_0^1 exp(-Theta_t) dt along A_t = A_0 + t delta, by degree in
    delta: R_n at index n, so that CS(A_0, A_0 + s delta) = sum_n s^{n+1}
    ``_transgression(delta, R_n)``.

    Theta_t = theta_0 + t theta_1 + t^2 theta_2, with theta_0 = dA_0 +
    A_0^A_0, theta_1 = d delta + A_0^delta + delta^A_0 and theta_2 =
    delta^delta.  With P_{m,n} the t^n coefficient of Theta_t^m,

        integral_0^1 exp(-Theta_t) dt
            = I + sum_{m >= 1} (-1)^m / m! sum_n P_{m,n} / (n + 1).

    theta_i has degree i in delta, so P_{m,n} has degree n and its weight
    1/(n + 1) comes with it.  Tr[delta ^ Theta_t^m] has degree 2m + 1, so
    m <= (dim - 1)/2 and n <= dim - 1; on the circle the integral is I and
    no theta is built.  Even-degree matrix forms do not commute, so no
    multinomial formula applies: P_{m,n} = sum_i P_{m-1,n-i} ^ theta_i,
    from Theta_t^m = Theta_t^{m-1} ^ Theta_t, keeps each product's order.
    """
    top = (a0.dim - 1) // 2
    integral = [TrigPolyForm.identity(a0.dim, a0.rank)]
    if top:
        integral += [TrigPolyForm.zero(a0.dim, a0.rank)] * (2 * top)
        theta = (
            a0.ext_d() + a0.wedge(a0),
            delta.ext_d() + a0.wedge(delta) + delta.wedge(a0),
            delta.wedge(delta),
        )
        power = theta  # P_{m,n}, n = 0..2m
        for m in range(1, top + 1):
            if m > 1:
                power = [
                    reduce(add, (power[n - i].wedge(theta[i])
                                 for i in range(3) if 0 <= n - i < len(power)))
                    for n in range(len(power) + 2)
                ]
            for n, p in enumerate(power):
                integral[n] = integral[n] + (-1) ** m / (factorial(m) * (n + 1)) * p
    return integral


def _transgression(delta: TrigPolyForm, integral: TrigPolyForm) -> TrigPolyForm:
    """-(2 pi i)^{-1/2} phi Tr[delta ^ integral]."""
    return (-1.0 / PHI_SCALE) * delta.wedge(integral).mat_trace().phi_normalize()


def cs_form(c0: Connection, c1: Connection) -> TrigPolyForm:
    """Chern--Simons transgression along the linear path from c0 to c1:
    -(2 pi i)^{-1/2} phi( integral_0^1 Tr[delta exp(-Theta_t)] dt ), Theta_t
    the curvature of A_t = A_0 + t delta, delta = A_1 - A_0; d(CS) = ch(c1) - ch(c0).

    The t-integral is exact: the sum of the parts of ``_cs_integral``.
    """
    _require_common_metric(c0, c1)
    delta = c1.a - c0.a
    return _transgression(delta, reduce(add, _cs_integral(c0.a, delta)))


def cs_r_poly(c: Connection) -> tuple[TrigPolyForm, ...]:
    """Expand r -> CS(hermitian part, A + (1 + i r)/2 omega) in powers of r:
    the dim + 1 coefficient forms, the coefficient of r^i at index i.

    The family is the Hermitian part at r = 0, the connection itself at
    r = i and its metric adjoint at r = -i.  It is the Hermitian part plus
    r delta with delta = (i/2) omega, so the coefficient of r^{n+1} is
    ``_transgression(delta, R_n)`` of ``_cs_integral``, exactly; the
    r^0 coefficient and those above the integral's top degree are zero.
    """
    delta = 0.5j * c.omega_metric()
    parts = _cs_integral(c.hermitian_part().a, delta)
    zero = TrigPolyForm.zero(c.dim, 1)
    coeffs = [_transgression(delta, r) for r in parts]
    return (zero, *coeffs, *[zero] * (c.dim - len(coeffs)))


# ----------------------------------------------------------------------
# gauge action, pairings


def _gauge_form(a: TrigPolyForm, u: TrigPolyForm, u_inv: TrigPolyForm) -> TrigPolyForm:
    """u^{-1} a u + u^{-1} du: the connection form d + a pulled back by u."""
    return u_inv.wedge(a).wedge(u) + u_inv.wedge(u.ext_d())


def gauge_transform(c: Connection, u: TrigPolyForm, u_inv: TrigPolyForm) -> Connection:
    """Pull back the connection by the bundle automorphism u, whose inverse
    the caller passes as ``u_inv``: A -> u^{-1} A u + u^{-1} du,
    g -> u^dagger g u."""
    a_new = _gauge_form(c.a, u, u_inv)
    g_new = u.dagger().wedge(c.g).wedge(u)
    g_inv_new = u_inv.wedge(c.g_inv).wedge(u_inv.dagger())
    return Connection(a_new, g_new, g_inv_new)


def subtorus_pairing(
    form: TrigPolyForm, region: tuple[int, ...] | None = None
) -> complex:
    """Integrate a scalar form over the coordinate subtorus whose directions
    are the 1-based indices ``region`` (default: the full torus), selecting
    the matching degree first.  The L-form of the flat metrics in scope is
    the constant 1, so this is the pairing with it."""
    if form.rank != 1:
        raise ValueError("pairing expects a scalar (rank-1) form; trace first")
    deg = form.dim if region is None else len(region)
    return complex(form.degree_component(deg).integrate(region)[0, 0])


def odd_subtori(dim: int) -> tuple[tuple[int, ...], ...]:
    """The direction tuples of all odd-dimensional coordinate subtori of
    T^dim, by size and then in lexicographic order."""
    axes = range(1, dim + 1)
    return tuple(J for size in axes[::2] for J in combinations(axes, size))

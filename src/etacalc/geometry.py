"""Connections on trivialized bundles over flat tori and the transgression
and characteristic forms built from them.

A connection is d + A for a degree-1 trig-polynomial form A, on the
identity fiber metric.  The central derived objects:

* ``omega_metric``: the failure of d + A to be unitary, -(A^dagger + A)
  (zero exactly for unitary connections), computed once per connection;
* ``hermitian_part``, the unitary connection A + omega/2;
* Chern--Simons transgression forms between two connections, their
  expansion ``cs_r_poly`` in r along the family A + (1 + i r)/2 omega (both
  from one closed-form expansion), and odd Chern forms.

The identity is the only fiber metric, and it loses nothing: a constant
metric g = h^dagger h is the constant gauge change A -> h A h^-1 on the
identity, which conjugates omega by h and the Galerkin symbol by I x h.
A connection is checked where it is built (its form must be pure degree
1); invalid input raises :class:`~etacalc.forms.InvalidInputError` there,
as does connection JSON that ``Connection.from_json_obj`` refuses: its
whole format is checked there, a ``g`` that is not exactly the identity
among it, and each refusal starts with the JSON path of what it refuses.

All conventions are pinned by exactly-computable calibrations in the test
suite (flat-circle Chern--Simons values, winding numbers, unitarity
checks), so every sign here is load-bearing.
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

from .forms import PHI_SCALE, InvalidInputError, TrigPolyForm, _integer, _json_fields

TWO_PI_I = 2j * math.pi


class PreconditionError(ValueError):
    """The inputs are outside the domain of a check or a construction (a
    non-flat connection, the wrong torus, endpoints on the imaginary axis,
    connections on different bundles): the question asked is inapplicable,
    not answered wrongly."""


@dataclass(frozen=True)
class Connection:
    """d + a on a trivialized rank-r bundle over T^dim, on the identity
    fiber metric.

    ``a`` must be pure degree 1; the constructor checks this and raises
    InvalidInputError.  omega is computed once.
    """

    a: TrigPolyForm

    def __post_init__(self) -> None:
        if set(self.a.degrees()) - {1}:
            raise InvalidInputError("connection form must be pure degree 1")

    @property
    def dim(self) -> int:
        return self.a.dim

    @property
    def rank(self) -> int:
        return self.a.rank

    @classmethod
    def from_constant(cls, dim: int, mats: Sequence[np.ndarray]) -> "Connection":
        """Connection with constant coefficient matrices A_1..A_dim."""
        return cls(TrigPolyForm.constant_one_form(dim, list(mats)))

    # ------------------------------------------------------------------
    # unitarity structure

    def curvature(self) -> TrigPolyForm:
        """dA + A^A; identically zero exactly for flat connections."""
        return self.a.ext_d() + self.a.wedge(self.a)

    def is_flat(self, tol: float = 1e-9) -> bool:
        """Whether the curvature vanishes to ``tol`` max(1, max|A|)^2: the
        rounding of A^A grows as |A|^2, so flatness is decided relative to
        the connection's scale, and at ``tol`` itself while max|A| <= 1."""
        return self.curvature().is_zero(tol * max(1.0, self.a.max_abs()) ** 2)

    def is_constant(self) -> bool:
        return not any(any(k) for k, _, _ in self.a.terms())

    @cached_property
    def _omega(self) -> TrigPolyForm:
        return -self.a.dagger() - self.a

    def omega_metric(self) -> TrigPolyForm:
        """-(A^dagger + A): the defect of unitarity.

        d + A + omega is the adjoint of d + A; omega vanishes exactly when
        the connection is unitary.
        """
        return self._omega

    def hermitian_part(self) -> "Connection":
        """The unitary part d + A + omega/2 = d + (A - A^dagger)/2."""
        return Connection(self.a + 0.5 * self.omega_metric())

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
        }

    @classmethod
    def from_json_obj(cls, obj: dict, at: str = "$") -> "Connection":
        """The connection of ``to_json_obj``, read from the JSON value ``obj``
        that stands at the JSON path ``at``: an object with exactly the keys
        ``dim``, ``rank`` and ``A`` and optionally ``g``, whose integer
        ``dim`` and ``rank`` agree with the form ``A`` of pure degree 1.  A
        ``g`` key, which older files carry, must hold exactly the identity
        metric.  Anything else raises InvalidInputError, starting with the
        JSON path of what it refuses, as the forms' own JSON does."""
        dim, rank, a = _json_fields(obj, at, ("dim", "rank", "A"), ("g",))
        dim, rank = _integer(dim, f"{at}.dim"), _integer(rank, f"{at}.rank")
        a = TrigPolyForm.from_json_obj(a, f"{at}.A")
        if (dim, rank) != (a.dim, a.rank):
            raise InvalidInputError(
                f"{at} declares dim={dim} rank={rank}, "
                f"its form A is dim={a.dim} rank={a.rank}"
            )
        if a.degrees() - {1}:
            raise InvalidInputError(f"{at}.A is not of pure degree 1")
        if "g" in obj:
            g = TrigPolyForm.from_json_obj(obj["g"], f"{at}.g")
            if (g.dim, g.rank) != (a.dim, a.rank) or not g.allclose(
                TrigPolyForm.identity(a.dim, a.rank), 0.0
            ):
                raise InvalidInputError(
                    f"{at}.g must be the identity: for a constant "
                    "g = h^dagger h, give A' = h A h^-1 on the identity metric"
                )
        return cls(a)


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


def _require_one_bundle(c0: Connection, c1: Connection) -> None:
    if (c0.dim, c0.rank) != (c1.dim, c1.rank):
        raise PreconditionError(
            f"connections lie on different bundles: dim {c0.dim}, rank {c0.rank} "
            f"vs dim {c1.dim}, rank {c1.rank}"
        )


def linear_path(c0: Connection, c1: Connection) -> Callable[[float], Connection]:
    """t -> d + (1 - t) A_0 + t A_1; c0 and c1 must live on one bundle."""
    _require_one_bundle(c0, c1)
    return lambda t: Connection(c0.a * (1.0 - t) + c1.a * t)


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
    _require_one_bundle(c0, c1)
    delta = c1.a - c0.a
    return _transgression(delta, reduce(add, _cs_integral(c0.a, delta)))


def cs_r_poly(c: Connection) -> tuple[TrigPolyForm, ...]:
    """Expand r -> CS(hermitian part, A + (1 + i r)/2 omega) in powers of r:
    the dim + 1 coefficient forms, the coefficient of r^i at index i.

    The family is the Hermitian part at r = 0, the connection itself at
    r = i and its adjoint at r = -i.  It is the Hermitian part plus
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
    the caller passes as ``u_inv``: A -> u^{-1} A u + u^{-1} du, on the
    identity metric.  A unitary u gives a gauge-equivalent connection (omega
    conjugated by u); any other u changes the connection."""
    return Connection(_gauge_form(c.a, u, u_inv))


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

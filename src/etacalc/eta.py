"""Complex eta invariants for the twisted odd signature operator.

:func:`constant_eta` is the one way in: every check that reads a twisted
eta calls it, and it alone decides how a constant connection's eta is
computed.  On the circle the connection reduces to eigenvalue towers
{2 pi (n + mu)}, one per eigenvalue 2 pi i mu of A_1; eta(0) then has the
closed form sum (1 - 2 mu) obtained by pairing the Hurwitz zeta values at
s = 0 for the two half-towers (:func:`eta_s1_spectral`).  Complex mu
(non-unitary connections) use the same principal-branch formula.  The
towers, heat eta and ``m_minus`` keep no tolerance: ``spectral.on_axis``,
the spectral flow's rule, says which values are on the imaginary axis and
which are zero modes.  An exact route on T^d (ROADMAP item 1) goes behind
the same function.

Higher tori get no twisted eta here: on T^d the checks read a spectrum
only through its Bauer--Fike ball count (the untwisted census, spectral
flow) and otherwise give form-level sides (pairings, Chern forms).  The
one direct numerical route offered here is a heat-kernel-smoothed
estimate for Hermitian truncations; eigenvalues -v and +v of bitwise-equal
magnitude cancel before any erfc, so a split T^d truncation, whose one-copy
spectrum is its own negative, has heat eta exactly 0 at the cost of four
bisections of its sorted spectrum and one comparison of its two sides:
with no eigenvalue left, neither the erfc grid nor the extrapolating fit
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import Connection, PreconditionError
from .spectral import AXIS_TOL, GuardError, OperatorTruncation, on_axis

# the smoothing parameters eps the heat estimate extrapolates from
_EPS_GRID = tuple(7e-6 * 2.0**j for j in range(6))


@dataclass(frozen=True)
class EtaValue:
    """eta(0) of a twisted signature operator together with its kernel
    dimension; ``reduced`` is the half-shifted invariant (eta + h)/2 whose
    real part is geometrically meaningful only modulo the integers.
    ``excluded`` lists the purely imaginary eigenvalues left out of the
    eta series (for the imaginary-axis census)."""

    eta: complex
    kernel_dim: int
    excluded: tuple[complex, ...] = ()

    @property
    def reduced(self) -> complex:
        return (self.eta + self.kernel_dim) / 2


def constant_eta(c: Connection) -> EtaValue:
    """eta of the twisted odd signature operator for a constant connection
    on the circle, from the closed-form towers of the eigenvalues of A_1;
    any other connection is refused (PreconditionError)."""
    if c.dim != 1:
        raise PreconditionError(
            "reduced eta uses closed-form circle spectra (dim == 1)"
        )
    if not c.is_constant():
        raise PreconditionError(
            "reduced eta needs a constant connection: A has oscillatory terms"
        )
    a1 = c.a.coefficient((0,), (1,))
    return eta_s1_spectral(
        [complex(v) / (2j * math.pi) for v in np.linalg.eigvals(a1)]
    )


def eta_s1_spectral(mus: Iterable[complex]) -> EtaValue:
    """eta for towers {2 pi (n + mu_k)} with arbitrary complex mu_k.

    Shifting mu by an integer relabels the tower, so an off-axis mu is
    first moved into 0 <= Re < 1.  On the open strip 0 < Re mu < 1 the
    positive half-tower is the Hurwitz zeta function zeta(s, mu) and the
    negative one is zeta(s, 1 - mu); with the classical value
    zeta(0, a) = 1/2 - a the tower contributes
    (1/2 - mu) - (1/2 - (1 - mu)) = 1 - 2 mu at s = 0, for complex mu on
    the principal branch.

    Each tower is classified by its value nearest the axis,
    lambda = 2 pi (mu - n), n the integer nearest Re mu, under the one
    axis rule ``spectral.on_axis`` that the spectral flow counts by: a
    zero mode is a kernel mode and contributes nothing more; another value
    on the axis is excluded from the series (reported as 2 pi i Im mu)
    while the rest of its tower contributes -2 (mu - n).  A float Re mu
    resolves lambda only to 2 pi ulp(Re mu); past AXIS_TOL (|Re mu| >=
    2^20) ``on_axis`` cannot decide, so such a mu trips a guard
    (GuardError, exit 3), as does one that is not finite.
    """
    total = 0j
    kernel = 0
    excluded: list[complex] = []
    for mu in mus:
        mu = complex(mu)
        if not 2 * math.pi * math.ulp(mu.real) <= AXIS_TOL:
            raise GuardError(
                f"the axis rule cannot place the tower of mu = {mu}: a float "
                "Re mu resolves its value nearest the axis to 2 pi ulp(Re mu) "
                f"= {2 * math.pi * math.ulp(mu.real):.3g}, not within {AXIS_TOL}"
            )
        m = mu - round(mu.real)  # the tower's value nearest the axis, over 2 pi
        axis, zero = on_axis(2 * math.pi * m)
        if zero:
            kernel += 1
        elif axis:
            excluded.append(2j * math.pi * m.imag)
            total += -2 * m
        else:
            total += 1 - 2 * (mu - math.floor(mu.real))
    return EtaValue(eta=total, kernel_dim=kernel, excluded=tuple(excluded))


def eta_heat_estimate(t: OperatorTruncation) -> complex:
    """Heat-smoothed eta for a Hermitian truncation.

    Evaluates eta_eps = sum sign(lambda) erfc(sqrt(eps) |lambda|) on a fixed
    grid of six eps values and Richardson-extrapolates quadratically in
    sqrt(eps) to eps -> 0.  Each sum runs over the one spinor copy the
    truncation caches, less its zero modes (``spectral.on_axis``), and is
    multiplied by ``copies``.  That copy is sorted, so its values are read
    as two slices, found by bisection (``np.searchsorted``) with no mask
    over the spectrum: those below and above the axis band, each cut to
    the balanced window.  Pairs -v, +v of bitwise-equal magnitude, matched
    by rank outward from 0, are dropped before any erfc: they add 0 at
    every eps, so a split T^d truncation gives exactly 0, returned without
    any erfc call or fit once no eigenvalue is left.  The erfc sums see the
    values that are left in ascending order.
    Accurate only when the truncation window dominates the tail (documented
    in the tests); refuses, with ``PreconditionError``, truncations that are
    not ``hermitian`` (a unitary connection), and coupled ones, whose
    eigenvalues near the window's edge are not those of the operator.
    """
    from scipy.special import erfc  # only the heat route needs it

    if t.couplings:
        raise PreconditionError(
            "heat-smoothed eta requires a constant-coefficient truncation"
        )
    if not t.hermitian:
        raise PreconditionError(
            "heat-smoothed eta requires a Hermitian truncation "
            "(a unitary connection)"
        )
    # the one copy's values, sorted: the axis band (``spectral.on_axis``),
    # |lam| <= AXIS_TOL, splits them into the negative and positive sides
    lam = t._spectrum.real
    neg = lam[: np.searchsorted(lam, -AXIS_TOL)]
    pos = lam[np.searchsorted(lam, AXIS_TOL, side="right") :]
    if neg.size and pos.size:
        # balance the window: a mode cutoff leaves one unpaired extreme
        # eigenvalue per tower, which the smoothed sum must not see
        window = min(-neg[0], pos[-1]) * (1 + 1e-12)
        neg = neg[np.searchsorted(neg, -window) :]
        pos = pos[: np.searchsorted(pos, window, side="right")]
    # the k-th values outward from 0 on either side: neg[-k] and pos[k - 1]
    n = min(neg.size, pos.size)
    inner = neg[neg.size - n :]
    paired = inner[::-1] == -pos[:n]
    if neg.size == pos.size and paired.all():  # the sum is 0 at every eps
        return 0j
    lam = np.concatenate(
        [neg[: neg.size - n], inner[~paired[::-1]], pos[:n][~paired], pos[n:]]
    )
    roots = np.sqrt(np.asarray(_EPS_GRID))
    sign, size = np.sign(lam), np.abs(lam)
    vals = [t.copies * float(np.sum(sign * erfc(r * size))) for r in roots]
    coeffs = np.polyfit(roots, vals, 2)
    return complex(coeffs[-1])


def m_minus(spec: Iterable[complex]) -> int:
    """Count of the eigenvalues on the imaginary axis, not zero modes, in
    the lower half plane (``spectral.on_axis``, Im lambda < 0)."""
    vals = np.array(list(spec), dtype=complex)
    axis, zero = on_axis(vals)
    return int(np.sum(axis & ~zero & (vals.imag < 0)))


def eta_bk(e: EtaValue, m: int) -> complex:
    """Braverman-Kappeler variant: reduced eta minus the count of negative
    purely imaginary eigenvalues."""
    return e.reduced - m

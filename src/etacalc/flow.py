"""Spectral flow between two connections on one bundle over T^d, and the
gauge paths on the circle.

For a path of finite matrices with axis-free endpoints the spectral flow
is a net change of inertia, #{Re lambda >= 0} at the end minus that count
at the start, so only the endpoint spectra enter.  What a Galerkin
truncation can get wrong is its window, never a grid; :func:`spectral_flow`
owns the window rule.

Sign convention: an eigenvalue moving from Re < 0 to Re >= 0 contributes +1.
This is the classical (self-adjoint) convention; it is the unique choice
consistent with the complex-valued variation formula on the circle, where
eta_bar(1) - eta_bar(0) = sf + transgression integral demands sf = +w for
the winding-w gauge path (each tower's floor(Re mu) rises by w).
"""

from __future__ import annotations

import math

import numpy as np

from .forms import TrigPolyForm
from .geometry import Connection, PreconditionError, _gauge_form
from .spectral import GuardError, ball_radius, build_truncation, spectrum

# endpoint eigenvalues with |Re| at or below this are on the imaginary axis
AXIS_TOL = 1e-9


class CutoffInstabilityError(GuardError):
    """The spectral flow needs a window past the cutoff: a constant endpoint's
    ball reaches past it, or a coupled flow changed from cutoff K to K + 1."""


def _flow_at(c0: Connection, c1: Connection, cutoff: int) -> int:
    """#{Re >= 0}(c1) - #{Re >= 0}(c0) on the truncations at ``cutoff``,
    refusing an eigenvalue within AXIS_TOL of the axis: its class is not
    stable under perturbation."""
    counts = []
    for side, c in (("start", c0), ("end", c1)):
        vals = spectrum(build_truncation(c, cutoff))
        bad = np.abs(vals.real) <= AXIS_TOL
        if np.any(bad):
            raise PreconditionError(
                f"{side} of path has eigenvalue(s) on the imaginary axis "
                f"(|Re| <= {AXIS_TOL:g}): {vals[bad]}; perturb the endpoints"
            )
        counts.append(int(np.sum(vals.real >= 0)))
    return counts[1] - counts[0]


def spectral_flow(c0: Connection, c1: Connection, cutoff: int) -> int:
    """Spectral flow from c0 to c1, two connections on one bundle: the
    change of inertia #{Re >= 0}(c1) - #{Re >= 0}(c0) of their Galerkin
    truncations, +1 per eigenvalue crossing from Re < 0 to Re >= 0.

    ``cutoff`` caps the window.  Two constant endpoints are solved once
    each, at the smallest window K = max(1, ceil(R)) that holds both
    Bauer--Fike balls (``spectral.ball_radius``), outside which every mode
    has the balanced inertia of the free operator, so K gives the exact
    flow.  Otherwise both are solved at ``cutoff`` and ``cutoff + 1``,
    which must agree.  A K past ``cutoff`` or a disagreement raises
    CutoffInstabilityError; an eigenvalue on the axis or endpoints on
    different bundles raise PreconditionError.
    """
    if (c0.dim, c0.rank) != (c1.dim, c1.rank):
        raise PreconditionError(
            f"endpoints lie on different bundles: dim {c0.dim}, rank {c0.rank} "
            f"vs dim {c1.dim}, rank {c1.rank}"
        )
    if c0.is_constant() and c1.is_constant():
        window = max(1, math.ceil(max(ball_radius(c0), ball_radius(c1))))
        if window > cutoff:
            raise CutoffInstabilityError(
                f"the endpoints' Bauer--Fike balls need cutoff {window}, not {cutoff}"
            )
        return _flow_at(c0, c1, window)
    sf, wider = (_flow_at(c0, c1, k) for k in (cutoff, cutoff + 1))
    if wider != sf:
        raise CutoffInstabilityError(
            f"spectral flow {sf} at cutoff {cutoff} but {wider} at cutoff "
            f"{cutoff + 1}; raise the cutoff"
        )
    return sf


def gauge_path(c: Connection, w: int, t: float) -> Connection:
    """Connection at time t, on c's metric, on the straight line from A to
    its gauge transform by u = diag(e^{2 pi i w x}, 1, ..., 1) on the circle:
    A_t = (1-t) A + t (u^{-1} A u + u^{-1} du).  Endpoints are
    gauge-equivalent, so the path pumps exactly w eigenvalue towers across
    the axis (sf = +w for diagonal A)."""
    if c.dim != 1:
        raise PreconditionError("gauge paths are defined on the circle")
    w = int(w)
    rank = c.rank
    e11 = np.zeros((rank, rank), dtype=complex)
    e11[0, 0] = 1.0
    rest = np.eye(rank, dtype=complex)
    rest[0, 0] = 0.0
    u = TrigPolyForm.constant(1, rest) + TrigPolyForm.monomial(1, e11, k=(w,))
    u_inv = TrigPolyForm.constant(1, rest) + TrigPolyForm.monomial(
        1, e11, k=(-w,)
    )
    return c.with_form(c.a * (1.0 - t) + _gauge_form(c.a, u, u_inv) * t)


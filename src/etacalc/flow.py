"""Spectral flow between two connections on one bundle over T^d, and the
gauge paths on the circle: each the linear segment from a connection to
its gauge transform.

For a path of finite matrices with axis-free endpoints the spectral flow
is a net change of inertia, half that of ``spectral.sign_count``, so only
the endpoint spectra enter, and of a constant endpoint only its ball.
What a Galerkin truncation can get wrong is its window, never a grid: a
ball checks its own against the cutoff, :func:`spectral_flow` the cubes'.

Sign convention: an eigenvalue moving from Re < 0 to Re >= 0 contributes +1.
This is the classical (self-adjoint) convention; it is the unique choice
consistent with the complex-valued variation formula on the circle, where
eta_bar(1) - eta_bar(0) = sf + transgression integral demands sf = +w for
the winding-w gauge path (each tower's floor(Re mu) rises by w).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .forms import TrigPolyForm
from .geometry import Connection, PreconditionError, _gauge_form, linear_path
from .spectral import (AXIS_TOL, CutoffInstabilityError, OperatorTruncation,
                       ball_truncation, build_truncation, sign_count)


def _flow(t0: OperatorTruncation, t1: OperatorTruncation) -> int:
    """(n(t1) - n(t0)) / 2, n the ``sign_count``: an integer on equal windows
    and on two balls (odd mode counts).  Axis eigenvalues are refused."""
    counts = []
    for side, t in (("start", t0), ("end", t1)):
        count, axis = sign_count(t)
        if len(axis):
            raise PreconditionError(
                f"{side} of path has eigenvalue(s) on the imaginary axis "
                f"(|Re| <= {AXIS_TOL:g}): {axis}; perturb the endpoints"
            )
        counts.append(count)
    return (counts[1] - counts[0]) // 2


def spectral_flow(c0: Connection, c1: Connection, cutoff: int) -> int:
    """Spectral flow from c0 to c1, two connections on one bundle: half the
    change of #{Re >= 0} - #{Re < 0}, +1 per crossing from Re < 0 to Re >= 0.

    ``cutoff`` caps the window.  Two constant endpoints are solved once
    each on their Bauer--Fike balls (``spectral.ball_truncation``, start
    first), each refusing a window past ``cutoff`` before it is assembled;
    any other pair at ``cutoff`` and ``cutoff + 1``, which must agree.  A
    refused ball or a disagreement raises CutoffInstabilityError; an
    eigenvalue on the axis or endpoints on different bundles raise
    PreconditionError.
    """
    if (c0.dim, c0.rank) != (c1.dim, c1.rank):
        raise PreconditionError(
            f"endpoints lie on different bundles: dim {c0.dim}, rank {c0.rank} "
            f"vs dim {c1.dim}, rank {c1.rank}"
        )
    if c0.is_constant() and c1.is_constant():
        return _flow(ball_truncation(c0, cutoff), ball_truncation(c1, cutoff))
    sf, wider = (_flow(build_truncation(c0, k), build_truncation(c1, k))
                 for k in (cutoff, cutoff + 1))
    if wider != sf:
        raise CutoffInstabilityError(
            f"spectral flow {sf} at cutoff {cutoff} but {wider} at cutoff "
            f"{cutoff + 1}; raise the cutoff"
        )
    return sf


def gauge_path(c: Connection, w: int) -> Callable[[float], Connection]:
    """The straight line from A to its gauge transform by
    u = diag(e^{2 pi i w x}, 1, ..., 1) on the circle:
    t -> (1-t) A + t (u^{-1} A u + u^{-1} du), a ``linear_path`` whose
    gauged endpoint is built once per path.  Endpoints are gauge-equivalent,
    so the path pumps exactly w eigenvalue towers across the axis (sf = +w
    for diagonal A).  On T^d, d > 1, PreconditionError."""
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
    return linear_path(c, Connection(_gauge_form(c.a, u, u_inv)))

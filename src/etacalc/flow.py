"""Spectral flow for paths of (possibly non-self-adjoint) operators.

For a path of finite matrices with axis-free endpoints the spectral flow
is a net change of inertia, #{Re lambda >= 0} at the end minus that count
at the start, so only the endpoint spectra enter.  What a Galerkin
truncation can get wrong is the window, never a grid (see
``verify._endpoint_sf``: exact for constant endpoints, by Bauer--Fike).

Sign convention: an eigenvalue moving from Re < 0 to Re >= 0 contributes +1.
This is the classical (self-adjoint) convention; it is the unique choice
consistent with the complex-valued variation formula on the circle, where
eta_bar(1) - eta_bar(0) = sf + transgression integral demands sf = +w for
the winding-w gauge path (each tower's floor(Re mu) rises by w).
"""

from __future__ import annotations

import numpy as np

from .forms import TrigPolyForm
from .geometry import Connection, PreconditionError, _gauge_form
from .spectral import OperatorTruncation, spectrum

# endpoint eigenvalues with |Re| at or below this are on the imaginary axis
AXIS_TOL = 1e-9


def spectral_flow(start, end) -> int:
    """Spectral flow of a path of finite operators from ``start`` to
    ``end``: the net change of inertia #{Re >= 0}(end) - #{Re >= 0}(start),
    which equals the signed count of imaginary-axis crossings, +1 per
    eigenvalue moving from Re < 0 to Re >= 0 (classical convention; see
    the module docstring for why this orientation is forced).

    Each endpoint may be an OperatorTruncation or an eigenvalue vector;
    both must have the same size.  Endpoint eigenvalues within AXIS_TOL of
    the axis are rejected: their class is not stable under perturbation,
    so the caller must move the endpoints first.
    """
    ends = []
    for x in (start, end):
        if isinstance(x, OperatorTruncation):
            x = spectrum(x)
        vals = np.asarray(x, dtype=complex)
        if vals.ndim != 1:
            raise TypeError("path endpoints must be truncations or spectra")
        ends.append(vals)
    a, b = ends
    if len(a) != len(b):
        raise ValueError(f"endpoint sizes differ: {len(a)} vs {len(b)}")
    for side, vals in (("start", a), ("end", b)):
        bad = np.abs(vals.real) <= AXIS_TOL
        if np.any(bad):
            raise PreconditionError(
                f"{side} of path has eigenvalue(s) on the imaginary axis "
                f"(|Re| <= {AXIS_TOL:g}): {vals[bad]}; perturb the endpoints"
            )
    return int(np.sum(b.real >= 0) - np.sum(a.real >= 0))


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


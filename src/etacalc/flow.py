"""Spectral flow for paths of (possibly non-self-adjoint) operators.

For a path of finite matrices with axis-free endpoints the spectral flow
is a net change of inertia, #{Re lambda >= 0} at the end minus that count
at the start, so only the endpoint spectra enter.  What a Galerkin
truncation can get wrong is the window, never a grid (see
``verify._endpoint_sf``: exact for constant endpoints, by Bauer--Fike).

Sign convention: a track moving from Re < 0 to Re >= 0 contributes +1.
This is the classical (self-adjoint) convention; it is the unique choice
consistent with the complex-valued variation formula on the circle, where
eta_bar(1) - eta_bar(0) = sf + transgression integral demands sf = +w for
the winding-w gauge path (each tower's floor(Re mu) rises by w).

Eigenvalue tracking (:func:`track_path`) only feeds the ``tracks`` CSV
artifact, which shows where crossings happen; no check reads it.  Each of
its matching steps holds n x n arrays for n eigenvalues; the memory guard
of :mod:`etacalc.spectral` counts them before the first step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import TrigPolyForm
from .geometry import Connection, PreconditionError, _gauge_form
from .spectral import GuardError, OperatorTruncation, _require_memory, spectrum

# endpoint eigenvalues with |Re| at or below this are on the imaginary axis
AXIS_TOL = 1e-9
# bisections allowed on one interval of the initial tracking grid
MAX_BISECTIONS = 20
# bytes per eigenvalue pair of one matching step: two float64 distance
# matrices and the complex128 difference behind each (8 + 8 + 16), plus
# three boolean masks
_MATCH_BYTES_PER_PAIR = 35


class TrackError(GuardError):
    """Eigenvalue tracking could not be disambiguated within the refinement
    budget (near-collision)."""


@dataclass(frozen=True)
class EigenvalueTrack:
    """Matched eigenvalue paths over a refined grid in [0, 1].

    ``values[i, j]`` is eigenvalue j at ``times[i]``; column j is one
    continuously-matched track.  ``refinement_log`` records each interval
    bisection as (t_lo, t_hi, reason).
    """

    times: np.ndarray
    values: np.ndarray
    refinement_log: tuple[tuple[float, float, str], ...]

    @property
    def n_tracks(self) -> int:
        return self.values.shape[1]


def _sample_spectrum(sample) -> np.ndarray:
    if isinstance(sample, OperatorTruncation):
        return spectrum(sample)
    arr = np.asarray(sample, dtype=complex)
    if arr.ndim == 1:
        return np.sort(arr, kind="stable")
    raise TypeError("path samples must be truncations or spectra")


def _match(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reorder v to minimize the total matching distance to u."""
    from scipy.optimize import linear_sum_assignment  # only tracks need it

    cost = np.abs(u[:, None] - v[None, :])
    row, col = linear_sum_assignment(cost)
    out = np.empty_like(v)
    out[row] = v[col]
    return out


def _needs_refinement(
    u: np.ndarray, v: np.ndarray, guess: np.ndarray, cluster_tol: float
) -> str | None:
    # co-located eigenvalues (closer than cluster_tol) form one cluster;
    # when the clusters differ at the two interval ends, eigenvalues
    # collide or split inside it and the matching cannot tell them apart
    dist_u = np.abs(u[:, None] - u[None, :])
    dist_v = np.abs(v[:, None] - v[None, :])
    near_u, near_v = dist_u <= cluster_tol, dist_v <= cluster_tol
    if np.any(near_u != near_v):
        return "collision"
    # a track is safely matchable when it lands less than half its own
    # distance to the nearest distinct neighbor (at both interval ends)
    # away from where it was predicted to be
    dist_u[near_u] = np.inf
    dist_v[near_v] = np.inf
    room = np.minimum(dist_u.min(axis=1), dist_v.min(axis=1))
    if np.any(np.abs(guess - v) > 0.5 * room):
        return "matching-ambiguous"
    return None


def track_path(path: Callable[[float], object], m0: int = 8) -> EigenvalueTrack:
    """Track the spectrum of ``path(t)`` over t in [0, 1] for the
    ``tracks`` CSV artifact (spectral flow does not need it; see
    :func:`spectral_flow`).

    ``path`` may return an OperatorTruncation or a precomputed eigenvalue
    vector (of constant length along the path).
    Each new sample is matched against the linear extrapolation of the
    last two accepted samples (against the previous sample on the first
    interval), so tracks keep their identity through near-collisions.  The
    initial grid of ``m0`` intervals is bisected wherever that matching is
    ambiguous; more than MAX_BISECTIONS bisections on one interval raise
    TrackError.  Raises MemoryGuardError, after the first sample and before
    any matching, when the matching arrays for that many eigenvalues would
    exceed ``spectral.MEMORY_LIMIT``.
    """
    if m0 < 1:
        raise ValueError("need at least one interval")
    times = np.linspace(0.0, 1.0, m0 + 1)
    spectra = [_sample_spectrum(path(times[0]))]
    n = len(spectra[0])
    _require_memory(_MATCH_BYTES_PER_PAIR * n * n, f"tracking {n} eigenvalues")
    spectra += [_sample_spectrum(path(t)) for t in times[1:]]
    sizes = {len(s) for s in spectra}
    if len(sizes) != 1:
        raise TrackError(f"spectrum size changes along the path: {sorted(sizes)}")
    scale = max(float(np.max(np.abs(s))) for s in spectra)
    cluster_tol = 1e-9 * (1.0 + scale)

    log: list[tuple[float, float, str]] = []
    out_times: list[float] = [float(times[0])]
    out_vals: list[np.ndarray] = [spectra[0]]

    def extend(t0: float, u: np.ndarray, t1: float, v_raw: np.ndarray,
               depth: int) -> None:
        # u is the last accepted sample; extrapolate through the one before
        guess = u
        if len(out_vals) > 1:
            slope = (u - out_vals[-2]) / (t0 - out_times[-2])
            guess = u + slope * (t1 - t0)
        v = _match(guess, v_raw)
        reason = _needs_refinement(u, v, guess, cluster_tol)
        if reason is None:
            out_times.append(t1)
            out_vals.append(v)
            return
        if depth >= MAX_BISECTIONS:
            raise TrackError(
                f"cannot disambiguate tracks on [{t0:.6g}, {t1:.6g}] "
                f"after {MAX_BISECTIONS} bisections ({reason})"
            )
        log.append((t0, t1, reason))
        tm = 0.5 * (t0 + t1)
        w = _sample_spectrum(path(tm))
        if len(w) != len(u):
            raise TrackError("spectrum size changes along the path")
        extend(t0, u, tm, w, depth + 1)
        extend(tm, out_vals[-1], t1, v_raw, depth + 1)

    for i in range(m0):
        extend(float(times[i]), out_vals[-1], float(times[i + 1]),
               spectra[i + 1], 0)
    return EigenvalueTrack(
        times=np.array(out_times),
        values=np.vstack(out_vals),
        refinement_log=tuple(log),
    )


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
    a = _sample_spectrum(start)
    b = _sample_spectrum(end)
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


def export_tracks_csv(tr: EigenvalueTrack, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re", "im", "track"])
        for i, t in enumerate(tr.times):
            for j in range(tr.n_tracks):
                v = tr.values[i, j]
                writer.writerow([f"{t:.12g}", f"{v.real:.17g}",
                                 f"{v.imag:.17g}", j])

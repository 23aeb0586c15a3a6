"""Spectral flow as an endpoint inertia count (crossing calibration,
gauge-path winding, cutoff growth) and eigenvalue tracking for the
``tracks`` artifact (matching, refinement, collision diagnostics)."""

import math

import numpy as np
import pytest

from etacalc import flow, spectral
from etacalc.flow import (
    TrackError,
    export_tracks_csv,
    gauge_path,
    spectral_flow,
    track_path,
)
from etacalc.geometry import Connection, PreconditionError
from etacalc.spectral import MemoryGuardError, build_truncation

from helpers import diagonal_connection_from_mus


def test_constant_path_has_constant_tracks_and_zero_flow():
    vals = np.array([1.5 + 0.2j, -0.7, 2.0 - 1.0j])
    tr = track_path(lambda t: vals)
    assert np.allclose(tr.values, tr.values[0][None, :])
    assert tr.refinement_log == ()
    assert spectral_flow(vals, vals) == 0


def test_single_upward_crossing_is_plus_one():
    # classical sign convention: Re < 0 -> Re >= 0 counts +1 (the choice
    # forced by the complex variation formula; see flow module docstring)
    def path(t):
        return np.linalg.eigvals(np.array([[(t - 0.5) + 0.3j]]))

    assert spectral_flow(path(0.0), path(1.0)) == 1


def test_single_downward_crossing_is_minus_one():
    def path(t):
        return np.linalg.eigvals(np.array([[(0.5 - t) + 0.3j]]))

    assert spectral_flow(path(0.0), path(1.0)) == -1


def test_endpoint_on_axis_is_rejected():
    # starts exactly on the axis, then moves into Re > 0
    with pytest.raises(PreconditionError):
        spectral_flow(np.array([1j]), np.array([1 + 1j]))


def test_endpoint_sizes_must_agree():
    # a finite-dimensional path keeps its dimension; a size change would
    # shift the inertia count without any crossing
    with pytest.raises(ValueError):
        spectral_flow(np.array([1 + 1j, 2.0]), np.array([1 + 1j]))


def test_sample_spectrum_sorts_a_vector_lexicographically():
    # signed zeros, repeated real parts and exact duplicates: one stable
    # sort is bitwise the (Re, Im) lexsort
    rng = np.random.default_rng(58)
    vec = np.concatenate([
        [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 1 + 1j, 1 - 1j, 1, 1 + 1j],
        rng.integers(-3, 4, 40) + 1j * rng.integers(-2, 3, 40),
        rng.standard_normal(40) + 1j * rng.standard_normal(40),
    ])
    expect = vec[np.lexsort((vec.imag, vec.real))]
    assert flow._sample_spectrum(vec).tobytes() == expect.tobytes()


def test_track_columns_preserve_identity():
    def path(t):
        return np.array([2 * t - 0.7 + 0.2j, -1 + 0.5 * t + 0.1j])

    tr = track_path(path)
    start, end = tr.values[0], tr.values[-1]
    crossers = [j for j in range(2) if start[j].real < 0 <= end[j].real]
    assert len(crossers) == 1
    j = crossers[0]
    assert end[j] == pytest.approx(1.3 + 0.2j, abs=1e-12)


def test_tracks_keep_identity_through_a_near_collision():
    # two eigenvalues pass 0.002 apart at t = 1/2, between grid points; the
    # true track 0 crosses the axis to 0.5 + 0.001i rather than bouncing
    # back to -0.5 - 0.001i (matching each sample against the previous one
    # alone swaps the tracks here)
    def path(t):
        return np.array([t - 0.5 + 0.001j, 0.5 - t - 0.001j])

    tr = track_path(path, m0=7)
    # straight tracks are extrapolated exactly: no interval needs bisecting
    assert tr.refinement_log == ()
    assert tr.values[0, 0] == pytest.approx(-0.5 + 0.001j, abs=1e-12)
    assert tr.values[-1, 0] == pytest.approx(0.5 + 0.001j, abs=1e-12)
    assert np.allclose(tr.values, np.array([path(t) for t in tr.times]))


def test_gauge_path_endpoints_are_gauge_related():
    c = diagonal_connection_from_mus([0.3])
    assert gauge_path(c, 2, 0.0).a.allclose(c.a)
    end = gauge_path(c, 2, 1.0)
    assert end.is_flat()
    (a1,) = np.linalg.eigvals(end.a.coefficient((0,), (1,)))
    assert a1 / (2j * math.pi) == pytest.approx(0.3 + 2, abs=1e-12)
    # w = 0 gives the constant path
    assert gauge_path(c, 0, 0.7).a.allclose(c.a)


def test_gauge_path_rejects_higher_tori():
    c3 = Connection.from_constant(3, [np.zeros((1, 1))] * 3)
    with pytest.raises(PreconditionError):
        gauge_path(c3, 1, 0.5)


def test_gauge_winding_pumps_flow_with_linear_tracks():
    c = diagonal_connection_from_mus([0.3])

    def path(t):
        return build_truncation(gauge_path(c, 2, t), 10)

    assert spectral_flow(path(0.0), path(1.0)) == 2
    tr = track_path(path)
    # every track is affine in t (exact tower motion 2 pi (n + mu + w t))
    assert np.max(np.abs(np.diff(tr.values, n=2, axis=0))) < 1e-10


def test_gauge_winding_negative():
    c = diagonal_connection_from_mus([0.3])
    assert spectral_flow(
        build_truncation(gauge_path(c, -3, 0.0), 8),
        build_truncation(gauge_path(c, -3, 1.0), 8),
    ) == -3


def test_gauge_path_dense_nonnormal_triangular():
    # upper-triangular constant part: the operator path stays triangular,
    # so the exact spectrum is the union of two scalar towers (one pumped,
    # one static complex) while the Galerkin matrix is genuinely coupled
    a = np.array([[2j * math.pi * 0.3, 0.1],
                  [0.0, 2j * math.pi * (0.62 + 0.1j)]])
    c = Connection.from_constant(1, [a])
    assert spectral_flow(
        build_truncation(gauge_path(c, 1, 0.0), 6),
        build_truncation(gauge_path(c, 1, 1.0), 6),
    ) == 1


def test_gauge_path_self_adjoint_avoided_crossing():
    a = np.array([[2j * math.pi * 0.3, 0.1],
                  [-0.1, 2j * math.pi * 0.55]])
    c = Connection.from_constant(1, [a])

    def path(t):
        return build_truncation(gauge_path(c, 1, t), 6)

    assert spectral_flow(path(0.0), path(1.0)) == 1
    tr = track_path(path)
    # self-adjoint path: tracks stay real
    assert np.max(np.abs(tr.values.imag)) < 1e-12
    assert len(tr.refinement_log) > 0  # avoided crossing forces refinement


def test_classical_two_by_two_crossing_family():
    # Hermitian family whose upper eigenvalue t - 1 + sqrt(1/4 + 0.09)
    # crosses zero once upward; brute-force signed-crossing count agrees
    def path(t):
        return np.linalg.eigvals(np.array([[t - 0.5, 0.3], [0.3, t - 1.5]]))

    sf = spectral_flow(path(0.0), path(1.0))
    assert sf == 1
    fine = np.linspace(0, 1, 2001)
    upper = np.array([(t - 1) + np.hypot(0.5, 0.3) for t in fine])
    brute = int(np.sum((upper[:-1] < 0) & (upper[1:] >= 0))
                - np.sum((upper[:-1] >= 0) & (upper[1:] < 0)))
    assert sf == brute


def test_flow_stable_under_cutoff_growth():
    c = diagonal_connection_from_mus([0.3])
    flows = [
        spectral_flow(
            build_truncation(gauge_path(c, 1, 0.0), n),
            build_truncation(gauge_path(c, 1, 1.0), n),
        )
        for n in (6, 9, 12)
    ]
    assert flows == [1, 1, 1]


def test_eigenvalue_collision_raises_diagnostic():
    # double zero eigenvalue at t = 1/2: +-sqrt(t - 1/2) collides, tracking
    # must refuse rather than guess
    with pytest.raises(TrackError):
        track_path(
            lambda t: np.linalg.eigvals(np.array([[0.0, 1.0], [t - 0.5, 0.0]]))
        )


def test_track_path_refuses_oversized_matching(monkeypatch):
    # 2 eigenvalues: a matching step holds 35 * 2 * 2 = 140 bytes
    def no_matching(*args):
        raise AssertionError("a matching step ran")

    monkeypatch.setattr(flow, "_match", no_matching)
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", 139)
    with pytest.raises(MemoryGuardError, match="tracking 2 eigenvalues"):
        track_path(lambda t: np.array([t + 0.5j, 2.0 + 0j]))
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "MEMORY_LIMIT", 140)
    assert track_path(lambda t: np.array([t + 0.5j, 2.0 + 0j])).n_tracks == 2


def test_track_path_input_validation():
    with pytest.raises(ValueError):
        track_path(lambda t: np.array([1.0 + 0j]), m0=0)

    def varying(t):
        return np.ones(2 if t < 0.5 else 3, dtype=complex)

    with pytest.raises(TrackError):
        track_path(varying)


def test_export_tracks_csv(tmp_path):
    tr = track_path(lambda t: np.array([(t - 0.5) + 0.3j, 2.0 + 0j]))
    out = tmp_path / "tracks.csv"
    export_tracks_csv(tr, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,re,im,track"
    assert len(lines) == 1 + len(tr.times) * tr.n_tracks

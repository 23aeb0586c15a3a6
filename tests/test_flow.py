"""Spectral flow as an endpoint inertia count (crossing calibration,
gauge-path winding, cutoff growth) and the gauge path itself."""

import math

import numpy as np
import pytest

from etacalc.flow import gauge_path, spectral_flow
from etacalc.geometry import Connection, PreconditionError
from etacalc.spectral import build_truncation

from helpers import diagonal_connection_from_mus


def test_constant_path_has_constant_tracks_and_zero_flow():
    vals = np.array([1.5 + 0.2j, -0.7, 2.0 - 1.0j])
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


def test_endpoint_must_be_a_truncation_or_a_spectrum():
    # a matrix is neither: its eigenvalues are the caller's to compute
    with pytest.raises(TypeError):
        spectral_flow(np.eye(2), np.ones(2))


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
    # every tower moves affinely in t, 2 pi (n + mu + w t): on a diagonal
    # connection the path is the constant one with mu shifted by w t
    for t in (0.0, 0.25, 0.5, 0.8, 1.0):
        assert gauge_path(c, 2, t).a.allclose(
            diagonal_connection_from_mus([0.3 + 2 * t]).a, 1e-12
        )
    c2 = diagonal_connection_from_mus([0.3, 0.6 - 0.2j])
    for t in (0.1, 0.5, 0.9):
        assert gauge_path(c2, -1, t).a.allclose(
            diagonal_connection_from_mus([0.3 - t, 0.6 - 0.2j]).a, 1e-12
        )


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

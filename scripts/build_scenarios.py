#!/usr/bin/env python3
"""Regenerate the bundled scenario files under scenarios/.

Scenarios are plain data; this script exists so their floating-point
connection coefficients (multiples of 2*pi) stay exactly reproducible
instead of being hand-typed.  Run from the repository root:

    python3 scripts/build_scenarios.py
"""

import json
import math
import pathlib

import numpy as np

from etacalc.forms import TrigPolyForm
from etacalc.geometry import Connection, gauge_transform

TWO_PI_I = 2j * math.pi
ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "scenarios"


def diag_connection(dim: int, mu_rows) -> dict:
    """Connection JSON for A_j = diag(2*pi*i*mu) per direction."""
    mats = [np.diag([TWO_PI_I * m for m in row]) for row in mu_rows]
    return Connection.from_constant(dim, mats).to_json_obj()


def write(name: str, obj: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


def s1_unitary() -> dict:
    return {
        "manifold": {"dim": 1},
        "bundle": {"rank": 1},
        "connections": {
            "base": diag_connection(1, [[0.25]]),
            "other": diag_connection(1, [[0.45]]),
        },
        "experiments": [
            {
                "check": "cs_odd_chern_pairing",
                "connection": "base",
                "r_values": [0.5, 1.0, 2.0],
                "label": "pairing",
            },
            {"check": "gilkey_variation", "from": "base", "to": "other"},
            {"check": "re_im_split", "connection": "base"},
            {"check": "eta_tilde_imaginary", "connection": "base"},
            {"check": "bk_phase", "rank": 1},
            {
                "check": "variation_complex",
                "path": {"kind": "linear", "from": "base", "to": "other"},
            },
            {"check": "spectrum", "connection": "base", "cutoff": 4},
        ],
        "output": {
            "report": "out/s1_unitary_report.json",
            "csv_dir": "out",
        },
    }


def s1_nonunitary() -> dict:
    return {
        "manifold": {"dim": 1},
        "bundle": {"rank": 1},
        "connections": {
            "main": diag_connection(1, [[0.3 + 0.07j]]),
            "target": diag_connection(1, [[0.62 - 0.14j]]),
        },
        "experiments": [
            {
                "check": "cs_odd_chern_pairing",
                "connection": "main",
                "r_values": [0.5, 1.0, 2.0],
                "label": "pairing",
            },
            {"check": "gilkey_variation", "from": "main", "to": "target"},
            {"check": "re_im_split", "connection": "main"},
            {"check": "eta_tilde_imaginary", "connection": "main"},
            {
                "check": "variation_complex",
                "path": {"kind": "linear", "from": "main", "to": "target"},
                "label": "variation_linear",
            },
            {
                "check": "variation_complex",
                "path": {"kind": "gauge", "connection": "main", "winding": 2},
                "label": "variation_gauge_w2",
            },
            {"check": "gauge_pumping", "connection": "main", "winding": 2},
        ],
        "output": {"report": "out/s1_nonunitary_report.json"},
    }


def t3_flat_commuting() -> dict:
    mu0 = [
        [0.3 + 0.1j, 0.7 - 0.2j],
        [0.55 - 0.05j, 0.2 + 0.15j],
        [0.4 + 0.2j, 0.85 + 0.05j],
    ]
    mu1 = [
        [0.45 - 0.1j, 0.6 + 0.25j],
        [0.35 + 0.2j, 0.75 - 0.1j],
        [0.25 - 0.15j, 0.5 + 0.1j],
    ]
    return {
        "manifold": {"dim": 3},
        "bundle": {"rank": 2},
        "connections": {
            "main": diag_connection(3, mu0),
            "other": diag_connection(3, mu1),
        },
        "experiments": [
            {
                "check": "cs_odd_chern_pairing",
                "connection": "main",
                "r_values": [0.5, 1.0, 2.0],
                "label": "pairing",
            },
            {
                "check": "psi_constancy",
                "path": {"kind": "linear", "from": "main", "to": "other"},
                "samples": 9,
            },
            {"check": "bk_phase", "rank": 2, "cutoff": 2},
        ],
        "output": {"report": "out/t3_flat_commuting_report.json"},
    }


def t3_spectrum() -> dict:
    return {
        "manifold": {"dim": 3},
        "bundle": {"rank": 1},
        "connections": {
            "main": diag_connection(3, [[0.25], [0.4], [0.1]]),
        },
        "experiments": [
            {"check": "spectrum", "connection": "main", "cutoff": 2},
            {
                "check": "cs_odd_chern_pairing",
                "connection": "main",
                "r_values": [1.0],
                "label": "pairing",
            },
            {"check": "bk_phase", "rank": 1, "cutoff": 2},
        ],
        "output": {
            "report": "out/t3_spectrum_report.json",
            "csv_dir": "out",
        },
    }


def gauged_connection(mu_rows, v) -> dict:
    """Connection JSON for A_j = diag(2*pi*i*mu) on T^3 gauge-transformed by
    u = Q + P e^{2 pi i x_1}, where P projects onto the unit vector v and
    Q onto its orthogonal complement: trig-polynomial, with frequencies 0
    and +-e_1, unitary for real mu."""
    w = np.array([-v[1].conjugate(), v[0].conjugate()])
    p, q = np.outer(v, v.conj()), np.outer(w, w.conj())
    u = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(1, 0, 0))
    u_inv = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(-1, 0, 0))
    mats = [np.diag([TWO_PI_I * m for m in row]) for row in mu_rows]
    diag = Connection.from_constant(3, mats)
    return Connection(gauge_transform(diag, u, u_inv).a).to_json_obj()


def t3_gauged_spectrum() -> dict:
    # the first coupled connection among the bundled scenarios: its modes
    # split into 169 lines of 13 along x_1, each solved on its own
    rng = np.random.default_rng(17)
    mu_rows = rng.uniform(0.1, 0.9, (3, 2)).tolist()
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = z / math.sqrt(sum(abs(x) ** 2 for x in z))
    return {
        "manifold": {"dim": 3},
        "bundle": {"rank": 2},
        "connections": {"main": gauged_connection(mu_rows, v)},
        "experiments": [{"check": "spectrum", "connection": "main", "cutoff": 6}],
        "output": {
            "report": "out/t3_gauged_spectrum_report.json",
            "csv_dir": "out",
        },
    }


def t3_unitary_lines_spectrum() -> dict:
    # a commuting unitary constant connection, A_j = S diag(2 pi i mu_j) S^H
    # for a seeded unitary S: its truncation is solved as two lines
    rng = np.random.default_rng(5)
    mus = rng.uniform(0.05, 0.95, (3, 2))
    s, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    mats = [s @ np.diag(TWO_PI_I * row) @ s.conj().T for row in mus]
    return {
        "manifold": {"dim": 3},
        "bundle": {"rank": 2},
        "connections": {"main": Connection.from_constant(3, mats).to_json_obj()},
        "experiments": [{"check": "spectrum", "connection": "main", "cutoff": 4}],
        "output": {
            "report": "out/t3_unitary_lines_spectrum_report.json",
            "csv_dir": "out",
        },
    }


def s1_unitary_lines() -> dict:
    # two commuting unitary rank-2 circle connections in seeded non-diagonal
    # bases, A = S diag(2 pi i mu) S^H: each endpoint's Bauer--Fike ball is
    # solved as two lines, and the tower at mu = 0.65 -> 1.2 crosses the
    # axis, so the spectral flow is 1
    rng = np.random.default_rng(11)

    def lines(mus) -> dict:
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s, _ = np.linalg.qr(z)
        mat = s @ np.diag([TWO_PI_I * m for m in mus]) @ s.conj().T
        return Connection.from_constant(1, [mat]).to_json_obj()

    return {
        "manifold": {"dim": 1},
        "bundle": {"rank": 2},
        "connections": {"base": lines([0.3, 0.65]), "other": lines([0.45, 1.2])},
        "experiments": [
            {
                "check": "variation_complex",
                "path": {"kind": "linear", "from": "base", "to": "other"},
            },
            {"check": "gilkey_variation", "from": "base", "to": "other"},
            {"check": "re_im_split", "connection": "base"},
        ],
        "output": {"report": "out/s1_unitary_lines_report.json"},
    }


def s1_near_axis() -> dict:
    # the start's first tower sits 5e-10 from an integer in Re mu, so its
    # value nearest the axis, 2 pi (5e-10 + 0.2i), is 3 AXIS_TOL off it:
    # the closed-form towers and the spectral flow's ball must both read it
    # off the axis for the two variation formulas to agree
    return {
        "manifold": {"dim": 1},
        "bundle": {"rank": 2},
        "connections": {
            "start": diag_connection(1, [[1 + 5e-10 + 0.2j, 0.3 - 0.1j]]),
            "end": diag_connection(1, [[0.45 + 0.1j, 0.7 - 0.05j]]),
        },
        "experiments": [
            {"check": "gilkey_variation", "from": "start", "to": "end"},
            {
                "check": "variation_complex",
                "path": {"kind": "linear", "from": "start", "to": "end"},
            },
        ],
        "output": {"report": "out/s1_near_axis_report.json"},
    }


def main() -> None:
    write("s1_unitary.json", s1_unitary())
    write("s1_nonunitary.json", s1_nonunitary())
    write("t3_flat_commuting.json", t3_flat_commuting())
    write("t3_spectrum.json", t3_spectrum())
    write("t3_gauged_spectrum.json", t3_gauged_spectrum())
    write("t3_unitary_lines_spectrum.json", t3_unitary_lines_spectrum())
    write("s1_unitary_lines.json", s1_unitary_lines())
    write("s1_near_axis.json", s1_near_axis())


if __name__ == "__main__":
    main()

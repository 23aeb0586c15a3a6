"""Seeded inputs, units and oracles for the four benchmark workloads.

Every workload turns the run seed into a pool of inputs before any timing
starts.  One unit runs one pool item through etacalc's public entry points;
its oracle then checks the output against data the unit did not compute
(closed-form spectra, expected entry counts, report bytes seen earlier in
the run for the same input).

Why these four:

* ``suite`` -- the 31-check battery users run; it is where path tracking
  (``flow``) and small S^1 block assembly spend their time.
* ``scenarios`` -- the only route through ``cli`` (schema validation,
  report and CSV writing) and the one whose T^3 files are trig-polynomial,
  so form algebra (``forms``, ``geometry``) is exercised at scale.
* ``t3_constant`` -- the block-diagonal spectral path at real cutoffs
  (4913 modes at cutoff 8), plus heat eta and the untwisted census.
* ``t3_coupled`` -- the only dense, coupled spectral path: a change that
  helps block assembly but costs the dense solve shows up here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

# units call through module attributes so that the traced run, which
# rebinds module attributes, sees every call
from etacalc import cli, eta, spectral, verify
from etacalc.forms import TrigPolyForm
from etacalc.geometry import Connection, gauge_transform

# eigenvalue oracle tolerance and the separation demanded between distinct
# closed-form eigenvalues, so that tolerance balls never overlap
EIG_TOL = 1e-9
EIG_SEPARATION = 1e-6
# heat eta of a unitary constant T^3 connection vanishes by symmetry
HEAT_ETA_TOL = 1e-6
# untwisted T^3 census: the zero modes span the even exterior algebra
T3_KERNEL = 4

TWO_PI_I = 2j * math.pi


@dataclass
class Item:
    """One pool input.  ``key`` names the input: equal keys must produce
    equal report bytes.  ``expected`` is the oracle data."""

    key: str
    data: dict
    expected: dict


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digest: str | None = None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# closed-form spectra of constant commuting rank-r connections on T^3


def closed_form_eigenvalues(mus: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Eigenvalues +-2 pi sqrt(sum_j (k_j + mu_jb)^2) for every mode k and
    bundle component b, each sign with multiplicity 2 (= 2^(d-2), d = 3).

    ``mus`` has shape (3, rank): A_j = S diag(2 pi i mu_j) S^-1."""
    shifted = modes[:, :, None] + mus[None, :, :]  # (mode, j, b)
    lam = 2 * math.pi * np.sqrt(np.sum(shifted**2, axis=1).astype(complex))
    lam = lam.ravel()
    return np.concatenate([lam, lam, -lam, -lam])


def mode_lattice(reach: int) -> np.ndarray:
    return np.array(list(product(range(-reach, reach + 1), repeat=3)))


def grouped(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values with multiplicities, or raise when two distinct
    values are closer than EIG_SEPARATION."""
    uniq, counts = np.unique(values, return_counts=True)
    pts = np.column_stack([uniq.real, uniq.imag])
    if len(pts) > 1:
        dist, _ = cKDTree(pts).query(pts, k=2)
        if dist[:, 1].min() < EIG_SEPARATION:
            raise ValueError("closed-form eigenvalues too close to separate")
    return uniq, counts


def spectrum_matches(
    computed: np.ndarray, uniq: np.ndarray, counts: np.ndarray, exact: bool
) -> tuple[bool, str]:
    """Each distinct expected value has (exactly, when ``exact``; else at
    least) its multiplicity of computed eigenvalues within EIG_TOL."""
    tree = cKDTree(np.column_stack([computed.real, computed.imag]))
    found = tree.query_ball_point(
        np.column_stack([uniq.real, uniq.imag]), r=EIG_TOL, return_length=True
    )
    if exact:
        if len(computed) != counts.sum():
            return False, f"spectrum has {len(computed)} values, expected {counts.sum()}"
        bad = found != counts
    else:
        bad = found < counts
    if np.any(bad):
        i = int(np.argmax(bad))
        return False, (
            f"{int(bad.sum())} closed-form eigenvalues missed, first "
            f"{uniq[i]:.6g} found {found[i]} of {counts[i]}"
        )
    return True, ""


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commuting_connection(mus: np.ndarray, basis: np.ndarray) -> Connection:
    """Constant T^3 connection A_j = S diag(2 pi i mu_j) S^-1."""
    inv = np.linalg.inv(basis)
    mats = [basis @ np.diag(TWO_PI_I * row) @ inv for row in mus]
    return Connection.from_constant(3, mats)


def gauge_map(basis: np.ndarray) -> tuple[TrigPolyForm, TrigPolyForm]:
    """u = Q + P e^{2 pi i x_1} and its inverse, for the complementary
    orthogonal projections P, Q onto the columns of a unitary ``basis``.
    u is unitary, so the transformed connection keeps the identity metric."""
    p = np.outer(basis[:, 0], basis[:, 0].conj())
    q = np.outer(basis[:, 1], basis[:, 1].conj())
    u = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(1, 0, 0))
    u_inv = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(-1, 0, 0))
    return u, u_inv


def gauged_connection(mus: np.ndarray, basis: np.ndarray) -> Connection:
    """Gauge transform of the diagonal constant connection diag(2 pi i mu_j)
    by the non-diagonal u of ``gauge_map``: flat, trig-polynomial, 9 terms."""
    diag = commuting_connection(mus, np.eye(mus.shape[1]))
    u, u_inv = gauge_map(basis)
    return Connection(gauge_transform(diag, u, u_inv).a)


def complex_mus(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(0.1, 0.9, size=shape) + 1j * rng.uniform(-0.3, 0.3, size=shape)


# ----------------------------------------------------------------------
# workloads


class Workload:
    """A pool builder, a timed unit and its oracle.  ``reference`` names
    the kind of machine-speed reference kernel whose work is shaped like
    the units' (see harness.Reference).

    ``pass_s`` is the normalised time of one pass over the full pool,
    measured once when the benchmark was set up and then kept fixed: it
    turns --seconds into a pass count that does not depend on how fast
    the program is.
    ``min_passes`` is the fewest passes that keep the median steady."""

    name = ""
    reference = "objects"
    pass_s = 1.0
    min_passes = 1

    def make_pool(self, rng: np.random.Generator, smoke: bool, workdir: str) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> Outcome:
        raise NotImplementedError

    def corrupt(self, item: Item) -> Item:
        """The same input with a damaged oracle value."""
        raise NotImplementedError


class Suite(Workload):
    name = "suite"
    pool_size = 16
    pass_s = 3.7

    def make_pool(self, rng, smoke, workdir):
        size = 1 if smoke else self.pool_size
        return [
            Item(f"suite:{s}", {"seed": int(s)}, {"entries": 31})
            for s in rng.integers(0, 2**31, size=size)
        ]

    def run(self, item):
        return verify.standard_suite(item.data["seed"])

    def check(self, item, report):
        digest = sha256_text(report.to_json())
        n = len(report.entries)
        if n != item.expected["entries"]:
            return Outcome(False, f"{n} entries, expected {item.expected['entries']}", digest)
        failed = report.failed()
        if failed:
            return Outcome(False, f"{len(failed)} entries failed: {failed[0].check_id}", digest)
        return Outcome(True, digest=digest)

    def corrupt(self, item):
        return dataclasses.replace(item, expected={"entries": item.expected["entries"] + 1})


def expected_entries(scenario: dict) -> int:
    """Report entries a scenario must produce: one per check, except the
    pairing (one per r and odd coordinate subtorus, of which T^dim has
    2^(dim-1)), re_im_split (two) and the artifact-only spectrum (none)."""
    dim = scenario["manifold"]["dim"]
    total = 0
    for exp in scenario["experiments"]:
        if exp["check"] == "cs_odd_chern_pairing":
            total += len(exp["r_values"]) * 2 ** (dim - 1)
        elif exp["check"] == "re_im_split":
            total += 2
        elif exp["check"] != "spectrum":
            total += 1
    return total


def _diag_json(dim: int, mu_rows) -> dict:
    mats = [np.diag([TWO_PI_I * m for m in row]) for row in mu_rows]
    return Connection.from_constant(dim, mats).to_json_obj()


def scenario_set(rng: np.random.Generator, outdir: str) -> list[tuple[str, dict, int]]:
    """Seeded scenarios with the shape of the four bundled ones:
    (name, scenario object, expected entry count)."""
    r3 = [0.5, 1.0, 2.0]
    s1u = {
        "manifold": {"dim": 1},
        "bundle": {"rank": 1},
        "connections": {
            "base": _diag_json(1, [[rng.uniform(0.1, 0.45)]]),
            "other": _diag_json(1, [[rng.uniform(0.55, 0.9)]]),
        },
        "experiments": [
            {"check": "cs_odd_chern_pairing", "connection": "base", "r_values": r3,
             "label": "pairing"},
            {"check": "gilkey_variation", "from": "base", "to": "other"},
            {"check": "re_im_split", "connection": "base"},
            {"check": "eta_tilde_imaginary", "connection": "base"},
            {"check": "bk_phase", "rank": 1},
            {"check": "variation_complex",
             "path": {"kind": "linear", "from": "base", "to": "other"}},
            {"check": "spectrum", "connection": "base", "cutoff": 4},
        ],
    }
    im = rng.uniform(0.05, 0.3, size=2) * rng.choice([-1.0, 1.0], size=2)
    s1n = {
        "manifold": {"dim": 1},
        "bundle": {"rank": 1},
        "connections": {
            "main": _diag_json(1, [[rng.uniform(0.15, 0.45) + 1j * im[0]]]),
            "target": _diag_json(1, [[rng.uniform(0.55, 0.85) + 1j * im[1]]]),
        },
        "experiments": [
            {"check": "cs_odd_chern_pairing", "connection": "main", "r_values": r3,
             "label": "pairing"},
            {"check": "gilkey_variation", "from": "main", "to": "target"},
            {"check": "re_im_split", "connection": "main"},
            {"check": "eta_tilde_imaginary", "connection": "main"},
            {"check": "variation_complex",
             "path": {"kind": "linear", "from": "main", "to": "target"},
             "label": "variation_linear"},
            {"check": "variation_complex",
             "path": {"kind": "gauge", "connection": "main", "winding": 2},
             "label": "variation_gauge_w2"},
            {"check": "gauge_pumping", "connection": "main", "winding": 2},
        ],
    }
    basis = random_unitary(rng, 2)
    t3f = {
        "manifold": {"dim": 3},
        "bundle": {"rank": 2},
        "connections": {
            name: {
                "dim": 3,
                "rank": 2,
                "A": gauged_connection(complex_mus(rng, (3, 2)), basis).a.to_json_obj(),
            }
            for name in ("main", "other")
        },
        "experiments": [
            {"check": "cs_odd_chern_pairing", "connection": "main", "r_values": r3,
             "label": "pairing"},
            {"check": "psi_constancy",
             "path": {"kind": "linear", "from": "main", "to": "other"}, "samples": 9},
            {"check": "bk_phase", "rank": 2, "cutoff": 2},
        ],
    }
    t3s = {
        "manifold": {"dim": 3},
        "bundle": {"rank": 1},
        "connections": {"main": _diag_json(3, rng.uniform(0.05, 0.95, size=(3, 1)))},
        "experiments": [
            {"check": "spectrum", "connection": "main", "cutoff": 2},
            {"check": "cs_odd_chern_pairing", "connection": "main", "r_values": [1.0],
             "label": "pairing"},
            {"check": "bk_phase", "rank": 1, "cutoff": 2},
        ],
    }
    shapes = [
        ("s1_unitary", s1u),
        ("s1_nonunitary", s1n),
        ("t3_flat_commuting", t3f),
        ("t3_spectrum", t3s),
    ]
    for name, obj in shapes:
        obj["output"] = {"report": os.path.join(outdir, f"{name}_report.json")}
        if name in ("s1_unitary", "t3_spectrum"):
            obj["output"]["csv_dir"] = outdir
    return [(name, obj, expected_entries(obj)) for name, obj in shapes]


def report_digest(path: str) -> tuple[dict, str]:
    """The report object and the SHA-256 of its bytes without
    ``generated_at``, serialized the way the CLI writes reports."""
    with open(path) as fh:
        obj = json.load(fh)
    obj.pop("generated_at", None)
    return obj, sha256_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


class Scenarios(Workload):
    name = "scenarios"
    pool_size = 4
    pass_s = 1.8

    def make_pool(self, rng, smoke, workdir):
        pool = []
        for i in range(1 if smoke else self.pool_size):
            outdir = os.path.join(workdir, f"set{i}")
            os.makedirs(outdir, exist_ok=True)
            files, reports, expected = [], [], []
            for name, obj, n_entries in scenario_set(rng, outdir):
                path = os.path.join(outdir, f"{name}.json")
                with open(path, "w") as fh:
                    json.dump(obj, fh, sort_keys=True, indent=2)
                files.append(path)
                reports.append(obj["output"]["report"])
                expected.append(n_entries)
            pool.append(
                Item(f"scenarios:{i}", {"files": files, "reports": reports}, {"entries": expected})
            )
        return pool

    def run(self, item):
        codes = []
        for path in item.data["files"]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append((cli.main(["run", path, "--emit-csv"]), err.getvalue()))
        return codes

    def check(self, item, codes):
        file_digests = {}
        reason = ""
        for path, report, n_expected, (code, err) in zip(
            item.data["files"], item.data["reports"], item.expected["entries"], codes
        ):
            name = os.path.basename(path)
            if code != 0:
                reason = reason or f"{name}: exit {code} {err.strip()}"
                continue
            obj, file_digests[name] = report_digest(report)
            entries = obj["entries"]
            if len(entries) != n_expected:
                reason = reason or f"{name}: {len(entries)} entries, expected {n_expected}"
            elif not all(e["passed"] for e in entries):
                reason = reason or f"{name}: an entry failed"
        digest = sha256_text("\n".join(f"{k} {v}" for k, v in sorted(file_digests.items())))
        return Outcome(not reason, reason, digest)

    def corrupt(self, item):
        entries = list(item.expected["entries"])
        entries[0] += 1
        return dataclasses.replace(item, expected={"entries": entries})


def _separated_draw(draw, modes):
    """Redraw until the closed-form eigenvalues are pairwise separated."""
    while True:
        mus = draw()
        try:
            return mus, grouped(closed_form_eigenvalues(mus, modes))
        except ValueError:
            continue


class ClosedFormSpectrum(Workload):
    """T^3 workloads whose oracle is a closed-form spectrum: ``exact``
    demands the whole truncated spectrum, otherwise every expected value
    must appear among the computed ones."""

    exact = True

    def spectrum_outcome(self, spec, expected) -> Outcome:
        ok, reason = spectrum_matches(spec, expected["values"], expected["counts"], self.exact)
        return Outcome(ok, reason)

    def corrupt(self, item):
        shift = 10 * EIG_SEPARATION
        spectra = [{**e, "values": e["values"] + shift} for e in item.expected["spectra"]]
        return dataclasses.replace(item, expected={"spectra": spectra})


class T3Constant(ClosedFormSpectrum):
    name = "t3_constant"
    reference = "mixed"
    cutoffs = (4, 5, 6, 7, 8)
    pass_s = 4.0
    # the median and the tail each fall inside one cutoff, which holds one
    # unit per pass; unit times scatter by about 10% on a shared machine
    min_passes = 6
    smoke_cutoffs = (1, 2)

    def make_pool(self, rng, smoke, workdir):
        pool = []
        for cutoff in self.smoke_cutoffs if smoke else self.cutoffs:
            # unitary draws (real mu, unitary eigenbasis) so the truncation
            # is self-adjoint and heat eta applies
            mus, (uniq, counts) = _separated_draw(
                lambda: rng.uniform(0.05, 0.95, size=(3, 2)), mode_lattice(cutoff)
            )
            conn = commuting_connection(mus, random_unitary(rng, 2))
            pool.append(
                Item(
                    f"t3_constant:{cutoff}",
                    {"connection": conn, "cutoff": cutoff},
                    {"spectra": [{"values": uniq, "counts": counts}]},
                )
            )
        return pool

    def run(self, item):
        t = spectral.build_truncation(item.data["connection"], item.data["cutoff"])
        return (
            spectral.spectrum(t),
            eta.eta_heat_estimate(t),
            verify.trivial_line_eta(3, item.data["cutoff"]),
        )

    def check(self, item, result):
        spec, heat, census = result
        outcome = self.spectrum_outcome(spec, item.expected["spectra"][0])
        if outcome.ok and abs(heat) > HEAT_ETA_TOL:
            return Outcome(False, f"heat eta {heat:.3g}, expected 0")
        if outcome.ok and (census.kernel_dim != T3_KERNEL or abs(census.eta) > 0.5):
            return Outcome(False, f"census kernel {census.kernel_dim} eta {census.eta}")
        return outcome


class T3Coupled(ClosedFormSpectrum):
    name = "t3_coupled"
    exact = False
    reference = "dense"
    pool_size = 3
    pass_s = 8.7
    cutoff = 2
    smoke_cutoff = 1

    def make_pool(self, rng, smoke, workdir):
        cutoff = self.smoke_cutoff if smoke else self.cutoff
        # closed-form eigenvalues of the ungauged connection whose gauged
        # eigenvectors stay inside the truncation window
        inner = mode_lattice(cutoff - 1)
        pool = []
        for i in range(1 if smoke else self.pool_size):
            mus, (uniq, counts) = _separated_draw(lambda: complex_mus(rng, (3, 2)), inner)
            conn = gauged_connection(mus, random_unitary(rng, 2))
            pool.append(
                Item(
                    f"t3_coupled:{i}",
                    {"connection": conn, "cutoff": cutoff},
                    {"spectra": [{"values": uniq, "counts": counts}]},
                )
            )
        return pool

    def run(self, item):
        return spectral.spectrum(
            spectral.build_truncation(item.data["connection"], item.data["cutoff"])
        )

    def check(self, item, spec):
        return self.spectrum_outcome(spec, item.expected["spectra"][0])


WORKLOADS = {w.name: w for w in (Suite(), Scenarios(), T3Constant(), T3Coupled())}

#!/usr/bin/env python3
"""Time the package's layers one at a time, in one process, on one BLAS
thread, and compare the timings with an earlier record.

Usage:
    python3 scripts/layers.py [--layers NAME ...] [--rounds N] [--json OUT]
                              [--against OLD.json] [--smoke]

Each layer is one call into the package on seeded inputs that the script
builds itself (its ``recipe`` says how): the form algebra (``wedge``,
``ext_d``, ``cs_form``, ``cs_r_poly``), operator assembly
(``build_truncation`` of a constant and of a coupled T^3 connection at
several cutoffs), eigen-solves (``spectrum`` of a fresh truncation), ball
counts (``ball_truncation`` then ``sign_count``), ``spectral_flow`` on
the ball route and on the coupled route, ``eta_s1_spectral``,
``eta_heat_estimate`` and the untwisted census (``trivial_line_eta``, as
the bench calls it).  What a layer needs but does not time (a fresh
truncation for ``spectrum``) is built before its clock starts.

A round times a fixed reference kernel and then every layer, each
``calls`` times in a row; ``calls`` is set once per layer so that a round
spends about 20 ms on it.  Each layer reports the median and the
quartiles over the rounds of its seconds per call, the same in units of
the reference's seconds per call in that round (``*_ref``), and the peak
bytes that ``tracemalloc`` traces during one more, untimed call.  The
reference takes out what slows the whole process: on a shared 2-core
x86-64 machine, runs of one tree read every layer up to 1.9 times
slower than the run before.  The garbage collector stays on, as in the
bench: with it off, ``spectrum`` of the cutoff-8 T^3 truncation read
690-710 us on one tree and 300-320 us on another whose ``spectrum`` code
is the same, and about 320 us on both with it on.

``--layers`` keeps the layers whose names match one of its ``fnmatch``
patterns.  ``--json OUT`` writes the record; ``--against OLD.json``
prints, for every layer in both records, the old and new medians, their
ratio, that ratio in units of each record's reference, and a ``*`` where
the interquartile ranges in those units do not overlap.  ``--smoke``
runs one round of one call, for a test of the record's layout.

The script uses numpy and the standard library only, and sets one BLAS
thread in its environment before numpy loads.  It imports the ``etacalc``
on the path, so ``PYTHONPATH=<tree>/src`` times that tree's package:
record one tree with ``--json``, then run the other with ``--against``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from etacalc import eta, flow, geometry, spectral, verify  # noqa: E402
from etacalc.forms import TrigPolyForm  # noqa: E402
from etacalc.geometry import Connection  # noqa: E402

ROUND_S = 0.02  # the timed seconds one round spends on a layer, about
TWO_PI_I = 2j * math.pi


# ----------------------------------------------------------------------
# seeded inputs


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _commuting(seed: int) -> Connection:
    """The bench's ``t3_constant`` shape: rank 2, A_j = U diag(2 pi i mu_j)
    U^H with mu uniform in (0.05, 0.95) and U unitary."""
    rng = np.random.default_rng(seed)
    mus, basis = rng.uniform(0.05, 0.95, (3, 2)), _unitary(rng, 2)
    return Connection.from_constant(
        3, [basis @ np.diag(TWO_PI_I * row) @ basis.conj().T for row in mus]
    )


def _gauged(seed: int) -> tuple[Connection, Connection]:
    """The bench's ``t3_coupled`` shape: the rank-2 constant connection
    diag(2 pi i mu_j), mu = uniform(0.1, 0.9) + i uniform(-0.3, 0.3), and
    its gauge transform by u = Q + P e^{2 pi i x_1}, P and Q the projections
    onto the columns of a unitary basis: frequencies 0 and +-e_1."""
    rng = np.random.default_rng(seed)
    mus = rng.uniform(0.1, 0.9, (3, 2)) + 1j * rng.uniform(-0.3, 0.3, (3, 2))
    basis = _unitary(rng, 2)
    p = np.outer(basis[:, 0], basis[:, 0].conj())
    q = np.outer(basis[:, 1], basis[:, 1].conj())
    u = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(1, 0, 0))
    u_inv = TrigPolyForm.constant(3, q) + TrigPolyForm.monomial(3, p, k=(-1, 0, 0))
    diag = Connection.from_constant(3, [np.diag(TWO_PI_I * row) for row in mus])
    return diag, geometry.gauge_transform(diag, u, u_inv)


def _curved(seed: int, dim: int, rank: int, radius: float) -> Connection:
    """Constant and curved: A_j = X_j + 0.3 H_j, the skew-Hermitian and
    Hermitian parts of a complex Gaussian matrix, each scaled to norm 1,
    then all scaled so that ``ball_radius`` is ``radius``."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(dim):
        x = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        m = (x - x.conj().T) / 2 + 0.3 * (x + x.conj().T) / 2
        mats.append(m / np.linalg.norm(m, 2))
    scale = radius / spectral.ball_radius(Connection.from_constant(dim, mats))
    return Connection.from_constant(dim, [scale * m for m in mats])


def _circle(mus) -> Connection:
    return Connection.from_constant(1, [np.diag(TWO_PI_I * np.asarray(mus))])


def _one_form(seed: int, dim: int, rank: int, n_terms: int) -> TrigPolyForm:
    """``n_terms`` terms A e^{2 pi i k.x} dx_j, k in {-1, 0, 1}^dim, A complex
    Gaussian."""
    rng = np.random.default_rng(seed)
    terms = {}
    while len(terms) < n_terms:
        k = tuple(int(v) for v in rng.integers(-1, 2, dim))
        terms[k, (int(rng.integers(1, dim + 1)),)] = (
            rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        )
    return TrigPolyForm(dim, rank, list(terms.items()))


# ----------------------------------------------------------------------
# layers: name -> (recipe, prepare, run); run(prepare()) is timed


def _fixed(value):
    return lambda: value


def _layers() -> dict:
    layers = {}
    wide, narrow = _one_form(1, 3, 2, 6), _one_form(2, 3, 2, 6)
    layers["wedge.T3"] = (
        "two rank-2 T^3 one-forms of 6 terms each, seeds 1 and 2",
        _fixed((wide, narrow)), lambda ab: ab[0].wedge(ab[1]),
    )
    layers["ext_d.T3"] = (
        "a rank-2 T^3 one-form of 6 terms, seed 1",
        _fixed(wide), lambda a: a.ext_d(),
    )
    diag, gauged = _gauged(0)
    layers["cs_form.T3.gauged"] = (
        "CS from the bench's t3_coupled diagonal connection to its gauge "
        "transform, seed 0",
        _fixed((diag, gauged)), lambda cc: geometry.cs_form(*cc),
    )
    layers["cs_r_poly.T3.gauged"] = (
        "the bench's t3_coupled gauged connection, seed 0",
        _fixed(gauged), geometry.cs_r_poly,
    )
    constant = _commuting(0)
    for cutoff in (1, 2, 4, 8):
        layers[f"build_truncation.constant.T3.K{cutoff}"] = (
            f"the bench's t3_constant shape, seed 0, cutoff {cutoff}",
            _fixed(constant), lambda c, k=cutoff: spectral.build_truncation(c, k),
        )
    for cutoff in (1, 2):
        layers[f"build_truncation.coupled.T3.K{cutoff}"] = (
            f"the bench's t3_coupled shape, seed 0, cutoff {cutoff}",
            _fixed(gauged), lambda c, k=cutoff: spectral.build_truncation(c, k),
        )
    for kind, c, cutoffs in (("constant", constant, (2, 8)), ("coupled", gauged, (1, 2))):
        for cutoff in cutoffs:
            layers[f"spectrum.{kind}.T3.K{cutoff}"] = (
                f"a fresh truncation of the bench's t3_{kind} shape, seed 0, "
                f"cutoff {cutoff}",
                lambda c=c, k=cutoff: spectral.build_truncation(c, k), spectral.spectrum,
            )
    for dim, rank, radius in ((3, 2, 2.0), (3, 2, 3.0), (5, 3, 2.0)):
        c = _curved(dim + rank, dim, rank, radius)
        layers[f"ball_sign_count.T{dim}.R{radius:g}"] = (
            f"a curved constant T^{dim} connection of rank {rank} at R = {radius:g}, "
            f"seed {dim + rank}",
            _fixed(c), lambda c: spectral.sign_count(spectral.ball_truncation(c, 64)),
        )
    start = _circle([0.3 + 0.1j, -0.45])
    layers["spectral_flow.S1.ball"] = (
        "two constant rank-2 circle connections, mu (0.3 + 0.1i, -0.45) to "
        "(1.2 + 0.1i, 0.35), cutoff 8",
        _fixed((start, _circle([1.2 + 0.1j, 0.35]))),
        lambda cc: flow.spectral_flow(*cc, 8),
    )
    coupled = Connection.from_constant(1, [TWO_PI_I * np.array([[0.3 + 0.1j, 0.2],
                                                                [0.1, -0.45]])])
    layers["spectral_flow.S1.coupled"] = (
        "a constant rank-2 circle connection, 2 pi i ((0.3 + 0.1i, 0.2), "
        "(0.1, -0.45)), to its gauge transform of winding 1, cutoff 8",
        _fixed((coupled, flow.gauge_path(coupled, 1)(1.0))),
        lambda cc: flow.spectral_flow(*cc, 8),
    )
    layers["eta_s1_spectral.rank3"] = (
        "mu (0.3 + 0.1i, -0.45, 2.2 - 0.3i)",
        _fixed([0.3 + 0.1j, -0.45, 2.2 - 0.3j]), eta.eta_s1_spectral,
    )
    layers["eta_heat_estimate.S1.K400"] = (
        "a fresh rank-1 circle truncation, mu 0.25, cutoff 400",
        lambda: spectral.build_truncation(_circle([0.25]), 400), eta.eta_heat_estimate,
    )
    layers["census.T3.K4"] = (
        "verify.trivial_line_eta(3, 4), as the bench's t3_constant unit calls it",
        _fixed(4), lambda k: verify.trivial_line_eta(3, k),
    )
    return layers


# ----------------------------------------------------------------------
# timing


def _timed(prepare, run, calls: int) -> float:
    """Seconds per call of ``run``, over ``calls`` calls, each on a fresh
    ``prepare()``."""
    total = 0.0
    for _ in range(calls):
        arg = prepare()
        start = time.perf_counter()
        run(arg)
        total += time.perf_counter() - start
    return total / calls


def _peak(prepare, run) -> int:
    arg = prepare()
    tracemalloc.start()
    try:
        run(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference(m: np.ndarray) -> dict:
    """The machine-speed reference that every round times too: one LAPACK
    ``eigvals`` of a 16 x 16 complex matrix, small numpy calls and
    interpreter work, as the layers mix them."""
    np.linalg.eigvals(m)
    return {(i, i % 7): np.abs(m[i % 16]).max() for i in range(64)}


_REFERENCE = (
    "eigvals of a 16 x 16 complex Gaussian matrix (seed 0), then 64 row "
    "maxima into a dict",
    _fixed(np.random.default_rng(0).standard_normal((16, 16, 2)) @ [1, 1j]), _reference,
)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def measure(names: list[str], rounds: int, smoke: bool) -> dict:
    """The record of the ``names`` layers, and of the reference as
    ``"reference"``: per layer its seconds per call over the rounds, and
    the same divided by the reference's seconds per call in each round
    (``*_ref``), which takes out what slows the whole process."""
    chosen = {"reference": _REFERENCE}
    layers = _layers()
    chosen.update((name, layers[name]) for name in names)
    calls = {}
    for name, (_, prepare, run) in chosen.items():
        once = _timed(prepare, run, 1)  # also the warm-up of every cache
        calls[name] = 1 if smoke else max(1, min(10_000, round(ROUND_S / max(once, 1e-7))))
    samples = {name: [] for name in chosen}
    for _ in range(rounds):
        for name, (_, prepare, run) in chosen.items():
            samples[name].append(_timed(prepare, run, calls[name]))
    record = {}
    for name, (recipe, prepare, run) in chosen.items():
        q1, median, q3 = _quartiles(samples[name])
        rel = _quartiles([t / r for t, r in zip(samples[name], samples["reference"])])
        record[name] = {
            "recipe": recipe, "calls": calls[name], "rounds": rounds,
            "median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1,
            "median_ref": rel[1], "q1_ref": rel[0], "q3_ref": rel[2],
            "peak_bytes": _peak(prepare, run),
        }
    return record


def compare(old: dict, new: dict) -> list[str]:
    """One line per layer in both records: old and new medians in us, new /
    old, the same in units of each record's reference, and ``*`` where the
    interquartile ranges of those units do not overlap."""
    lines = [f"{'layer':<40} {'old us':>10} {'new us':>10} {'new/old':>8} {'in ref':>8}"]
    for name in new:
        if name not in old:
            continue
        a, b = old[name], new[name]
        apart = b["q3_ref"] < a["q1_ref"] or b["q1_ref"] > a["q3_ref"]
        lines.append(
            f"{name:<40} {1e6 * a['median_s']:>10.2f} {1e6 * b['median_s']:>10.2f} "
            f"{b['median_s'] / a['median_s']:>8.3f} "
            f"{b['median_ref'] / a['median_ref']:>8.3f}{' *' if apart else ''}"
        )
    for name in sorted(set(old) ^ set(new)):
        lines.append(f"{name:<40} only in the {'new' if name in new else 'old'} record")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layers", nargs="+", metavar="NAME",
                    help="fnmatch patterns of the layers to time (default: all)")
    ap.add_argument("--rounds", type=int, default=9, help="rounds (default 9)")
    ap.add_argument("--json", metavar="OUT", help="write the record here")
    ap.add_argument("--against", metavar="OLD.json", help="compare with this record")
    ap.add_argument("--smoke", action="store_true", help="one round of one call")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    names = list(_layers())
    if args.layers:
        names = [n for n in names if any(fnmatch.fnmatchcase(n, p) for p in args.layers)]
        if not names:
            ap.error(f"no layer matches {' '.join(args.layers)}")
    rounds = 1 if args.smoke else args.rounds
    layers = measure(names, rounds, args.smoke)
    record = {
        "meta": {
            "rounds": rounds, "smoke": args.smoke, "blas_threads": 1,
            "python": platform.python_version(), "numpy": np.__version__,
        },
        "layers": layers,
    }
    for name, row in layers.items():
        print(f"{name:<40} {1e6 * row['median_s']:>10.2f} us  "
              f"IQR {1e6 * row['iqr_s']:>8.2f}  peak {row['peak_bytes']:>10} B")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        print(f"against {args.against}:")
        for line in compare(old["layers"], layers):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

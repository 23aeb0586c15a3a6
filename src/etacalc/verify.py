"""Identity harness: each characteristic-class / spectral-asymmetry identity
in scope becomes a check producing :class:`CheckEntry` records, collected in a
deterministic :class:`VerificationReport`.

Conventions shared by all checks:

* residual modes -- ``absolute`` is |lhs - rhs|; ``mod-Z`` takes the circle
  distance of the real parts (nearest-integer gap) plus the absolute gap of
  the imaginary parts; ``integer`` demands exact equality of two integers.
* every twisted eta comes from :func:`etacalc.eta.constant_eta` and every
  spectral flow from :func:`etacalc.flow.spectral_flow` of a circle path's
  endpoints, which owns the window; ``bk_phase`` alone censuses a spectrum
  on T^d (the untwisted operator's Bauer--Fike ball, k = 0), and higher
  tori otherwise give only form-level sides (pairings, Chern forms).
* one global sign calibration (unitary circle connection, tower shift 1/4,
  upward crossing counts +1) pins the Clifford orientation and the spectral
  flow sign; no check below carries a per-check sign choice.

Checks are pure functions of their inputs and independent of each other, so
they may run in any order (or concurrently); reports are assembled sorted by
check id, making the output order-free.

:data:`CHECKS` registers every check as one table row: the check function
and a ``parameter="key"`` pair per experiment key it reads, so each key is
named once.  A key is required exactly when its parameter has no default,
and a key an experiment leaves out is not passed, so each default is stated
once, in the signature.  The experiment's label is passed as ``check_id``,
the prefix of every entry id.  ``etacalc run`` and :func:`standard_suite`,
a table of experiments, both run checks through it.
"""

from __future__ import annotations

import cmath
import inspect
import json
import math
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Sequence

import numpy as np

from .eta import EtaValue, constant_eta
from .flow import gauge_path, spectral_flow
from .geometry import (
    Connection,
    PreconditionError,
    a_coeff,
    cs_form,
    cs_r_poly,
    odd_subtori,
    subtorus_pairing,
)
from .spectral import GuardError, ball_truncation, sign_count

SCHEMA_VERSION = "1"

#: default tolerances per residual mode (overridable per check)
DEFAULT_ABS_TOL = 1e-9
DEFAULT_MOD_Z_TOL = 1e-6


# ----------------------------------------------------------------------
# report plumbing


def _complex_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def circle_distance(x: float) -> float:
    """Distance from x to the nearest integer."""
    return abs(x - round(x))


def residual_for(lhs: complex, rhs: complex, mode: str) -> float:
    """Residual of lhs vs rhs under the given comparison mode."""
    diff = complex(lhs) - complex(rhs)
    if mode == "absolute":
        return abs(diff)
    if mode == "mod-Z":
        return max(circle_distance(diff.real), abs(diff.imag))
    if mode == "integer":
        return abs(diff)
    raise ValueError(f"unknown comparison mode {mode!r}")


@dataclass(frozen=True)
class CheckEntry:
    """One verified identity: lhs and rhs with the residual, the comparison
    mode it was computed under, and the pass verdict at ``tolerance``."""

    check_id: str
    identity: str
    lhs: complex
    rhs: complex
    residual: float
    mode: str
    tolerance: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "check_id": self.check_id,
            "identity": self.identity,
            "lhs": _complex_json(self.lhs),
            "rhs": _complex_json(self.rhs),
            "residual": self.residual,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def make_entry(
    check_id: str,
    identity: str,
    lhs: complex,
    rhs: complex,
    mode: str,
    tolerance: float,
) -> CheckEntry:
    """The entry comparing ``lhs`` with ``rhs`` under ``mode``.  Sides whose
    difference is not a finite number (a side that is not, or finite input
    whose arithmetic overflowed) trip a guard, GuardError naming the entry:
    neither a verdict nor a JSON report could hold them."""
    diff = complex(lhs) - complex(rhs)
    if not math.isfinite(abs(diff.real) + abs(diff.imag)):
        raise GuardError(f"entry {check_id}: lhs {lhs} - rhs {rhs} is not finite")
    res = residual_for(lhs, rhs, mode)
    return CheckEntry(
        check_id=check_id,
        identity=identity,
        lhs=complex(lhs),
        rhs=complex(rhs),
        residual=res,
        mode=mode,
        tolerance=float(tolerance),
        passed=bool(res <= tolerance),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Sorted, deterministic collection of check entries.

    ``meta`` carries the schema version (and a :func:`standard_suite`
    report's ``seed``); no timestamps, so equal inputs give byte-equal JSON.
    """

    entries: tuple[CheckEntry, ...]
    meta: dict

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def to_json_obj(self) -> dict:
        return {
            "meta": dict(self.meta),
            "entries": [e.to_json_obj() for e in self.entries],
        }

    def to_json(self) -> str:
        """The report as JSON text; ``make_entry`` lets no NaN or infinity
        in, and none would be written (they are not JSON, RFC 8259)."""
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2, allow_nan=False)

    def summary_lines(self) -> list[str]:
        width = max([len(e.check_id) for e in self.entries] + [8])
        lines = [
            f"{'check':<{width}}  {'mode':<8}  {'residual':>12}  "
            f"{'tol':>9}  verdict"
        ]
        for e in self.entries:
            verdict = "pass" if e.passed else "FAIL"
            lines.append(
                f"{e.check_id:<{width}}  {e.mode:<8}  {e.residual:>12.3e}  "
                f"{e.tolerance:>9.1e}  {verdict}"
            )
        n_fail = len(self.failed())
        lines.append(
            f"{len(self.entries)} checks, "
            + ("all passed" if n_fail == 0 else f"{n_fail} FAILED")
        )
        return lines


def assemble_report(
    entries: Iterable[CheckEntry], seed: int | None = None
) -> VerificationReport:
    ordered = tuple(sorted(entries, key=lambda e: (e.check_id, e.identity)))
    meta: dict = {"schema_version": SCHEMA_VERSION}
    if seed is not None:
        meta["seed"] = int(seed)
    return VerificationReport(entries=ordered, meta=meta)


# ----------------------------------------------------------------------
# transgression vs. odd Chern forms


def check_cs_odd_chern_pairing(
    c: Connection,
    r_values: Sequence[float] = (0.5, 1.0, 2.0),
    tol: float = DEFAULT_ABS_TOL,
    check_id: str = "cs_odd_chern_pairing",
) -> list[CheckEntry]:
    """Pair the transgression from the unitary part of the connection to its
    r-deformation A + (1 + i r)/2 omega against the weighted sum of odd
    Chern forms, on every odd-dimensional coordinate subtorus::

        <CS(herm, r-deformed)>_J = -(r/2pi) sum_j a_j(r)/j! <c_{2j+1}>_J

    Requires a flat connection (the identity uses flatness), as
    ``Connection.is_flat`` decides it, relative to max|A|; one entry per
    r and subtorus, absolute comparison, with ids ``check_id[r=..,J=..]``.
    Neither side's pairings depend on r, so they are computed once: the left
    side is sum_i r^i p_{i,J}, p_{i,J} the pairings of the ``cs_r_poly``
    coefficients that ``re_im_split`` reads too.  An r whose powers leave
    the float range gives the sides infinity, which ``make_entry`` refuses
    (GuardError).

    On a flat T^3 the ``J=123`` rows are a structural zero: c_1 has no
    degree-3 part and <c_3>_123 is a multiple of :func:`psi_local`, 0 on
    every flat torus input, so the right side is 0 and so is the left.
    """
    if not c.is_flat():
        raise PreconditionError("pairing identity requires a flat connection")
    regions = odd_subtori(c.dim)
    chern = [c.chern_odd(j) for j in range((c.dim + 1) // 2)]
    # <c_{2j+1}>_J for every j with 2j + 1 <= |J|
    odd_pairings = [
        [
            subtorus_pairing(form, region)
            for form in chern[: (len(region) + 1) // 2]
        ]
        for region in regions
    ]
    coeffs = cs_r_poly(c)
    cs_pairings = [[subtorus_pairing(f, region) for f in coeffs] for region in regions]
    identity = (
        "subtorus pairing of CS(hermitian part, r-deformation) equals "
        "-(r/2pi) sum_j a_j(r)/j! times the odd-Chern pairing"
    )
    entries = []
    for r in r_values:
        r = float(r)
        for region, pairings, ps in zip(regions, odd_pairings, cs_pairings):
            try:
                lhs = sum(r**i * p for i, p in enumerate(ps))
                rhs = 0j
                for j, pairing in enumerate(pairings):
                    rhs -= (r / (2 * math.pi)) * a_coeff(j, r) / factorial(j) * pairing
            except OverflowError:  # a power of r past the float range
                lhs = rhs = complex(math.inf)  # which make_entry refuses
            entries.append(
                make_entry(
                    f"{check_id}[r={r:g},J={''.join(map(str, region))}]",
                    identity,
                    lhs,
                    rhs,
                    "absolute",
                    tol,
                )
            )
    return entries


# ----------------------------------------------------------------------
# circle spectral sides


def _axis_free_eta(c: Connection) -> EtaValue:
    """``constant_eta(c)``, refused (PreconditionError) when it excludes a
    nonzero eigenvalue on the imaginary axis: moving such an eigenvalue off
    the axis changes eta by 1, half an integer of the reduced eta, which
    no comparison mod Z absorbs."""
    e = constant_eta(c)
    if e.excluded:
        raise PreconditionError(
            f"eigenvalue(s) on the imaginary axis: {list(e.excluded)}; "
            "perturb the connection"
        )
    return e


def check_gilkey_variation(
    c0: Connection,
    c1: Connection,
    tol: float = DEFAULT_MOD_Z_TOL,
    check_id: str = "gilkey_variation",
) -> CheckEntry:
    """Gilkey-type variation on the circle: the change of the reduced eta
    invariant equals the transgression pairing up to an integer::

        reduced_eta(c1) - reduced_eta(c0)  ==  <L . CS(c0, c1)>   (mod Z)

    Real parts compare modulo Z, imaginary parts exactly.  Both connections
    must be constant on the circle, and an endpoint with a nonzero
    eigenvalue on the imaginary axis, which its eta excludes, is refused
    (PreconditionError); kernel modes are absorbed by the reduced eta.
    """
    e0, e1 = _axis_free_eta(c0), _axis_free_eta(c1)
    lhs = e1.reduced - e0.reduced
    rhs = subtorus_pairing(cs_form(c0, c1))  # flat torus: L = 1
    return make_entry(
        check_id,
        "change of reduced eta equals the transgression pairing mod Z",
        lhs,
        rhs,
        "mod-Z",
        tol,
    )


def check_variation_complex(
    path: Callable[[float], Connection],
    tol: float = 1e-8,
    cutoff: int = 8,
    check_id: str = "variation_complex",
) -> CheckEntry:
    """Exact complex-valued variation formula along a path of circle
    connections: no integer slack, the jump is absorbed by spectral flow::

        reduced_eta(end) - reduced_eta(start)  ==  sf + <L . CS(start, end)>

    Endpoint etas come from closed-form towers (endpoints must be constant
    and axis-free: an eigenvalue on the imaginary axis is refused as in
    :func:`check_gilkey_variation`, and so is a kernel mode, with
    PreconditionError).  sf is :func:`etacalc.flow.spectral_flow` of the
    two endpoints, so only ``path(0)`` and ``path(1)`` are evaluated, at a
    window no wider than ``cutoff``, else CutoffInstabilityError.
    """
    c0 = path(0.0)
    c1 = path(1.0)
    e0, e1 = _axis_free_eta(c0), _axis_free_eta(c1)
    for end, e in (("start", e0), ("end", e1)):
        if e.kernel_dim:
            raise PreconditionError(
                f"{e.kernel_dim} kernel mode(s) at the {end} of the path; "
                "the complex variation formula needs axis-free endpoints"
            )
    lhs = e1.reduced - e0.reduced
    rhs = spectral_flow(c0, c1, cutoff) + subtorus_pairing(cs_form(c0, c1))
    return make_entry(
        check_id,
        "change of reduced eta equals spectral flow plus the transgression "
        "pairing, exactly in C",
        lhs,
        rhs,
        "absolute",
        tol,
    )


def check_gauge_pumping(
    c: Connection,
    w: int,
    cutoff: int = 8,
    check_id: str = "gauge_pumping",
) -> CheckEntry:
    """Spectral flow along the gauge interpolation with winding w equals w
    exactly (integer comparison): the gauge path pumps w eigenvalue towers
    across the imaginary axis.  sf is :func:`etacalc.flow.spectral_flow` of
    the path's endpoints, at a window no wider than ``cutoff``, else
    CutoffInstabilityError.  The entry id is ``check_id[w=..]``.
    """
    w = int(w)
    path = gauge_path(c, w)
    sf = spectral_flow(path(0.0), path(1.0), cutoff)
    return make_entry(
        f"{check_id}[w={w}]",
        "spectral flow of the winding-w gauge interpolation equals w",
        complex(sf),
        complex(w),
        "integer",
        0.0,
    )


def check_re_im_split(
    c: Connection,
    tol_re: float = DEFAULT_MOD_Z_TOL,
    tol_im: float = 1e-8,
    check_id: str = "re_im_split",
) -> list[CheckEntry]:
    """Split the reduced eta of a constant circle connection into the
    self-adjoint part plus pairings of the transgression polynomial
    coefficients p_i = <coefficient_i of cs_r_poly>::

        Re reduced_eta(c) ==  reduced_eta(hermitian part)
                              + sum_{even i} (-1)^{i/2} p_i     (mod Z)
        Im reduced_eta(c) ==  sum_{odd i} (-1)^{(i-1)/2} p_i    (exactly)

    On the circle only i in {0, 1} occur (and p_0 = 0 identically).  A
    nonzero eigenvalue of c on the imaginary axis is refused, as in
    :func:`check_gilkey_variation`.
    """
    eta_full = _axis_free_eta(c).reduced
    eta_herm = constant_eta(c.hermitian_part()).reduced
    pav = [subtorus_pairing(f) for f in cs_r_poly(c)]
    even_sum = sum(
        (-1) ** (i // 2) * p for i, p in enumerate(pav) if i % 2 == 0
    )
    odd_sum = sum(
        (-1) ** ((i - 1) // 2) * p for i, p in enumerate(pav) if i % 2 == 1
    )
    re_entry = make_entry(
        f"{check_id}[re]",
        "real part of reduced eta equals the self-adjoint reduced eta plus "
        "the even transgression coefficients, mod Z",
        complex(eta_full.real),
        eta_herm + even_sum,
        "mod-Z",
        tol_re,
    )
    im_entry = make_entry(
        f"{check_id}[im]",
        "imaginary part of reduced eta equals the odd transgression "
        "coefficients",
        complex(eta_full.imag),
        complex(odd_sum),
        "absolute",
        tol_im,
    )
    return [re_entry, im_entry]


# ----------------------------------------------------------------------
# the locally constant phase function


def psi_local(c: Connection) -> complex:
    """Local formula for the phase function: a weighted full-torus pairing
    of the odd Chern forms of degree >= 3::

        psi = -(1/2pi) sum_{j>=1} 2^{2j} j!/(2j+1)! <L . c_{2j+1}>

    Zero on the circle (no degree-3 forms), and on every flat torus input:
    the commuting holonomies triangularise together, and conjugating by
    diag(1, t, t^2, ...) gives gauge-equivalent flat connections that tend,
    as t -> 0, to the diagonal part.  psi is locally constant (the paper)
    and continuous, so it is psi of the diagonal part, whose omega is a
    diagonal matrix of scalar 1-forms: tr omega^(2j+1) = 0 for j >= 1.
    """
    total = 0j
    j = 1
    while 2 * j + 1 <= c.dim:
        coef = 2.0 ** (2 * j) * factorial(j) / factorial(2 * j + 1)
        total -= coef / (2 * math.pi) * subtorus_pairing(c.chern_odd(j))
        j += 1
    return total


def check_psi_constancy(
    path: Callable[[float], Connection],
    n_samples: int = 9,
    tol: float = DEFAULT_ABS_TOL,
    check_id: str = "psi_constancy",
) -> CheckEntry:
    """The phase function is locally constant: along a path of flat
    connections, psi_local(path(t)) must not move.  The entry compares the
    farthest sampled value against the value at t = 0.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples along the path")
    times = np.linspace(0.0, 1.0, n_samples)
    values = [psi_local(path(float(t))) for t in times]
    base = values[0]
    worst = max(values, key=lambda v: abs(v - base))
    return make_entry(
        check_id,
        "the phase function is constant along a path of flat connections",
        worst,
        base,
        "absolute",
        tol,
    )


# ----------------------------------------------------------------------
# metric-independent imaginary part


def eta_tilde(c: Connection, ref: Connection | None = None) -> complex:
    """Transgression pairing from the unitary part of the reference to c::

        eta_tilde = <L . CS(hermitian_part(ref), c)>

    with ref defaulting to c itself.  Its imaginary part equals the
    imaginary part of the reduced eta invariant (checked spectrally on the
    circle), which does not depend on the fiber metric.
    """
    base = (c if ref is None else ref).hermitian_part()
    return subtorus_pairing(cs_form(base, c))


def check_eta_tilde_imaginary(
    c: Connection,
    ref: Connection | None = None,
    tol: float = 1e-8,
    check_id: str = "eta_tilde_imaginary",
) -> CheckEntry:
    """Imaginary part of the transgression from the reference's unitary
    part equals the imaginary part of the reduced eta (circle,
    constant connections)."""
    rhs = complex(0.0, constant_eta(c).reduced.imag)
    lhs = complex(0.0, eta_tilde(c, ref).imag)
    return make_entry(
        check_id,
        "imaginary part of the hermitian-reference transgression equals the "
        "imaginary part of reduced eta",
        lhs,
        rhs,
        "absolute",
        tol,
    )


# ----------------------------------------------------------------------
# untwisted census and the phase factor


def trivial_line_eta(dim: int, cutoff: int = 1) -> EtaValue:
    """Mode census of the untwisted operator on the trivial line bundle:
    the spectrum is symmetric (eta = 0) and the zero modes count the even
    exterior algebra, 2^(dim-1).  Both are the ``sign_count`` of the zero
    connection's Bauer--Fike ball, k = 0 alone (window 1, capped at
    ``cutoff``); every other mode has the balanced eigenvalues +-2 pi |k|."""
    c = Connection.from_constant(dim, [np.zeros((1, 1), dtype=complex)] * dim)
    count, axis = sign_count(ball_truncation(c, cutoff))
    return EtaValue(eta=complex(count), kernel_dim=len(axis))


def bk_phase_factor(rank: int, eta_sig_trivial: EtaValue) -> complex:
    """Unit-modulus phase factor exp(i pi rank reduced_eta) built from the
    reduced eta of the untwisted operator (kernel term included)."""
    return cmath.exp(1j * math.pi * int(rank) * eta_sig_trivial.reduced)


def check_bk_phase(
    rank: int,
    dim: int = 1,
    cutoff: int = 1,
    check_id: str = "bk_phase",
) -> CheckEntry:
    """The censused phase factor matches the closed form
    exp(i pi rank (0 + 2^(dim-1))/2); ``cutoff`` caps the census ball of
    :func:`trivial_line_eta`, whose window is 1.  The entry id is
    ``check_id[rank=..,dim=..]``."""
    census = trivial_line_eta(dim, cutoff)
    lhs = bk_phase_factor(rank, census)
    rhs = cmath.exp(1j * math.pi * int(rank) * 2 ** (dim - 1) / 2)
    return make_entry(
        f"{check_id}[rank={int(rank)},dim={dim}]",
        "censused phase factor matches the closed form from the zero-mode "
        "count",
        lhs,
        rhs,
        "absolute",
        1e-12,
    )


# ----------------------------------------------------------------------
# the check registry


@dataclass(frozen=True)
class Experiment:
    """One run of a registered check, a row of :func:`standard_suite` and an
    experiment of an ``etacalc run`` scenario alike: ``args`` holds the keys
    it sets, connections and paths as objects; ``label`` is its
    ``check_id`` (and a scenario's CSV file name); ``dim`` and ``rank`` are
    those of its scenario."""

    args: dict
    label: str
    dim: int = 1
    rank: int = 1


@dataclass(frozen=True)
class Check:
    """A registered check: the experiment keys it reads (``tolerance``
    among them if it takes one), those an experiment must set, and a runner
    returning the experiment's report entries (none for the ``spectrum``
    row of ``etacalc.cli.CHECKS``, whose CSV ``run_scenario`` writes)."""

    params: tuple[str, ...]
    required: tuple[str, ...]
    run: Callable[[Experiment], list[CheckEntry]]


def _row(fn: Callable, **keys: str) -> Check:
    """The registry row that calls ``fn`` with ``parameter=key`` for each key
    the experiment sets (one key may set several parameters) and its label
    as ``check_id``.  A key is required when its parameter has no default.
    ``fn`` is looked up here at call time, so a patched or traced check runs."""
    params = inspect.signature(fn).parameters
    required = [k for p, k in keys.items() if params[p].default is params[p].empty]

    def run(x: Experiment) -> list[CheckEntry]:
        args = {p: x.args[key] for p, key in keys.items() if key in x.args}
        out = globals()[fn.__name__](**args, check_id=x.label)
        return out if isinstance(out, list) else [out]

    return Check(tuple(dict.fromkeys(keys.values())), tuple(required), run)


def _bk_phase(x: Experiment) -> list[CheckEntry]:
    """``bk_phase`` at the scenario's dim and at its rank unless the experiment
    sets one; the keys ``rank`` and ``cutoff`` are the parameter names."""
    return [check_bk_phase(**{"rank": x.rank, **x.args}, dim=x.dim, check_id=x.label)]


#: check name -> Check(experiment keys, required keys, runner)
CHECKS: dict[str, Check] = {
    "cs_odd_chern_pairing": _row(
        check_cs_odd_chern_pairing, c="connection", r_values="r_values", tol="tolerance"
    ),
    "gilkey_variation": _row(
        check_gilkey_variation, c0="from", c1="to", tol="tolerance"
    ),
    "variation_complex": _row(
        check_variation_complex, path="path", tol="tolerance", cutoff="cutoff"
    ),
    "gauge_pumping": _row(
        check_gauge_pumping, c="connection", w="winding", cutoff="cutoff"
    ),
    "re_im_split": _row(
        check_re_im_split, c="connection", tol_re="tolerance", tol_im="tolerance"
    ),
    "psi_constancy": _row(
        check_psi_constancy, path="path", n_samples="samples", tol="tolerance"
    ),
    "eta_tilde_imaginary": _row(
        check_eta_tilde_imaginary, c="connection", ref="reference", tol="tolerance"
    ),
    "bk_phase": Check(("rank", "cutoff"), (), _bk_phase),
}


# ----------------------------------------------------------------------
# standard randomized suite


def _suite_mus(rng: np.random.Generator, n: int) -> list[complex]:
    """Tower shifts kept away from the axis and from each other."""
    out: list[complex] = []
    while len(out) < n:
        m = complex(
            rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)
        )
        if all(abs(m - o) > 0.05 for o in out):
            out.append(m)
    return out


def _banded_mus(rng: np.random.Generator, n: int) -> list[complex]:
    """Tower shifts in disjoint real-part bands: linear interpolation between
    two such draws never collides towers and never crosses the axis."""
    out = []
    for i in range(n):
        lo = 0.1 + 0.8 * i / n + 0.03
        hi = 0.1 + 0.8 * (i + 1) / n - 0.03
        out.append(complex(rng.uniform(lo, hi), rng.uniform(-0.3, 0.3)))
    return out


def _diagonal(*mus: Sequence[complex]) -> Connection:
    """The constant connection on T^len(mus) with A_j = diag(2 pi i mus[j])."""
    return Connection.from_constant(
        len(mus), [np.diag([2j * math.pi * m for m in row]) for row in mus]
    )


def _diagonal_path(
    start: Sequence[Sequence[complex]], end: Sequence[Sequence[complex]]
) -> Callable[[float], Connection]:
    """The linear path of diagonal connections between two sets of tower
    shifts, one row per direction."""
    return lambda t: _diagonal(
        *([a + t * (b - a) for a, b in zip(r0, r1)] for r0, r1 in zip(start, end))
    )


def _suite_experiments(rng: np.random.Generator) -> list[tuple[str, Experiment]]:
    """The standard suite as (check name, experiment) rows.  The random
    draws are taken first, in a fixed order."""
    t3 = _diagonal(*(_suite_mus(rng, 2) for _ in range(3)))
    gilkey = [_diagonal(_suite_mus(rng, 2)) for _ in range(2)]
    banded = _diagonal_path([_banded_mus(rng, 2)], [_banded_mus(rng, 2)])
    re_im = _diagonal(_suite_mus(rng, 2))
    circle_path = _diagonal_path([_suite_mus(rng, 2)], [_suite_mus(rng, 2)])
    t3_path = _diagonal_path(
        [_suite_mus(rng, 2) for _ in range(3)],
        [_suite_mus(rng, 2) for _ in range(3)],
    )
    eta_tilde = _diagonal(_suite_mus(rng, 2))
    gauge_base = _diagonal([0.3 + 0.07j, 0.55 - 0.1j])
    s1 = Connection.from_constant(1, [np.array([[1.0 + 2.0j]])])
    rows: list[tuple] = [
        # transgression vs odd Chern pairings: circle and 3-torus
        ("cs_odd_chern_pairing", ".s1", {"connection": s1, "r_values": [0.5]}),
        ("cs_odd_chern_pairing", ".t3", {"connection": t3}),
        # variation mod Z: unitary pair, complex pair, random pair
        ("gilkey_variation", "[unitary]",
         {"from": _diagonal([0.2]), "to": _diagonal([0.45])}),
        ("gilkey_variation", "[complex]",
         {"from": _diagonal([0.3 + 0.1j]), "to": _diagonal([0.6 - 0.3j])}),
        ("gilkey_variation", "[random-rank2]",
         {"from": gilkey[0], "to": gilkey[1]}),
        # exact complex variation: crossing path, gauge pumping, random path
        ("variation_complex", "[crossing]",
         {"path": lambda t: _diagonal([0.25 + t])}),
        ("variation_complex", "[gauge-w2]",
         {"path": gauge_path(gauge_base, 2)}),
        ("variation_complex", "[random]", {"path": banded}),
        ("gauge_pumping", "", {"connection": gauge_base, "winding": 2}),
        # real/imaginary split on the circle
        ("re_im_split", "[rank1]", {"connection": _diagonal([0.3 + 0.07j])}),
        ("re_im_split", "[rank2]", {"connection": re_im}),
        # phase function constancy: circle (dimension) and diagonal 3-torus
        ("psi_constancy", "[circle]", {"path": circle_path}),
        ("psi_constancy", "[t3-diagonal]", {"path": t3_path}),
        # imaginary part of the hermitian-reference transgression
        ("eta_tilde_imaginary", "[rank1]",
         {"connection": _diagonal([0.3 + 0.07j])}),
        ("eta_tilde_imaginary", "[rank2]", {"connection": eta_tilde}),
        # untwisted census phase factors
        ("bk_phase", "", {"rank": 1}),
        ("bk_phase", "", {"rank": 3}),
        ("bk_phase", "", {"rank": 2}, 3),  # on T^3
    ]
    return [
        (name, Experiment(args, name + tag, *dim))
        for name, tag, args, *dim in rows
    ]


def standard_suite(seed: int = 0) -> VerificationReport:
    """Deterministic battery over all check families, run through
    :data:`CHECKS`; equal seeds give byte-identical reports."""
    rng = np.random.default_rng(seed)
    entries = [
        entry
        for name, x in _suite_experiments(rng)
        for entry in CHECKS[name].run(x)
    ]
    return assemble_report(entries, seed=seed)

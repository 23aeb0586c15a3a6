"""End-to-end acceptance checks.

Ten independent criteria covering the whole stack: exact form algebra,
the odd-Chern/Chern--Simons pairing identity, closed-form deformation
coefficients, the real/imaginary eta decomposition, the Gilkey variation
formula, phase constancy along flat paths, spectral flow, the exact
complex variation formula, the Braverman--Kappeler jump rule, and
byte-level determinism of the verification report.

Each test prints exactly one PASS/FAIL summary line (visible with
``pytest -s`` or in the failure output).
"""

from fractions import Fraction
from math import factorial

import numpy as np

from etacalc.eta import eta_bk, eta_s1_spectral, m_minus
from etacalc.flow import CutoffInstabilityError, gauge_path, spectral_flow
from etacalc.forms import TrigPolyForm
from etacalc.geometry import Connection, a_coeff
from etacalc.verify import (
    check_cs_odd_chern_pairing,
    check_gauge_pumping,
    check_gilkey_variation,
    check_psi_constancy,
    check_re_im_split,
    check_variation_complex,
    psi_local,
    standard_suite,
)

from helpers import (
    a_coeff_exact,
    diagonal_connection_from_mus,
    exp_nilpotent,
    random_flat_commuting_connection,
    random_mus,
    rng_form,
    rng_matrix,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:2d} [{name}]: {status} ({detail})")
    assert ok, f"acceptance {num} [{name}]: {detail}"


def _diag_t3(mu_rows) -> Connection:
    mats = [np.diag([2j * np.pi * m for m in row]) for row in mu_rows]
    return Connection.from_constant(3, mats)


# ----------------------------------------------------------------------
# 1. exact algebra of trigonometric-polynomial forms


def test_acceptance_forms_exact_algebra():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    n_forms = 0

    # d^2 = 0 on mixed-degree forms
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        f = rng_form(rng, dim, int(rng.integers(1, 3)))
        n_forms += 1
        worst = max(worst, f.ext_d().ext_d().max_abs())

    # associativity of the wedge product
    for _ in range(15):
        f, g, h = (rng_form(rng, 3, 2) for _ in range(3))
        n_forms += 3
        worst = max(
            worst, (f.wedge(g).wedge(h) - f.wedge(g.wedge(h))).max_abs()
        )

    # graded commutativity for scalar forms
    for _ in range(20):
        p, q = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        f = rng_form(rng, 3, 1, degree=p)
        g = rng_form(rng, 3, 1, degree=q)
        n_forms += 2
        sign = -1.0 if (p * q) % 2 else 1.0
        worst = max(worst, (f.wedge(g) - g.wedge(f) * sign).max_abs())

    # integral of an exact form over the full torus vanishes
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        f = rng_form(rng, dim, 2, degree=dim - 1)
        n_forms += 1
        worst = max(worst, float(np.max(np.abs(f.ext_d().integrate()))))

    # nilpotent exponential: multiplicative inverse and series logarithm
    for i in range(25):
        dim = (3, 4, 5)[i % 3]
        a = rng_form(rng, dim, 2, degree=2, n_terms=2, scale=0.6)
        n_forms += 1
        e = exp_nilpotent(a)
        ident = TrigPolyForm.identity(dim, 2)
        worst = max(
            worst, (e.wedge(exp_nilpotent(-a)) - ident).max_abs()
        )
        x = e - ident
        x2 = x.wedge(x)
        log = x - 0.5 * x2 + (1 / 3) * x2.wedge(x)
        worst = max(worst, (log - a).max_abs())

    ok = worst < 1e-10 and n_forms == 200
    _report(
        1,
        "forms exact algebra",
        ok,
        f"{n_forms} random forms, worst residual {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 2. pairing identity: Chern--Simons against odd Chern classes


def test_acceptance_cs_pairing_identity():
    rng = np.random.default_rng(42)
    conns = []
    for _ in range(5):
        conns.append(diagonal_connection_from_mus(random_mus(rng, 2)))
    for _ in range(5):
        conns.append(random_flat_commuting_connection(rng, 3, 2))

    entries = []
    for c in conns:
        entries.extend(check_cs_odd_chern_pairing(c, (0.5, 1.0, 2.0), tol=1e-9))
    worst = max(e.residual for e in entries)
    ok = all(e.passed for e in entries)
    _report(
        2,
        "cs/odd-chern pairing",
        ok,
        f"{len(conns)} flat connections x r in (0.5,1,2), "
        f"{len(entries)} pairings, worst residual {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 3. closed form of the deformation coefficients at r = i


def test_acceptance_a_coeff_closed_form():
    exact_ok = True
    float_worst = 0.0
    for j in range(7):
        lhs = a_coeff_exact(j, Fraction(-1)) / factorial(j)
        rhs = Fraction(4**j * factorial(j), factorial(2 * j + 1))
        exact_ok = exact_ok and lhs == rhs
        approx = a_coeff(j, 1j) / factorial(j)
        float_worst = max(float_worst, abs(approx - float(rhs)))
    ok = exact_ok and float_worst < 1e-12
    _report(
        3,
        "a_j(i) closed form",
        ok,
        f"j <= 6 exact rational match, float residual {float_worst:.2e}",
    )


# ----------------------------------------------------------------------
# 4. real/imaginary decomposition of reduced eta on the circle


def test_acceptance_re_im_decomposition():
    rng = np.random.default_rng(7)
    entries = []
    for i in range(20):
        rank = 1 if i < 10 else 2
        c = diagonal_connection_from_mus(random_mus(rng, rank))
        entries.extend(check_re_im_split(c, tol_re=1e-6, tol_im=1e-8))
    worst = max(e.residual for e in entries)
    ok = all(e.passed for e in entries)
    _report(
        4,
        "re/im eta decomposition",
        ok,
        f"20 diagonal connections, worst residual {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 5. Gilkey variation formula mod Z, including non-normal endpoints


def test_acceptance_gilkey_variation():
    rng = np.random.default_rng(11)
    pairs = []
    for i in range(6):
        rank = 1 + i % 2
        pairs.append(
            (
                diagonal_connection_from_mus(random_mus(rng, rank)),
                diagonal_connection_from_mus(random_mus(rng, rank)),
            )
        )
    # non-normal endpoint: triangular constant matrix, same towers
    for _ in range(2):
        mus = random_mus(rng, 2)
        tri = np.diag([2j * np.pi * m for m in mus])
        tri[0, 1] = 0.7 + 0.3j
        pairs.append(
            (
                Connection.from_constant(1, [tri]),
                diagonal_connection_from_mus(random_mus(rng, 2)),
            )
        )
    # fully generic (non-normal, non-unitary) constant matrices
    for _ in range(2):
        pairs.append(
            (
                Connection.from_constant(1, [rng_matrix(rng, 2, 0.9)]),
                Connection.from_constant(1, [rng_matrix(rng, 2, 0.9)]),
            )
        )

    entries = [
        check_gilkey_variation(c0, c1, tol=1e-8) for c0, c1 in pairs
    ]
    worst = max(e.residual for e in entries)
    ok = all(e.passed for e in entries)
    _report(
        5,
        "gilkey variation mod Z",
        ok,
        f"{len(pairs)} pairs incl. non-normal, worst residual {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 6. phase function constant along flat paths, zero when unitary-connected


def test_acceptance_psi_constancy():
    rng = np.random.default_rng(5)
    paths = []
    for _ in range(2):  # circle paths
        m0 = random_mus(rng, 2)
        m1 = random_mus(rng, 2)
        paths.append(
            lambda t, m0=m0, m1=m1: diagonal_connection_from_mus(
                [(1 - t) * a + t * b for a, b in zip(m0, m1)]
            )
        )
    for _ in range(3):  # diagonal-flat torus paths
        g0 = [random_mus(rng, 2) for _ in range(3)]
        g1 = [random_mus(rng, 2) for _ in range(3)]
        paths.append(
            lambda t, g0=g0, g1=g1: _diag_t3(
                [
                    [(1 - t) * a + t * b for a, b in zip(r0, r1)]
                    for r0, r1 in zip(g0, g1)
                ]
            )
        )

    entries = [check_psi_constancy(p, n_samples=9, tol=1e-9) for p in paths]
    worst = max(e.residual for e in entries)
    # all these families deform to unitary connections, so psi must vanish
    zero_worst = max(
        abs(psi_local(p(t))) for p in paths for t in np.linspace(0, 1, 5)
    )
    ok = all(e.passed for e in entries) and zero_worst < 1e-9
    _report(
        6,
        "psi constancy on flat paths",
        ok,
        f"5 paths, drift {worst:.2e}, max |psi| {zero_worst:.2e}",
    )


# ----------------------------------------------------------------------
# 7. spectral flow: exact gauge pumping, cutoff-stability guard


def test_acceptance_spectral_flow():
    c = diagonal_connection_from_mus([0.31 + 0.12j, 0.57 - 0.2j])
    gauge_entries = [
        check_gauge_pumping(c, w, cutoff=8) for w in range(-3, 4)
    ]
    gauge_ok = all(
        e.passed and e.residual == 0.0 for e in gauge_entries
    )
    # winding 9 pumps a tower past the edge of the cutoff-8 window, where
    # the truncated count reads 8: the guard must refuse that number, in
    # the check and in the spectral flow it reads
    edge = diagonal_connection_from_mus([0.31, 0.57 - 0.2j])
    guard_ok = True
    for refused in (
        lambda: check_gauge_pumping(edge, 9, cutoff=8),
        lambda: spectral_flow(edge, gauge_path(edge, 9)(1.0), 8),
    ):
        try:
            refused()
            guard_ok = False
        except CutoffInstabilityError:
            pass
    ok = gauge_ok and guard_ok
    _report(
        7,
        "spectral flow",
        ok,
        "gauge pumping exact for |w| <= 3, winding 9 at cutoff 8 trips "
        "the cutoff-stability guard",
    )


# ----------------------------------------------------------------------
# 8. exact complex variation formula with controlled axis crossings


def test_acceptance_variation_complex():
    starts = [
        (0.30 + 0.10j, 0.60 - 0.22j),
        (0.45 + 0.05j, 0.72 - 0.15j),
        (0.25 - 0.08j, 0.55 + 0.18j),
        (0.62 + 0.21j, 0.38 - 0.12j),
        (0.33 + 0.14j, 0.81 - 0.09j),
    ]
    deltas = [
        (0, 0),
        (1, 0),
        (-1, 1),
        (2, -1),
        (0, -1),
        (1, 1),
        (-2, 0),
        (3, 0),
        (-1, -1),
        (0, 2),
    ]
    entries = []
    sf_ok = True
    max_crossings = 0
    for i, delta in enumerate(deltas):
        base = starts[i % len(starts)]
        mus0 = list(base)
        mus1 = [m + d for m, d in zip(base, delta)]

        def path(t, mus0=mus0, mus1=mus1):
            return diagonal_connection_from_mus(
                [(1 - t) * a + t * b for a, b in zip(mus0, mus1)]
            )

        entries.append(check_variation_complex(path, tol=1e-8))
        sf = spectral_flow(path(0.0), path(1.0), 8)
        sf_ok = sf_ok and sf == sum(delta)
        max_crossings = max(max_crossings, sum(abs(d) for d in delta))

    worst = max(e.residual for e in entries)
    ok = all(e.passed for e in entries) and sf_ok and max_crossings == 3
    _report(
        8,
        "complex variation formula",
        ok,
        f"10 paths with 0-3 crossings, worst residual {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 9. Braverman--Kappeler eta jumps only with the imaginary-axis census


def test_acceptance_bk_jump():
    spectator = 0.3 + 0.1j
    ts = [i / 9 for i in range(10)]
    betas = [0.3 - 0.6 * t for t in ts]
    reduced = []
    ms = []
    bks = []
    for beta in betas:
        tower = eta_s1_spectral([1j * beta, spectator])
        m = m_minus(tower.excluded)
        reduced.append(tower.reduced)
        ms.append(m)
        bks.append(eta_bk(tower, m))

    m_jumps = [ms[i + 1] - ms[i] for i in range(9)]
    single_jump = m_jumps.count(0) == 8 and sum(abs(j) for j in m_jumps) == 1
    jump_rule = True
    smooth = True
    for i in range(9):
        d_bk = bks[i + 1] - bks[i]
        d_red = reduced[i + 1] - reduced[i]
        # the eta part drifts continuously; the integer jump is all m_minus
        smooth = smooth and abs(d_red) < 0.1
        jump_rule = jump_rule and abs((d_bk - d_red) + m_jumps[i]) < 1e-12
    ok = single_jump and jump_rule and smooth
    _report(
        9,
        "bk eta jump rule",
        ok,
        "single m_minus jump on the grid, eta_bk jump = -delta m_minus",
    )


# ----------------------------------------------------------------------
# 10. determinism of the verification report


def test_acceptance_determinism():
    ok = True
    for seed in (0, 7):
        r1 = standard_suite(seed)
        r2 = standard_suite(seed)
        ok = ok and r1.to_json() == r2.to_json() and r1.all_passed
    _report(
        10,
        "report determinism",
        ok,
        "standard suite byte-identical across runs (seeds 0 and 7)",
    )

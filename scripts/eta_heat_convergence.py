#!/usr/bin/env python3
"""Convergence study: heat-smoothed eta of a Galerkin truncation against
the exact closed form.

For the rank-1 unitary circle connection with tower shift mu, eta(0) is
1 - 2 mu exactly.  The heat-smoothed estimate sums sign(lambda) *
erfc(sqrt(eps) |lambda|) over the truncated spectrum and extrapolates
eps -> 0, so its error is dominated by the truncation window.  The table
below shows the error decaying as the cutoff grows.

Usage:
    python3 scripts/eta_heat_convergence.py [--mu 0.25] [--cutoffs 25 50 ...]
"""

import argparse
import math

import numpy as np

from etacalc.eta import eta_heat_estimate, eta_s1_spectral
from etacalc.geometry import Connection
from etacalc.spectral import build_truncation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=0.25)
    ap.add_argument(
        "--cutoffs",
        type=int,
        nargs="+",
        default=[25, 50, 100, 200, 400, 800],
    )
    args = ap.parse_args()
    if not 0 < args.mu < 1:
        ap.error("mu must lie in (0, 1)")

    c = Connection.from_constant(
        1, [np.array([[2j * math.pi * args.mu]])]
    )
    exact = eta_s1_spectral([args.mu]).eta.real
    print(f"mu = {args.mu}: exact eta = {exact:+.12f}")
    print(f"{'cutoff':>8} {'heat estimate':>16} {'abs error':>12}")
    for cutoff in args.cutoffs:
        est = eta_heat_estimate(build_truncation(c, cutoff)).real
        print(f"{cutoff:>8} {est:>16.10f} {abs(est - exact):>12.3e}")


if __name__ == "__main__":
    main()

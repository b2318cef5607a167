#!/usr/bin/env python3
"""Verdict behaviour across the positivity boundary.

Sweeps the family m(t) = (1, 0, t, 0, t) from indefinite through flat to
strictly positive definite and prints the smallest Hankel eigenvalue, the
certificate verdict, and (on the interval class) the grid cross-check.
The inconclusive band around zero is where the verdict refuses to commit.

The family is also a sharp probe of the grid relaxation: for 0 < t < 1 the
matrices are positive definite, yet m_4 = m_2 pins every representing
measure to the three points {-1, 0, 1}, and 0 falls *between* the points of
an even-count uniform grid.  A degree-4 polynomial that is nonnegative on
the grid can dip at 0, so the grid check fails at tight tolerances even
though the certificate is right: the two tests agree on grid-supported
measures and may legitimately split on rigid off-grid ones.
"""

import argparse

import numpy as np

import momentkit as mk
from momentkit.tolerances import GRID_TOL_FLOOR, VERDICT_TOL


def run(lo: float, hi: float, steps: int, tol: float) -> None:
    grid = np.linspace(-1.0, 1.0, 200)
    print(f"{'t':>10} {'lambda_min':>12} {'verdict':>18} {'grid check':>11}")
    for t in np.linspace(lo, hi, steps):
        m_line = mk.MomentSequence((1.0, 0.0, t, 0.0, t))
        cert = mk.positivity_certificate(m_line, tol)
        lam = min(w.lambda_min for w in cert.witnesses)
        grid_col = "-"
        if 0 <= t <= 1:
            m_int = mk.MomentSequence((1.0, 0.0, t, 0.0, t), mk.Support.interval(-1, 1))
            ok, _ = mk.haviland_grid_check(m_int, grid, max(tol, GRID_TOL_FLOOR))
            grid_col = "pass" if ok else "fail"
        print(f"{t:>10.4f} {lam:>12.3e} {cert.verdict:>18} {grid_col:>11}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=float, default=-0.2)
    parser.add_argument("--hi", type=float, default=1.0)
    parser.add_argument("--steps", type=int, default=13)
    parser.add_argument("--tol", type=float, default=VERDICT_TOL)
    args = parser.parse_args()
    run(args.lo, args.hi, args.steps, args.tol)

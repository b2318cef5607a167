"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

import momentkit as mk
from momentkit.eig import SIZE_CAP
from momentkit.errors import EigFailure
from momentkit.tolerances import SYMMETRY_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ground(n: int) -> mk.GroundSet:
    return mk.GroundSet.of_size(n)


def vec(g: mk.GroundSet, values) -> mk.FunctionVec:
    return mk.FunctionVec(g, np.asarray(values, dtype=float))


def ones(g: mk.GroundSet) -> mk.FunctionVec:
    return mk.FunctionVec(g, np.ones(g.size))


def random_subspace_with_one(rng, g: mk.GroundSet, dim: int) -> mk.Subspace:
    """Random subspace of the given dimension containing the constants."""
    dim = min(dim, g.size)
    vecs = [ones(g)]
    while len(vecs) < dim:
        cand = vec(g, rng.normal(size=g.size))
        try:
            mk.Subspace(g, vecs + [cand])
        except ValueError:
            continue
        vecs.append(cand)
    return mk.Subspace(g, vecs)


def density_functional(rng, W: mk.Subspace, low=0.0, high=2.0) -> mk.Functional:
    """Positive functional: integration against a random nonnegative density."""
    omega = rng.uniform(low, high, W.ground.size)
    return mk.Functional(W, [float(omega @ v.values) for v in W.basis])


def random_partition(rng, g: mk.GroundSet, n_blocks: int) -> mk.SigmaAlgebra:
    n = g.size
    n_blocks = min(n_blocks, n)
    assign = np.concatenate([np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)])
    rng.shuffle(assign)
    blocks = tuple(tuple(np.nonzero(assign == b)[0].tolist()) for b in range(n_blocks))
    return mk.SigmaAlgebra(g, blocks)


def atomic_moments(atoms, weights, degree: int) -> tuple[float, ...]:
    """Moment list of a finite atomic measure, computed directly."""
    xs = np.asarray(atoms, dtype=float)
    ws = np.asarray(weights, dtype=float)
    return tuple(float(ws @ xs**k) for k in range(degree + 1))


def reference_scaled_symmetric(matrix):
    """``(a, e)``, ``a`` a bitwise symmetric copy of ``2^-e * matrix`` with
    entries below 1: the Jacobi wrapper's set-up as it was on numpy arrays,
    the reference for its list form and for the support gate's scaling."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigFailure(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > SIZE_CAP:
        raise EigFailure(f"matrix size {n} exceeds the {SIZE_CAP}x{SIZE_CAP} cap")
    amax = float(np.abs(a).max()) if n else 0.0
    if not math.isfinite(amax):
        raise EigFailure("matrix contains non-finite entries")
    if n and np.abs(a - a.T).max() > SYMMETRY_TOL * amax:
        raise EigFailure("matrix is not symmetric")
    e = math.frexp(amax)[1]
    a = np.ldexp(a, -e)
    return 0.5 * (a + a.T), e


def scipy_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)):
    """Reference LP solve (independent of our simplex); the variables are
    free by default, or nonnegative with ``bounds=(0, None)``."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return "optimal", res.fun
    if res.status == 3:
        return "unbounded", None
    if res.status in (2, 4):
        # HiGHS can stop with model status "Unknown", or even "Infeasible"
        # from its presolve, on a feasible LP that has an improving recession
        # direction. Decide such a case by two solves that HiGHS does finish:
        # a feasibility probe, and a search for a ray d in the unit box
        # ([0, 1] per variable when the variables are nonnegative) with
        # a_ub d <= 0, a_eq d = 0 and c.d < 0.
        n = len(c)
        feas = linprog(np.zeros(n), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                       bounds=bounds, method="highs")
        if feas.status == 2:
            return "infeasible", None
        ray = linprog(c, A_ub=a_ub, b_ub=None if a_ub is None else np.zeros(len(a_ub)),
                      A_eq=a_eq, b_eq=None if a_eq is None else np.zeros(len(a_eq)),
                      bounds=(-1.0 if bounds[0] is None else 0.0, 1.0), method="highs")
        if feas.status == 0 and ray.status == 0 and ray.fun < -1e-9:
            return "unbounded", None
    raise RuntimeError(f"scipy linprog status {res.status}")


def solve_free(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, solve=mk.solve_lp):
    """``solve`` (``solve_lp`` by default) on an LP whose variables are free.

    The LP is handed over split, ``x = x+ - x-`` with both parts ``>= 0``:
    columns ``[a, -a]`` and costs ``[c, -c]``.  The solution is read back as
    ``x = x+ - x-`` and the objective as ``c @ x``, one per row of a 2-D
    ``c``; the status, pivots and multipliers are the split LP's.
    """
    def split(a):
        if a is None:
            return None
        a = np.asarray(a, dtype=float)
        return np.concatenate([a, -a], axis=-1)

    c = np.asarray(c, dtype=float)
    sol = solve(split(c), split(a_ub), b_ub, split(a_eq), b_eq)
    if not sol.optimal:
        return sol
    n = c.shape[-1]
    if c.ndim == 1:
        x = sol.x[:n] - sol.x[n:]
        return sol._replace(x=x, objective=float(c @ x))
    xs = [xj[:n] - xj[n:] for xj in sol.x]
    return sol._replace(x=np.array(xs), objective=np.array([float(cj @ xj)
                                                            for cj, xj in zip(c, xs)]))

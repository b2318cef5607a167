"""Dense two-phase simplex.

Small self-contained LP solver used by every feasibility and bound
computation in the package.  The core solves over ``x >= 0``: slack
variables absorb the inequality rows, and phase 1 drives a full artificial
basis to zero.  By default the variables are free (sign-unrestricted) and
each is split into a difference of nonnegative parts, columns
``[x+, x-, slack]``; with ``nonneg=True`` the caller's variables are the
core's columns, ``[x, slack]``.  An LP whose variables are naturally
nonnegative (the grid check's distance LP over grid weights and the
distance's complement, ``(lam, tau) >= 0``) is smaller that way than the
same LP in free variables with bound rows.

An optimal solution carries the multipliers of the caller's rows, read from
the final objective row: the reduced costs of the slack columns (which were
scaled and flipped with their rows) and of the artificial columns.

Several objectives over one constraint set are one solve: ``c`` of shape
``(k, n)`` runs phase 1 once and prices each row on its own copy of the
phase-1 tableau.  The Hahn-Banach step needs both the minimum and the
maximum of one linear form over the same polyhedron, and phase 1 is the
part they share.

Most of our LPs sit on heavily degenerate vertices (whole blocks of zero
right-hand sides), so anti-cycling is not optional: the leaving row is
chosen by the lexicographic ratio rule, which terminates under any pricing;
entering uses Dantzig's most-negative reduced cost.  Plain smallest-index
(Bland) pricing was tried first and stalled for tens of thousands of
degenerate pivots on the grid-positivity LPs.

Before the tableau is built, inequality rows with equal coefficients are
merged into one row at their smallest right-hand side, kept in the order of
their first occurrence (the first presolve step of Andersen & Andersen 1995,
*Presolving in linear programming*).  On a finite space the measurable
functions are block-constant, so every pointwise constraint over them repeats
once per point of its block; only about a third of the finite-space rows are
distinct.  The copies would tie in every ratio test and feed the
lexicographic tie-break.  Copies are found in one pass that groups the rows
by their bytes (``-0.0`` read as ``0.0``), so the cost does not grow with a
sort key per column: a grid LP has one column per grid point.  Equality rows
are left alone, and ``x`` is in the caller's variables either way.

The tableau is updated in place and never refactored, so a pivot on a tiny
element leaves its rounding in every later row.  An optimal tableau that took
a pivot below ``SMALL_PIVOT`` is therefore checked on the rows as posed: its
values must solve them and its prices give nonnegative reduced costs.  One
that fails is rebuilt from those rows, and pivoting resumes: dual simplex
pivots restore feasibility and primal ones optimality.  A tableau that
passes is read as it is, so no clean result changes.

Deliberately dense and deliberately small: problems are capped at 500
constraint rows and 500 structural columns (``2n + m_ub``, or ``n + m_ub``
with ``nonneg``), counted before the merge.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import LpFailure

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
# A pivot on an element below SMALL_PIVOT (rows start at largest entry 1)
# scales the rounding already in the tableau by its inverse, so a tableau
# that took one is checked on the rows as posed before it is read.  No
# finite-space LP of the benchmark pivots below it; about a quarter of the
# grid check's LPs do.
SMALL_PIVOT = 1e-3
SIZE_CAP = 500
MAX_ITERATIONS = 50_000

_stats = threading.local()


@contextmanager
def collect_lp_stats():
    """Collect (solve count, total pivots) for every LP run in the block."""
    prev = getattr(_stats, "bucket", None)
    _stats.bucket = {"solves": 0, "iterations": 0}
    try:
        yield _stats.bucket
    finally:
        _stats.bucket = prev


def _record(iterations: int) -> None:
    bucket = getattr(_stats, "bucket", None)
    if bucket is not None:
        bucket["solves"] += 1
        bucket["iterations"] += iterations


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | np.ndarray | None
    iterations: int
    # One multiplier per caller row, a_ub rows first, when optimal: y_ub <= 0,
    # c - y @ [a_ub; a_eq] is 0 on free and >= 0 on nonneg variables, and
    # c @ x == b @ y.  With k objectives, x, objective and duals have a
    # leading axis of length k, one entry per row of c.
    duals: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _leaving_row(T: np.ndarray, column: np.ndarray, rows: np.ndarray,
                 scan_order: np.ndarray) -> int:
    """Min-ratio row, ties broken by the lexicographic rule.

    Rows are compared as ``T[i, scan_order] / column[i]``; with the
    right-hand side scanned first and one identity column per row early in
    the order, every row is lexicographically positive and the comparison
    has a unique winner, which makes cycling impossible.  Columns on which
    all still-active rows agree are skipped in blocks.
    """
    ratios = T[rows, -1] / column[rows]
    best = ratios.min()
    active = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
    if active.size == 1:
        return int(active[0])
    inv = 1.0 / column[active]
    # The tie-break runs on many pivots (4 in 10 on the finite-space LPs once
    # their copied rows are merged, though only 2.9% of the 1,143 grid-check
    # pivots of moment-check seeds 7 and 8, block 0), and its
    # first informative column is nearly always among the first 20 of the
    # scan order, so one 64-column chunk usually settles it.  Gathering the
    # whole scan order at once kept every pivot and was no faster: 7-12%
    # fewer moment-check ops/s in two benchmark pairs, and finite-space
    # within noise.
    chunk = 64
    for pos in range(0, scan_order.size, chunk):
        cols = scan_order[pos:pos + chunk]
        M = T[np.ix_(active, cols)] * inv[:, None]
        while True:
            lows = M.min(axis=0)
            spread = M.max(axis=0) - lows
            informative = np.nonzero(spread > 1e-15 * np.maximum(1.0, np.abs(lows)))[0]
            if informative.size == 0:
                break  # all active rows tie throughout this chunk
            j = int(informative[0])
            keep = M[:, j] <= lows[j] + 1e-15 * max(1.0, abs(lows[j]))
            active = active[keep]
            if active.size == 1:
                return int(active[0])
            M = M[keep][:, j + 1:]
            inv = inv[keep]
            if M.shape[1] == 0:
                break
    return int(active[0])


def _iterate(T: np.ndarray, basis: np.ndarray, enter_cols: int,
             scan_order: np.ndarray, budget: int) -> tuple[str, int, float]:
    """Pivot until optimal/unbounded; returns (status, pivots used, smallest
    pivot element)."""
    used, smallest = 0, np.inf
    while used < budget:
        reduced = T[-1, :enter_cols]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return "optimal", used, smallest
        col = int(candidates[np.argmin(reduced[candidates])])

        column = T[:-1, col]
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded", used, smallest
        row = _leaving_row(T, column, rows, scan_order)

        smallest = min(smallest, float(column[row]))
        _pivot(T, row, col)
        basis[row] = col
        used += 1
    raise LpFailure(f"simplex did not converge within {budget} pivots")


def _merge_copies(a_ub: np.ndarray, b_ub: np.ndarray):
    """The rows that stand for their copies, or None when no row repeats.

    Rows are grouped by their bytes after ``+ 0.0``, so ``-0.0`` and ``0.0``
    are one key.  Each group is represented by its copy at the smallest
    right-hand side (the first such copy on a tie), and the groups come in
    the order of their first occurrence.
    """
    keys = np.add(a_ub, 0.0, order="C")
    rhs = b_ub.tolist()
    best: dict[bytes, int] = {}
    for i, key in enumerate(keys.view(np.dtype((np.void, keys.strides[0]))).ravel().tolist()):
        j = best.setdefault(key, i)
        if rhs[i] < rhs[j]:
            best[key] = i
    if len(best) == len(rhs):
        return None
    return np.fromiter(best.values(), dtype=int, count=len(best))


def _settle(T: np.ndarray, basis: np.ndarray, T0: np.ndarray, unit: np.ndarray,
            cost: np.ndarray, enter_cols: int, scan_order: np.ndarray,
            budget: int) -> tuple[str, int]:
    """Check an optimal tableau on the rows as posed, and repair it if needed.

    The grid check's LPs need this on sequences with one atom near 0: their
    high moments are tiny, the path from the slack basis pivots on elements
    near 1e-8, and the last basis came out primal infeasible by 1e-6, its
    witness up to 1e-5 above the minimum.  The check reads the basic values
    and the row prices off the tableau (``unit[i]`` is a column of ``T0``
    nonzero in row i alone) and tests them on ``T0``, the rows as posed:
    values nonnegative and solving the rows, reduced costs nonnegative.  A
    tableau that fails is rebuilt from ``T0`` and pivoting resumes: dual
    simplex pivots while a value is negative (they keep the reduced costs
    nonnegative), then primal ones.  The check runs at most four times, each
    failure followed by a rebuild; if none passes, LpFailure.  Returns
    (status, pivots used); a clean tableau is left as it is.
    """
    rows = np.arange(T0.shape[0])
    used = 0
    for _ in range(4):
        values = T[:-1, -1] / T[rows, basis]
        prices = -T[-1, unit] / T0[rows, unit]
        residual = np.abs(T0[:, basis] @ values - T0[:, -1]).max(initial=0.0)
        reduced = cost[:enter_cols] - prices @ T0[:, :enter_cols]
        if (values.min(initial=0.0) >= -FEAS_TOL and reduced.min(initial=0.0) >= -PIVOT_TOL
                and residual <= FEAS_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))):
            return "optimal", used
        try:
            T[:-1] = np.linalg.solve(T0[:, basis], T0)
        except np.linalg.LinAlgError:
            raise LpFailure("the final basis is singular") from None
        T[-1] = cost - cost[basis] @ T[:-1]
        while T[:-1, -1].min() < -FEAS_TOL:
            row = int(np.argmin(T[:-1, -1]))
            cols = np.nonzero(T[row, :enter_cols] < -PIVOT_TOL)[0]
            if not cols.size or used >= budget:
                raise LpFailure("the dual simplex repair of the final basis did not settle")
            col = int(cols[np.argmin(T[-1, cols] / -T[row, cols])])
            _pivot(T, row, col)
            basis[row] = col
            used += 1
        status, more, _ = _iterate(T, basis, enter_cols, scan_order, budget - used)
        used += more
        if status != "optimal":
            return status, used
    raise LpFailure("the final basis did not settle on the rows as posed")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *,
             nonneg: bool = False) -> LpSolution:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``.

    Every component of ``x`` is free, or ``>= 0`` with ``nonneg``.
    Inequality rows with equal coefficients are solved as one row at their
    smallest right-hand side; the size cap and the finiteness check see the
    LP as given.  Returns an :class:`LpSolution`, with ``duals`` in the
    caller's rows when optimal (a copied row's multiplier sits on its copy
    at the smallest right-hand side); a solver breakdown (iteration budget,
    size cap) raises :class:`LpFailure` while infeasible/unbounded are
    reported as statuses.

    A 2-D ``c`` of shape ``(k, n)`` asks ``k`` objectives over the same
    constraints: phase 1 runs once and each row is minimized from the
    phase-1 basis.  ``x``, ``objective`` and ``duals`` then gain a leading
    axis of length ``k``; the status is ``"infeasible"`` when phase 1
    fails, ``"unbounded"`` when any objective is unbounded (the rows after
    it are not solved), and ``"optimal"`` otherwise.  ``iterations`` counts
    phase 1 once plus every phase 2, and the call counts as one solve in
    :func:`collect_lp_stats`.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim > 2 or c.ndim == 2 and c.shape[0] == 0:
        raise LpFailure(f"objective must have shape (n,) or (k, n) with k >= 1, got {c.shape}")
    costs = np.atleast_2d(c)  # one row per objective
    k, n = costs.shape

    def _block(a, b, name):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.shape[0], n):
            raise LpFailure(f"{name} shape mismatch: {a.shape} vs rhs {b.shape} and {n} vars")
        return a, b

    a_ub, b_ub = _block(a_ub, b_ub, "a_ub")
    a_eq, b_eq = _block(a_eq, b_eq, "a_eq")
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    n_var = n if nonneg else 2 * n  # columns of x: [x] or [x+, x-]
    n_struct = n_var + m_ub
    if m > SIZE_CAP or n_struct > SIZE_CAP:
        raise LpFailure(
            f"problem exceeds desk-scale cap: {m} rows, {n_struct} structural columns (max {SIZE_CAP})"
        )
    if not (np.all(np.isfinite(a_ub)) and np.all(np.isfinite(b_ub))
            and np.all(np.isfinite(a_eq)) and np.all(np.isfinite(b_eq))
            and np.all(np.isfinite(costs))):
        raise LpFailure("LP data contains non-finite entries")

    # Presolve: copied inequality rows become one row at their smallest
    # right-hand side (see the module docstring); ``ub_rows`` is the caller
    # row that carries each kept row's multiplier.
    m_caller, ub_rows = m, None
    if m_ub > 1 and n:
        ub_rows = _merge_copies(a_ub, b_ub)
        if ub_rows is not None:
            a_ub, b_ub = a_ub[ub_rows], b_ub[ub_rows]
            m_ub = ub_rows.size
            m = m_ub + m_eq
            n_struct = n_var + m_ub

    # Split free variables, append slacks: columns are [x+, x-, slack] or,
    # with nonneg, [x, slack].
    A = np.zeros((m, n_struct))
    A[:m_ub, :n] = a_ub
    A[m_ub:, :n] = a_eq
    if not nonneg:
        A[:, n:2 * n] = -A[:, :n]
    A[:m_ub, n_var:] = np.eye(m_ub)
    b = np.concatenate([b_ub, b_eq])

    # Mild row equilibration keeps the fixed tolerances meaningful.
    row_scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    row_scale[row_scale < 1.0] = 1.0
    A /= row_scale[:, None]
    b = b / row_scale

    # Nonnegative right-hand side; slack columns flip sign with their row.
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    # Rows whose slack survived with +1 start basic; the rest get artificials.
    needs_art = np.ones(m, dtype=bool)
    basis = np.full(m, -1, dtype=int)
    identity_col = np.full(m, -1, dtype=int)
    for i in range(m_ub):
        if not flip[i]:
            basis[i] = identity_col[i] = n_var + i
            needs_art[i] = False
    art_rows = np.nonzero(needs_art)[0]
    n_art = int(art_rows.size)
    n_total = n_struct + n_art

    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n_struct] = A
    T[:m, -1] = b
    for a, i in enumerate(art_rows):
        T[i, n_struct + a] = 1.0
        basis[i] = identity_col[i] = n_struct + a
    T0, unit = T[:m].copy(), identity_col  # the rows as posed, for the final check

    # Lexicographic scan order: per-row identity columns first (the
    # right-hand side is always compared before this order kicks in), then
    # the remaining columns by index.
    rest = sorted(set(range(n_total)) - set(identity_col.tolist()))
    scan_order = np.array(identity_col.tolist() + rest, dtype=int)

    iterations, smallest = 0, np.inf

    # Phase 1: minimize the artificial mass.
    if n_art:
        T[-1, n_struct:n_total] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status, used, smallest = _iterate(T, basis, n_struct, scan_order, MAX_ITERATIONS)
        iterations += used
        if status != "optimal":
            raise LpFailure("phase 1 reported an unbounded artificial objective")
        if -T[-1, -1] > FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            _record(iterations)
            return LpSolution("infeasible", None, None, iterations)
        # Pivot lingering artificials out of the basis where possible.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_struct:
                row = T[i, :n_struct]
                nz = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if nz.size:
                    smallest = min(smallest, abs(float(row[nz[0]])))
                    _pivot(T, i, int(nz[0]))
                    basis[i] = int(nz[0])
                else:
                    keep[i] = False  # redundant constraint
        if not keep.all():
            T0, unit = T0[keep], identity_col[keep]
            T = np.vstack([T[:m][keep], T[-1:]])
            basis = basis[keep]
            m = int(keep.sum())

    # Phase 2: price each objective on its own copy of the phase-1 tableau
    # (the last one on the tableau itself).  Artificial columns stay in the
    # tableau (they keep rows lexicographically positive) but are barred from
    # entering.
    xs, objs, ys = [], [], []
    for j, cj in enumerate(costs):
        Tj, bj = (T, basis) if j == k - 1 else (T.copy(), basis.copy())
        Tj[-1, :] = 0.0
        Tj[-1, :n] = cj
        if not nonneg:
            Tj[-1, n:2 * n] = -cj
        obj_scale = max(1.0, float(np.abs(cj).max(initial=0.0)))
        Tj[-1, :n_struct] /= obj_scale
        cost = Tj[-1].copy()
        for i in range(m):
            if abs(Tj[-1, bj[i]]) > 0.0:
                Tj[-1] -= Tj[-1, bj[i]] * Tj[i]
        status, used, small = _iterate(Tj, bj, n_struct, scan_order, MAX_ITERATIONS - iterations)
        iterations += used
        if status == "optimal" and min(smallest, small) < SMALL_PIVOT:
            status, used = _settle(Tj, bj, T0, unit, cost, n_struct, scan_order,
                                   MAX_ITERATIONS - iterations)
            iterations += used
        if status == "unbounded":
            _record(iterations)
            return LpSolution("unbounded", None, None, iterations)

        full = np.zeros(n_total)
        full[bj] = Tj[:m, -1]
        x = full[:n] if nonneg else full[:n] - full[n:2 * n]
        xs.append(x)
        objs.append(float(cj @ x))

        # Multipliers from the final objective row.  A slack column was scaled
        # and flipped with its row, so its reduced cost is the a_ub multiplier
        # up to obj_scale; an artificial is a unit column of the scaled,
        # flipped row.  An equality row dropped as redundant leaves an
        # all-zero artificial column, so its multiplier is 0.
        y = Tj[-1, n_var:n_struct] * -obj_scale
        if m_eq:
            sign = np.where(flip[m_ub:], obj_scale, -obj_scale)
            y = np.concatenate([y, sign * Tj[-1, n_total - m_eq:n_total] / row_scale[m_ub:]])
        if ub_rows is not None:
            duals = np.zeros(m_caller)
            duals[ub_rows] = y[:m_ub]
            duals[m_caller - m_eq:] = y[m_ub:]
            y = duals
        ys.append(y)
    _record(iterations)

    if c.ndim == 1:
        return LpSolution("optimal", xs[0], objs[0], iterations, ys[0])
    return LpSolution("optimal", np.array(xs), np.array(objs), iterations, np.array(ys))


def lp_feasible(a_ub, b_ub) -> bool:
    """Feasibility probe: is ``{x : a_ub @ x <= b_ub}`` nonempty?"""
    n_vars = np.atleast_2d(np.asarray(a_ub, dtype=float)).shape[1]
    return solve_lp(np.zeros(n_vars), a_ub, b_ub).optimal

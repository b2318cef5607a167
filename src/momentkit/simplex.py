"""Dense two-phase simplex over nonnegative variables.

Small self-contained LP solver used by every feasibility and bound
computation in the package.  Every LP is over ``x >= 0``: masses on points,
grid weights, or the multipliers of a Farkas alternative (:func:`lp_feasible`).
Slack variables absorb the inequality rows, columns ``[x, slack]``, and
phase 1 drives a full artificial basis to zero.

An optimal solution carries the multipliers of the caller's rows, read from
the final objective row: the reduced costs of the slack columns (which were
scaled and flipped with their rows) and of the artificial columns.

Several objectives over one constraint set are one solve: ``c`` of shape
``(k, n)`` runs phase 1 once and prices each row on its own copy of the
phase-1 tableau.  The Hahn-Banach step needs both the minimum and the
maximum of one linear form over the same polyhedron, and phase 1 is the
part they share.

A solve can also start from an earlier one (``start``).  Consecutive
Hahn-Banach steps ask LPs in equality form that differ by one row, and the
positivity audit asks the last step's LP with one more row and two more
columns.  So an optimal solve in that form keeps its phase-1 tableau
(``LpSolution.tableau``), and a later solve whose equality rows and columns
lead with the earlier ones, bit for bit (else ``ValueError``), starts from it:

* its new columns enter through the kept artificial columns, which hold the
  inverse basis of the rows as posed;
* each new row, scaled as a cold solve scales it, is eliminated against the
  basis, flipped to a nonnegative right-hand side and given one artificial,
  so phase 1 runs on the new rows' artificials alone;
* each objective is then priced from the phase-1 basis, as in a cold solve.

The new data get a cold solve's shape, finiteness and size checks, and the
final check below runs on the grown rows as posed whenever any pivot the
kept tableau went through since the chain began was small.  A started
solve counts its own pivots only.  A start that kept no tableau (not
optimal, not in that form, or a row dropped as redundant) starts nothing,
and the call solves cold.

Most of our LPs sit on heavily degenerate vertices (whole blocks of zero
right-hand sides), so anti-cycling is not optional: the leaving row is
chosen by the lexicographic ratio rule (Dantzig, Orden & Wolfe 1955), which
terminates under any pricing; entering uses Dantzig's most-negative reduced
cost.  Plain smallest-index (Bland) pricing was tried first and stalled for
tens of thousands of degenerate pivots on the grid-positivity LPs.  The
rule needs each row to start with a positive entry in a column of its own:
an artificial column, or its slack column, which is scaled with its row to
``1 / row_scale``.

The LPs here are small (a Hahn-Banach step on the finite-space benchmark
inputs has 1-7 rows and takes about 4 pivots when it starts from the step
before), so a solve costs interpreter overhead more than arithmetic, in two
parts.  The fixed work per solve builds the tableau in place (rows, slacks,
right-hand side, equilibration and sign flips written straight into it), or
for a started solve copies the kept rows and eliminates each new row with
one product; it prices each objective with one reduction over the basic
rows that carry a cost, and reads out ``x`` and the multipliers with the
per-call constants worked out once.  A started solve builds the rows as
posed only when the final check needs them.  The work per pivot is the
ratio test on the entering column and the right-hand side, run on Python
float lists as is the lexicographic tie-break, and the elimination.  Both
keep the operation order of a plain numpy solve, so every pivot and every
rounding is the same: a cold solve returns bit for bit the status, pivots,
``x``, objective and multipliers (signs of zero included) of the reference
kept in ``tests/test_simplex.py``, which builds a separate constraint matrix
and prices with a loop of row subtractions.

The tableau is updated in place and never refactored, so a pivot on a tiny
element leaves its rounding in every later row.  An optimal tableau that took
a pivot below ``SMALL_PIVOT`` is therefore checked on the rows as posed: its
values must solve them and its prices give nonnegative reduced costs.  One
that fails is rebuilt from those rows, and pivoting resumes: dual simplex
pivots restore feasibility and primal ones optimality.  A tableau that
passes is read as it is, so no clean result changes.

Every call that returns counts one solve and its pivots (``lp_solves`` and
``lp_iterations`` in :mod:`momentkit.counters`).

Deliberately dense and deliberately small: problems are capped at 500
constraint rows and 500 structural columns (``n + m_ub``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .counters import count
from .errors import LpFailure
from .tolerances import FEAS_TOL, LEX_TIE_TOL, PIVOT_TOL, RATIO_TIE_TOL, SMALL_PIVOT

SIZE_CAP = 500
MAX_ITERATIONS = 50_000

class Phase1(NamedTuple):
    """The phase-1 tableau of an equality-form solve, kept so that a later
    solve can start from it (``solve_lp``'s ``start``)."""

    T: np.ndarray  # the constraint rows: columns [x, artificial, rhs]
    basis: np.ndarray
    scan: np.ndarray  # the lexicographic scan order
    signed: np.ndarray  # each row's signed scale: the row as posed is a_eq / signed
    shape: tuple[int, int]  # of the caller's a_eq
    data: bytes  # the caller's a_eq and b_eq, which a started LP must lead with
    smallest: float  # the smallest pivot this tableau went through since its chain began


class LpSolution(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | np.ndarray | None
    iterations: int
    # One multiplier per caller row, a_ub rows first, when optimal: y_ub <= 0,
    # c - y @ [a_ub; a_eq] >= 0 and 0 wherever x > 0, and c @ x == b @ y.
    # With k objectives, x, objective and duals have a leading axis of
    # length k, one entry per row of c.
    duals: np.ndarray | None = None
    # What a later solve can start from: kept when optimal, in equality form,
    # with no row dropped as redundant.
    tableau: Phase1 | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]


def _leaving_row(T: np.ndarray, column: list, rows: list, scan_order: np.ndarray) -> int:
    """Min-ratio row, ties broken by the lexicographic rule.

    ``column`` is the entering column as a list of Python floats and ``rows``
    the rows where it is above ``PIVOT_TOL``.  Rows are compared as
    ``T[i, scan_order] / column[i]``; with the right-hand side scanned first
    and one identity column per row early in the order (positive in that row
    alone; a slack's entry is ``1 / row_scale``), every row is
    lexicographically positive and the comparison has a unique winner, which
    makes cycling impossible.  Columns on which all still-tied rows agree are
    skipped.
    """
    # The ratio test and the tie-break run on Python floats: per value, the
    # same IEEE divisions, min, max and comparisons as numpy's, so the same
    # row wins, at a fraction of the call overhead on these short columns.
    rhs = T[:, -1].tolist()
    ratios = [rhs[i] / column[i] for i in rows]
    best = min(ratios)
    bound = best + RATIO_TIE_TOL * max(1.0, abs(best))
    tied = [i for i, r in zip(rows, ratios) if r <= bound]
    if len(tied) == 1:
        return tied[0]
    # The tie-break runs on 331 of the 3,622 pivots of finite-space seed 7,
    # blocks 0-1, but on only 9 of the 858 grid-check pivots of moment-check
    # seeds 7 and 8, block 0.  Its first informative column is nearly always
    # among the first 20 of the scan order, so the tied rows are gathered in
    # 64-column chunks (a grid tableau has hundreds of columns) and walked
    # as lists.
    inv = 1.0 / np.array([column[i] for i in tied])
    tied = np.array(tied)
    lex_tie_tol = LEX_TIE_TOL  # a local: read once per column of the loop below
    for pos in range(0, scan_order.size, 64):
        chunk = T[np.ix_(tied, scan_order[pos:pos + 64])] * inv[:, None]
        keep = list(range(tied.size))
        for values in chunk.T.tolist():
            vals = [values[i] for i in keep]
            low = min(vals)
            tol = lex_tie_tol * max(1.0, abs(low))
            if max(vals) - low > tol:
                keep = [i for i, v in zip(keep, vals) if v <= low + tol]
                if len(keep) == 1:
                    return int(tied[keep[0]])
        tied, inv = tied[keep], inv[keep]
    return int(tied[0])


def _iterate(T: np.ndarray, basis: np.ndarray, enter_cols: int,
             scan_order: np.ndarray, budget: int) -> tuple[str, int, float]:
    """Pivot until optimal/unbounded; returns (status, pivots used, smallest
    pivot element)."""
    used, smallest = 0, np.inf
    reduced = T[-1, :enter_cols]
    while used < budget:
        col = int(reduced.argmin()) if enter_cols else 0  # the first on a tie
        if not enter_cols or reduced[col] >= -PIVOT_TOL:
            return "optimal", used, smallest

        column = T[:-1, col].tolist()
        rows = [i for i, v in enumerate(column) if v > PIVOT_TOL]
        if not rows:
            return "unbounded", used, smallest
        row = _leaving_row(T, column, rows, scan_order)

        smallest = min(smallest, column[row])
        _pivot(T, row, col)
        basis[row] = col
        used += 1
    raise LpFailure(f"simplex did not converge within {budget} pivots")


def _price(T: np.ndarray, rows: np.ndarray, prices, cost: np.ndarray) -> None:
    """Set the objective row ``T[-1]`` to ``cost`` minus ``prices[i] * T[rows[i]]``
    for each i in turn; ``prices`` is a column, one price per row, or 1.0.

    The subtractions are one reduction over the stacked rows, in row order:
    the roundings of a loop of in-place subtractions, which a matrix product
    would not keep.
    """
    stack = np.empty((rows.size + 1, T.shape[1]))
    stack[0] = cost
    np.multiply(prices, T[rows], out=stack[1:])
    np.subtract.reduce(stack, axis=0, out=T[-1])


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


def _grow(start: Phase1, a_eq: np.ndarray, rhs: np.ndarray, scale: np.ndarray):
    """``start``'s tableau grown to the rows ``a_eq`` (``rhs`` and ``scale``
    as a cold solve scales them): ``(T, basis, signed, scan_order)``, the
    objective row left 0.

    New columns enter through the kept artificial columns, which hold the
    inverse basis of the rows as posed.  Each new row, scaled as a cold solve
    scales it, is eliminated against the basis (every basic column is a unit
    column of the kept rows) and flipped to a nonnegative right-hand side,
    and its artificial starts basic, so the basis starts feasible.  The new
    artificials lead the lexicographic scan: each new row is then positive in
    its own one, and the kept rows keep their order on the columns after them.
    """
    m0, n0 = start.shape
    m, n = a_eq.shape
    kept, signed, scan = start.T, start.signed, start.scan
    T = np.zeros((m + 1, n + m + 1))
    if n == n0:
        T[:m0, :n + m0] = kept[:, :-1]
    else:
        T[:m0, :n0] = kept[:, :n0]
        T[:m0, n:n + m0] = kept[:, n0:-1]
        T[:m0, n0:n] = kept[:, n0:-1] @ (a_eq[:m0, n0:] / signed[:, None])
        scan = np.concatenate([scan[:m0] + (n - n0), np.arange(n)])
    T[:m0, -1] = kept[:, -1]
    if m > m0:
        signed = np.concatenate([signed, scale[m0:]])
    for i in range(m0, m):
        row = T[i]
        np.divide(a_eq[i], scale[i], out=row[:n])
        row[-1] = rhs[i]
        row -= row[start.basis] @ T[:m0]
        if row[-1] < 0:
            row *= -1.0
            signed[i] = -signed[i]
        row[n + i] = 1.0
    new = np.arange(n + m0, n + m)
    return T, np.concatenate([start.basis, new]), signed, np.concatenate([new, scan])


def _posed(a_eq: np.ndarray, b_eq: np.ndarray, signed: np.ndarray):
    """Equality rows as posed, ``[a_eq, I, b_eq]`` with each row but its
    artificial's entry divided by its signed scale, and each row's
    artificial column."""
    m, n = a_eq.shape
    T0 = np.zeros((m, n + m + 1))
    np.divide(a_eq, signed[:, None], out=T0[:, :n])
    T0[:, n:n + m].flat[::m + 1] = 1.0
    np.divide(b_eq, signed, out=T0[:, -1])
    return T0, np.arange(n, n + m)


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *,
             start: LpSolution | None = None) -> LpSolution:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``
    and ``x >= 0``.

    Returns an :class:`LpSolution`, with ``duals`` in the caller's rows when
    optimal; a solver breakdown (iteration budget, size cap) raises
    :class:`LpFailure` while infeasible/unbounded are reported as statuses.

    A 2-D ``c`` of shape ``(k, n)`` asks ``k`` objectives over the same
    constraints: phase 1 runs once and each row is minimized from the
    phase-1 basis.  ``x``, ``objective`` and ``duals`` then gain a leading
    axis of length ``k``; the status is ``"infeasible"`` when phase 1
    fails, ``"unbounded"`` when any objective is unbounded (the rows after
    it are not solved), and ``"optimal"`` otherwise.  ``iterations`` counts
    phase 1 once plus every phase 2, and the call counts as one solve in
    :mod:`momentkit.counters`.

    ``start`` is an earlier solve to start from (see the module docstring):
    its equality rows and columns must lead this LP's, which must have
    equality rows only, or ``ValueError``.  A start that kept no tableau
    (``LpSolution.tableau`` is None) starts nothing, and the call solves
    cold.  ``iterations`` counts this call's pivots alone.
    """
    # Reshapes in place of np.atleast_1d and np.atleast_2d, which cost more
    # per call than these small LPs can spare.
    c = np.asarray(c, dtype=float)
    c = c.reshape(1) if c.ndim == 0 else c
    if c.ndim > 2 or c.ndim == 2 and c.shape[0] == 0:
        raise LpFailure(f"objective must have shape (n,) or (k, n) with k >= 1, got {c.shape}")
    costs = c[None] if c.ndim == 1 else c  # one row per objective
    k, n = costs.shape

    def _block(a, b, name):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        a, b = (a.reshape(1, -1) if a.ndim < 2 else a), (b.reshape(1) if b.ndim == 0 else b)
        if a.shape != (b.shape[0], n):
            raise LpFailure(f"{name} shape mismatch: {a.shape} vs rhs {b.shape} and {n} vars")
        return a, b

    a_ub, b_ub = _block(a_ub, b_ub, "a_ub")
    a_eq, b_eq = _block(a_eq, b_eq, "a_eq")
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    kept = None if start is None else start.tableau
    if kept is not None:
        m0, n0 = kept.shape
        if (m_ub or m_eq < m0 or n < n0
                or a_eq[:m0, :n0].tobytes() + b_eq[:m0].tobytes() != kept.data):
            raise ValueError("the start's rows and columns do not lead this LP")

    n_struct = n + m_ub
    if m > SIZE_CAP or n_struct > SIZE_CAP:
        raise LpFailure(
            f"problem exceeds desk-scale cap: {m} rows, {n_struct} structural columns (max {SIZE_CAP})"
        )
    # The largest magnitude in each row and each objective: a NaN or an
    # infinity shows in them, and they are the row and objective scales.
    ub_max = np.maximum.reduce(np.abs(a_ub), axis=1, initial=1.0)
    eq_max = np.maximum.reduce(np.abs(a_eq), axis=1, initial=1.0)
    obj_scales = np.maximum.reduce(np.abs(costs), axis=1, initial=1.0)
    if not np.isfinite(np.concatenate([ub_max, eq_max, obj_scales, b_ub, b_eq])).all():
        raise LpFailure("LP data contains non-finite entries")

    # Mild row equilibration keeps the fixed tolerances meaningful: each row
    # is divided by the largest of 1, its coefficients and its right-hand
    # side, so every scaled right-hand side lies in [-1, 1].  Rows with a
    # negative one are then flipped.  Dividing by the negated scale is that
    # division and flip bit for bit, signs of zero included; multiplying by
    # a signed reciprocal is not.  The slack columns are scaled and flipped
    # with their rows: nothing reads a slack's value, and the multipliers
    # undo the scale.
    rhs = np.concatenate([b_ub, b_eq])
    scale = np.maximum(np.concatenate([ub_max, eq_max]), np.abs(rhs))
    rhs /= scale

    if kept is None:
        flip = rhs < 0
        signed = np.where(flip, -scale, scale)

        # Rows whose slack survived unflipped start basic; the rest get
        # artificials.  Either way each row has an identity column: positive in
        # that row alone.
        flipped_ub = flip[:m_ub].nonzero()[0]
        art_rows = np.concatenate([flipped_ub, np.arange(m_ub, m)])
        n_art = art_rows.size
        n_total = n_struct + n_art
        art_cols = np.arange(n_struct, n_total)
        identity_col = np.arange(n, n + m)
        identity_col[art_rows] = art_cols
        basis = identity_col.copy()

        # The tableau, built in place: columns [x, slack, artificial, rhs];
        # the last row prices.
        T = np.zeros((m + 1, n_total + 1))
        T[:m_ub, :n] = a_ub
        T[m_ub:m, :n] = a_eq
        if m_ub:  # each inequality row's slack
            T[:m_ub, n:n_struct].flat[::m_ub + 1] = 1.0
        T[:m, :n_struct] /= signed[:, None]
        T[art_rows, art_cols] = 1.0
        np.abs(rhs, out=T[:m, -1])
        T0, unit = T[:m].copy(), identity_col  # the rows as posed, for the final check

        # Lexicographic scan order: per-row identity columns first (the
        # right-hand side is always compared before this order kicks in), then
        # the remaining columns by index: the variables' and the slacks of the
        # rows that took an artificial.
        scan_order = np.concatenate([identity_col, np.arange(n), n + flipped_ub])

        smallest = np.inf
    else:
        # A started solve: the kept rows need no phase 1, and only the new
        # rows' artificials are driven out.  They lead the lexicographic
        # scan, so each new row is positive in its own one, and the kept rows
        # keep their order on the columns after them.  The rows as posed
        # (kept rows at their kept scales) are built only for a final check.
        T, basis, signed, scan_order = _grow(kept, a_eq, rhs, scale)
        n_total, n_art = n + m, m - kept.shape[0]
        art_rows, art_cols = np.arange(kept.shape[0], m), scan_order[:n_art]
        T0 = unit = None
        smallest = kept.smallest
    iterations, redundant = 0, []

    # Phase 1: minimize the artificial mass.  Every scaled right-hand side
    # is at most 1 in magnitude, so the mass left is compared with FEAS_TOL;
    # a started solve's artificials measure its new rows as posed, as a cold
    # solve's would.
    if n_art:
        T[-1, art_cols] = 1.0
        _price(T, art_rows, 1.0, T[-1])
        status, used, small = _iterate(T, basis, n_struct, scan_order, MAX_ITERATIONS)
        iterations, smallest = used, min(smallest, small)
        if status != "optimal":
            raise LpFailure("phase 1 reported an unbounded artificial objective")
        if -T[-1, -1] > FEAS_TOL:
            count(lp_solves=1, lp_iterations=iterations)
            return LpSolution("infeasible", None, None, iterations)
        # Pivot lingering artificials out of the basis where possible.
        for i in (basis >= n_struct).nonzero()[0].tolist():
            row = T[i, :n_struct]
            nz = (np.abs(row) > PIVOT_TOL).nonzero()[0]
            if nz.size:
                smallest = min(smallest, abs(float(row[nz[0]])))
                _pivot(T, i, int(nz[0]))
                basis[i] = int(nz[0])
            else:
                redundant.append(i)
        if redundant:
            keep = np.ones(m, dtype=bool)
            keep[redundant] = False
            T0, unit = _posed(a_eq, b_eq, signed) if T0 is None else (T0, unit)
            T0, unit = T0[keep], unit[keep]
            T = np.vstack([T[:m][keep], T[-1:]])
            basis = basis[keep]
            m -= len(redundant)
    tableau = None
    if not m_ub and not redundant:
        tableau = Phase1(T[:m].copy(), basis.copy(), scan_order, signed, (m, n),
                         a_eq.tobytes() + b_eq.tobytes(), smallest)

    # Phase 2: price each objective on its own copy of the phase-1 tableau
    # (the last one on the tableau itself).  Artificial columns stay in the
    # tableau (they keep rows lexicographically positive) but are barred from
    # entering.  Every objective starts from the phase-1 basis, and a basic
    # column is 0 off its own row, so its price is its cost.
    cost_rows = np.zeros((k, n_total + 1))
    np.divide(costs, obj_scales[:, None], out=cost_rows[:, :n])
    prices = cost_rows[:, basis, None]

    # The read-out's constants.  A slack column was scaled and flipped with
    # its row, so its reduced cost is the a_ub multiplier up to the
    # objective's scale; an artificial is a unit column of the scaled,
    # flipped row.  An equality row dropped as redundant leaves an all-zero
    # artificial column, so its multiplier is 0.
    eq_cols = slice(n_total - m_eq, n_total)
    eq_scale = -signed[m_ub:]  # y is minus the artificial's reduced cost over this

    xs, objs, ys = [], [], []
    for j, (cj, cost, obj_scale) in enumerate(zip(costs, cost_rows, obj_scales.tolist())):
        Tj, bj = (T, basis) if j == k - 1 else (T.copy(), basis.copy())
        rows = prices[j, :, 0].nonzero()[0]
        _price(Tj, rows, prices[j, rows], cost)
        status, used, small = _iterate(Tj, bj, n_struct, scan_order, MAX_ITERATIONS - iterations)
        iterations += used
        if status == "optimal" and min(smallest, small) < SMALL_PIVOT:
            T0, unit = _posed(a_eq, b_eq, signed) if T0 is None else (T0, unit)
            status, used = _settle(Tj, bj, T0, unit, cost, n_struct, scan_order,
                                   MAX_ITERATIONS - iterations)
            iterations += used
        if status == "unbounded":
            count(lp_solves=1, lp_iterations=iterations)
            return LpSolution("unbounded", None, None, iterations)

        full = np.zeros(n_total)
        full[bj] = Tj[:m, -1]
        x = full[:n]
        xs.append(x)
        objs.append(float(cj @ x))
        ys.append(np.concatenate([Tj[-1, n:n_struct] * -obj_scale,
                                  obj_scale * Tj[-1, eq_cols] / eq_scale]))
    count(lp_solves=1, lp_iterations=iterations)

    if c.ndim == 1:
        return LpSolution("optimal", xs[0], objs[0], iterations, ys[0], tableau)
    return LpSolution("optimal", np.array(xs), np.array(objs), iterations, np.array(ys), tableau)


def lp_feasible(a_ub, b_ub) -> bool:
    """Is ``{x : a_ub @ x <= b_ub}`` nonempty, each row relaxed by its own band?

    Row ``i``'s band is ``FEAS_TOL * max(1, |b_ub[i]|)``.  By Farkas's lemma the
    relaxed system ``a @ x <= b`` is empty exactly when min ``b @ y`` over
    measures ``y >= 0`` on its rows with ``a.T @ y == 0``, ``sum(y) == 1`` is below
    0 (that LP infeasible is Gordan's alternative).  Those rows have right-hand
    side 0, so ``x``'s units never meet ``b``'s.  A repeated row is a repeated column.
    """
    a, b = np.atleast_2d(a_ub), np.atleast_1d(b_ub)
    b = b + FEAS_TOL * np.maximum(1.0, np.abs(b))
    sol = solve_lp(b, a_eq=np.vstack([a.T, np.ones(b.size)]), b_eq=np.r_[np.zeros(len(a.T)), 1.0])
    return not sol.optimal or sol.objective >= 0.0

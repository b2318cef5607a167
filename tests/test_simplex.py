from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from momentkit import counters, funcspace, simplex
from momentkit.errors import LpFailure
from momentkit.simplex import lp_feasible, solve_lp

from conftest import scipy_lp, solve_free


def test_basic_minimization():
    # min x + 2y subject to x, y >= 0 and x + y <= 4
    sol = solve_free([1.0, 2.0], a_ub=[[-1, 0], [0, -1], [1, 1]], b_ub=[0, 0, 4])
    assert sol.optimal
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_negative_rhs_needs_phase1():
    sol = solve_free([1.0], a_ub=[[-1.0]], b_ub=[-3.0])  # x >= 3
    assert sol.optimal
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_equality_constraint():
    sol = solve_free([0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], a_ub=[[0.0, -1.0]], b_ub=[0.0])
    assert sol.optimal
    assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_unbounded_detected():
    assert solve_free([-1.0]).status == "unbounded"


def test_infeasible_detected():
    sol = solve_free([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
    assert sol.status == "infeasible"


def test_size_cap():
    with pytest.raises(LpFailure):
        solve_free(np.zeros(300), a_ub=np.zeros((1, 300)), b_ub=[1.0])


def test_size_cap_counts_rows_before_merging():
    # 501 copies of one row are 501 rows: the cap counts the rows as given,
    # and the callers whose rows repeat merge copies before the solve
    with pytest.raises(LpFailure):
        solve_free([1.0], a_ub=np.ones((501, 1)), b_ub=np.arange(501.0))


def test_nonneg_without_rows():
    assert solve_lp([1.0, -0.5]).status == "unbounded"
    sol = solve_lp([1.0, 0.0])
    assert sol.optimal and sol.objective == 0.0
    assert np.array_equal(sol.x, [0.0, 0.0])


def test_nonneg_size_cap_counts_one_column_per_variable():
    # 300 variables and 200 slacks are 500 columns; in free variables, split,
    # the 300 alone are 600 (test_size_cap)
    a_ub = np.eye(201, 300)
    assert solve_lp(np.ones(300), a_ub=a_ub[:200], b_ub=np.ones(200)).optimal
    with pytest.raises(LpFailure):
        solve_lp(np.ones(300), a_ub=a_ub, b_ub=np.ones(201))


def test_tighter_copy_makes_infeasible():
    # x >= 1 and x <= 2 is feasible; a copy x <= 0.5 of the second row is not
    sol = solve_free([1.0], a_ub=[[-1.0], [1.0], [1.0]], b_ub=[-1.0, 2.0, 0.5])
    assert sol.status == "infeasible"


def test_non_finite_rejected():
    with pytest.raises(LpFailure):
        solve_free([np.nan])


def test_feasibility_probe():
    assert lp_feasible(a_ub=[[1.0]], b_ub=[1.0])
    assert not lp_feasible(a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])  # x <= 1 and x >= 2
    # x <= 1 and x >= 1 + 1e-10 meet within the rows' bands of 1e-9; x >= 1 +
    # 1e-8 does not, and a row 0 <= 1e8 that plays no part in the conflict
    # must not widen their bands.
    assert lp_feasible(a_ub=[[1.0], [-1.0]], b_ub=[1.0, -1.0 - 1e-10])
    assert not lp_feasible(a_ub=[[1.0], [-1.0]], b_ub=[1.0, -1.0 - 1e-8])
    assert not lp_feasible(a_ub=[[1.0], [-1.0], [0.0]], b_ub=[1.0, -1.0 - 1e-8, 1e8])


@st.composite
def _systems(draw):
    """``(a, b, feasible)``: a system ``a @ x <= b`` with |a| in [1e-4, 1e2] and
    |b| up to about 1e8, feasible or not by construction.  Every row holds
    at x0 (coordinates up to 1e12 where their column is small) with a slack
    of at least 1e-2 of its scale, and half the systems get a row that holds
    with a slack of 1e8.  An infeasible one gets two opposite rows, ``a_r @ x
    <= t`` and ``-a_r @ x <= -(t + gap)``, with |t| from 1e-2 to 1e8 and a gap
    of at least 1e-2 of max(1, |t|), far outside lp_feasible's band of 1e-9
    of each row's scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    x0 = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(0.0, 12.0, size=n)
    # column j's entries lie in [1e-4, 1e2] and below 2.5e7 / (n |x0_j|)
    top = np.minimum(2.0, np.log10(2.5e7 / n) - np.log10(np.abs(x0)))
    a = rng.choice([-1.0, 1.0], size=(m, n)) * 10.0 ** rng.uniform(-4.0, np.maximum(top, -4.0),
                                                                   size=(m, n))
    ax = a @ x0
    b = ax + rng.uniform(1e-2, 1.0, size=m) * np.maximum(1.0, np.abs(ax))
    if draw(st.booleans()):
        row = a[int(rng.integers(m))] * rng.uniform(0.5, 1.0)
        a, b = np.vstack([a, row]), np.r_[b, row @ x0 + 1e8]
    feasible = draw(st.booleans())
    if not feasible:
        r = int(rng.integers(m))
        t = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-2.0, 8.0)
        gap = 10.0 ** rng.uniform(-2.0, 0.0) * max(1.0, abs(t))
        a, b = np.vstack([a, a[r], -a[r]]), np.r_[b, t, -(t + gap)]
    order = rng.permutation(len(b))
    return a[order], b[order], feasible


@settings(max_examples=150, deadline=None)
@given(_systems())
@example((np.array([[-1e-4]]), np.array([-1e6]), True))  # x >= 1e10
@example((np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([-0.05, -0.05, 1e8]),
          False))  # x1 <= -0.05 and x1 >= 0.05, next to -x2 <= 1e8
def test_feasibility_probe_matches_reference_at_any_units(system):
    # The probe's verdict is the construction's and HiGHS's, in free
    # variables, whatever the units of x and of b.
    a, b, feasible = system
    assert lp_feasible(a, b) == feasible
    assert scipy_lp(np.zeros(a.shape[1]), a_ub=a, b_ub=b)[0] == \
        ("optimal" if feasible else "infeasible")


def test_stats_collection():
    with counters.collect() as stats:
        solve_free([1.0], a_ub=[[-1.0]], b_ub=[-3.0])
        solve_free([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
    assert stats["lp_solves"] == 2
    assert stats["lp_iterations"] >= 1


def test_degenerate_vertex_converges():
    # Many zero right-hand sides around the origin: the historic stall case.
    rng = np.random.default_rng(5)
    n = 8
    a_rows = rng.normal(size=(120, n))
    a_ub = np.vstack([-a_rows, np.ones((1, n))])
    b_ub = np.concatenate([np.zeros(120), [1.0]])
    c = rng.normal(size=n)
    sol = solve_free(c, a_ub=a_ub, b_ub=b_ub)
    ref_status, ref_obj = scipy_lp(c, a_ub=a_ub, b_ub=b_ub)
    assert sol.status == ref_status == "optimal"
    assert sol.objective == pytest.approx(ref_obj, abs=1e-7)


def test_reference_settles_highs_infeasible_on_unbounded_lp():
    # x = 0 is feasible (every b_ub > 0) and an improving ray exists, yet
    # HiGHS's presolve reports this LP "Infeasible"; the reference must not.
    rng = np.random.default_rng(160)
    a_ub = rng.normal(size=(4, 3))
    b_ub = rng.normal(size=4)
    c = rng.normal(size=3)
    assert np.all(b_ub > 0)
    assert solve_free(c, a_ub=a_ub, b_ub=b_ub).status == "unbounded"
    assert scipy_lp(c, a_ub=a_ub, b_ub=b_ub) == ("unbounded", None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matches_reference_solver(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 10))
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.normal(size=m)
    c = rng.normal(size=n)
    sol = solve_free(c, a_ub=a_ub, b_ub=b_ub)
    ref_status, ref_obj = scipy_lp(c, a_ub=a_ub, b_ub=b_ub)
    assert sol.status == ref_status
    if sol.optimal:
        assert sol.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-7)
        # the reported point must satisfy the constraints
        assert np.all(a_ub @ sol.x <= b_ub + 1e-7)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_duplicated_rows_match_reference_solver(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 8))
    base = rng.normal(size=(m, n))
    copies = rng.integers(0, m, size=data.draw(st.integers(1, 3 * m)))
    a_ub = np.vstack([base, base[copies]])
    b_ub = rng.normal(size=a_ub.shape[0])
    shift = rng.choice([-1.0, 0.0, 1.0], size=copies.size) * rng.uniform(0.0, 0.5, copies.size)
    b_ub[m:] = b_ub[copies] + shift  # looser, equal or tighter copies
    order = rng.permutation(a_ub.shape[0])
    a_ub, b_ub = a_ub[order], b_ub[order]
    c = rng.normal(size=n)
    sol = solve_free(c, a_ub=a_ub, b_ub=b_ub)
    ref_status, ref_obj = scipy_lp(c, a_ub=a_ub, b_ub=b_ub)
    assert sol.status == ref_status
    if sol.optimal:
        assert sol.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-7)
        assert np.all(a_ub @ sol.x <= b_ub + 1e-7)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matches_reference_with_equalities(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 6))
    a_ub = rng.normal(size=(data.draw(st.integers(1, 6)), n))
    b_ub = np.abs(rng.normal(size=a_ub.shape[0])) + 0.5
    a_eq = rng.normal(size=(1, n))
    b_eq = rng.normal(size=1)
    c = rng.normal(size=n)
    sol = solve_free(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    ref_status, ref_obj = scipy_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    assert sol.status == ref_status
    if sol.optimal:
        assert sol.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-7)
        assert np.all(np.abs(a_eq @ sol.x - b_eq) <= 1e-7)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nonneg_matches_reference_solver(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 6))
    a_ub = rng.normal(size=(data.draw(st.integers(1, 10)), n))
    b_ub = rng.normal(size=a_ub.shape[0])
    a_eq, b_eq = None, None
    if data.draw(st.booleans()):
        a_eq, b_eq = rng.normal(size=(1, n)), rng.normal(size=1)
    c = rng.normal(size=n)
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    ref_status, ref_obj = scipy_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                                   bounds=(0, None))
    assert sol.status == ref_status
    if sol.optimal:
        assert sol.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-7)
        assert np.all(sol.x >= -1e-9)
        assert np.all(a_ub @ sol.x <= b_ub + 1e-7)
        if a_eq is not None:
            assert np.all(np.abs(a_eq @ sol.x - b_eq) <= 1e-7)


def test_final_basis_is_settled_on_the_rows_as_posed(monkeypatch):
    # A pivot loop that reports a tiny pivot and stops at once leaves the
    # slack basis, which is not optimal; the final check prices it on the
    # rows as posed, finds the negative reduced costs and pivots on from a
    # rebuilt tableau.
    c, a, b = [-1.0, -2.0, -0.5], [[1.0, 1.0, 1.0], [2.0, 0.5, 0.0], [0.0, 1.0, 3.0]], [4.0, 3.0, 5.0]
    ref = solve_lp(c, a_ub=a, b_ub=b)
    real, calls = simplex._iterate, []

    def stop_at_once(T, basis, *args):
        calls.append(None)
        return ("optimal", 0, 1e-9) if len(calls) == 1 else real(T, basis, *args)

    monkeypatch.setattr(simplex, "_iterate", stop_at_once)
    sol = solve_lp(c, a_ub=a, b_ub=b)
    assert len(calls) == 2 and sol.optimal
    assert sol.objective == pytest.approx(ref.objective, abs=1e-12)
    assert np.allclose(sol.x, ref.x, atol=1e-12) and np.allclose(sol.duals, ref.duals, atol=1e-12)


def test_redundant_equality_gets_zero_multiplier():
    # the copied equality row is dropped after phase 1; its multiplier is 0
    sol = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[2.0, 2.0])
    assert sol.optimal and sol.objective == pytest.approx(2.0)
    assert sorted(sol.duals) == pytest.approx([0.0, 1.0])
    assert solve_free([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]).duals is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_duals_certify_optimal_solutions(data):
    # No reference solver: every optimum must come with multipliers that
    # satisfy the optimality conditions on the caller's unscaled data.  Half
    # the draws ask several objectives at once; each row is checked alone.
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 6))
    free = data.draw(st.booleans())
    scale = 10.0 ** data.draw(st.integers(-2, 2))
    a_ub = scale * rng.normal(size=(data.draw(st.integers(1, 10)), n))
    b_ub = rng.normal(size=a_ub.shape[0])
    if data.draw(st.booleans()):  # looser, equal or tighter copies
        copies = rng.integers(0, a_ub.shape[0], size=data.draw(st.integers(1, 8)))
        shift = rng.choice([-1.0, 0.0, 1.0], size=copies.size) * rng.uniform(0.0, 0.5, copies.size)
        a_ub, b_ub = np.vstack([a_ub, a_ub[copies]]), np.r_[b_ub, b_ub[copies] + shift]
    a_eq, b_eq = None, None
    if data.draw(st.booleans()):
        a_eq = rng.normal(size=(data.draw(st.integers(1, 2)), n))
        b_eq = rng.normal(size=a_eq.shape[0])
        if data.draw(st.booleans()):  # a redundant copy
            a_eq, b_eq = np.vstack([a_eq, a_eq[:1]]), np.r_[b_eq, b_eq[:1]]
    shape = (data.draw(st.integers(1, 3)), n) if data.draw(st.booleans()) else n
    c = 10.0 ** data.draw(st.integers(-2, 2)) * rng.normal(size=shape)
    sol = (solve_free if free else solve_lp)(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    if not sol.optimal:
        assert sol.duals is None
        return
    a = a_ub if a_eq is None else np.vstack([a_ub, a_eq])
    b = b_ub if a_eq is None else np.r_[b_ub, b_eq]
    if c.ndim == 1:
        rows = [(c, sol.x, sol.duals, sol.objective)]
    else:
        assert sol.x.shape == c.shape and sol.objective.shape == (c.shape[0],)
        rows = zip(c, sol.x, sol.duals, sol.objective)
    for c, x, y, objective in rows:
        assert y.shape == b.shape
        y_ub = y[:b_ub.size]
        data_scale = max(1.0, np.abs(c).max(), (np.abs(y) @ np.abs(a)).max())
        assert np.all(y_ub <= 1e-9 * data_scale)
        reduced = c - y @ a
        if free:
            assert np.all(np.abs(reduced) <= 1e-9 * data_scale)
        else:
            assert np.all(reduced >= -1e-9 * data_scale)
            assert np.all(np.abs(reduced * x) <= 1e-9 * data_scale * max(1.0, np.abs(x).max()))
        slack = b_ub - a_ub @ x
        row_scale = np.maximum(1.0, np.abs(a_ub) @ np.abs(x) + np.abs(b_ub))
        assert np.all(np.abs(y_ub * slack) <= 1e-9 * data_scale * row_scale)
        value = float(c @ x)
        assert value == objective
        assert abs(value - b @ y) <= 1e-7 * max(1.0, abs(value))


# --- several objectives over one constraint set -------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.data())
def test_many_objectives_match_one_at_a_time(data):
    # Each row of a 2-D objective gets the status and optimum of its own 1-D
    # solve; the status is infeasible, unbounded if any row is, else optimal.
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 6))
    solve = solve_free if data.draw(st.booleans()) else solve_lp
    a_ub = rng.normal(size=(data.draw(st.integers(1, 10)), n))
    b_ub = rng.normal(size=a_ub.shape[0])
    a_eq, b_eq = None, None
    if data.draw(st.booleans()):
        a_eq, b_eq = rng.normal(size=(1, n)), rng.normal(size=1)
    c = rng.normal(size=(data.draw(st.integers(1, 4)), n))
    if data.draw(st.booleans()):
        c[-1] = -c[0]  # a minimum and a maximum, as the Hahn-Banach step asks
    sol = solve(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    singles = [solve(row, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq) for row in c]
    statuses = {s.status for s in singles}
    if "infeasible" in statuses:
        assert statuses == {"infeasible"}
        assert sol.status == "infeasible"
    elif "unbounded" in statuses:
        assert sol.status == "unbounded"
    else:
        assert sol.status == "optimal"
        for j, single in enumerate(singles):
            assert sol.objective[j] == pytest.approx(single.objective, rel=1e-12, abs=1e-12)
            assert np.allclose(sol.x[j], single.x, rtol=1e-12, atol=1e-12)
            assert np.allclose(sol.duals[j], single.duals, rtol=1e-12, atol=1e-12)
    if not sol.optimal:
        assert sol.x is None and sol.objective is None and sol.duals is None


def _assert_phase_one_counted_once(c, solve=solve_lp, **constraints):
    # A zero objective takes no phase-2 pivot, so its 1-D solve counts
    # phase 1 alone.
    c = np.array(c)
    phase1 = solve(np.zeros(c.shape[1]), **constraints).iterations
    assert phase1 > 0
    singles = [solve(row, **constraints) for row in c]
    with counters.collect() as stats:
        sol = solve(c, **constraints)
    assert sol.optimal
    assert sol.objective == pytest.approx([s.objective for s in singles])
    assert sol.iterations == sum(s.iterations for s in singles) - (len(c) - 1) * phase1
    assert stats == {"lp_solves": 1, "lp_iterations": sol.iterations, "eig_calls": 0,
                     "eig_sweeps": 0, "chol_calls": 0}


def test_many_objectives_count_phase_one_once():
    # x >= 1, y >= 2 needs phase 1
    _assert_phase_one_counted_once([[1.0, 1.0], [-1.0, -1.0], [1.0, -2.0]], solve_free,
                                   a_ub=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                   b_ub=[-1.0, -2.0, 5.0])


def test_many_objectives_two_artificials_start_from_phase_one():
    # Two equality rows, so exactly two artificials: each objective must
    # still start from the phase-1 basis, not from the previous optimum.
    v = [0.0, 1.0, -2.0, -1.0]
    _assert_phase_one_counted_once([v, [-x for x in v]],
                                   a_eq=[[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 0.0]],
                                   b_eq=[6.0, 10.0])


def test_many_objectives_one_unbounded_row():
    # min x is 1, min -x is unbounded: the whole solve is unbounded
    sol = solve_free([[1.0], [-1.0]], a_ub=[[-1.0]], b_ub=[-1.0])
    assert sol.status == "unbounded" and sol.x is None and sol.objective is None


def test_objective_shape_checked():
    with pytest.raises(LpFailure):
        solve_free(np.zeros((0, 2)))
    with pytest.raises(LpFailure):
        solve_free(np.zeros((1, 1, 2)))


# --- the pivot loop against its numpy reference -------------------------------------

def _reference_pivot(T, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _reference_leaving_row(T, column, rows, scan_order):
    # The lexicographic tie-break as it was before it walked Python float
    # lists: numpy min and max over 64-column chunks of the tied rows.
    ratios = T[rows, -1] / column[rows]
    best = ratios.min()
    active = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
    if active.size == 1:
        return int(active[0])
    inv = 1.0 / column[active]
    for pos in range(0, scan_order.size, 64):
        cols = scan_order[pos:pos + 64]
        M = T[np.ix_(active, cols)] * inv[:, None]
        while True:
            lows = M.min(axis=0)
            spread = M.max(axis=0) - lows
            informative = np.nonzero(spread > 1e-15 * np.maximum(1.0, np.abs(lows)))[0]
            if informative.size == 0:
                break
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


def _reference_iterate(T, basis, enter_cols, scan_order, budget):
    # Pricing over the candidate columns, as it was before the argmin over
    # every reduced cost.
    used, smallest = 0, np.inf
    while used < budget:
        reduced = T[-1, :enter_cols]
        candidates = np.nonzero(reduced < -simplex.PIVOT_TOL)[0]
        if candidates.size == 0:
            return "optimal", used, smallest
        col = int(candidates[np.argmin(reduced[candidates])])
        column = T[:-1, col]
        rows = np.nonzero(column > simplex.PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded", used, smallest
        row = _reference_leaving_row(T, column, rows, scan_order)
        smallest = min(smallest, float(column[row]))
        _reference_pivot(T, row, col)
        basis[row] = col
        used += 1
    raise LpFailure(f"simplex did not converge within {budget} pivots")


def _solve_both(solve, *args, **kwargs):
    def run():
        try:
            return solve(*args, **kwargs)
        except LpFailure as exc:
            return str(exc)
    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_iterate", _reference_iterate)
        mp.setattr(simplex, "_leaving_row", _reference_leaving_row)
        mp.setattr(simplex, "_pivot", _reference_pivot)
        want = run()
    return got, want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pivot_loop_matches_numpy_reference_bitwise(data):
    # Degenerate LPs of the finite-space kind: block-repeated rows (copies,
    # and positive multiples that tie in every ratio test up to their own
    # slack column), zero right-hand sides, small integer entries.
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 6))
    base = rng.integers(-2, 3, size=(data.draw(st.integers(1, 6)), n)).astype(float)
    assign = rng.integers(0, base.shape[0], size=data.draw(st.integers(1, 24)))
    a_ub = base[assign] * rng.choice([0.5, 1.0, 1.0, 2.0], size=(assign.size, 1))
    b_ub = np.where(rng.random(assign.size) < 0.6, 0.0, rng.integers(-2, 4, assign.size))
    a_eq = b_eq = None
    if data.draw(st.booleans()):
        a_eq = rng.integers(-1, 3, size=(data.draw(st.integers(1, 2)), n)).astype(float)
        b_eq = rng.integers(0, 3, size=a_eq.shape[0]).astype(float)
    c = rng.integers(-3, 4, size=n).astype(float)
    if data.draw(st.booleans()):
        c = np.array([c, -c])  # a minimum and a maximum, as the Hahn-Banach step asks
    solve = solve_free if data.draw(st.booleans()) else solve_lp
    got, want = _solve_both(solve, c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for a, b in [(got.x, want.x), (got.objective, want.objective), (got.duals, want.duals)]:
        assert (a is None and b is None) or np.array_equal(a, b)


def test_leaving_row_ties_past_the_first_chunk():
    # Rows 0-2 tie at ratio 0 and, divided by their pivot column, agree on
    # the scan columns up to 99 (row 1 is twice row 0).  Column 100 drops
    # row 1, and column 130 puts row 2 below row 0.
    rng = np.random.default_rng(5)
    base = rng.normal(size=201)
    T = np.vstack([base, 2.0 * base, base, rng.normal(size=201)])
    T[:3, -1] = 0.0
    T[1, 100] += 2.0
    T[2, 130] -= 1.0
    column = np.array([1.0, 2.0, 1.0, -1.0])
    rows, scan_order = np.array([0, 1, 2]), np.arange(200)
    # simplex._leaving_row takes the entering column and its rows as lists
    assert simplex._leaving_row(T, column.tolist(), rows.tolist(), scan_order) == 2
    assert _reference_leaving_row(T, column, rows, scan_order) == 2
    # without the columns that tell them apart, the first tied row wins
    for order in (np.arange(100), np.r_[np.arange(100), np.arange(101, 130)]):
        assert simplex._leaving_row(T, column.tolist(), rows.tolist(), order) == 0
        assert _reference_leaving_row(T, column, rows, order) == 0


# --- the whole solve against its reference ------------------------------------------

def _reference_solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    # solve_lp as it was before it built the tableau in place: a separate A
    # and b, equilibrated and flipped there, a pricing loop of in-place row
    # subtractions, the read-out's constants worked out per objective, a
    # phase-1 test scaled by the largest right-hand side, and the merge of
    # copied inequality rows that the callers whose rows repeat now run
    # before they call the solver.  The oracle the solver must match bit for bit; its helpers are
    # read off the modules, so the reference pivot loop above can stand in
    # for simplex._iterate and a test can watch the merge.
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

    n_struct = n + m_ub
    if m > simplex.SIZE_CAP or n_struct > simplex.SIZE_CAP:
        raise LpFailure(
            f"problem exceeds desk-scale cap: {m} rows, {n_struct} structural columns "
            f"(max {simplex.SIZE_CAP})"
        )
    if not (np.isfinite(a_ub).all() and np.isfinite(b_ub).all() and np.isfinite(a_eq).all()
            and np.isfinite(b_eq).all() and np.isfinite(costs).all()):
        raise LpFailure("LP data contains non-finite entries")

    # Presolve: copied inequality rows become one row at their smallest
    # right-hand side (see momentkit.funcspace); ``ub_rows`` is the caller
    # row that carries each kept row's multiplier.
    m_caller, ub_rows = m, None
    if m_ub > 1 and n:
        ub_rows = funcspace._merge_copies(a_ub, b_ub)
        if ub_rows is not None:
            a_ub, b_ub = a_ub[ub_rows], b_ub[ub_rows]
            m_ub = ub_rows.size
            m = m_ub + m_eq
            n_struct = n + m_ub

    # Append slacks: columns are [x, slack].
    A = np.zeros((m, n_struct))
    A[:m_ub, :n] = a_ub
    A[m_ub:, :n] = a_eq
    A[:m_ub, n:] = np.eye(m_ub)
    b = np.concatenate([b_ub, b_eq])

    # Mild row equilibration keeps the fixed tolerances meaningful.  It
    # scales the slack columns too: nothing reads a slack's value, and the
    # multipliers undo the scale.
    row_scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    row_scale[row_scale < 1.0] = 1.0
    A /= row_scale[:, None]
    b = b / row_scale

    # Nonnegative right-hand side; slack columns flip sign with their row.
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    # Rows whose slack survived unflipped start basic; the rest get
    # artificials.  Either way each row has an identity column: positive in
    # that row alone.
    needs_art = np.ones(m, dtype=bool)
    needs_art[:m_ub] = flip[:m_ub]
    art_rows = np.nonzero(needs_art)[0]
    n_art = int(art_rows.size)
    n_total = n_struct + n_art
    identity_col = np.arange(n, n + m)
    identity_col[art_rows] = np.arange(n_struct, n_total)
    basis = identity_col.copy()

    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n_struct] = A
    T[:m, -1] = b
    T[art_rows, identity_col[art_rows]] = 1.0
    T0, unit = T[:m].copy(), identity_col  # the rows as posed, for the final check

    # Lexicographic scan order: per-row identity columns first (the
    # right-hand side is always compared before this order kicks in), then
    # the remaining columns by index.
    rest = np.ones(n_total, dtype=bool)
    rest[identity_col] = False
    scan_order = np.concatenate([identity_col, np.nonzero(rest)[0]])

    iterations, smallest = 0, np.inf

    # Phase 1: minimize the artificial mass.
    if n_art:
        T[-1, n_struct:n_total] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status, used, smallest = simplex._iterate(T, basis, n_struct, scan_order,
                                                  simplex.MAX_ITERATIONS)
        iterations += used
        if status != "optimal":
            raise LpFailure("phase 1 reported an unbounded artificial objective")
        if -T[-1, -1] > simplex.FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            return simplex.LpSolution("infeasible", None, None, iterations)
        # Pivot lingering artificials out of the basis where possible.
        keep = np.ones(m, dtype=bool)
        for i in np.nonzero(basis >= n_struct)[0]:
            row = T[i, :n_struct]
            nz = np.nonzero(np.abs(row) > simplex.PIVOT_TOL)[0]
            if nz.size:
                smallest = min(smallest, abs(float(row[nz[0]])))
                simplex._pivot(T, i, int(nz[0]))
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
        obj_scale = max(1.0, float(np.abs(cj).max(initial=0.0)))
        Tj[-1, :n_struct] /= obj_scale
        cost = Tj[-1].copy()
        for i in np.nonzero(Tj[-1, bj])[0]:  # a basic column is 0 off its own row
            Tj[-1] -= Tj[-1, bj[i]] * Tj[i]
        status, used, small = simplex._iterate(Tj, bj, n_struct, scan_order,
                                               simplex.MAX_ITERATIONS - iterations)
        iterations += used
        if status == "optimal" and min(smallest, small) < simplex.SMALL_PIVOT:
            status, used = simplex._settle(Tj, bj, T0, unit, cost, n_struct, scan_order,
                                           simplex.MAX_ITERATIONS - iterations)
            iterations += used
        if status == "unbounded":
            return simplex.LpSolution("unbounded", None, None, iterations)

        full = np.zeros(n_total)
        full[bj] = Tj[:m, -1]
        x = full[:n]
        xs.append(x)
        objs.append(float(cj @ x))

        # Multipliers from the final objective row.  A slack column was scaled
        # and flipped with its row, so its reduced cost is the a_ub multiplier
        # up to obj_scale; an artificial is a unit column of the scaled,
        # flipped row.  An equality row dropped as redundant leaves an
        # all-zero artificial column, so its multiplier is 0.
        y = Tj[-1, n:n_struct] * -obj_scale
        if m_eq:
            sign = np.where(flip[m_ub:], obj_scale, -obj_scale)
            y = np.concatenate([y, sign * Tj[-1, n_total - m_eq:n_total] / row_scale[m_ub:]])
        if ub_rows is not None:
            duals = np.zeros(m_caller)
            duals[ub_rows] = y[:m_ub]
            duals[m_caller - m_eq:] = y[m_ub:]
            y = duals
        ys.append(y)

    if c.ndim == 1:
        return simplex.LpSolution("optimal", xs[0], objs[0], iterations, ys[0])
    return simplex.LpSolution("optimal", np.array(xs), np.array(objs), iterations,
                              np.array(ys))


def _outcome(solve, c, kwargs):
    """What a solve returns, down to the bits (signs of zero included), or
    its LpFailure message."""
    try:
        sol = solve(c, **kwargs)
    except LpFailure as exc:
        return f"LpFailure: {exc}"
    return (sol.status, sol.iterations, type(sol.objective)) + tuple(
        None if v is None else (np.shape(v), np.asarray(v, dtype=float).tobytes())
        for v in (sol.x, sol.objective, sol.duals))


def _stopping_once(iterate):
    # A pivot loop whose first phase-2 call (no artificial column in the
    # basis) reports a tiny pivot and stops at once: the final check then
    # finds a basis that is not optimal and repairs it.  A tableau whose
    # rows were all dropped as redundant has no element to pivot on, so its
    # call is not stopped.
    calls = []

    def stop_first(T, basis, enter_cols, *args):
        if not calls and basis.size and (basis < enter_cols).all():
            calls.append(None)
            return "optimal", 0, 1e-9
        return iterate(T, basis, enter_cols, *args)
    return stop_first


def _draw_lp(data, rng):
    """An LP of any kind solve_lp takes: inequalities, equalities or both,
    1-D c or k = 1-3 objectives, m = 0 or n = 0, copied inequality rows,
    negative and signed-zero right-hand sides, redundant equalities, tiny
    entries (small pivots), and malformed input.  Returns ``(c, kwargs,
    free)``: half the LPs are in free variables, posed split (``solve_free``)."""
    n = data.draw(st.sampled_from([3, 1, 2, 4, 5, 0]))
    integers = data.draw(st.booleans())  # small integers: degenerate vertices and ties

    def rows(count):
        if integers:
            a = rng.integers(-2, 3, size=(count, n)).astype(float)
        else:
            a = rng.normal(size=(count, n)) * 10.0 ** rng.integers(-3, 4, size=(count, 1))
        return np.where(rng.random(a.shape) < 0.15, -0.0, a)

    # Half the draws are feasible by construction: the rows hold at x0 with
    # slacks of 0 (degenerate) or more; the rest take any right-hand side.
    free, feasible = data.draw(st.booleans()), data.draw(st.booleans())
    x0 = rng.integers(0, 3, size=n) - (1.0 if free else 0.0)

    def rhs(a, slack):
        if feasible:
            b = a @ x0 + slack * rng.choice([0.0, 0.0, 1.0], size=len(a))
        elif integers:
            b = rng.choice([0.0, 1.0, -1.0, 2.0, 0.5], size=len(a))
        else:
            b = np.where(rng.random(len(a)) < 0.3, 0.0, rng.normal(size=len(a)))
        return np.where(b == 0.0, rng.choice([0.0, -0.0], size=len(a)), b)

    m_ub, m_eq = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 3))
    a_ub, a_eq = rows(m_ub), rows(m_eq)
    if n and data.draw(st.booleans()):  # one tiny column: pivots below SMALL_PIVOT
        col = rng.integers(n)
        a_ub[:, col] *= 1e-6
        a_eq[:, col] *= 1e-6
    b_ub, b_eq = rhs(a_ub, 1.0), rhs(a_eq, 0.0)
    if m_ub and data.draw(st.booleans()):  # looser, equal or tighter copies
        copies = rng.integers(0, m_ub, size=data.draw(st.integers(1, 2 * m_ub)))
        shift = rng.choice([-1.0, 0.0, 1.0], size=copies.size) * rng.uniform(0, 0.5, copies.size)
        a_ub, b_ub = np.vstack([a_ub, a_ub[copies]]), np.r_[b_ub, b_ub[copies] + shift]
    if m_eq and data.draw(st.booleans()):  # a redundant equality: a copy or a multiple
        factor = data.draw(st.sampled_from([1.0, 2.0, -0.5]))
        a_eq, b_eq = np.vstack([a_eq, factor * a_eq[:1]]), np.r_[b_eq, factor * b_eq[:1]]
    k = data.draw(st.sampled_from([None, 2, 1, 3]))
    c = rows(1)[0] if k is None else rows(k)
    if k and k > 1 and data.draw(st.booleans()):
        c[1] = -c[0]  # a minimum and a maximum, as the Hahn-Banach step asks
    kwargs = {}
    if m_ub or data.draw(st.booleans()):
        kwargs.update(a_ub=a_ub, b_ub=b_ub)
    if m_eq or data.draw(st.booleans()):
        kwargs.update(a_eq=a_eq, b_eq=b_eq)

    bad = data.draw(st.sampled_from([None] * 8 + ["non-finite", "rhs", "objective", "cap"]))
    if bad == "non-finite":
        target = data.draw(st.sampled_from(["c", "a_ub", "b_ub", "a_eq", "b_eq"]))
        array = c if target == "c" else kwargs.get(target)
        if array is not None and array.size:
            array.flat[rng.integers(array.size)] = data.draw(st.sampled_from([np.nan, np.inf]))
    elif bad == "rhs" and "b_ub" in kwargs:
        kwargs["b_ub"] = np.r_[b_ub, 1.0]
    elif bad == "objective":
        c = np.zeros(data.draw(st.sampled_from([(0, n), (1, 1, n)])))
    elif bad == "cap":
        kwargs.update(a_ub=np.ones((501, n)), b_ub=np.ones(501))
    return c, kwargs, free


def _posed(solve, free):
    """``solve``, or ``solve`` handed the split LP when the variables are free."""
    return partial(solve_free, solve=solve) if free else solve


def _in_caller_rows(sol, rows, m_ub):
    """``sol``, solved on the kept inequality rows ``rows`` of ``m_ub``, with
    its multipliers moved to the caller's rows: each kept row's onto that
    row, 0 onto its other copies."""
    if sol.duals is None:
        return sol
    kept = rows.size
    y = np.zeros(sol.duals.shape[:-1] + (m_ub + sol.duals.shape[-1] - kept,))
    y[..., rows] = sol.duals[..., :kept]
    y[..., m_ub:] = sol.duals[..., kept:]
    return sol._replace(duals=y)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_solve_matches_reference_bitwise(data):
    # The reference merges copied inequality rows itself; where it does,
    # solve_lp is given the kept rows, as the LPs over points give them.
    c, kwargs, free = _draw_lp(data, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    # Only a tableau with rows can have taken a pivot, tiny or not.
    has_rows = any(np.size(kwargs.get(b, ())) for b in ("b_ub", "b_eq"))
    stop_first = has_rows and data.draw(st.booleans())
    merge, merged = funcspace._merge_copies, []

    def watched_merge(a_ub, b_ub):
        merged.append(merge(a_ub, b_ub))
        return merged[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_iterate",
                   _stopping_once(_reference_iterate) if stop_first else _reference_iterate)
        mp.setattr(simplex, "_leaving_row", _reference_leaving_row)
        mp.setattr(simplex, "_pivot", _reference_pivot)
        mp.setattr(funcspace, "_merge_copies", watched_merge)
        want = _outcome(_posed(_reference_solve_lp, free), c, kwargs)

    rows = merged[0] if merged else None
    m_ub = np.size(kwargs.get("b_ub", ()))

    def solve(c, **kw):
        sol = _posed(solve_lp, free)(c, **kw)
        return sol if rows is None else _in_caller_rows(sol, rows, m_ub)

    if rows is not None:
        kwargs = dict(kwargs, a_ub=kwargs["a_ub"][rows], b_ub=kwargs["b_ub"][rows])
    with pytest.MonkeyPatch.context() as mp:
        if stop_first:
            mp.setattr(simplex, "_iterate", _stopping_once(simplex._iterate))
        got = _outcome(solve, c, kwargs)
    assert got == want


# --- started solves -------------------------------------------------------------------

def test_start_must_lead_the_new_lp():
    # A started solve reuses the earlier tableau only when the earlier rows
    # and columns are, bit for bit, the leading block of the new LP, with
    # equality rows only; anything else is refused.
    a, b = np.array([[1.0, 1.0, 1.0]]), np.array([2.0])
    start = solve_lp([1.0, 2.0, 3.0], a_eq=a, b_eq=b)
    assert start.tableau is not None
    grown_a, grown_b = np.vstack([a, [1.0, -1.0, 0.0]]), np.r_[b, 0.5]
    sol = solve_lp([1.0, 2.0, 3.0], a_eq=grown_a, b_eq=grown_b, start=start)
    cold = solve_lp([1.0, 2.0, 3.0], a_eq=grown_a, b_eq=grown_b)
    assert sol.optimal and sol.objective == pytest.approx(cold.objective, rel=1e-12)
    refused = [
        dict(a_eq=np.vstack([[1.0, 1.0, 2.0], grown_a[1]]), b_eq=grown_b),  # another row
        dict(a_eq=grown_a, b_eq=np.r_[3.0, 0.5]),  # another right-hand side
        dict(a_eq=grown_a[::-1], b_eq=grown_b[::-1]),  # the new row first
        dict(a_eq=a[:, :2], b_eq=b),  # fewer columns
        dict(a_eq=grown_a, b_eq=grown_b, a_ub=[[1.0, 0.0, 0.0]], b_ub=[1.0]),  # inequalities
    ]
    for kwargs in refused:
        n = kwargs["a_eq"].shape[1]
        with pytest.raises(ValueError, match="do not lead"):
            solve_lp(np.ones(n), **kwargs, start=start)
    # The grown LP in free variables, split, leads with the start's columns
    # (the new ones are x-), so it starts, and solves as it does cold.
    started = solve_free(np.ones(3), a_eq=grown_a, b_eq=grown_b,
                         solve=partial(solve_lp, start=start))
    cold = solve_free(np.ones(3), a_eq=grown_a, b_eq=grown_b)
    assert started.optimal and started.objective == pytest.approx(cold.objective, rel=1e-12)


def test_start_without_a_tableau_solves_cold():
    # Only an optimal solve in equality form over x >= 0 keeps its tableau;
    # starting from one that kept none is a cold solve, bit for bit.
    kept = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-3.0])
    assert kept.optimal and kept.tableau is None
    assert solve_lp([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]).tableau is None
    args = dict(a_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert _outcome(lambda c, **kw: solve_lp(c, **kw, start=kept), [1.0, 3.0], args) == \
        _outcome(solve_lp, [1.0, 3.0], args)

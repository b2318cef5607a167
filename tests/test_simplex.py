import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import simplex
from momentkit.errors import LpFailure
from momentkit.simplex import _merge_copies, collect_lp_stats, lp_feasible, solve_lp

from conftest import scipy_lp


def test_basic_minimization():
    # min x + 2y subject to x, y >= 0 and x + y <= 4
    sol = solve_lp([1.0, 2.0], a_ub=[[-1, 0], [0, -1], [1, 1]], b_ub=[0, 0, 4])
    assert sol.optimal
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_negative_rhs_needs_phase1():
    sol = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-3.0])  # x >= 3
    assert sol.optimal
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_equality_constraint():
    sol = solve_lp([0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], a_ub=[[0.0, -1.0]], b_ub=[0.0])
    assert sol.optimal
    assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_unbounded_detected():
    assert solve_lp([-1.0]).status == "unbounded"


def test_infeasible_detected():
    sol = solve_lp([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
    assert sol.status == "infeasible"


def test_size_cap():
    with pytest.raises(LpFailure):
        solve_lp(np.zeros(300), a_ub=np.zeros((1, 300)), b_ub=[1.0])


def test_size_cap_counts_rows_before_merging():
    # 501 copies of one row are one constraint, but the cap applies to the LP as given
    with pytest.raises(LpFailure):
        solve_lp([1.0], a_ub=np.ones((501, 1)), b_ub=np.arange(501.0))


def test_copied_rows_solve_as_merged():
    # Copies of a row at different right-hand sides are the row at the
    # smallest one, in first-occurrence order.  On this degenerate LP the
    # unmerged tableau pivots differently (5 pivots, not 6).
    base = [[-0.8, -1.3, -0.2], [0.4, 1.1, 0.1], [-0.6, -0.8, 0.7],
            [1.6, 0.3, -1.2], [-1.0, 1.6, 0.2], [1.0, 1.0, 1.0]]
    a = base + [base[0], base[5], base[2], base[1], base[3]]
    b = [1.3, 0.0, 0.0, 1.0, 0.0, 3.0] + [2.2, 3.9, 0.0, 0.7, 0.6]
    c = [0.0, 0.0, -0.3]
    sol = solve_lp(c, a_ub=a, b_ub=b)
    ref = solve_lp(c, a_ub=base, b_ub=[1.3, 0.0, 0.0, 0.6, 0.0, 3.0])
    assert sol.optimal and sol.objective == pytest.approx(-0.072, abs=1e-12)
    assert (sol.status, sol.objective, sol.iterations) == \
        (ref.status, ref.objective, ref.iterations)
    assert np.array_equal(sol.x, ref.x)


def test_copied_rows_merge_with_nonneg():
    base = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]]
    a = base + [base[2], base[0], base[2]]
    b = [4.0, 3.0, 3.0, 6.0] + [2.5, 5.0, 2.8]
    sol = solve_lp([-1.0, -1.0, -1.0], a_ub=a, b_ub=b, nonneg=True)
    ref = solve_lp([-1.0, -1.0, -1.0], a_ub=base, b_ub=[4.0, 3.0, 2.5, 6.0], nonneg=True)
    assert sol.optimal and sol.objective == pytest.approx(-4.0, abs=1e-12)
    assert (sol.status, sol.objective, sol.iterations) == \
        (ref.status, ref.objective, ref.iterations)
    assert np.array_equal(sol.x, ref.x)


def test_nonneg_without_rows():
    assert solve_lp([1.0, -0.5], nonneg=True).status == "unbounded"
    sol = solve_lp([1.0, 0.0], nonneg=True)
    assert sol.optimal and sol.objective == 0.0
    assert np.array_equal(sol.x, [0.0, 0.0])


def test_nonneg_size_cap_counts_one_column_per_variable():
    # 300 free variables are 600 columns; 300 nonnegative ones and 200 slacks are 500
    a_ub = np.eye(201, 300)
    assert solve_lp(np.ones(300), a_ub=a_ub[:200], b_ub=np.ones(200), nonneg=True).optimal
    with pytest.raises(LpFailure):
        solve_lp(np.ones(300), a_ub=a_ub, b_ub=np.ones(201), nonneg=True)


def test_tighter_copy_makes_infeasible():
    # x >= 1 and x <= 2 is feasible; a copy x <= 0.5 of the second row is not
    sol = solve_lp([1.0], a_ub=[[-1.0], [1.0], [1.0]], b_ub=[-1.0, 2.0, 0.5])
    assert sol.status == "infeasible"


def test_non_finite_rejected():
    with pytest.raises(LpFailure):
        solve_lp([np.nan])


def test_feasibility_probe():
    assert lp_feasible(a_ub=[[1.0]], b_ub=[1.0])
    assert not lp_feasible(a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])  # x <= 1 and x >= 2


def test_stats_collection():
    with collect_lp_stats() as stats:
        solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-3.0])
        solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
    assert stats["solves"] == 2
    assert stats["iterations"] >= 1


def test_degenerate_vertex_converges():
    # Many zero right-hand sides around the origin: the historic stall case.
    rng = np.random.default_rng(5)
    n = 8
    a_rows = rng.normal(size=(120, n))
    a_ub = np.vstack([-a_rows, np.ones((1, n))])
    b_ub = np.concatenate([np.zeros(120), [1.0]])
    c = rng.normal(size=n)
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
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
    assert solve_lp(c, a_ub=a_ub, b_ub=b_ub).status == "unbounded"
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
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
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
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
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
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
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
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=True)
    ref_status, ref_obj = scipy_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                                   bounds=(0, None))
    assert sol.status == ref_status
    if sol.optimal:
        assert sol.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-7)
        assert np.all(sol.x >= -1e-9)
        assert np.all(a_ub @ sol.x <= b_ub + 1e-7)
        if a_eq is not None:
            assert np.all(np.abs(a_eq @ sol.x - b_eq) <= 1e-7)


def test_copied_rows_multiplier_goes_to_tightest_copy():
    base = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]]
    a = base + [base[2], base[0], base[2]]
    b = [4.0, 3.0, 3.0, 6.0] + [2.5, 5.0, 2.8]
    sol = solve_lp([-1.0, -1.0, -1.0], a_ub=a, b_ub=b, nonneg=True)
    ref = solve_lp([-1.0, -1.0, -1.0], a_ub=base, b_ub=[4.0, 3.0, 2.5, 6.0], nonneg=True)
    assert np.array_equal(sol.duals[[0, 1, 4, 3]], ref.duals)
    assert np.all(sol.duals[[2, 5, 6]] == 0.0)


def test_rows_differing_in_the_sign_of_a_zero_merge():
    a = [[1.0, 0.0], [1.0, -0.0], [-0.0, 1.0], [0.0, 1.0]]
    b = [2.0, 1.0, 3.0, 3.0]
    assert _merge_copies(np.array(a), np.array(b)).tolist() == [1, 2]
    sol = solve_lp([-1.0, -1.0], a_ub=a, b_ub=b, nonneg=True)
    ref = solve_lp([-1.0, -1.0], a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 3.0], nonneg=True)
    assert (sol.objective, sol.iterations) == (ref.objective, ref.iterations)
    assert np.array_equal(sol.duals[[1, 2]], ref.duals)
    assert np.all(sol.duals[[0, 3]] == 0.0)


def test_equal_copies_put_the_multiplier_on_the_first():
    a = [[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
    b = [3.0, 5.0, 2.0, 2.0]
    assert _merge_copies(np.array(a), np.array(b)).tolist() == [2, 1]
    sol = solve_lp([-1.0, -1.0], a_ub=a, b_ub=b, nonneg=True)
    assert sol.duals[2] == pytest.approx(-1.0)
    assert np.all(sol.duals[[0, 1, 3]] == 0.0)


def _lexsort_merge(a_ub, b_ub):
    """Reference presolve by a stable sort on every column, then the right-hand
    side: each group's first row and the caller row at its smallest
    right-hand side, in first-occurrence order, or None when no row repeats."""
    perm = np.lexsort((b_ub, *a_ub.T))
    ranked = a_ub[perm]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    if starts.size == a_ub.shape[0]:
        return None
    first = np.minimum.reduceat(perm, starts)
    order = np.argsort(first)
    return a_ub[first[order]], perm[starts][order]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_matches_lexsort_reference(data):
    m, n = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 4))
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25])
    a_ub = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                       min_size=m, max_size=m)))
    b_ub = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                                       min_size=m, max_size=m)))
    ub_rows, ref = _merge_copies(a_ub, b_ub), _lexsort_merge(a_ub, b_ub)
    if ref is None:
        assert ub_rows is None
    else:
        rows, ref_ub_rows = ref
        assert ub_rows.tolist() == ref_ub_rows.tolist()
        assert np.array_equal(a_ub[ub_rows], rows)  # == reads -0.0 as 0.0


def test_final_basis_is_settled_on_the_rows_as_posed(monkeypatch):
    # A pivot loop that reports a tiny pivot and stops at once leaves the
    # slack basis, which is not optimal; the final check prices it on the
    # rows as posed, finds the negative reduced costs and pivots on from a
    # rebuilt tableau.
    c, a, b = [-1.0, -2.0, -0.5], [[1.0, 1.0, 1.0], [2.0, 0.5, 0.0], [0.0, 1.0, 3.0]], [4.0, 3.0, 5.0]
    ref = solve_lp(c, a_ub=a, b_ub=b, nonneg=True)
    real, calls = simplex._iterate, []

    def stop_at_once(T, basis, *args):
        calls.append(None)
        return ("optimal", 0, 1e-9) if len(calls) == 1 else real(T, basis, *args)

    monkeypatch.setattr(simplex, "_iterate", stop_at_once)
    sol = solve_lp(c, a_ub=a, b_ub=b, nonneg=True)
    assert len(calls) == 2 and sol.optimal
    assert sol.objective == pytest.approx(ref.objective, abs=1e-12)
    assert np.allclose(sol.x, ref.x, atol=1e-12) and np.allclose(sol.duals, ref.duals, atol=1e-12)


def test_redundant_equality_gets_zero_multiplier():
    # the copied equality row is dropped after phase 1; its multiplier is 0
    sol = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[2.0, 2.0], nonneg=True)
    assert sol.optimal and sol.objective == pytest.approx(2.0)
    assert sorted(sol.duals) == pytest.approx([0.0, 1.0])
    assert solve_lp([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]).duals is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_duals_certify_optimal_solutions(data):
    # No reference solver: every optimum must come with multipliers that
    # satisfy the optimality conditions on the caller's unscaled data.  Half
    # the draws ask several objectives at once; each row is checked alone.
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 6))
    nonneg = data.draw(st.booleans())
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
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=nonneg)
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
        if nonneg:
            assert np.all(reduced >= -1e-9 * data_scale)
            assert np.all(np.abs(reduced * x) <= 1e-9 * data_scale * max(1.0, np.abs(x).max()))
        else:
            assert np.all(np.abs(reduced) <= 1e-9 * data_scale)
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
    nonneg = data.draw(st.booleans())
    a_ub = rng.normal(size=(data.draw(st.integers(1, 10)), n))
    b_ub = rng.normal(size=a_ub.shape[0])
    a_eq, b_eq = None, None
    if data.draw(st.booleans()):
        a_eq, b_eq = rng.normal(size=(1, n)), rng.normal(size=1)
    c = rng.normal(size=(data.draw(st.integers(1, 4)), n))
    if data.draw(st.booleans()):
        c[-1] = -c[0]  # a minimum and a maximum, as the Hahn-Banach step asks
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=nonneg)
    singles = [solve_lp(row, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=nonneg)
               for row in c]
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


def _assert_phase_one_counted_once(c, **constraints):
    # A zero objective takes no phase-2 pivot, so its 1-D solve counts
    # phase 1 alone.
    c = np.array(c)
    phase1 = solve_lp(np.zeros(c.shape[1]), **constraints).iterations
    assert phase1 > 0
    singles = [solve_lp(row, **constraints) for row in c]
    with collect_lp_stats() as stats:
        sol = solve_lp(c, **constraints)
    assert sol.optimal
    assert sol.objective == pytest.approx([s.objective for s in singles])
    assert sol.iterations == sum(s.iterations for s in singles) - (len(c) - 1) * phase1
    assert stats == {"solves": 1, "iterations": sol.iterations}


def test_many_objectives_count_phase_one_once():
    # x >= 1, y >= 2 needs phase 1
    _assert_phase_one_counted_once([[1.0, 1.0], [-1.0, -1.0], [1.0, -2.0]],
                                   a_ub=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                   b_ub=[-1.0, -2.0, 5.0])


def test_many_objectives_two_artificials_start_from_phase_one():
    # Two equality rows, so exactly two artificials: each objective must
    # still start from the phase-1 basis, not from the previous optimum.
    v = [0.0, 1.0, -2.0, -1.0]
    _assert_phase_one_counted_once([v, [-x for x in v]],
                                   a_eq=[[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 0.0]],
                                   b_eq=[6.0, 10.0], nonneg=True)


def test_many_objectives_one_unbounded_row():
    # min x is 1, min -x is unbounded: the whole solve is unbounded
    sol = solve_lp([[1.0], [-1.0]], a_ub=[[-1.0]], b_ub=[-1.0])
    assert sol.status == "unbounded" and sol.x is None and sol.objective is None


def test_objective_shape_checked():
    with pytest.raises(LpFailure):
        solve_lp(np.zeros((0, 2)))
    with pytest.raises(LpFailure):
        solve_lp(np.zeros((1, 1, 2)))

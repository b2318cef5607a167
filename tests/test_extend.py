import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momentkit as mk
import momentkit.extend
import momentkit.funcspace
from momentkit import counters
from momentkit.simplex import LpSolution

from conftest import (density_functional, ground, ones, random_partition, random_subspace_with_one,
                      scipy_lp, solve_free, vec)


def span_one(g):
    return mk.Subspace(g, [ones(g)])


def unit_functional(g):
    """L(1) = 1 on the span of the constants."""
    return mk.Functional(span_one(g), [1.0])


# --- membership primitives -------------------------------------------------------

def test_cone_plus_zero_subspace():
    g = ground(2)
    Z = mk.Subspace(g, [])
    assert mk.in_cone_plus_subspace(vec(g, [1, 1]), Z)
    assert not mk.in_cone_plus_subspace(vec(g, [-1, -1]), Z)


@pytest.mark.parametrize("question", [
    lambda Z, v: mk.in_cone_plus_subspace(v, Z),
    lambda Z, v: mk.hull_contains(Z, v),
    lambda Z, v: mk.dominates(v, v, Z, 0.5),
    lambda Z, v: mk.sublinear_p(v, mk.Functional(Z, [])),
    lambda Z, v: mk.verify_positive(mk.Functional(Z, [])),
], ids=["in_cone_plus_subspace", "hull_contains", "dominates", "sublinear_p",
        "verify_positive"])
def test_zero_subspace_asks_one_lp(question):
    # the empty span is an LP with no columns, asked like any other span
    g = ground(2)
    with counters.collect() as stats:
        question(mk.Subspace(g, []), vec(g, [1, 2]))
    assert stats["lp_solves"] == 1


def test_sublinear_p_zero_subspace():
    g = ground(2)
    L = mk.Functional(mk.Subspace(g, []), [])
    assert mk.sublinear_p(vec(g, [0, 1]), L) == 0.0
    with pytest.raises(mk.LpUnbounded, match="not in cone"):
        mk.sublinear_p(vec(g, [-1, 1]), L)


def test_cone_plus_constants():
    g = ground(2)
    assert mk.in_cone_plus_subspace(vec(g, [-5, 3]), span_one(g))


def test_wc_constants_sandwich_everything():
    g = ground(4)
    W = span_one(g)
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert mk.wc_contains(vec(g, rng.normal(size=4)), W)


def test_wc_zero_subspace():
    g = ground(2)
    assert not mk.wc_contains(vec(g, [1, 1]), mk.Subspace(g, []))


def test_wc_single_direction():
    g = ground(2)
    W = mk.Subspace(g, [vec(g, [1, 0])])
    assert not mk.wc_contains(vec(g, [0, 1]), W)


# --- sublinear bound ---------------------------------------------------------------

def test_p_on_positive_vector():
    g = ground(2)
    L = unit_functional(g)
    assert mk.sublinear_p(vec(g, [2, 3]), L) == pytest.approx(-2.0, abs=1e-9)


def test_p_on_negative_constant():
    g = ground(2)
    L = unit_functional(g)
    assert mk.sublinear_p(vec(g, [-1, -1]), L) == pytest.approx(1.0, abs=1e-9)


def test_p_restricted_to_span_is_minus_L():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = ground(int(rng.integers(2, 9)))
        W = random_subspace_with_one(rng, g, int(rng.integers(1, 5)))
        L = density_functional(rng, W)
        w = W.member(rng.normal(size=W.dim))
        assert mk.sublinear_p(w, L) == pytest.approx(-L(w), abs=1e-9 * max(1, abs(L(w))))


def test_p_unbounded_signals_violated_precondition():
    # L negative in a direction that can sink arbitrarily low below v.
    g = ground(2)
    W = mk.Subspace(g, [ones(g)])
    L = mk.Functional(W, [-1.0])  # not positive on the cone slice
    with pytest.raises(mk.LpUnbounded):
        mk.sublinear_p(vec(g, [0, 0]), L)


def test_p_infeasible_signals_violated_precondition():
    g = ground(2)
    W = mk.Subspace(g, [vec(g, [1, 0])])
    L = mk.Functional(W, [1.0])
    with pytest.raises(mk.LpUnbounded):
        mk.sublinear_p(vec(g, [-1, -1]), L)  # nothing in span(W) lies below


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_p_sublinearity(seed):
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 11)))
    W = random_subspace_with_one(rng, g, int(rng.integers(1, 6)))
    L = density_functional(rng, W)
    v1 = vec(g, rng.normal(size=g.size))
    v2 = vec(g, rng.normal(size=g.size))
    p = lambda v: mk.sublinear_p(v, L)
    assert p(v1 + v2) <= p(v1) + p(v2) + 1e-8
    for lam in (0.0, 0.5, 2.0):
        assert p(lam * v1) == pytest.approx(lam * p(v1), abs=1e-8)


# --- extension steps ----------------------------------------------------------------

def test_step_interval_and_midpoint():
    g = ground(2)
    L = unit_functional(g)
    L2, step = mk.hb_extend_step(L, vec(g, [0, 2]))
    assert step.interval_lo == pytest.approx(0.0, abs=1e-9)
    assert step.interval_hi == pytest.approx(2.0, abs=1e-9)
    assert step.chosen == pytest.approx(1.0, abs=1e-9)
    assert L2(vec(g, [0, 2])) == pytest.approx(1.0, abs=1e-12)


def test_step_nonnegative_target_keeps_positive_value():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = ground(int(rng.integers(2, 8)))
        W = random_subspace_with_one(rng, g, int(rng.integers(1, 3)))
        L = density_functional(rng, W)
        v = vec(g, np.abs(rng.normal(size=g.size)))
        if W.contains(v):
            continue
        _, step = mk.hb_extend_step(L, v)
        assert step.interval_lo >= -1e-9
        assert step.chosen >= -1e-9


def test_step_preserves_old_values():
    g = ground(3)
    W = mk.Subspace(g, [ones(g), vec(g, [0, 1, 2])])
    L = mk.Functional(W, [1.0, 0.5])
    L2, _ = mk.hb_extend_step(L, vec(g, [1, 0, 0]))
    for w in W.basis:
        assert L2(w) == pytest.approx(L(w), abs=1e-12)


def test_step_rejects_in_span_target():
    g = ground(2)
    L = unit_functional(g)
    with pytest.raises(ValueError):
        mk.hb_extend_step(L, vec(g, [3, 3]))


def test_step_rejects_unsandwiched_target():
    g = ground(2)
    Z = mk.Subspace(g, [vec(g, [1, 0])])
    L = mk.Functional(Z, [1.0])
    with pytest.raises(mk.TargetNotInWC):
        mk.hb_extend_step(L, vec(g, [0, 1]))


def test_step_solves_one_lp_for_both_bounds():
    g = ground(3)
    L = mk.Functional(span_one(g), [1.0])
    with counters.collect() as stats:
        mk.hb_extend_step(L, vec(g, [0, 1, 2]))
    assert stats["lp_solves"] == 1


def test_step_unbounded_bound_is_not_a_sandwich_failure():
    # The constants sandwich every target, so an unbounded bound LP means a
    # non-positive functional, not a missing sandwich.
    g = ground(2)
    L = mk.Functional(span_one(g), [-1.0])
    with pytest.raises(mk.LpUnbounded):
        mk.hb_extend_step(L, vec(g, [0, 2]))


def test_step_non_positive_functional_and_unsandwiched_target():
    # L(1, 0) = -1 < 0, so no positive measure represents L, and nothing in
    # span{(1, 0)} lies below -(0, 1): the sandwich failure is what is reported.
    g = ground(2)
    L = mk.Functional(mk.Subspace(g, [vec(g, [1, 0])]), [-1.0])
    assert not mk.wc_contains(vec(g, [0, 1]), L.domain)
    with pytest.raises(mk.TargetNotInWC):
        mk.hb_extend_step(L, vec(g, [0, 1]))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_step_interval_matches_primal_bounds(seed):
    # The step's interval, read off one LP over representing measures, must
    # equal the two primal bounds sup { L(w) : w <= +-v } from HiGHS; a bound
    # LP that is infeasible means v is not sandwiched, one that is unbounded
    # (with v sandwiched) means L is not positive.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = ground(n)
    dim = int(rng.integers(1, n))
    if rng.random() < 0.7:
        W = random_subspace_with_one(rng, g, dim)
    else:
        W = mk.Subspace(g, [vec(g, rng.normal(size=n)) for _ in range(dim)])
    if rng.random() < 0.7:
        L = density_functional(rng, W)
    else:
        L = mk.Functional(W, rng.normal(size=W.dim))
    v = vec(g, rng.normal(size=n))
    if W.contains(v):
        return
    lo_ref = scipy_lp(-L.coeffs, a_ub=W.matrix, b_ub=v.values)
    hi_ref = scipy_lp(-L.coeffs, a_ub=W.matrix, b_ub=-v.values)
    statuses = {lo_ref[0], hi_ref[0]}
    if "infeasible" in statuses:
        with pytest.raises(mk.TargetNotInWC):
            mk.hb_extend_step(L, v)
    elif "unbounded" in statuses:
        with pytest.raises(mk.LpUnbounded):
            mk.hb_extend_step(L, v)
    else:
        _, step = mk.hb_extend_step(L, v)
        assert step.interval_lo == pytest.approx(-lo_ref[1], rel=1e-6, abs=1e-7)
        assert step.interval_hi == pytest.approx(hi_ref[1], rel=1e-6, abs=1e-7)


def test_step_rules_stay_admissible():
    g = ground(3)
    L = mk.Functional(span_one(g), [1.0])
    v = vec(g, [0, 1, 2])
    for rule in ("lo", "midpoint", "hi"):
        L2, step = mk.hb_extend_step(L, v, rule)
        assert step.interval_lo - 1e-12 <= step.chosen <= step.interval_hi + 1e-12
        ok, worst = mk.verify_positive(L2, 1e-8)
        assert ok, worst


def test_empty_interval_guard(monkeypatch):
    # Theory forbids a crossed interval for positive functionals, so the
    # guard is exercised by stubbing the bound LP: lo = 1, hi = -1.
    g = ground(2)
    L = unit_functional(g)
    crossed = LpSolution("optimal", None, np.array([1.0, 1.0]), 0)
    monkeypatch.setattr(momentkit.extend, "solve_lp", lambda *args, **kwargs: crossed)
    with pytest.raises(mk.EmptyInterval):
        mk.hb_extend_step(L, vec(g, [0, 2]))


# --- full runs ----------------------------------------------------------------------

def test_extend_identity_on_in_span_targets():
    g = ground(2)
    L = unit_functional(g)
    L2, trace = mk.hb_extend(L, [vec(g, [2, 2]), vec(g, [-1, -1])])
    assert trace.steps == ()
    assert L2 is L or np.allclose(L2.coeffs, L.coeffs)


def test_extend_projects_each_target_once(monkeypatch):
    # hb_extend's membership test is each target's one projection onto the
    # span; the step does not ask again.
    g = ground(4)
    targets = [vec(g, [2, 2, 2, 2]), vec(g, [1, 0, 0, 0]), vec(g, [3, 0, 0, 0]),
               vec(g, [0, 1, 0, 0]), vec(g, [1, 1, 0, 0]), vec(g, [0, 0, 1, 0])]
    projected = []
    real = mk.Subspace.coefficients_of

    def counted(self, f, *args, **kwargs):
        projected.append(f)
        return real(self, f, *args, **kwargs)

    monkeypatch.setattr(mk.Subspace, "coefficients_of", counted)
    _, trace = mk.hb_extend(unit_functional(g), targets)
    assert [step.target_index for step in trace.steps] == [1, 3, 5]
    assert [id(f) for f in projected] == [id(t) for t in targets]


def test_extend_records_target_indices():
    g = ground(3)
    L = mk.Functional(span_one(g), [1.0])
    targets = [vec(g, [2, 2, 2]), vec(g, [1, 0, 0]), vec(g, [3, 0, 0]), vec(g, [0, 1, 0])]
    _, trace = mk.hb_extend(L, targets)
    assert [step.target_index for step in trace.steps] == [1, 3]


def test_extend_reports_failing_index():
    g = ground(2)
    Z = mk.Subspace(g, [vec(g, [1, 0])])
    L = mk.Functional(Z, [1.0])
    with pytest.raises(mk.TargetNotInWC) as err:
        mk.hb_extend(L, [vec(g, [2, 0]), vec(g, [0, 1])])
    assert err.value.index == 1


def test_extend_to_full_space_positive():
    g = ground(3)
    L = mk.Functional(span_one(g), [1.0])
    targets = [vec(g, [1, 0, 0]), vec(g, [0, 1, 0]), vec(g, [0, 0, 1])]
    L2, trace = mk.hb_extend(L, targets)
    assert L2.domain.dim == 3
    ok, worst = mk.verify_positive(L2, 1e-8)
    assert ok
    # independent check of the verdict with a reference LP
    M = L2.domain.matrix
    ref_status, ref_obj = scipy_lp(
        L2.coeffs, a_ub=-M, b_ub=np.zeros(3), a_eq=M.sum(axis=0)[None, :], b_eq=[1.0]
    )
    assert ref_status == "optimal" and ref_obj >= -1e-8


def test_extend_to_hull_checks_membership():
    g = ground(2)
    A = mk.Subspace(g, [vec(g, [0, 1])])
    L = mk.Functional(A, [1.0])
    with pytest.raises(mk.HullMembershipFailed):
        mk.extend_to_hull(L, A, [vec(g, [1, 0])])


def test_extend_to_hull_names_first_failing_target():
    # span(A) lacks the constants and vanishes on the last point.
    g = ground(3)
    A = mk.Subspace(g, [vec(g, [1, 1, 0])])
    L = mk.Functional(A, [1.0])
    targets = [vec(g, [1, 0, 0]), vec(g, [0.5, -0.5, 0]), vec(g, [0, 0, 1]), vec(g, [0, 1, 1])]
    with pytest.raises(mk.HullMembershipFailed, match="hull target 2 "):
        mk.extend_to_hull(L, A, targets)


def test_extend_to_hull_asks_only_about_targets_outside_the_span():
    # span(A) = {(a, -a, b, b)} lacks the constants and lies above |h| only
    # where h vanishes on the first two points.  (3, -3, 0, 0) is in the
    # span, so it needs no extension and the hull is not asked about it;
    # a failing target is named by its position among the others, while
    # the trace's indices count every target.
    g = ground(4)
    A = mk.Subspace(g, [vec(g, [1, -1, 0, 0]), vec(g, [0, 0, 1, 1])])
    L = mk.Functional(A, [0.0, 2.0])
    in_span, in_hull, outside = vec(g, [3, -3, 0, 0]), vec(g, [0, 0, 1, 0]), vec(g, [1, 0, 0, 0])
    _, trace = mk.extend_to_hull(L, A, [in_span, in_hull])
    assert [step.target_index for step in trace.steps] == [1]
    with pytest.raises(mk.HullMembershipFailed, match="hull target 1 "):
        mk.extend_to_hull(L, A, [in_span, in_hull, outside])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_hull_of_pointwise_max_is_conjunction(seed):
    # One dominator of max |h_k| exists iff each |h_k| has its own: the sum of
    # the separate dominators dominates the max.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    g = ground(n)
    dim = int(rng.integers(1, n + 1))
    if rng.random() < 0.5:
        A = random_subspace_with_one(rng, g, dim)
    else:
        A = mk.Subspace(g, [vec(g, rng.normal(size=n)) for _ in range(dim)])
    targets = [vec(g, rng.normal(size=n) * (rng.random(n) < 0.6))
               for _ in range(int(rng.integers(1, 5)))]
    peak = vec(g, np.max([np.abs(h.values) for h in targets], axis=0))
    assert mk.hull_contains(A, peak) == all(mk.hull_contains(A, h) for h in targets)


def test_extend_to_hull_identity_on_in_span_targets():
    g = ground(3)
    ramp = vec(g, [0, 1, 2])
    A = mk.Subspace(g, [ones(g), ramp])
    L = mk.Functional(A, [3.0, 1.0])
    L2, trace = mk.extend_to_hull(L, A, [ramp, ones(g)])
    assert trace.steps == ()
    assert np.allclose(L2.coeffs, L.coeffs)


def test_extend_to_hull_example():
    g = ground(3)
    A = mk.Subspace(g, [ones(g), vec(g, [0, 1, 2])])
    L = mk.Functional(A, [3.0, 1.0])
    target = vec(g, [0, 1, -2])  # |target| <= (0,1,2) + 1, inside the hull
    L2, trace = mk.extend_to_hull(L, A, [target])
    assert len(trace.steps) == 1
    ok, _ = mk.verify_positive(L2, 1e-8)
    assert ok


def test_zero_functional_extends_to_zero():
    g = ground(2)
    L = mk.Functional(span_one(g), [0.0])
    L2, trace = mk.hb_extend(L, [vec(g, [1, 0])])
    assert trace.steps[0].interval_lo <= 0.0 <= trace.steps[0].interval_hi
    assert L2(vec(g, [1, 0])) == pytest.approx(0.0, abs=1e-12)


# --- verify_positive -----------------------------------------------------------------

def test_verify_positive_single_point():
    g = ground(1)
    L = mk.Functional(mk.Subspace(g, [ones(g)]), [1.0])
    assert mk.verify_positive(L) == (True, pytest.approx(1.0, abs=1e-9))


def test_verify_positive_three_points():
    # On n points the only normalized nonnegative constant is 1/n, so the
    # worst value is L(1)/n.
    g = ground(3)
    L = mk.Functional(mk.Subspace(g, [ones(g)]), [1.0])
    ok, worst = mk.verify_positive(L)
    assert ok and worst == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_verify_positive_negative_functional():
    g1 = ground(1)
    L1 = mk.Functional(mk.Subspace(g1, [ones(g1)]), [-1.0])
    ok, worst = mk.verify_positive(L1)
    assert not ok and worst == pytest.approx(-1.0, abs=1e-9)
    g2 = ground(2)
    L2 = mk.Functional(mk.Subspace(g2, [ones(g2)]), [-1.0])
    ok, worst = mk.verify_positive(L2)
    assert not ok and worst == pytest.approx(-0.5, abs=1e-9)


def test_verify_positive_zero_domain():
    g = ground(2)
    L = mk.Functional(mk.Subspace(g, []), [])
    assert mk.verify_positive(L) == (True, 0.0)


def test_verify_positive_empty_slice():
    # span{(1,-1)} meets the cone only at 0, which cannot be normalized
    g = ground(2)
    L = mk.Functional(mk.Subspace(g, [vec(g, [1, -1])]), [5.0])
    assert mk.verify_positive(L) == (True, 0.0)


def test_verify_positive_sees_the_least_singleton_below_tol():
    # On the span of four singleton indicators the slice's vertices are the
    # singletons, so the worst value is min L = -3.6e-9.  The free-variable
    # primal this audit used to solve stopped at reduced costs above -1e-9
    # and read -2.8e-9, inside tol; the dual over measures does not stop there.
    g = ground(4)
    singletons = mk.Subspace(g, [vec(g, row) for row in np.eye(4)])
    L = mk.Functional(singletons, [-2.8e-9, 0.3, -3.6e-9, 0.08])
    ok, worst = mk.verify_positive(L, 3e-9)
    assert not ok and worst == pytest.approx(-3.6e-9, rel=1e-12)


# --- chains: each step and the audit start from the previous step's solve ------------

def primal_worst(L):
    """Reference: the audit as it was posed before, min L(v) over the
    normalized cone slice in free span coefficients, with one copy of each
    repeated row; (ok at tol 0, worst)."""
    W = L.domain
    a_ub, b_ub = momentkit.funcspace._one_copy(-W.matrix, np.zeros(W.ground.size))
    sol = solve_free(L.coeffs, a_ub=a_ub, b_ub=b_ub, a_eq=W.matrix.sum(axis=0)[None, :],
                     b_eq=[1.0])
    return 0.0 if sol.status == "infeasible" else float(sol.objective)


def assert_certified(sol, c, a_eq, b_eq):
    """The optimality conditions of a solve over x >= 0 with rows a_eq x = b_eq,
    checked on the caller's unscaled data, one objective row at a time."""
    rows = zip(c, sol.x, sol.duals, sol.objective) if np.ndim(c) == 2 else \
        [(c, sol.x, sol.duals, sol.objective)]
    for cj, x, y, objective in rows:
        data_scale = max(1.0, np.abs(cj).max(), (np.abs(y) @ np.abs(a_eq)).max(initial=0.0))
        reduced = cj - y @ a_eq
        assert np.all(reduced >= -1e-9 * data_scale)
        assert np.all(np.abs(reduced * x) <= 1e-9 * data_scale * max(1.0, np.abs(x).max()))
        assert np.all(x >= -1e-9 * max(1.0, np.abs(x).max()))
        row_scale = np.maximum(1.0, np.abs(a_eq) @ np.abs(x) + np.abs(b_eq))
        assert np.all(np.abs(a_eq @ x - b_eq) <= 1e-9 * row_scale)
        value = float(cj @ x)
        assert value == objective
        assert abs(value - b_eq @ y) <= 1e-7 * max(1.0, abs(value))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_started_solves_match_cold_solves(data):
    # No reference solver: a chain of 1-6 steps over 3-32 points, with or
    # without the constants in the span, block-constant or not.  A span with
    # a positive vector sandwiches every target; one without sandwiches few,
    # so its chains are short.  Every started solve (each step after the
    # first, and the audit) gets the status of the cold solve of the same LP,
    # and its multipliers certify its optimum on the caller's data.  On a
    # chain of midpoints its objectives are the cold solve's within 1e-12.
    # A chain that takes an endpoint leaves the next LP feasible only up to
    # rounding; there both solves still certify, but they may part by more
    # (CHANGES.md).
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = ground(data.draw(st.integers(3, 32)))
    blocks = data.draw(st.integers(2, g.size)) if data.draw(st.booleans()) else g.size
    assign = np.empty(g.size, dtype=int)
    for b, block in enumerate(random_partition(rng, g, blocks).blocks):
        assign[list(block)] = b

    def draw_vec():
        return vec(g, rng.normal(size=blocks)[assign])

    first = data.draw(st.sampled_from(["constants", "positive", "neither"]))
    if first == "constants":
        basis = [ones(g)]
    elif first == "positive":
        basis = [vec(g, rng.uniform(0.5, 2.0, size=blocks)[assign])]
    else:
        basis = []
    basis += [draw_vec() for _ in range(data.draw(st.integers(0 if basis else 1, 3)))]
    try:
        W = mk.Subspace(g, basis)
    except momentkit.funcspace.DependentBasis:
        return
    positive = data.draw(st.sampled_from([True, True, True, False]))
    L = density_functional(rng, W) if positive else mk.Functional(W, rng.normal(size=W.dim))
    rules = data.draw(st.sampled_from([("midpoint",), momentkit.extend.RULES]))
    started = []

    def checked(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, start=None):
        sol = mk.solve_lp(c, a_ub, b_ub, a_eq, b_eq, start=start)
        if start is not None and start.tableau is not None:
            cold = mk.solve_lp(c, a_ub, b_ub, a_eq, b_eq)
            assert sol.status == cold.status
            if cold.optimal:
                assert_certified(sol, c, a_eq, b_eq)
                if rules == ("midpoint",):
                    gap = np.abs(np.asarray(sol.objective) - cold.objective)
                    assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(cold.objective)))
            started.append(sol)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(momentkit.extend, "solve_lp", checked)
        for _ in range(data.draw(st.integers(1, 6))):
            v = draw_vec()
            if L.domain.contains(v):
                continue
            try:
                L, _ = mk.hb_extend_step(L, v, data.draw(st.sampled_from(rules)))
            except (mk.TargetNotInWC, mk.LpUnbounded, momentkit.funcspace.DependentBasis):
                break
        ok, worst = mk.verify_positive(L)
    if L._chain is not None and L._chain.tableau is not None:
        assert started  # the audit started from the last step
    if positive and rules == ("midpoint",):
        cold = mk.verify_positive(mk.Functional(L.domain, L.coeffs))
        assert cold[0] == ok
        assert abs(worst - cold[1]) <= 1e-12 * max(1.0, abs(cold[1]))
        assert abs(worst - primal_worst(L)) <= 1e-12 * max(1.0, abs(worst))


def test_chain_steps_start_from_the_previous_step():
    # The first step solves cold; each later step and the audit start from
    # the solve of the step before, which the returned functional carries.
    g = ground(5)
    L = mk.Functional(span_one(g), [1.0])
    starts = []

    def spy(*args, start=None, **kwargs):
        starts.append(start)
        return mk.solve_lp(*args, start=start, **kwargs)

    targets = [vec(g, [1, 0, 0, 0, 0]), vec(g, [0, 1, 0, 0, 0]), vec(g, [0, 0, 1, 1, 0])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(momentkit.extend, "solve_lp", spy)
        Lt, trace = mk.hb_extend(L, targets)
        assert mk.verify_positive(Lt)[0]
    assert len(trace.steps) == 3 and len(starts) == 4
    assert starts[0] is None
    assert all(s is not None and s.tableau is not None for s in starts[1:])
    assert Lt._chain is starts[3]
    assert mk.verify_positive(mk.Functional(Lt.domain, Lt.coeffs)) == \
        pytest.approx(mk.verify_positive(Lt), rel=1e-12)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momentkit as mk
from momentkit import counters, extend, funcspace
from momentkit.funcspace import _merge_copies
from momentkit.tolerances import ADAPTED_EPS, INDEPENDENCE_TOL
from momentkit.simplex import lp_feasible

from conftest import (density_functional, ground, ones, random_partition, random_subspace_with_one,
                      solve_free, vec)


# --- types ---------------------------------------------------------------------

def test_ground_set_validation():
    with pytest.raises(ValueError):
        mk.GroundSet(())
    with pytest.raises(ValueError):
        mk.GroundSet(("a", "a"))


def test_function_vec_validation():
    g = ground(3)
    with pytest.raises(ValueError):
        vec(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        vec(g, [1.0, np.inf, 0.0])


def test_operands_on_equal_ground_sets_combine():
    a = vec(mk.GroundSet(("p", "q")), [1, 2])
    b = vec(mk.GroundSet(("p", "q")), [3, 4])  # another object, equal labels
    assert a.ground is not b.ground
    assert (a + b).values.tolist() == [4, 6]
    assert mk.Subspace(a.ground, [b]).contains(b * 2.0)
    with pytest.raises(ValueError, match="^operands live on different ground sets$"):
        a - vec(mk.GroundSet(("p", "r")), [3, 4])
    with pytest.raises(ValueError, match="^operands live on different ground sets$"):
        mk.Subspace(a.ground, [b, vec(mk.GroundSet(("q", "p")), [0, 1])])


def test_value_classes_are_immutable():
    g = ground(2)
    f = vec(g, [1, 2])
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    support = mk.Support.interval(0, 1)
    values = [g, alg, mk.BinningSpec(0.0, 1.0, 4), support, mk.Poly((1.0, 2.0)),
              mk.MomentSequence((1, 0.5, 0.5), support), mk.AtomicMeasure((0.5,), (1.0,))]
    by_identity = [f, mk.Functional(mk.Subspace(g, [f]), [1.0]),
                   mk.ExtensionStep(f, 0.0, 1.0, 0.5), mk.SimpleFunction(alg, [1.0, 2.0]),
                   mk.Measure(alg, [1.0, 2.0]), mk.hankel(mk.MomentSequence((1, 0, 1)), 2)]
    for obj in values + by_identity:
        name = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        assert repr(obj).startswith(f"{type(obj).__name__}({name}=")
    for obj in values:  # equal, and hashing alike, when the fields are
        twin = type(obj)(*(getattr(obj, name) for name in obj._fields))
        assert twin == obj and hash(twin) == hash(obj)
    assert mk.Poly((1.0, 2.0)) != (1.0, 2.0)
    assert mk.MomentSequence((1, 0, 1)).support == mk.Support.line()
    for obj in by_identity:
        twin = type(obj)(*(getattr(obj, name) for name in obj._fields))
        assert twin != obj and obj == obj
    for arr in (f.values, by_identity[1].coeffs, by_identity[3].block_values,
                by_identity[4].block_mass):
        assert not arr.flags.writeable
    assert alg.indicators()[0] is alg.indicators()[0]  # cached_property still caches


def test_subspace_rejects_dependent_basis():
    g = ground(3)
    a = vec(g, [1, 0, 1])
    b = vec(g, [2, 0, 2])
    with pytest.raises(ValueError):
        mk.Subspace(g, [a, b])


def test_subspace_membership():
    g = ground(3)
    W = mk.Subspace(g, [ones(g), vec(g, [0, 1, 2])])
    assert W.contains(vec(g, [2, 3, 4]))
    assert not W.contains(vec(g, [0, 1, 0]))
    with pytest.raises(mk.NotInDomain):
        W.coefficients_of(vec(g, [0, 1, 0]))


def _lstsq_reference(W, f):
    """Least-squares coefficients of ``f`` and the sup-norm residual."""
    coeffs, *_ = np.linalg.lstsq(W.matrix, f.values, rcond=None)
    return coeffs, float(np.abs(W.matrix @ coeffs - f.values).max())


def _random_basis(rng, g, dim, near_dependent):
    """``dim`` random vectors; with ``near_dependent`` the last one is a
    combination of the others plus a perturbation of relative size between
    1e-9 and 1e-4, so the basis sits near the independence threshold."""
    vecs = rng.normal(size=(dim, g.size))
    if near_dependent and dim >= 2:
        vecs[-1] = rng.normal(size=dim - 1) @ vecs[:-1]
        vecs[-1] += 10.0 ** rng.uniform(-9, -4) * np.abs(vecs[-1]).max() * rng.normal(size=g.size)
    return [vec(g, v) for v in vecs]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.sampled_from(["member", "near", "random"]))
def test_membership_matches_lstsq_reference(seed, near_dependent, kind):
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(1, 9)))
    dim = int(rng.integers(0, g.size + 1))  # 0 is the empty subspace
    try:
        W = mk.Subspace(g, _random_basis(rng, g, dim, near_dependent))
    except ValueError:
        return  # dependent at the 1e-10 threshold
    truth = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
    f = W.member(truth) if dim else vec(g, np.zeros(g.size))
    if kind == "near":
        f = f + vec(g, 10.0 ** rng.uniform(-13, -7) * rng.normal(size=g.size))
    elif kind == "random":
        f = vec(g, rng.normal(size=g.size))
    ref, residual = _lstsq_reference(W, f)
    bound = INDEPENDENCE_TOL * max(1.0, np.abs(f.values).max())
    # The reference residual carries the rounding of W @ ref, which is large
    # when ref is large (a near-dependent basis and a vector off the span),
    # so the band around the 1e-10 rule is widened by that rounding error.
    rounding = 100 * g.size * np.finfo(float).eps * (
        np.abs(W.matrix).max(initial=0.0) * np.abs(ref).sum() + np.abs(f.values).max())
    if not bound / 2 - rounding <= residual <= 2 * bound + rounding:
        assert W.contains(f) == (residual <= bound)
    if kind == "member" and dim:
        # Two backward-stable solves of a consistent system differ by at most
        # a small multiple of eps * cond * |coefficients|.
        s = np.linalg.svd(W.matrix, compute_uv=False)
        tol = 100 * g.size * np.finfo(float).eps * (s[0] / s[-1]) * np.abs(ref).max()
        assert np.abs(W.coefficients_of(f) - ref).max() <= tol


# --- hull_contains ---------------------------------------------------------------

def test_hull_constant_dominates():
    g = ground(3)
    A = mk.Subspace(g, [ones(g)])
    assert mk.hull_contains(A, vec(g, [0.5, -0.5, 0.2]))


def test_hull_infeasible():
    g = ground(2)
    A = mk.Subspace(g, [vec(g, [0, 1])])
    assert not mk.hull_contains(A, vec(g, [1, 0]))


def test_hull_nonneg_basis_vector():
    g = ground(3)
    f = vec(g, [1, 0, 2])
    A = mk.Subspace(g, [f])
    assert mk.hull_contains(A, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hull_equals_hull_of_abs(seed):
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 9)))
    A = random_subspace_with_one(rng, g, int(rng.integers(1, 4)))
    f = vec(g, rng.normal(size=g.size))
    assert mk.hull_contains(A, f) == mk.hull_contains(A, f.abs())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_hull_agrees_with_bruteforce_witness(seed):
    # exhaustive coefficient search over [-M, M]^k at step M/50, k <= 2
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 9)))
    k = int(rng.integers(1, 3))
    basis = []
    while len(basis) < k:
        cand = vec(g, rng.normal(size=g.size))
        try:
            mk.Subspace(g, basis + [cand])
        except ValueError:
            continue
        basis.append(cand)
    A = mk.Subspace(g, basis)
    f = vec(g, rng.normal(size=g.size))

    M = 4.0
    axis = np.arange(-M, M + 1e-9, M / 50)
    if k == 1:
        combos = axis[:, None]
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        combos = np.column_stack([xx.ravel(), yy.ravel()])
    values = combos @ A.matrix.T  # candidates x points
    witness_found = bool(np.any(np.all(values >= np.abs(f.values)[None, :], axis=1)))
    if witness_found:
        assert mk.hull_contains(A, f)


# --- dominates -------------------------------------------------------------------

def test_dominates_plain():
    g = ground(2)
    B0 = mk.Subspace(g, [])
    assert mk.dominates(vec(g, [1, 1]), vec(g, [10, 10]), B0, 0.1)


def test_dominates_zero_f_infeasible():
    g = ground(2)
    B0 = mk.Subspace(g, [])
    assert not mk.dominates(vec(g, [1, 1]), vec(g, [0, 0]), B0, 0.5)


def test_dominates_with_constants_always():
    g = ground(3)
    B = mk.Subspace(g, [ones(g)])
    rng = np.random.default_rng(0)
    for _ in range(5):
        gv = vec(g, rng.normal(size=3))
        fv = vec(g, rng.normal(size=3))
        assert mk.dominates(gv, fv, B, 1e-6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_hull_and_dominates_match_the_lp(seed, with_one):
    # Constants in the span settle both questions with no LP; the answer must
    # be the LP's.  Without them each question is exactly one LP.
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(1, 9)))
    dim = int(rng.integers(1 if with_one else 0, g.size + 1))
    basis = rng.normal(size=(dim, g.size))
    if with_one:  # the constants, hidden in a random basis of the span
        basis[0] = 1.0
        basis = rng.normal(size=(dim, dim)) @ basis
    try:
        B = mk.Subspace(g, [vec(g, v) for v in basis])
    except ValueError:
        return
    gv, fv = (vec(g, rng.normal(size=g.size) * 10.0 ** rng.uniform(-2, 2)) for _ in range(2))
    eps = float(10.0 ** rng.uniform(-6, 0))
    expected_solves = 0 if B.contains(ones(g)) else 1
    with counters.collect() as stats:
        hull = mk.hull_contains(B, fv)
    assert stats["lp_solves"] == expected_solves
    assert hull == lp_feasible(a_ub=-B.matrix, b_ub=-np.abs(fv.values))
    with counters.collect() as stats:
        dom = mk.dominates(gv, fv, B, eps)
    assert stats["lp_solves"] == expected_solves
    deficit = np.abs(gv.values) - eps * np.abs(fv.values)
    assert dom == lp_feasible(a_ub=-B.matrix, b_ub=-deficit)


@pytest.mark.parametrize("g_values", [[1e-4, 2e-4], [1.0, 2.0]])
def test_probes_do_not_depend_on_units(g_values):
    # span{g} holds 1e10 * [1e-4, 2e-4], above [1e6, 1e6], and its negative,
    # below [-1e6, -1e6]; [1, 2] spans the same line in other units.  Each
    # probe's Farkas LP has the span's columns as rows with right-hand side
    # 0, so no equilibration weighs g against the targets.
    g = ground(2)
    W = mk.Subspace(g, [vec(g, g_values)])
    big = vec(g, [1e6, 1e6])
    assert mk.hull_contains(W, big)
    assert mk.dominates(big, vec(g, [1.0, 1.0]), W, 0.5)
    assert mk.in_cone_plus_subspace(vec(g, [-1e6, -1e6]), W)


def test_probes_band_each_row_by_its_own_scale():
    # Each probe asks for c1 >= 0.05 and -c1 >= 0.05, which miss by 0.1; the
    # third point's 1e8 plays no part in that conflict, so it must not
    # widen the band on the other two.
    g = ground(3)
    W = mk.Subspace(g, [vec(g, [1.0, -1.0, 0.0]), vec(g, [0.0, 0.0, 1.0])])
    f = vec(g, [0.05, 0.05, 1e8])
    assert not mk.hull_contains(W, f)
    assert not mk.dominates(f, vec(g, [0.0, 0.0, 0.0]), W, 0.5)
    assert not mk.in_cone_plus_subspace(vec(g, [-0.05, -0.05, 1e8]), W)


def test_dominates_requires_positive_eps():
    g = ground(1)
    with pytest.raises(ValueError):
        mk.dominates(vec(g, [1.0]), vec(g, [1.0]), mk.Subspace(g, []), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_dominates_monotone_in_eps(seed):
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 8)))
    B = random_subspace_with_one(rng, g, int(rng.integers(0, 3)) or 1)
    gv = vec(g, rng.normal(size=g.size))
    fv = vec(g, rng.normal(size=g.size))
    eps1, eps2 = sorted(rng.uniform(0.01, 2.0, 2))
    if mk.dominates(gv, fv, B, eps1):
        assert mk.dominates(gv, fv, B, eps2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_dominates_monotone_in_subspace(seed):
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(3, 8)))
    small = random_subspace_with_one(rng, g, 1)
    extra = vec(g, rng.normal(size=g.size))
    if small.contains(extra):
        return
    big = small.extended_by(extra)
    gv = vec(g, rng.normal(size=g.size))
    fv = vec(g, rng.normal(size=g.size))
    eps = float(rng.uniform(0.05, 1.0))
    if mk.dominates(gv, fv, small, eps):
        assert mk.dominates(gv, fv, big, eps)


# --- check_adapted ----------------------------------------------------------------

def test_adapted_constants_pass_all_eps():
    g = ground(2)
    A = mk.Subspace(g, [ones(g)])
    report = mk.check_adapted(A, A, candidates=[ones(g)])
    assert report.passed
    assert report.entries[0].witness_index == 0
    assert all(mk.dominates(ones(g), ones(g), A, eps) for eps in (1.0, 1e-3, ADAPTED_EPS))


def test_adapted_threshold_at_eps_one():
    # With h = 0 the only choice, |f| <= eps |f| + h holds exactly when
    # eps >= 1, so the check, asked at ADAPTED_EPS, finds no witness.
    g = ground(2)
    f = vec(g, [1, 1])
    A = mk.Subspace(g, [f])
    B0 = mk.Subspace(g, [])
    report = mk.check_adapted(A, B0, candidates=[f])
    assert not report.passed and report.entries[0].witness_index is None
    assert mk.dominates(f, f, B0, 1.0) and not mk.dominates(f, f, B0, 0.1)


def test_adapted_passing_candidate_costs_one_lp():
    g = ground(3)
    A = mk.Subspace(g, [ones(g), vec(g, [0, 1, 2])])
    B = mk.Subspace(g, [vec(g, [1, 2, 3])])  # no constants: one LP each
    with counters.collect() as stats:
        report = mk.check_adapted(A, B, candidates=[ones(g)])
    assert report.passed
    assert stats["lp_solves"] == A.dim
    # with the constants in the span the same report costs no LP
    with counters.collect() as stats:
        assert mk.check_adapted(A, A, candidates=[ones(g)]) == report
    assert stats["lp_solves"] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6),
       st.lists(st.floats(ADAPTED_EPS, 1e3), min_size=1, max_size=6))
def test_adapted_rows_match_every_eps(seed, eps_drawn):
    # Each target's row names the first candidate that dominates at
    # ADAPTED_EPS, asking each candidate once.  An h that works at one eps
    # works at every larger one, so the witness dominates at every drawn eps:
    # the theorem that lets the one eps stand for the whole range.  span(B)
    # lacks the constants, so every answer is an LP's.
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 7)))
    try:
        A = mk.Subspace(g, [vec(g, rng.normal(size=g.size)) for _ in range(rng.integers(1, 3))])
        B = mk.Subspace(g, [vec(g, rng.normal(size=g.size))
                            for _ in range(rng.integers(0, g.size))])
    except ValueError:
        return
    if B.contains(ones(g)):
        return
    candidates = [vec(g, rng.normal(size=g.size) * 10.0 ** rng.uniform(-1, 8))
                  for _ in range(rng.integers(1, 5))]
    with counters.collect() as stats:
        report = mk.check_adapted(A, B, candidates=candidates)
    asked = 0
    for gi, (entry, g_vec) in enumerate(zip(report.entries, A.basis)):
        first = next((ci for ci, f in enumerate(candidates)
                      if mk.dominates(g_vec, f, B, ADAPTED_EPS)), None)
        assert entry == (gi, first)
        asked += len(candidates) if first is None else first + 1
        if first is not None:
            assert all(mk.dominates(g_vec, candidates[first], B, eps) for eps in eps_drawn)
    assert stats["lp_solves"] == asked


def test_adapted_empty_domain_vacuous():
    g = ground(2)
    empty = mk.Subspace(g, [])
    report = mk.check_adapted(empty, empty, candidates=[ones(g)])
    assert report.passed and report.entries == ()


def test_adapted_requires_candidates():
    g = ground(2)
    A = mk.Subspace(g, [ones(g)])
    with pytest.raises(ValueError):
        mk.check_adapted(A, A, candidates=[])


def test_default_candidates_include_square_and_one():
    g = ground(3)
    ramp = vec(g, [0, 1, 2])
    sq = vec(g, [0, 1, 4])
    A = mk.Subspace(g, [ones(g), ramp, sq])  # closed under squaring the ramp
    cands = mk.default_candidates(A)
    values = [c.values.tolist() for c in cands]
    assert [0, 1, 4] in values  # square of the ramp is in the span
    assert [1, 1, 1] in values


# --- LPs over points: one copy of each row ------------------------------------

def test_rows_differing_in_the_sign_of_a_zero_merge():
    a = [[1.0, 0.0], [1.0, -0.0], [-0.0, 1.0], [0.0, 1.0]]
    b = [2.0, 1.0, 3.0, 3.0]
    assert _merge_copies(np.array(a), np.array(b)).tolist() == [1, 2]


def test_equal_copies_keep_the_first():
    a = [[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
    b = [3.0, 5.0, 2.0, 2.0]
    assert _merge_copies(np.array(a), np.array(b)).tolist() == [2, 1]


def test_rows_over_no_columns_count_as_distinct():
    assert _merge_copies(np.zeros((3, 0)), np.array([1.0, -1.0, 1.0])) is None


def _lexsort_merge(a_ub, b_ub):
    """Reference merge by a stable sort on every column, then the right-hand
    side: each group's first row and the row at its smallest right-hand
    side, in first-occurrence order, or None when no row repeats."""
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
    rows, ref = _merge_copies(a_ub, b_ub), _lexsort_merge(a_ub, b_ub)
    if ref is None:
        assert rows is None
    else:
        ref_a, ref_rows = ref
        assert rows.tolist() == ref_rows.tolist()
        assert np.array_equal(a_ub[rows], ref_a)  # == reads -0.0 as 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lps_over_points_get_one_copy_of_each_row(seed):
    # A block-constant span without the constants, over a partition with
    # fewer blocks than points: the rows of every LP over points repeat once
    # per point of their block.  hull_contains, dominates and
    # in_cone_plus_subspace each give the solver the helper's kept rows, and
    # decide as the full rows do.  verify_positive poses no rows over points
    # (its LP is the dual over measures, one column per point), and its worst
    # value is still the full-row primal's.
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(3, 10)))
    alg = random_partition(rng, g, int(rng.integers(2, g.size)))
    assign = np.empty(g.size, dtype=int)
    for b, block in enumerate(alg.blocks):
        assign[list(block)] = b
    levels = rng.normal(size=(int(rng.integers(1, alg.n_blocks)), alg.n_blocks))
    A = mk.Subspace(g, [vec(g, v[assign]) for v in levels])
    f, h = (vec(g, rng.normal(size=g.size)) for _ in range(2))
    posed = []

    def feasible(a_ub, b_ub):
        posed.append((a_ub, b_ub))
        return lp_feasible(a_ub, b_ub)

    L = density_functional(rng, A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspace, "lp_feasible", feasible)
        mp.setattr(extend, "lp_feasible", feasible)
        answers = [mk.hull_contains(A, f), mk.dominates(h, f, A, 0.5),
                   mk.in_cone_plus_subspace(f, A), mk.verify_positive(L)]
    deficit = np.abs(h.values) - 0.5 * np.abs(f.values)
    full = [(-A.matrix, -np.abs(f.values)), (-A.matrix, -deficit), (A.matrix, f.values),
            (-A.matrix, np.zeros(g.size))]
    assert len(posed) == len(full) - 1
    for (a_ub, b_ub), (a_full, b_full) in zip(posed, full):
        rows = _merge_copies(a_full, b_full)
        assert rows is not None and rows.size < b_full.size
        assert np.array_equal(a_ub, a_full[rows]) and np.array_equal(b_ub, b_full[rows])
    assert answers[:3] == [lp_feasible(a, b) for a, b in full[:3]]
    sol = solve_free(L.coeffs, a_ub=full[3][0], b_ub=full[3][1],
                     a_eq=A.matrix.sum(axis=0)[None, :], b_eq=[1.0])
    worst = float(sol.objective) if sol.optimal else 0.0
    assert answers[3][1] == pytest.approx(worst, rel=1e-9, abs=1e-9)

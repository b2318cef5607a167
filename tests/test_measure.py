import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import momentkit as mk
from momentkit import counters, extend, funcspace, measure
from momentkit.funcspace import _merge_copies
from momentkit.measure import TDecayEntry
from momentkit.tolerances import ADAPTED_EPS, MEASURABLE_TOL

from conftest import density_functional, ground, ones, random_partition, solve_free, vec


def counting_functional(g, domain=None):
    W = domain if domain is not None else mk.Subspace(g, [ones(g)])
    return mk.Functional(W, [float(v.values.sum()) for v in W.basis])


def full_simple_domain(g, alg):
    return mk.Subspace(g, alg.indicators())


# --- sigma algebra / simple functions ----------------------------------------------

def test_partition_validation():
    g = ground(3)
    with pytest.raises(ValueError):
        mk.SigmaAlgebra(g, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        mk.SigmaAlgebra(g, ((0,), (2,)))  # gap
    with pytest.raises(ValueError):
        mk.SigmaAlgebra(g, ((0, 1, 2), ()))  # empty block


def test_indicator_and_broadcast():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0, 2), (1,)))
    assert alg.indicator(0).values.tolist() == [1, 0, 1]
    phi = mk.SimpleFunction(alg, [5.0, -1.0])
    assert phi.as_vec().values.tolist() == [5, -1, 5]


def test_block_values_rejects_nonmeasurable():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2,)))
    with pytest.raises(mk.IntegralOfNonMeasurable):
        alg.block_values(vec(g, [0, 1, 2]))


def _block_values_loop(alg, f):
    """Reference: one block at a time.  Returns ``(values, None)``, or
    ``(None, message)`` naming the first block where ``f`` varies."""
    out = []
    for i, block in enumerate(alg.blocks):
        vals = f.values[list(block)]
        spread = vals.max() - vals.min()
        if spread > MEASURABLE_TOL * max(1.0, np.abs(vals).max()):
            return None, f"function is not constant on block {i} (spread {spread:.3e})"
        out.append(vals[0])
    return np.array(out), None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40), st.sampled_from(["constant", "near", "varies"]),
       st.sampled_from([1e-9, 1.0, 1e9]))
def test_block_values_matches_a_per_block_loop(seed, n, kind, scale):
    # Levels from 1e-12 to 1e12 reach both sides of the max(1, |value|)
    # floor, so the spread rule is met both as absolute and as relative.
    rng = np.random.default_rng(seed)
    g = ground(n)
    alg = random_partition(rng, g, int(rng.integers(1, n + 1)))
    values = np.empty(n)
    for level, block in zip(rng.normal(size=alg.n_blocks) * 10.0 ** rng.integers(-3, 4) * scale,
                            alg.blocks):
        values[list(block)] = level
    if kind == "near":  # spreads about the tolerance, on either side of it
        values += (rng.normal(size=n) * MEASURABLE_TOL * np.maximum(1.0, np.abs(values))
                   * rng.choice([0.1, 1.0, 10.0]))
    elif kind == "varies":  # one point moved in each of some blocks of two or more points
        for block in alg.blocks:
            if len(block) > 1 and rng.random() < 0.5:
                i = block[int(rng.integers(len(block)))]
                near = rng.random() < 0.75  # a spread about the tolerance, or far above it
                spread = MEASURABLE_TOL * max(1.0, abs(values[i]))
                values[i] += rng.choice([-1.0, 1.0]) * spread * (
                    rng.uniform(0.5, 2.0) if near else 1e6)
    f = vec(g, values)
    want, message = _block_values_loop(alg, f)
    assert alg.is_measurable(f) == (message is None)
    if message is None:
        assert np.array_equal(alg.block_values(f), want)
    else:
        with pytest.raises(mk.IntegralOfNonMeasurable) as info:
            alg.block_values(f)
        assert str(info.value) == message


def test_block_tolerance_scales_with_the_largest_magnitude():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0, 1),))
    # spread 1 <= MEASURABLE_TOL * 1e10, though > MEASURABLE_TOL * (1e10 - 1)
    f = vec(g, [-1e10, -1e10 + 1.0])
    assert alg.block_values(f).tolist() == [-1e10]
    assert not alg.is_measurable(vec(g, [-1e10, -1e10 + 2.0]))


# --- seminorm ------------------------------------------------------------------------

def test_seminorm_zero():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0,), (1,), (2,)))
    L = counting_functional(g, full_simple_domain(g, alg))
    assert mk.seminorm_rho(L, vec(g, [0, 0, 0])) == 0.0


def test_seminorm_counting():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0,), (1,), (2,)))
    L = counting_functional(g, full_simple_domain(g, alg))
    assert mk.seminorm_rho(L, vec(g, [1, -2, 3])) == pytest.approx(6.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_seminorm_triangle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = ground(n)
    alg = mk.SigmaAlgebra(g, tuple((i,) for i in range(n)))
    L = density_functional(rng, full_simple_domain(g, alg))
    f1 = vec(g, rng.normal(size=n))
    f2 = vec(g, rng.normal(size=n))
    lhs = mk.seminorm_rho(L, f1 + f2)
    rhs = mk.seminorm_rho(L, f1) + mk.seminorm_rho(L, f2)
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_seminorm_outside_domain():
    g = ground(2)
    L = mk.Functional(mk.Subspace(g, [vec(g, [1, 0])]), [1.0])
    with pytest.raises(mk.NotInDomain):
        mk.seminorm_rho(L, vec(g, [1, 1]))


# --- binned approximation -------------------------------------------------------------

def test_binning_example():
    g = ground(3)
    out = mk.approx_below(vec(g, [0.1, 0.5, 0.9]), mk.BinningSpec(0.0, 1.0, 2))
    assert out.as_vec().values.tolist() == [0.0, 0.5, 0.5]


def test_binning_constant_zero():
    g = ground(4)
    out = mk.approx_below(vec(g, [0, 0, 0, 0]), mk.BinningSpec(0.0, 1.0, 7))
    assert out.as_vec().values.tolist() == [0, 0, 0, 0]


def test_binning_exact_on_edges():
    g = ground(2)
    out = mk.approx_below(vec(g, [0.0, 0.5]), mk.BinningSpec(0.0, 1.0, 2))
    assert out.as_vec().values.tolist() == [0.0, 0.5]


def test_binning_offset_range():
    # nonzero left endpoint: the offset must appear in the values
    g = ground(3)
    out = mk.approx_below(vec(g, [-2.0, -1.2, -0.1]), mk.BinningSpec(-2.0, 0.0, 4))
    values = out.as_vec().values
    assert values[0] == -2.0
    assert np.all(values <= np.array([-2.0, -1.2, -0.1]) + 1e-15)


def test_binning_range_violation():
    g = ground(2)
    with pytest.raises(mk.RangeViolation):
        mk.approx_below(vec(g, [0.0, 1.0]), mk.BinningSpec(0.0, 1.0, 2))  # max f = b
    with pytest.raises(mk.RangeViolation):
        mk.approx_below(vec(g, [-0.5, 0.5]), mk.BinningSpec(0.0, 1.0, 2))  # min f < a


def test_binning_spec_validation():
    with pytest.raises(ValueError):
        mk.BinningSpec(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        mk.BinningSpec(0.0, 1.0, 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_binning_bounds_hold_pointwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    g = ground(n)
    f = rng.uniform(-5, 5, n)
    lo = f.min() - rng.uniform(0.0, 1.0)
    hi = f.max() + rng.uniform(1e-9, 1.0)
    nbins = int(rng.integers(1, 65))
    spec = mk.BinningSpec(lo, hi, nbins)
    out = mk.approx_below(vec(g, f), spec)
    gap = f - out.as_vec().values
    assert np.all(gap >= 0.0)
    assert np.all(gap < spec.width)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_binning_doubling_never_decreases(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    g = ground(n)
    f = rng.uniform(0, 1, n) * 0.999
    spec1 = mk.BinningSpec(0.0, 1.0, int(rng.integers(1, 32)))
    spec2 = mk.BinningSpec(0.0, 1.0, 2 * spec1.n)
    phi1 = mk.approx_below(vec(g, f), spec1).as_vec().values
    phi2 = mk.approx_below(vec(g, f), spec2).as_vec().values
    assert np.all(phi2 >= phi1 - 1e-12)


# --- measures and integration ----------------------------------------------------------

def test_build_measure_counting():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0,), (1, 2)))
    L = counting_functional(g, full_simple_domain(g, alg))
    mu = mk.build_measure(L, alg)
    assert mu.block_mass.tolist() == pytest.approx([1.0, 2.0], abs=1e-12)


def test_build_measure_zero():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    L = mk.Functional(full_simple_domain(g, alg), [0.0, 0.0])
    assert mk.build_measure(L, alg).total == 0.0


def test_build_measure_refinement_additivity():
    g = ground(4)
    coarse = mk.SigmaAlgebra(g, ((0, 1), (2, 3)))
    fine = mk.SigmaAlgebra(g, ((0,), (1,), (2, 3)))
    domain = mk.Subspace(g, fine.indicators())
    rng = np.random.default_rng(2)
    L = density_functional(rng, domain)
    mu_c = mk.build_measure(L, coarse)
    mu_f = mk.build_measure(L, fine)
    assert mu_c.block_mass[0] == pytest.approx(mu_f.block_mass[0] + mu_f.block_mass[1], abs=1e-12)


def test_build_measure_negative_mass():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    L = mk.Functional(full_simple_domain(g, alg), [1.0, -0.5])
    with pytest.raises(mk.NegativeMass):
        mk.build_measure(L, alg)


def test_integrate_examples():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0,), (1, 2)))
    mu = mk.Measure(alg, [1.0, 2.0])
    assert mk.integrate(ones(g), mu, alg) == pytest.approx(3.0)
    assert mk.integrate(alg.indicator(1), mu, alg) == pytest.approx(2.0)
    assert mk.integrate(vec(g, [2, 3, 3]), mu, alg) == pytest.approx(8.0)
    with pytest.raises(mk.IntegralOfNonMeasurable):
        mk.integrate(vec(g, [0, 1, 2]), mu, alg)


def test_integrate_is_sup_over_dominated_simple_functions():
    # finite case: the supremum is attained at the function itself; any
    # dominated simple function integrates to no more.
    rng = np.random.default_rng(9)
    g = ground(6)
    alg = random_partition(rng, g, 3)
    mu = mk.Measure(alg, rng.uniform(0, 2, alg.n_blocks))
    fb = rng.normal(size=alg.n_blocks)
    f = mk.SimpleFunction(alg, fb).as_vec()
    target = mk.integrate(f, mu, alg)
    for _ in range(20):
        phi = mk.SimpleFunction(alg, fb - np.abs(rng.normal(size=alg.n_blocks)))
        assert mk.integrate(phi.as_vec(), mu, alg) <= target + 1e-12


# --- density ---------------------------------------------------------------------------

def test_density_full_simple_space():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0,), (1,), (2,)))
    B = full_simple_domain(g, alg)
    L = counting_functional(g, B)
    report = mk.density_check(B, alg, L)
    assert report.dense
    assert report.distances == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)


def test_density_constants_fail_on_singletons():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    B = mk.Subspace(g, [ones(g)])
    domain = mk.Subspace(g, alg.indicators())
    L = counting_functional(g, domain)
    report = mk.density_check(B, alg, L)
    assert not report.dense
    assert report.distances == pytest.approx((1.0, 1.0), abs=1e-9)


def lp_distances(B, alg, Lbar):
    """Every block's seminorm distance by its own LP (the reference loop)."""
    M, N = Lbar.domain.matrix, B.matrix
    a_ub = np.block([[-M, -N], [-M, N]])
    c = np.concatenate([Lbar.coeffs, np.zeros(N.shape[1])])
    out = []
    for chi in alg.indicators():
        sol = solve_free(c, a_ub=a_ub, b_ub=np.concatenate([-chi.values, chi.values]))
        assert sol.optimal
        out.append(max(0.0, float(sol.objective)))
    return out


def independent(g, vectors):
    """Greedy independent subset of ``vectors``, in order."""
    W = mk.Subspace(g, [])
    for v in vectors:
        if not W.contains(v):
            W = W.extended_by(v)
    return W


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["indicators", "constants", "mix", "rough"]))
def test_density_span_shortcut_matches_lp(seed, variant):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    g = ground(n)
    alg = random_partition(rng, g, int(rng.integers(1, n + 1)))
    chis = alg.indicators()
    if variant == "indicators":
        vectors = chis
    elif variant == "constants":
        vectors = [ones(g)]
    else:
        keep = rng.random(alg.n_blocks) < 0.5
        vectors = [chi for chi, k in zip(chis, keep) if k] + [
            mk.SimpleFunction(alg, rng.normal(size=alg.n_blocks)).as_vec()
            for _ in range(int(rng.integers(0, 3)))]
        if variant == "rough":
            vectors.append(vec(g, rng.normal(size=n)))
    B = independent(g, vectors)
    domain = independent(g, [ones(g)] + chis + list(B.basis))
    Lbar = density_functional(rng, domain)
    with counters.collect() as stats:
        report = mk.density_check(B, alg, Lbar)
    if variant == "indicators":
        assert stats["lp_solves"] == 0
    tol = 1e-9 * max(1.0, Lbar(ones(g)))
    assert report.distances == pytest.approx(lp_distances(B, alg, Lbar), rel=0, abs=tol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["constants", "mix"]))
def test_density_lps_get_one_copy_of_each_row(seed, variant):
    # Block-constant B and domain, fewer blocks than points: the dual LP's
    # columns repeat, in its rows and in every block's cost, and solve_lp
    # gets one copy of each in its one call.  B spans at most two of the
    # three or more indicators, so the LP is solved.  The distances match
    # the per-block LPs over the full rows.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    g = ground(n)
    alg = random_partition(rng, g, int(rng.integers(3, n)))
    chis = alg.indicators()
    vectors = [ones(g)]
    if variant == "mix":
        vectors += [mk.SimpleFunction(alg, rng.normal(size=alg.n_blocks)).as_vec()]
    B = independent(g, vectors)
    Lbar = density_functional(rng, independent(g, [ones(g)] + chis + list(B.basis)))
    M, N = Lbar.domain.matrix, B.matrix
    a_full = np.block([[-M, -N], [-M, N]])
    c_full = np.concatenate([Lbar.coeffs, np.zeros(N.shape[1])])
    posed, real = [], measure.solve_lp

    def watched(c, *, a_eq, b_eq):
        posed.append((c, a_eq, b_eq))
        return real(c, a_eq=a_eq, b_eq=b_eq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "solve_lp", watched)
        report = mk.density_check(B, alg, Lbar)
    costs = np.array([np.concatenate([-chi.values, chi.values])
                      for chi in chis if not B.contains(chi)])
    assert len(posed) == 1 and len(costs) > 0
    c, a_eq, b_eq = posed[0]
    cols = _merge_copies(np.hstack([a_full, costs.T]), np.zeros(2 * n))
    assert cols is not None and cols.size < 2 * n
    assert np.array_equal(a_eq, a_full[cols].T) and np.array_equal(b_eq, -c_full)
    assert np.array_equal(c, costs[:, cols])
    tol = 1e-9 * max(1.0, Lbar(ones(g)))
    assert report.distances == pytest.approx(lp_distances(B, alg, Lbar), rel=0, abs=tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 24), st.integers(1, 8))
def test_density_of_the_constants_is_the_lighter_side(seed, n, n_blocks):
    # B = the constants, Lbar integration against a positive density w.  The
    # best constant c lies in [0, 1], where |chi_i - c| is 1 - c on block i
    # and c off it, so the distance is the least (1 - c) m_i + c (M - m_i),
    # min(m_i, M - m_i), with m_i the mass of block i and M the total.
    rng = np.random.default_rng(seed)
    g = ground(n)
    alg = random_partition(rng, g, n_blocks)
    w = rng.uniform(0.01, 2.0, n)
    domain = mk.Subspace(g, alg.indicators())
    Lbar = mk.Functional(domain, [float(w @ chi.values) for chi in domain.basis])
    report = mk.density_check(mk.Subspace(g, [ones(g)]), alg, Lbar)
    mass = np.array([w[list(block)].sum() for block in alg.blocks])
    total = mass.sum()
    want = np.minimum(mass, total - mass)
    assert np.abs(np.array(report.distances) - want).max() <= 1e-12 * total


def test_density_check_is_one_lp():
    # Two singletons and a pair: every indicator is outside the span of the
    # constants, and all three distances come from one solve.  With B the
    # indicators, every indicator is inside it and no LP runs.
    g = ground(4)
    alg = mk.SigmaAlgebra(g, ((0,), (1,), (2, 3)))
    domain = full_simple_domain(g, alg)
    Lbar = counting_functional(g, domain)
    with counters.collect() as stats:
        report = mk.density_check(mk.Subspace(g, [ones(g)]), alg, Lbar)
    assert stats["lp_solves"] == 1
    assert report.distances == pytest.approx((1.0, 1.0, 2.0), abs=1e-12)
    with counters.collect() as stats:
        report = mk.density_check(domain, alg, Lbar)
    assert stats["lp_solves"] == 0 and report.distances == (0.0, 0.0, 0.0)


def test_density_lp_without_variables_keeps_its_rows():
    # With an empty domain and B the LP has no variables: every row reads
    # 0 <= -chi or 0 <= chi, so it is infeasible.  Its dual has no
    # constraints, only each block's cost [-chi; chi] (a block's points,
    # equal in every cost, merge), and -chi drives it unbounded: read back
    # as the primal's status, infeasible.
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2,)))
    empty = mk.Subspace(g, [])
    with pytest.raises(mk.LpFailure, match="block 0 ended with status infeasible"):
        mk.density_check(empty, alg, mk.Functional(empty, []))


def test_density_degenerate_zero_functional():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    B = mk.Subspace(g, [ones(g)])
    domain = mk.Subspace(g, alg.indicators())
    L = mk.Functional(domain, [0.0, 0.0])
    report = mk.density_check(B, alg, L)
    assert report.dense  # the seminorm collapses


# --- gap and pipeline ---------------------------------------------------------------------

def test_gap_zero_on_represented_functions():
    g = ground(4)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2,), (3,)))
    domain = full_simple_domain(g, alg)
    rng = np.random.default_rng(4)
    L = density_functional(rng, domain)
    mu = mk.build_measure(L, alg)
    f = mk.SimpleFunction(alg, rng.normal(size=3)).as_vec()
    assert mk.gap_T(L, mu, alg, f) == pytest.approx(0.0, abs=1e-10)
    assert mk.gap_T(L, mu, alg, vec(g, [0, 0, 0, 0])) == 0.0
    assert mk.gap_T(L, mu, alg, alg.indicator(1)) == pytest.approx(0.0, abs=1e-12)


def test_pipeline_counting_on_full_space():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0,), (1,), (2,)))
    A = full_simple_domain(g, alg)
    L = counting_functional(g, A)
    mu, report = mk.represent_via_adapted(A, A, L, alg)
    assert mu.block_mass.tolist() == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert report.certified and report.max_residual <= 1e-12


def test_pipeline_zero_functional():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    A = mk.Subspace(g, [ones(g)])
    L = mk.Functional(A, [0.0])
    B = full_simple_domain(g, alg)
    mu, report = mk.represent_via_adapted(A, B, L, alg)
    assert mu.total == 0.0
    assert report.max_residual <= 1e-12


def test_pipeline_density_counterexample():
    g = ground(2)
    alg = mk.SigmaAlgebra(g, ((0,), (1,)))
    A = mk.Subspace(g, [ones(g)])
    L = mk.Functional(A, [2.0])  # counting
    B = mk.Subspace(g, [ones(g)])
    mu, report = mk.represent_via_adapted(A, B, L, alg)
    assert not report.density_ok and not report.certified
    assert report.density.distances == pytest.approx((1.0, 1.0), abs=1e-9)
    assert mu.block_mass.tolist() == pytest.approx([1.0, 1.0], abs=1e-9)  # still emitted
    assert "density hypothesis violated" in report.notes
    with pytest.raises(mk.DensityFailed):
        mk.represent_via_adapted(A, B, L, alg, mk.RepresentOptions(strict=True))


def test_pipeline_subspace_variant_with_witnesses():
    g = ground(4)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2, 3)))
    one = ones(g)
    block = vec(g, [0, 0, 1, 1])
    A = mk.Subspace(g, [one, block])
    rng = np.random.default_rng(6)
    L = density_functional(rng, A)
    B = full_simple_domain(g, alg)
    opts = mk.RepresentOptions(subspace_variant=True, witnesses={0: one, 1: one})
    mu, report = mk.represent_via_adapted(A, B, L, alg, opts)
    assert report.density_ok and report.max_residual <= 1e-9
    assert [e.target_index for e in report.t_decay] == [0, 1]  # one entry per target
    assert all(e.ok for e in report.t_decay)


def test_t_decay_nonmeasurable_witness_is_not_ok():
    g = ground(4)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2, 3)))
    A = mk.Subspace(g, [ones(g)])
    L = mk.Functional(A, [4.0])
    ramp = vec(g, [0, 1, 2, 3])  # not constant on the blocks: its gap is NaN
    opts = mk.RepresentOptions(subspace_variant=True, witnesses={0: ramp})
    _, report = mk.represent_via_adapted(A, full_simple_domain(g, alg), L, alg, opts)
    (entry,) = report.t_decay
    assert np.isnan(entry.t_witness) and not entry.ok


_GAPS = (st.floats() | st.floats(-1e-6, 1e-6)
         | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("nan")]))


@settings(max_examples=500, deadline=None)
@given(_GAPS, _GAPS)
@example(1e-8, 0.0)
@example(1.0000000000000002e-8, -0.0)
@example(2e-8, 1e-2)
@example(1e-8, -1e-300)
@example(float("nan"), 1.0)
@example(1.0, float("nan"))
@example(5e-324, -5e-324)
def test_t_decay_ends_decide_the_schedule(t_g, t_f):
    # The reference is the test on a 7-point eps schedule.  Its right-hand
    # side, rounding included, is monotone in eps, so the schedule's two
    # ends decide it, NaN, signed zeros and subnormals included.
    schedule = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    entry = TDecayEntry(0, t_g, t_f)
    assert entry.ok == all(t_g <= eps * t_f + 1e-8 for eps in schedule)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_gap_nonnegative_on_cone(seed):
    # for pointwise nonnegative block-constant f the integral never
    # overshoots the extended functional
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 9)))
    alg = random_partition(rng, g, int(rng.integers(1, 5)))
    A = mk.Subspace(g, [ones(g)])
    L = density_functional(rng, A)
    B = mk.Subspace(g, alg.indicators())
    mu, report = mk.represent_via_adapted(A, B, L, alg)
    Lt = L
    for step in report.trace.steps:
        Lt = mk.Functional(Lt.domain.extended_by(step.target), np.append(Lt.coeffs, step.chosen))
    assert np.array_equal(report.extended.coeffs, Lt.coeffs)  # the report's own functional
    f = mk.SimpleFunction(alg, np.abs(rng.normal(size=alg.n_blocks))).as_vec()
    assert mk.gap_T(Lt, mu, alg, f) >= -1e-9


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_positivity_audit_agrees_with_its_lp(seed, tol):
    # With the indicators designated, the extension's domain is the
    # block-constant functions and the audit is read off the indicator
    # values; verify_positive's LP over the same domain must agree.  Half
    # the draws give the indicator values outright, one of them sometimes
    # slightly negative (above the -1e-8 at which build_measure raises), so
    # ``ok`` is tested on both sides of tol; the rest extend integration
    # against a nonnegative weight, zero on some points, from the constants
    # and a few block-constant vectors.  Vertex values closer than about
    # 1e-9 are left out: the LP stops at reduced costs above -1e-9, so it
    # may stop at the wrong one of two such vertices (two dips of -2.8e-9
    # and -3.6e-9 gave -2.8e-9), while the vertex minimum is exact.
    rng = np.random.default_rng(seed)
    g = ground(int(rng.integers(2, 13)))
    alg = random_partition(rng, g, int(rng.integers(1, 6)))
    B = full_simple_domain(g, alg)
    if rng.random() < 0.5:
        values = rng.uniform(0.1, 2.0, alg.n_blocks)
        if rng.random() < 0.5:
            values[rng.integers(alg.n_blocks)] = -rng.uniform(0.0, 9e-9)
        A, L = B, mk.Functional(B, values)
    else:
        vectors = [ones(g)] + [mk.SimpleFunction(alg, rng.normal(size=alg.n_blocks)).as_vec()
                               for _ in range(int(rng.integers(0, alg.n_blocks)))]
        A = mk.Subspace(g, vectors)
        omega = rng.uniform(0.0, 2.0, g.size) * (rng.random(g.size) < 0.7)
        L = mk.Functional(A, [float(omega @ v.values) for v in A.basis])
    with counters.collect() as stats:
        mu, report = mk.represent_via_adapted(A, B, L, alg, mk.RepresentOptions(tol=tol))
    if A is B:
        assert stats["lp_solves"] == 0  # nothing to extend, no density LP, no audit LP
    Lt = report.extended
    assert Lt.domain.dim == alg.n_blocks
    ok, worst = mk.verify_positive(Lt, tol)
    band = 1e-12 * max(1.0, mu.total)
    assert abs(report.worst_positive_value - worst) <= band
    if abs(worst + tol) > band:
        assert report.positive_ok == ok


def test_pipeline_rejects_nonmeasurable_domain():
    g = ground(3)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2,)))
    A = mk.Subspace(g, [vec(g, [0, 1, 2])])
    L = mk.Functional(A, [1.0])
    with pytest.raises(mk.IntegralOfNonMeasurable):
        mk.represent_via_adapted(A, full_simple_domain(g, alg), L, alg)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_default_designated_trace_as_with_every_indicator_twice(seed, subspace_variant):
    # A designated basis of the indicator objects themselves makes the
    # target list B.basis + indicators hold every indicator twice; each
    # second copy is a basis vector of the grown span by then and is
    # skipped, so the trace is that list's trace.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    g = ground(n)
    alg = random_partition(rng, g, int(rng.integers(2, n + 1)))
    dim = int(rng.integers(1, alg.n_blocks + 1))
    A = mk.Subspace(g, [ones(g)] + [mk.SimpleFunction(alg, rng.normal(size=alg.n_blocks)).as_vec()
                                    for _ in range(dim - 1)])
    L = density_functional(rng, A)
    B = full_simple_domain(g, alg)
    targets = list(B.basis) + alg.indicators()
    if subspace_variant:
        _, want = mk.hb_extend(L, targets)
    else:
        _, want = mk.extend_to_hull(L, A, targets)
    _, report = mk.represent_via_adapted(A, B, L, alg,
                                         mk.RepresentOptions(subspace_variant=subspace_variant))
    got = report.trace.steps
    assert len(got) == len(want.steps) == alg.n_blocks - dim
    for a, b in zip(got, want.steps):
        assert a.target is b.target and a.target_index == b.target_index
        assert (a.interval_lo, a.interval_hi, a.chosen) == (b.interval_lo, b.interval_hi, b.chosen)


def test_pipeline_projects_no_target_before_the_chain(monkeypatch):
    # span(A) holds the constants, so the hull needs no LP and no target is
    # projected onto span(A) to filter it: hb_extend's membership test is
    # each target's one projection up to the end of the chain.
    g = ground(5)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2,), (3, 4)))
    A = mk.Subspace(g, [ones(g), vec(g, [0, 0, 1, 2, 2])])
    B = mk.Subspace(g, [vec(g, [1, 1, 0, 0, 0]), vec(g, [0, 0, 1, 0, 0])])
    projected, chain = [], []
    real_coefficients, real_hb_extend = mk.Subspace.coefficients_of, extend.hb_extend

    def counted(self, f):
        projected.append(f)
        return real_coefficients(self, f)

    def watched(L, targets, rule):
        start = len(projected)
        out = real_hb_extend(L, targets, rule)
        chain.append((list(targets), start, len(projected)))
        return out

    monkeypatch.setattr(mk.Subspace, "coefficients_of", counted)
    monkeypatch.setattr(extend, "hb_extend", watched)
    mk.represent_via_adapted(A, B, counting_functional(g, A), alg)
    ((targets, start, stop),) = chain
    assert [id(t) for t in targets] == [id(t) for t in list(B.basis) + alg.indicators()]
    assert not {id(t) for t in targets} & {id(f) for f in projected[:start]}
    assert [id(f) for f in projected[start:stop]] == [id(t) for t in targets]


@pytest.mark.parametrize("designated, built", [("indicators", 0), ("constants", 0), ("pair", 1)])
def test_candidates_are_built_only_without_the_constants_in_b(monkeypatch, designated, built):
    # With the constants in span(B), dominates() says yes to the first
    # candidate, so every witness is basis vector 0 and the squares and the
    # constant are never built.  B=None stands for the indicators, whose
    # sum is 1.
    g = ground(4)
    alg = mk.SigmaAlgebra(g, ((0, 1), (2,), (3,)))
    A = mk.Subspace(g, [ones(g), vec(g, [0, 0, 1, 2])])
    B = {"indicators": None, "constants": mk.Subspace(g, [ones(g)]),
         "pair": mk.Subspace(g, [vec(g, [1, 1, 0, 0]), vec(g, [0, 0, 1, 0])])}[designated]
    calls, real = [], funcspace.default_candidates

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(funcspace, "default_candidates", counted)
    monkeypatch.setattr(measure, "default_candidates", counted)
    _, report = mk.represent_via_adapted(A, B, counting_functional(g, A), alg)
    assert len(calls) == built
    if not built:
        assert [e.witness_index for e in report.adaptedness.entries] == [0, 0]


def reference_pipeline(A, B, L, alg):
    """The report fields the long way (the reference): every target filtered
    by a projection onto L's span, the hull asked target by target, every
    candidate built and every witness's gap computed.  Returns the pending
    targets, the trace, the masses, the residuals, the witness indices, the
    t_decay triples and the density report of the extension."""
    indicators = alg.indicators()
    if B is None:
        B, targets = mk.Subspace(alg.ground, indicators), indicators
    else:
        targets = list(B.basis) + indicators
    pending = [t for t in targets if not L.domain.contains(t)]
    for idx, h in enumerate(pending):
        if not mk.hull_contains(A, h):
            raise mk.HullMembershipFailed(f"hull target {idx} is not dominated by the span")
    Lt, trace = mk.hb_extend(L, pending)
    mu = mk.build_measure(Lt, alg)
    residuals = [mk.gap_T(Lt, mu, alg, g) for g in A.basis]
    candidates = mk.default_candidates(A)
    witnesses = [next((ci for ci, f in enumerate(candidates)
                       if mk.dominates(g, f, B, ADAPTED_EPS)), None) for g in A.basis]
    t_decay = [(gi, residuals[gi], mk.gap_T(Lt, mu, alg, candidates[w])
                if alg.is_measurable(candidates[w]) else float("nan"))
               for gi, w in enumerate(witnesses) if w is not None]
    return (pending, trace, mu.block_mass, residuals, witnesses, t_decay,
            mk.density_check(B, alg, Lt))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.sampled_from(["none", "with", "without"]))
@example(534, True, "without")  # witness: basis vector 1 of g_2
@example(2332, True, "without")  # witnesses: a square, basis vector 2
@example(2654, True, "without")  # witnesses: a square, basis vector 1
def test_pipeline_matches_the_reference_built_the_long_way(seed, a_constants, designated):
    # With and without the constants in A and in B (B=None: the indicators),
    # every field the shortcuts touch equals the reference's bit for bit, or
    # both raise the same error.  Mixed scales make witnesses other than
    # basis vector 0.  The trace's indices count all targets, the
    # reference's the pending ones.  (density_check itself is checked
    # against lp_distances above.)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    g = ground(n)
    alg = random_partition(rng, g, int(rng.integers(1, n + 1)))

    def simple():
        levels = rng.normal(size=alg.n_blocks)
        return mk.SimpleFunction(alg, levels * 10.0 ** rng.integers(-3, 4)).as_vec()

    A = independent(g, [ones(g)] * a_constants + [simple() for _ in range(rng.integers(0, 3))])
    B = None if designated == "none" else independent(
        g, [ones(g)] * (designated == "with") + [simple() for _ in range(rng.integers(1, 3))])
    L = density_functional(rng, A)
    try:
        want = reference_pipeline(A, B, L, alg)
    except mk.MomentkitError as exc:
        with pytest.raises(type(exc), match=f"^{exc}$"):
            mk.represent_via_adapted(A, B, L, alg)
        return
    pending, trace, masses, residuals, witnesses, t_decay, density = want
    mu, report = mk.represent_via_adapted(A, B, L, alg)
    targets = alg.indicators() if B is None else list(B.basis) + alg.indicators()
    assert len(report.trace.steps) == len(trace.steps)
    for a, b in zip(report.trace.steps, trace.steps):
        assert a.target is b.target is targets[a.target_index] is pending[b.target_index]
        assert (a.interval_lo, a.interval_hi, a.chosen) == (b.interval_lo, b.interval_hi, b.chosen)
    assert np.array_equal(mu.block_mass, masses)
    assert list(report.residuals) == residuals
    assert [e.witness_index for e in report.adaptedness.entries] == witnesses
    assert [tuple(e) for e in report.t_decay] == t_decay
    assert report.density == density

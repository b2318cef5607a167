import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import momentkit as mk
from momentkit import counters
from momentkit import moments as moments_mod

from conftest import atomic_moments, reference_scaled_symmetric
from test_acceptance import _known_measure


def seq(*moments, support=None):
    return mk.MomentSequence(tuple(moments), support or mk.Support.line())


# --- types -------------------------------------------------------------------------

def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        mk.MomentSequence((1.0, 0.0))  # even count
    with pytest.raises(ValueError):
        mk.MomentSequence(())
    with pytest.raises(ValueError):
        mk.MomentSequence((1.0, np.inf, 1.0))


def test_support_validation():
    with pytest.raises(ValueError):
        mk.Support("interval", 1.0, 1.0)
    with pytest.raises(ValueError):
        mk.Support("line", 0.0, 1.0)
    assert mk.Support.interval(-1, 1).contains(0.5)
    assert not mk.Support.halfline().contains(-0.1)


def test_poly_trims_and_evaluates():
    p = mk.Poly((1.0, 2.0, 0.0))
    assert p.degree == 1
    assert p(2.0) == pytest.approx(5.0)
    assert mk.Poly((0.0,)).degree == 0


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        mk.AtomicMeasure((0.0, 0.0), (1.0, 1.0))  # not strictly increasing
    with pytest.raises(ValueError):
        mk.AtomicMeasure((0.0,), (0.0,))  # zero weight
    mu = mk.AtomicMeasure((-1.0, 1.0), (0.5, 0.5))
    assert mu.moments_to(2) == pytest.approx((1.0, 0.0, 1.0))


# --- riesz -------------------------------------------------------------------------

def test_riesz_constant():
    assert mk.riesz(seq(1, 0, 2), mk.Poly((1.0,))) == 1.0


def test_riesz_reads_m2():
    assert mk.riesz(seq(1, 0, 2), mk.Poly((0, 0, 1))) == 2.0


def test_riesz_expanded_square():
    # (x - 1)^2 = 1 - 2x + x^2
    assert mk.riesz(seq(1, 0, 2), mk.Poly((1, -2, 1))) == pytest.approx(3.0)


def test_riesz_degree_cap():
    with pytest.raises(mk.DegreeTooHigh):
        mk.riesz(seq(1, 0, 2), mk.Poly((0, 0, 0, 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_riesz_is_linear(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    m = seq(*rng.normal(size=2 * d + 1))
    p = mk.Poly(tuple(rng.normal(size=d)))
    q = mk.Poly(tuple(rng.normal(size=d)))
    lhs = mk.riesz(m, mk.Poly(tuple(np.polynomial.polynomial.polyadd(p.coeffs, q.coeffs))))
    assert lhs == pytest.approx(mk.riesz(m, p) + mk.riesz(m, q), rel=1e-12, abs=1e-12)


# --- hankel / psd ---------------------------------------------------------------------

def test_hankel_plain():
    H = mk.hankel(seq(1, 0, 1), 2)
    assert H.matrix.tolist() == [[1, 0], [0, 1]]


def test_hankel_shifted_by_x():
    H = mk.hankel(seq(1, 1, 1, 1, 1), 2, mk.Poly.x())
    assert H.matrix.tolist() == [[1, 1], [1, 1]]  # entries m_{i+j+1}


def test_hankel_size_one():
    assert mk.hankel(seq(7, 0, 1), 1).matrix.tolist() == [[7]]


def test_hankel_degree_cap():
    with pytest.raises(mk.DegreeTooHigh):
        mk.hankel(seq(1, 0, 1), 3)
    with pytest.raises(mk.DegreeTooHigh):
        mk.hankel(seq(1, 0, 1), 2, mk.Poly.x())


def test_psd_examples():
    ok, lam = mk.psd(np.eye(3))
    assert ok and lam == pytest.approx(1.0)
    ok, lam = mk.psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not ok and lam == pytest.approx(-1.0)
    ok, lam = mk.psd(np.zeros((2, 2)))
    assert ok and lam == 0.0


# --- certificates ------------------------------------------------------------------------

def test_certificate_representable_line():
    cert = mk.positivity_certificate(seq(1, 0, 1))
    assert cert.verdict == "representable"


def test_certificate_negative_variance():
    cert = mk.positivity_certificate(seq(1, 0, -1))
    assert cert.verdict == "not-representable"
    w = cert.witnesses[0]
    assert w.lambda_min == pytest.approx(-1.0)
    assert w.witness is not None
    assert mk.riesz(seq(1, 0, -1), w.witness) == pytest.approx(-1.0)
    # witness is a square, hence nonnegative everywhere
    xs = np.linspace(-3, 3, 50)
    assert np.all(w.witness(xs) >= -1e-12)


def test_certificate_diagonalises_each_matrix_once(monkeypatch):
    # the witness comes from the eigenvector of the call that gave lambda_min
    calls = []
    kernel = mk.eig._jacobi_kernel

    def counting(a, *args):
        calls.append(len(a))
        return kernel(a, *args)

    monkeypatch.setattr(mk.eig, "_jacobi_kernel", counting)
    cert = mk.positivity_certificate(seq(1, 0, -1))
    assert cert.verdict == "not-representable" and cert.witnesses[0].witness is not None
    assert calls == [2]


def test_certificate_negative_mean_on_halfline():
    cert = mk.positivity_certificate(mk.MomentSequence((1, -1, 1), mk.Support.halfline()))
    assert cert.verdict == "not-representable"
    failing = [w for w in cert.witnesses if w.lambda_min < 0]
    assert failing and failing[0].witness is not None
    # the witness is x * q(x)^2: nonnegative on the halfline
    xs = np.linspace(0, 5, 50)
    assert np.all(failing[0].witness(xs) >= -1e-12)


def test_certificate_interval_localizing():
    atoms, weights = (-0.5, 0.1, 0.6), (1.0, 0.5, 0.7)
    m = mk.MomentSequence(atomic_moments(atoms, weights, 4), mk.Support.interval(-1, 1))
    assert mk.positivity_certificate(m).verdict == "representable"
    # same moments but declared on [0, 1]: the localizing matrix objects
    m_bad = mk.MomentSequence(atomic_moments(atoms, weights, 4), mk.Support.interval(0, 1))
    assert mk.positivity_certificate(m_bad).verdict == "not-representable"


def test_certificate_boundary_inconclusive():
    cert = mk.positivity_certificate(seq(1, 1, 1))  # flat rank-1 data
    assert cert.verdict == "inconclusive"
    assert cert.notes


# --- grid check ---------------------------------------------------------------------------

def test_grid_check_failure_ships_witness():
    m = seq(1, 0, -1)
    ok, worst = mk.haviland_grid_check(m, np.linspace(-1, 1, 200), 1e-7)
    assert not ok
    grid_vals = worst(np.linspace(-1, 1, 200))
    assert np.all(grid_vals >= -1e-12)
    assert mk.riesz(m, worst) < -1e-7


def test_grid_check_passes_on_identity_hankel():
    assert mk.haviland_grid_check(seq(1, 0, 1), np.linspace(-1, 1, 200), 1e-7)[0]


def test_grid_check_dirac_at_zero():
    assert mk.haviland_grid_check(seq(1, 0, 0), [0.0], 1e-7)[0]


@pytest.mark.parametrize("moments, a, grid, coeffs", [
    ((1, 0.5, 0.3, 0.2, 0.2), 0.0, [0.0, 1.0], (0.0, -0.5, 0.0, 0.5)),
    ((1, 0.1, 0.5, 0.2, 0.4), -1.0, [-1.0, 0.0, 1.0], (0.0, 0.0, -0.5, 0.0, 0.5)),
])
def test_grid_lp_gets_one_copy_of_each_power(moments, a, grid, coeffs):
    # On points in {-1, 0, 1} the powers >= 1 of one parity give equal rows.
    # The LP is given one copy of each, and the witness reads the kept copy's
    # multiplier; over the full rows the first witness would be
    # (0, -0.5, 0, 0, 0.5), as good a witness and another output.
    m = mk.MomentSequence(moments, mk.Support.interval(a, 1.0))
    posed, real = [], moments_mod.solve_lp

    def watched(c, a_ub, b_ub, **kw):
        posed.append(b_ub.size)
        return real(c, a_ub=a_ub, b_ub=b_ub, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments_mod, "solve_lp", watched)
        ok, witness = mk.haviland_grid_check(m, grid, 1e-7)
    assert posed == [2 * len(grid)]  # of 10 rows: each distinct row once
    assert not ok and witness.coeffs == coeffs


def test_grid_check_validates_grid():
    with pytest.raises(ValueError):
        mk.haviland_grid_check(seq(1, 0, 1), [], 1e-7)
    m = mk.MomentSequence((1, 0, 1), mk.Support.interval(-1, 1))
    with pytest.raises(ValueError):
        mk.haviland_grid_check(m, [2.0], 1e-7)


def test_grid_check_regression_negative_optimum():
    # Seed 901, block 9, file 46 of the moment-check workload generator.  The
    # LP in free coefficients with bound rows stopped at +2.08e-5, a "pass"
    # that cannot be optimal since c = 0 is feasible; HiGHS gives -4.42294260e-7.
    m = mk.MomentSequence((5.693970482753998, 1.5833605487411957, 1.5892007281602045,
                           0.5209198043550766, 0.6687372456551537, 0.26369583193272583,
                           0.35078449838029335, 0.16020046602839486, 0.2033151483195303,
                           0.10358905298949096, 0.12306727971771826), mk.Support.interval(-1, 1))
    with counters.collect() as stats:
        ok, witness = mk.haviland_grid_check(m, np.linspace(-1, 1, 200), 1e-7)
    assert not ok
    assert mk.riesz(m, witness) == pytest.approx(-4.42294260e-7, rel=1e-6)
    assert stats == {"lp_solves": 1, "lp_iterations": 79, "eig_calls": 0, "eig_sweeps": 0,
                     "chol_calls": 0}


def _highs_grid_minimum(m, grid):
    """HiGHS on the whole grid, in free coefficients c and bounds u >= |c|,
    at its tightest feasibility tolerances (1e-10).  Its optimum may still
    sit about m_0 * 1e-10 below the true one."""
    from scipy.optimize import linprog

    n = m.max_degree + 1
    vander, eye = np.vander(grid, n, increasing=True), np.eye(n)
    ref = linprog(np.r_[m.array(), np.zeros(n)],
                  A_ub=np.block([[-vander, np.zeros((grid.size, n))], [eye, -eye], [-eye, -eye],
                                 [np.zeros((1, n)), np.ones((1, n))]]),
                  b_ub=np.r_[np.zeros(grid.size + 2 * n), 1.0], bounds=(None, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    return ref.fun


def _full_grid_sequences():
    """60 interval sequences, d = 1..6: measures on [-0.9, 0.9], the same with
    m_2 forced negative, and measures with atoms out to +-1.15 (outside the
    support, so the minimum is often just below zero)."""
    rng = np.random.default_rng(61)
    for i in range(60):
        d, kind = 1 + i % 6, (i // 6) % 3
        reach = 1.15 if kind == 2 else 0.9
        atoms = np.sort(rng.uniform(-reach, reach, d + 1))
        mom = list(atomic_moments(atoms, rng.uniform(0.2, 2.0, d + 1), 2 * d))
        if kind == 1:
            mom[2] = -abs(mom[2]) - 0.3
        yield mk.MomentSequence(tuple(mom), mk.Support.interval(-1, 1))


def test_grid_check_matches_reference_on_full_grid():
    # The reference is HiGHS on the whole grid; the absolute 1e-8 allows for
    # its tolerances.
    grid = np.linspace(-1.0, 1.0, 200)
    for i, m in enumerate(_full_grid_sequences()):
        ok, witness = mk.haviland_grid_check(m, grid, 1e-7)
        value = mk.riesz(m, witness)
        assert value == pytest.approx(_highs_grid_minimum(m, grid), rel=1e-6, abs=1e-8), i
        assert ok == (value >= -1e-7)
        assert np.abs(witness.coeffs).sum() <= 1 + 1e-9
        assert witness(grid).min() >= -1e-9


def test_grid_check_is_scale_free():
    # The LP is posed in m / |m|_inf, so scaling m scales the witness value
    # and nothing else; at 1e12 the LP in m itself ended infeasible.
    grid = np.linspace(-1.0, 1.0, 200)
    for i, m in enumerate(_full_grid_sequences()):
        ref = _highs_grid_minimum(m, grid)
        for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
            scaled = mk.MomentSequence(tuple(scale * x for x in m.moments), m.support)
            _, witness = mk.haviland_grid_check(scaled, grid, 1e-7)
            assert mk.riesz(scaled, witness) / scale == pytest.approx(ref, rel=0, abs=1e-6), \
                (i, scale)


def test_grid_lp_starts_at_a_feasible_vertex(monkeypatch):
    # Every right-hand side lies in [0, 2], so the slack basis is feasible
    # and solve_lp needs no phase 1, at any scale and sign of the moments.
    seen, solve = [], moments_mod.solve_lp

    def spy(c, a_ub=None, b_ub=None, **kwargs):
        seen.append(np.array(b_ub))
        return solve(c, a_ub=a_ub, b_ub=b_ub, **kwargs)

    monkeypatch.setattr(moments_mod, "solve_lp", spy)
    grid = np.linspace(-1.0, 1.0, 200)
    cases = [*_full_grid_sequences(), seq(0, 0, 0, support=mk.Support.interval(-1, 1)),
             seq(-1, 0.5, -2, support=mk.Support.interval(-1, 1))]
    for m in cases:
        for scale in (1e-12, 1.0, 1e12):
            mk.haviland_grid_check(mk.MomentSequence(tuple(scale * x for x in m.moments),
                                                     m.support), grid, 1e-7)
    assert len(seen) >= 3 * len(cases)
    assert all(b.min() >= 0.0 and b.max() <= 2.0 for b in seen)


@pytest.mark.parametrize("moments", [
    # Moment-check inputs with one atom near 0 (seeds 13003 and 14002 of the
    # workload generator).  The LP from the slack basis pivots on an element
    # near 1e-8 on the way; the rounding it leaves made the last basis
    # primal infeasible, and the witness came out up to 1e-5 above the
    # minimum (the second one reading "passed").
    (0.6233510758706936, -0.019652161583888973, 0.0006195665169580866,
     -1.9532847178005562e-05, 6.158049352836964e-07, -1.9414257167115058e-08,
     6.120661913455393e-10, -1.9296387153189406e-11, 6.083501464885915e-13,
     -1.9179232764902334e-14, 6.046566628996471e-16, -1.906278965746727e-17,
     6.009856036022077e-19),
    (1.6707763418842592, -0.008661417555668223, 4.490137440480626e-05,
     -2.327717617217505e-07, 1.2067045557796482e-09, -6.2556380300115015e-12,
     3.242965063411272e-14, -1.6811750219644247e-16, 8.715325016496014e-19,
     -4.5180834327651906e-21, 2.3422050086244916e-23),
])
def test_grid_check_one_atom_near_zero(moments):
    m = mk.MomentSequence(moments, mk.Support.interval(-1, 1))
    grid = np.linspace(-1.0, 1.0, 200)
    ok, witness = mk.haviland_grid_check(m, grid, 1e-7)
    value = mk.riesz(m, witness)
    assert value == pytest.approx(_highs_grid_minimum(m, grid), rel=1e-6, abs=1e-8)
    assert not ok
    assert witness(grid).min() >= -1e-9


def test_grid_check_beyond_the_lp_size_cap():
    # 2,000 grid points are four times the simplex's 500-column cap: column
    # generation keeps the LP small, and the witness is still grid-nonnegative,
    # normalized and optimal on the whole grid.
    rng = np.random.default_rng(2000)
    grid = np.linspace(-1.0, 1.0, 2000)
    for i in range(18):
        d, kind = 1 + i % 6, i // 6
        reach = 1.15 if kind == 2 else 0.9
        atoms = np.sort(rng.uniform(-reach, reach, d + 1))
        mom = list(atomic_moments(atoms, rng.uniform(0.2, 2.0, d + 1), 2 * d))
        if kind == 1:
            mom[2] = -abs(mom[2]) - 0.3
        m = mk.MomentSequence(tuple(mom), mk.Support.interval(-1, 1))
        ok, witness = mk.haviland_grid_check(m, grid, 1e-7)
        assert witness(grid).min() >= -1e-12
        assert np.abs(witness.coeffs).sum() <= 1 + 1e-9
        value = mk.riesz(m, witness)
        assert value == pytest.approx(_highs_grid_minimum(m, grid), rel=1e-6, abs=1e-8), i
        assert ok == (value >= -1e-7)


def test_grid_check_at_high_degree_keeps_the_lp_under_the_cap():
    # At d = 61 the distance LP has room for 253 grid columns beside t and
    # its 246 slack columns, so column generation must drop zero-weight
    # points before it adds new ones.
    rng = np.random.default_rng(61)
    d = 61
    atoms = np.sort(rng.uniform(-1.1, 1.1, 5))
    m = mk.MomentSequence(atomic_moments(atoms, rng.uniform(0.2, 2.0, 5), 2 * d),
                          mk.Support.interval(-1, 1))
    grid = np.linspace(-1.0, 1.0, 1000)
    with counters.collect() as stats:
        ok, witness = mk.haviland_grid_check(m, grid, 1e-7)
    assert stats["lp_solves"] > 1
    assert witness(grid).min() >= -1e-12
    assert np.abs(witness.coeffs).sum() <= 1 + 1e-9
    assert ok == (mk.riesz(m, witness) >= -1e-7)


# --- atom recovery --------------------------------------------------------------------------

def test_recover_symmetric_pair():
    mu = mk.recover_atoms(seq(1, 0, 1, 0, 1))
    assert mu.atoms == pytest.approx((-1.0, 1.0), abs=1e-9)
    assert mu.weights == pytest.approx((0.5, 0.5), abs=1e-9)


def test_recover_geometric_single_atom():
    mu = mk.recover_atoms(seq(1, 2, 4, 8, 16))
    assert mu.atoms == pytest.approx((2.0,), abs=1e-9)
    assert mu.weights == pytest.approx((1.0,), abs=1e-9)


def test_recover_dirac_zero():
    mu = mk.recover_atoms(seq(1, 0, 0))
    assert mu.atoms == pytest.approx((0.0,), abs=1e-12)
    assert mu.weights == pytest.approx((1.0,), abs=1e-12)


def test_recover_zero_sequence():
    mu = mk.recover_atoms(seq(0, 0, 0))
    assert mu.n_atoms == 0


def test_recover_rejects_non_psd():
    with pytest.raises(mk.NotPSD):
        mk.recover_atoms(seq(1, 0, -1))


@pytest.mark.parametrize("size", [1e150, 1e154, 1e300])
def test_gate_norm_does_not_overflow(size):
    # H = diag(s, -s): ||H||_F^2 overflows from s ~ 1.3e154, which made the
    # threshold -inf and let the gate pass an indefinite matrix.
    m = seq(size, 0, -size)
    with pytest.raises(mk.NotPSD, match="scaled smallest eigenvalue -7.071e-01"):
        mk.recover_atoms(m)
    assert mk.extend_search(m) is None
    assert mk.recover_atoms(seq(size, 0, size)).weights == (size,)


@pytest.mark.parametrize("moments", [
    (1, 1e300, 1),                   # pivot 1 - 1e600 overflows
    (1e-300, 1e300, 1e-300, 0, 1),   # the scaled copy overflows
    (1, 0, 1, 1e300, 1e-300),
])
def test_gate_factor_is_quiet_on_overflow(moments):
    # The gate factors every support matrix, failing ones included; their
    # overflow must neither warn nor pass them.
    m = seq(*moments)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mk.NotPSD, match="scaled smallest eigenvalue -7.071e-01"):
            mk.recover_atoms(m)
        assert mk.extend_search(m) is None


def _gate_rule(m, tol):
    """The support gate as the Jacobi sweep alone decides it, for matrices
    whose squared entries stay finite."""
    for H in moments_mod._support_matrices(m):
        M = np.array(H.matrix)
        scale = max(1.0, float(np.sqrt(np.sum(M * M))))
        lam = mk.lambda_min(M)
        if lam < -tol * scale:
            return f"{H.label} matrix has scaled smallest eigenvalue {lam / scale:.3e}"
    return None


def _near_gate_threshold(rng, kind, d, tol, log_scale, ratio, localized):
    """Moments of a measure with at most d + 1 atoms, scaled to sup norm
    10^log_scale, with one moment moved so that the Hankel (or localizing)
    matrix has lambda_min near ``-ratio * tol * max(1, ||H||_F)`` (for tol 0,
    near ``+-ratio * 1e-13`` of that), by Newton steps on the moved moment;
    returns the sequence and the ratio reached."""
    support = {"line": mk.Support.line(), "halfline": mk.Support.halfline(),
               "interval": mk.Support.interval(-1.0, 2.0)}[kind]
    lo, hi = {"line": (-2.0, 2.0), "halfline": (0.0, 2.0), "interval": (-1.0, 2.0)}[kind]
    n_atoms = int(rng.integers(1, d + 2))
    atoms = rng.uniform(lo, hi, n_atoms)
    mom = np.array(atomic_moments(atoms, rng.uniform(0.2, 2.0, n_atoms), 2 * d))
    size = 10.0**log_scale
    mom *= size / np.abs(mom).max()
    # The moved moment enters the target matrix only in its last diagonal
    # entry, with this sign.
    which = int(localized and kind != "line")
    j, sign = {0: (2 * d, 1.0), 1: (2 * d - 1, 1.0) if kind == "halfline" else (2 * d, -1.0)}[which]
    aim = -ratio * tol if tol else ratio * 1e-13 * rng.choice([-1.0, 1.0])
    for _ in range(40):
        m = mk.MomentSequence(tuple(mom), support)
        M = moments_mod._support_matrices(m)[which].matrix
        w, V = np.linalg.eigh(M)
        scale = max(1.0, float(np.linalg.norm(M)))
        gap = w[0] - aim * scale
        slope = sign * V[-1, 0] ** 2
        if abs(gap) <= 1e-3 * abs(aim) * scale:
            break
        if not abs(gap) <= 1e3 * max(1.0, size) * abs(slope):
            break  # a step that would swamp the measure
        mom[j] -= gap / slope
    return m, w[0] / (aim * scale)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["line", "halfline", "interval"]),
       st.integers(1, 4), st.sampled_from([0.0, 1e-12, 1e-8, 1e-5]), st.floats(-150, 150),
       st.floats(1 / 3, 3), st.booleans())
def test_support_gate_matches_the_jacobi_rule(seed, kind, d, tol, log_scale, ratio, localized):
    # The leading-chain factor settles a passing matrix without a sweep;
    # every decision and every failure message must be the sweep's own.
    m, reached = _near_gate_threshold(np.random.default_rng(seed), kind, d, tol, log_scale,
                                      ratio, localized)
    assume(0.25 <= reached <= 4.0)
    assert moments_mod._gate(m, tol)[0] == _gate_rule(m, tol)


@np.errstate(all="ignore")
def _reference_leading_chain(H):
    # _leading_chain as it was on numpy arrays: the dot products of each
    # row of the factor at once, and S from one matrix product.  The new
    # chain sums in another order, so the two agree to rounding only.
    n = H.shape[0]
    scale = np.sqrt(np.where(H.diagonal() > 0.0, H.diagonal(), 1.0))
    Hs = H / np.outer(scale, scale)
    Rs = np.zeros((n, n))
    kept, pivot = n, None
    for k in range(n):
        p = Hs[k, k] - Rs[:k, k] @ Rs[:k, k]
        if not p > moments_mod.RANK_PIVOT_KEEP:
            kept, pivot = k, p
            break
        Rs[k, k] = math.sqrt(p)
        Rs[k, k + 1:] = (Hs[k, k + 1:] - Rs[:k, k] @ Rs[:k, k + 1:]) / Rs[k, k]
    g, rounding = 0.0, 3.0 * float(np.vdot(Rs, Rs))
    if kept < n:
        S = Hs[kept:, kept:] - Rs[:kept, kept:].T @ Rs[:kept, kept:]
        S2 = S + S.T
        rows = np.abs(S2).sum(axis=1)
        g = 0.5 * float((2.0 * np.maximum(S2.diagonal(), 0.0) - rows).min())
        rounding += float(rows.sum())
    smax = max(scale.tolist())
    deficit = max(-g, 0.0) + (n + 2) * 2.0**-53 * rounding
    return moments_mod._Chain(kept, pivot, Rs * scale[None, :], deficit * smax * smax)


def _chain_matrix(rng, n, kind, shape, exponent):
    """A size-n Hankel or localizing matrix (weight x, or 1 - x^2) of an
    atomic measure, scaled by 2^exponent: positive definite with n + 1 atoms,
    singular with fewer than n, indefinite with one moment moved."""
    lo, hi, weight = {"hankel": (-2.0, 2.0, None), "halfline": (0.0, 3.0, mk.Poly.x()),
                      "interval": (-1.0, 1.0, mk.Poly((1.0, 0.0, -1.0)))}[kind]
    r = n + 1 if shape != "singular" else int(rng.integers(1, n))
    top = 2 * n - 2 + (0 if weight is None else weight.degree)
    mom = np.array(atomic_moments(rng.uniform(lo, hi, r), rng.uniform(0.1, 2.0, r), top))
    if shape == "indefinite":
        j = 2 * int(rng.integers(0, n))  # a diagonal moment of the Hankel matrix
        mom[j] -= rng.uniform(0.0, 2.0) * abs(mom[j]) + 10.0 ** rng.uniform(-12, 0)
    return np.array(moments_mod._hankel_rows(np.ldexp(mom, exponent).tolist(), n, weight))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.sampled_from(["hankel", "halfline", "interval"]),
       st.sampled_from(["definite", "singular", "indefinite"]), st.integers(-300, 300))
def test_leading_chain_matches_the_numpy_reference(seed, n, kind, shape, exponent):
    # The chain runs on Python floats; the kept numpy chain is its reference.
    # delta is the chain's own rounding estimate, (n + 2) 2^-53 (3 |Rs|_F^2
    # + 2 sum |S|) in the scaled matrix's units, over its smallest kept
    # pivot: each row divides by a pivot's root, so an earlier row's
    # rounding reaches the later ones at most that much amplified.
    assume(shape != "singular" or n > 1)
    H = _chain_matrix(np.random.default_rng(seed), n, kind, shape, exponent)
    new, ref = moments_mod._leading_chain(H.tolist()), _reference_leading_chain(H)
    scale = np.sqrt(np.where(H.diagonal() > 0.0, H.diagonal(), 1.0))
    Rs, Rs_ref = np.array(new.R) / scale, ref.R / scale
    k = min(new.kept, ref.kept)
    S = H[k:, k:] / np.outer(scale[k:], scale[k:]) - Rs_ref[:k, k:].T @ Rs_ref[:k, k:]
    pivots = np.diagonal(Rs_ref)[:k] ** 2
    delta = 4.0 * (n + 2) * 2.0**-53 * (3.0 * float(np.vdot(Rs_ref, Rs_ref))
                                        + 2.0 * float(np.abs(S).sum())) / pivots.min(initial=1.0)
    if new.kept != ref.kept:  # a pivot at the keep threshold
        stopped = new if new.kept < ref.kept else ref
        assert abs(stopped.pivot - moments_mod.RANK_PIVOT_KEEP) <= delta
        return
    if ref.pivot is not None:
        assert abs(new.pivot - ref.pivot) <= delta
        if (new.pivot < moments_mod.RANK_PIVOT_DROP) != (ref.pivot < moments_mod.RANK_PIVOT_DROP):
            assert abs(ref.pivot - moments_mod.RANK_PIVOT_DROP) <= delta
    assert np.abs(Rs - Rs_ref).max() <= delta
    smax2 = float(scale.max()) ** 2
    assert abs(new.floor - ref.floor) <= delta * smax2
    # the gate's pass rule at PSD_TOL, as _gate applies it to each factor
    a, e = reference_scaled_symmetric(H)
    k = max(e, 0)
    a = np.ldexp(a, e - k)
    gate_scale = max(math.ldexp(1.0, -k), float(np.sqrt(np.sum(a * a))))
    sweep_error = (n + 1) * moments_mod.OFFDIAG_MASS_TOL * gate_scale

    def passes(floor):
        return 4.0 * (math.ldexp(floor, -k) + sweep_error) <= moments_mod.PSD_TOL * gate_scale

    if passes(new.floor) != passes(ref.floor):
        allowance = math.ldexp(moments_mod.PSD_TOL * gate_scale / 4.0 - sweep_error, k)
        assert abs(ref.floor - allowance) <= delta * smax2


def test_recover_full_rank_gives_gauss_rule():
    # moments of a "rich" measure: the d-point rule matches through 2d-1
    rng = np.random.default_rng(3)
    atoms = np.array([-2.0, -0.5, 0.4, 1.7, 2.5])
    weights = rng.uniform(0.2, 1.0, 5)
    m = seq(*atomic_moments(atoms, weights, 4))  # d = 2 < number of atoms
    mu = mk.recover_atoms(m)
    assert mu.n_atoms == 2
    rep = mk.verify_truncated(m, mu)
    assert rep.passed and rep.through_degree == 3
    assert rep.degree_2d_residual > 1e-6  # degree-2d moment is NOT matched


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_roundtrip_random_atomic(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 7))
    atoms = np.sort(rng.uniform(-5, 5, r))
    if r > 1 and np.diff(atoms).min() < 1e-3:
        atoms = atoms + np.arange(r) * 2e-3  # keep atoms separated
    weights = rng.uniform(0.1, 2.0, r)
    m = seq(*atomic_moments(atoms, weights, 2 * r))
    try:
        mu = mk.recover_atoms(m)
    except mk.RankDetectionAmbiguous:
        return
    rep = mk.verify_truncated(m, mu, through_degree=2 * r - 1, tol=1e-7)
    assert rep.passed, rep.max_relative_residual
    # atom positions are conditioning-limited; the contract is the moments
    assert mu.atoms == pytest.approx(tuple(atoms), abs=1e-3)


def test_atoms_in_declared_support():
    atoms, weights = (0.2, 0.5, 0.9), (1.0, 0.5, 0.25)
    m = mk.MomentSequence(atomic_moments(atoms, weights, 6), mk.Support.interval(0, 1))
    cert = mk.positivity_certificate(m)
    mu = mk.recover_atoms(m)
    assert mu.within_support()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_riesz_nonnegative_on_squares_when_representable(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    atoms = np.sort(rng.uniform(-2, 2, d + 1))
    weights = rng.uniform(0.2, 2.0, d + 1)
    m = seq(*atomic_moments(atoms, weights, 2 * d))
    if mk.positivity_certificate(m).verdict != "representable":
        return
    for _ in range(5):
        p = np.asarray(rng.normal(size=d + 1))
        square = mk.Poly(tuple(np.polynomial.polynomial.polymul(p, p)))
        assert mk.riesz(m, square) >= -1e-9


# --- truncation verification ----------------------------------------------------------------

def test_verify_exact_roundtrip():
    mu = mk.AtomicMeasure((-1.0, 2.0), (0.5, 1.5))
    m = seq(*mu.moments_to(4))
    rep = mk.verify_truncated(m, mu)
    assert rep.passed and rep.max_relative_residual <= 1e-9


def test_verify_empty_measure_zero_sequence():
    rep = mk.verify_truncated(seq(0, 0, 0), mk.AtomicMeasure((), ()))
    assert rep.passed


def test_verify_detects_weight_perturbation():
    # unit-scale moments, so the relative residual tracks the perturbation
    mu = mk.AtomicMeasure((-1.0, 0.5), (0.25, 0.5))
    m = seq(*mu.moments_to(4))
    bad = mk.AtomicMeasure((-1.0, 0.5), (0.25 + 1e-3, 0.5))
    rep = mk.verify_truncated(m, bad)
    assert not rep.passed
    assert 2e-4 <= rep.max_relative_residual <= 2e-3


def test_verify_degree_cap():
    with pytest.raises(mk.DegreeTooHigh):
        mk.verify_truncated(seq(1, 0, 1), mk.AtomicMeasure((), ()), through_degree=5)


# --- extension search -------------------------------------------------------------------------

def test_extend_search_identity_hankel():
    found = mk.extend_search(seq(1, 0, 1))
    assert found is not None
    arr = np.array([1, 0, 1, found.m_next, found.m_next_next])
    H = arr[np.add.outer(np.arange(3), np.arange(3))]
    lam = float(np.linalg.eigvalsh(H)[0])  # independent PSD check
    assert lam >= -1e-8 * max(1.0, np.abs(H).max())
    assert found.lambda_min >= -1e-8 * max(1.0, np.abs(H).max())


def test_extend_search_dirac_boundary():
    found = mk.extend_search(seq(1, 0, 0))
    assert found is not None
    arr = np.array([1, 0, 0, found.m_next, found.m_next_next])
    H = arr[np.add.outer(np.arange(3), np.arange(3))]
    assert float(np.linalg.eigvalsh(H)[0]) >= -1e-7 * max(1.0, np.abs(H).max())


def test_extend_search_refuses_non_psd_base():
    assert mk.extend_search(seq(1, 0, -1)) is None


def test_extend_search_flat_truncation():
    mu = mk.AtomicMeasure((-0.8, 0.1, 0.9), (0.5, 1.0, 0.25))
    full = mu.moments_to(6)
    found = mk.extend_search(seq(*full[:5]))
    assert found is not None
    scale = max(1.0, max(abs(x) for x in full[:5]), abs(found.m_next), abs(found.m_next_next))
    assert found.lambda_min >= -1e-8 * scale


@pytest.mark.parametrize("moments, support", [
    ((1, 0, 0, 0, 1), mk.Support.line()),  # PSD but not recursively generated
    ((1, 0, 1, 0, 1), mk.Support.halfline()),  # localizing matrix indefinite
    ((1, 0, 1), mk.Support.halfline()),  # H_1 definite, yet m_1 = 0 forces a Dirac at 0
])
def test_extend_search_refuses_unrepresentable(moments, support):
    assert mk.extend_search(seq(*moments, support=support)) is None


def _passes_gate(m, found, tol=1e-8):
    ext = mk.MomentSequence(m.moments + (found.m_next, found.m_next_next), m.support)
    return moments_mod._gate(ext, tol)[0] is None


def test_extend_search_halfline_keeps_localizing_psd():
    # The line's m_3 = 0 would make the shifted matrix [[1, 2], [2, 0]];
    # the flat extension is the measure (delta_0 + delta_2) / 2.
    m = seq(1, 1, 2, support=mk.Support.halfline())
    found = mk.extend_search(m)
    assert (found.m_next, found.m_next_next) == pytest.approx((4.0, 8.0), abs=1e-12)
    assert _passes_gate(m, found)


@pytest.mark.parametrize("moments, support, flat", [
    # R = [[1.414213562373095, 1.4142135623730951], [0, 1e50]]: partial
    # pivoting swapped the rows of R^T and gave y_0 = -3.0e183 for 7.07e99
    ((2, 2, 1e100), mk.Support.halfline(), (5e199, 2.5e299)),
    ((1e300, 5e-324, 0.5, 2, 1e100), mk.Support.interval(-1, 1), None),
])
def test_extend_search_solves_are_triangular(moments, support, flat):
    # Both solves used to go through a general LU solve, whose wrong answer
    # here overflowed to an EigFailure.  The oracle's Frobenius norm
    # overflows on these inputs, so the extension is checked on the
    # diagonally scaled Hankel matrix.
    found = mk.extend_search(seq(*moments, support=support))
    assert found is not None
    if flat:
        assert (found.m_next, found.m_next_next) == pytest.approx(flat, rel=1e-12)
    arr = np.array(moments + (found.m_next, found.m_next_next))
    n = len(moments) // 2 + 2
    H = arr[np.add.outer(np.arange(n), np.arange(n))]
    d = np.sqrt(H.diagonal())
    assert np.linalg.eigvalsh(H / np.outer(d, d))[0] >= -1e-12


def test_extend_search_zero_sequence():
    found = mk.extend_search(seq(0, 0, 0))
    assert (found.m_next, found.m_next_next) == (0.0, 0.0)


def test_extend_search_singular_runs_the_gate_once(monkeypatch):
    calls = []
    gate = moments_mod._gate

    def counting(m, tol):
        calls.append(m)
        return gate(m, tol)

    monkeypatch.setattr(moments_mod, "_gate", counting)
    found = mk.extend_search(seq(1, 0, 1, 0, 1))  # rank-2 H_2: atoms -1 and 1
    assert (found.m_next, found.m_next_next) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert len(calls) == 1


def test_extend_search_loose_tol_reaches_recovery():
    # A gate looser than PSD_TOL passes (1, 0, -1e-6); atom recovery must use
    # the same gate instead of raising NotPSD at the default one.
    m = seq(1, 0, -1e-6)
    with pytest.raises(mk.NotPSD):
        mk.recover_atoms(m)
    assert mk.recover_atoms(m, tol=1e-5).atoms == (0.0,)
    found = mk.extend_search(m, tol=1e-5)
    assert found is not None and (found.m_next, found.m_next_next) == (0.0, 0.0)


def test_extend_search_agrees_with_certificate():
    # Criterion 6's sequences: 3 supports x 200 known measures plus their defects.
    rng = np.random.default_rng(6)
    disagreements, gate_failures = [], []
    for kind in ("line", "halfline", "interval"):
        for trial in range(200):
            m = _known_measure(rng, kind)
            mom = list(m.moments)
            if kind == "halfline":
                mom[1] = -abs(mom[1]) - 0.3
            else:
                mom[2] = -abs(mom[2]) - 0.3
            for s in (m, mk.MomentSequence(tuple(mom), m.support)):
                verdict = mk.positivity_certificate(s, 1e-8).verdict
                found = mk.extend_search(s, 1e-8)
                extended = found is not None
                if verdict != "inconclusive" and extended != (verdict == "representable"):
                    disagreements.append((kind, trial, verdict, s.moments))
                if extended and not _passes_gate(s, found):
                    gate_failures.append((kind, trial, s.moments))
    assert not disagreements, disagreements[:3]
    assert not gate_failures, gate_failures[:3]


def test_lambda_min_concavity_spot_check():
    rng = np.random.default_rng(8)
    base = np.array(atomic_moments((-0.7, 0.2, 0.8), (1.0, 0.5, 0.7), 4))

    def lam(s, t):
        arr = np.concatenate([base, [s, t]])
        H = arr[np.add.outer(np.arange(4), np.arange(4))]
        return mk.lambda_min(H)

    for _ in range(20):
        p1 = rng.normal(size=2) * 3
        p2 = rng.normal(size=2) * 3
        theta = rng.uniform()
        mid = theta * p1 + (1 - theta) * p2
        assert lam(*mid) >= min(lam(*p1), lam(*p2)) - 1e-9

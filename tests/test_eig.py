import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from momentkit import counters
from momentkit.eig import (MAX_SWEEPS, SIZE_CAP, _frobenius2, _jacobi_kernel, jacobi_eigh,
                           lambda_min)
from momentkit.errors import EigFailure
from momentkit.tolerances import OFFDIAG_MASS_TOL

from conftest import reference_scaled_symmetric


def _arrays(w, V):
    """The lists that jacobi_eigh returns, as the arrays of the numpy wrapper."""
    n = len(w)
    return np.array(w, dtype=float), None if V is None else np.array(V, dtype=float).reshape(n, n)


def test_returns_lists_of_python_floats():
    w, V = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert type(w) is list and all(type(x) is float for x in w)
    assert type(V) is list and all(type(r) is list and all(type(x) is float for x in r)
                                   for r in V)
    assert w == pytest.approx([1.0, 3.0], abs=1e-15)
    assert V[0][1] == pytest.approx(V[1][1], abs=1e-15)  # column 1 is (1, 1) / sqrt 2


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2**32 - 1), st.integers(0, 40),
       st.integers(-500, 500))
@example(n=7, seed=0, spread=30, exponent=0)
@example(n=8, seed=0, spread=30, exponent=0)
@example(n=128, seed=1, spread=30, exponent=-3)
@example(n=129, seed=2, spread=30, exponent=5)
@example(n=300, seed=3, spread=40, exponent=0)
def test_frobenius2_sums_as_numpy_does(n, seed, spread, exponent):
    # Bit for bit np.add.reduce's pairwise order, across its 8- and
    # 128-term blocks, with terms spread over 2^(2 spread) so that the order
    # shows, at every power-of-two scale s.
    rng = np.random.default_rng(seed)
    row = rng.normal(size=n) * np.exp2(rng.integers(-spread, spread + 1, size=n))
    s = 2.0**exponent
    terms = [(x * s) * (x * s) for x in row.tolist()]
    want = float(np.add.reduce(np.array(terms, dtype=float)))
    got = _frobenius2([row.tolist()], s)
    assert type(got) is float and got.hex() == want.hex()


def test_identity():
    w, V = _arrays(*jacobi_eigh(np.eye(3)))
    assert np.allclose(w, 1.0)
    assert np.allclose(V @ V.T, np.eye(3), atol=1e-14)


def test_two_by_two_indefinite():
    w, _ = jacobi_eigh([[1.0, 2.0], [2.0, 1.0]])
    assert w == pytest.approx([-1.0, 3.0], abs=1e-12)


def test_zero_matrix_boundary():
    assert lambda_min(np.zeros((2, 2))) == 0.0


def test_one_by_one():
    w, V = jacobi_eigh([[4.0]])
    assert w == [4.0] and V == [[1.0]]


def test_rejects_nonsymmetric():
    with pytest.raises(EigFailure):
        jacobi_eigh([[0.0, 1.0], [0.0, 0.0]])


def test_rejects_oversize():
    with pytest.raises(EigFailure):
        jacobi_eigh(np.eye(65))


def test_rejects_nan():
    with pytest.raises(EigFailure):
        jacobi_eigh([[np.nan, 0.0], [0.0, 1.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 12))
def test_matches_lapack(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A = A + A.T
    w, V = _arrays(*jacobi_eigh(A))
    w_ref = np.linalg.eigvalsh(A)
    assert np.allclose(w, w_ref, atol=1e-10 * max(1.0, np.abs(A).max()))
    # reconstruction and orthogonality
    assert np.allclose(V @ np.diag(w) @ V.T, A, atol=1e-10 * max(1.0, np.abs(A).max()))
    assert np.allclose(V.T @ V, np.eye(n), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(1.0, 1e9))
def test_scale_invariance_of_accuracy(seed, scale):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 6))
    A = (A + A.T) * scale
    got = lambda_min(A)
    ref = float(np.linalg.eigvalsh(A)[0])
    assert got == pytest.approx(ref, abs=1e-11 * scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7), st.floats(-12, 12))
@example(seed=0, n=6, log_c=-12.0)
def test_lambda_min_error_scales_with_the_matrix(seed, n, log_c):
    # The stopping rule is relative to ||cA||_F with no floor, so the error
    # shrinks with c below 1 as well as above it.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A = A + A.T
    c = 10.0**log_c
    got = lambda_min(c * A)
    ref = c * float(np.linalg.eigvalsh(A)[0])
    assert abs(got - ref) <= 1e-13 * c * np.linalg.norm(A)


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e200, 1e300])
def test_lambda_min_at_extreme_scales(s):
    # Squared entries under- or overflow at these scales unless the sweep
    # runs on a power-of-two rescaled copy.
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        A = rng.normal(size=(n, n))
        A = A + A.T
        got = lambda_min(s * A) / s
        assert abs(got - np.linalg.eigvalsh(A)[0]) <= 1e-13 * np.linalg.norm(A)


def test_eig_stats_count_calls_and_sweeps():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    with counters.collect() as outer:
        jacobi_eigh(np.eye(3))
        with counters.collect() as inner:
            lambda_min(A)
        jacobi_eigh(A, need_vectors=False)
    assert inner == {"lp_solves": 0, "lp_iterations": 0, "eig_calls": 1, "eig_sweeps": 1,
                     "chol_calls": 0}
    assert outer == {"lp_solves": 0, "lp_iterations": 0, "eig_calls": 2, "eig_sweeps": 1,
                     "chol_calls": 0}


def test_moment_scale_hankel():
    # Rank-deficient PSD Hankel with large entries: lambda_min must come out
    # near zero at the matrix scale, not poisoned by loose convergence.
    atoms = np.array([-4.5, -1.0, 2.0, 4.8])
    weights = np.array([1.5, 0.3, 2.0, 0.7])
    mom = np.array([float(weights @ atoms**k) for k in range(11)])
    H = mom[np.add.outer(np.arange(5), np.arange(5))]
    got = lambda_min(H)
    ref = float(np.linalg.eigvalsh(H)[0])
    assert abs(got - ref) <= 1e-10 * np.abs(H).max()


def _numpy_indexed_kernel(a, v, accumulate, threshold, max_sweeps):
    # The kernel as it was before it swept Python float lists: the oracle
    # that the list sweeps must match bit for bit.
    n = a.shape[0]
    skip = threshold / (n * n) if n else threshold
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += 2.0 * a[p, q] * a[p, q]
        if off <= threshold:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if 2.0 * apq * apq <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = 0.5 * (aqq - app) / apq
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                a[p, q] = 0.0
                a[q, p] = 0.0
                if accumulate:
                    for k in range(n):
                        vkp = v[k, p]
                        vkq = v[k, q]
                        v[k, p] = c * vkp - s * vkq
                        v[k, q] = s * vkp + c * vkq


def _symmetric(rng, n, hankel, scale):
    if hankel:
        m = rng.normal(size=2 * n)
        return scale * m[np.add.outer(np.arange(n), np.arange(n))]
    A = rng.normal(size=(n, n))
    return scale * (A + A.T)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 13), st.booleans(), st.booleans(),
       st.floats(-8, 8), st.sampled_from([0, 1, 2, 5, MAX_SWEEPS]))
def test_kernel_bit_identical_to_numpy_indexed(seed, n, hankel, accumulate, log_scale,
                                               max_sweeps):
    a = _symmetric(np.random.default_rng(seed), n, hankel, 10.0**log_scale)
    threshold = OFFDIAG_MASS_TOL**2 * float(np.sum(a * a))
    v = np.eye(n) if accumulate else np.zeros((1, 1))
    rows, vrows = a.tolist(), v.tolist()
    got = _jacobi_kernel(rows, vrows, accumulate, threshold, max_sweeps)
    want = _numpy_indexed_kernel(a, v, accumulate, threshold, max_sweeps)
    assert got == want
    assert np.array(rows).reshape(a.shape).tobytes() == a.tobytes()
    assert np.array(vrows).tobytes() == v.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 13), st.booleans(), st.floats(-8, 8),
       st.sampled_from([1, 2, MAX_SWEEPS]))
def test_kernel_keeps_a_bitwise_symmetric(seed, n, hankel, log_scale, max_sweeps):
    # Each rotated pair (k, p), (p, k) is computed once and stored twice.
    a = _symmetric(np.random.default_rng(seed), n, hankel, 10.0**log_scale).tolist()
    _jacobi_kernel(a, None, False, 0.0, max_sweeps)
    assert np.array(a).tobytes() == np.array(a).T.copy().tobytes()


@pytest.mark.parametrize("accumulate", [False, True])
def test_kernel_without_sweeps_fails_on_off_diagonal_mass(accumulate):
    a = _symmetric(np.random.default_rng(3), 4, False, 1.0)
    v = np.eye(4)
    rows, vrows = a.tolist(), v.tolist()
    assert _jacobi_kernel(rows, vrows, accumulate, 1e-28, 0) == -1
    assert _numpy_indexed_kernel(a, v, accumulate, 1e-28, 0) == -1
    assert rows == a.tolist() and vrows == v.tolist()


def _reference_jacobi_eigh(matrix, need_vectors=True):
    """``(w, V, sweeps)`` of the wrapper as it was on numpy arrays, around
    the same kernel: the oracle that the list path must match bit for bit."""
    a, e = reference_scaled_symmetric(matrix)
    n = a.shape[0]
    threshold = OFFDIAG_MASS_TOL**2 * float((a * a).sum())
    v = np.eye(n) if need_vectors else np.zeros((1, 1))
    rows, vrows = a.tolist(), v.tolist()
    result = _jacobi_kernel(rows, vrows, need_vectors, threshold, MAX_SWEEPS)
    if result < 0:
        raise EigFailure(f"Jacobi sweeps failed to converge in {MAX_SWEEPS} sweeps")
    a[:, :], v[:, :] = rows, vrows
    with np.errstate(over="ignore"):
        w = np.ldexp(a.diagonal(), e)
    order = w.argsort(kind="stable")
    return w[order], (v[:, order] if need_vectors else None), result


def _reference_lambda_min(matrix):
    w, _, _ = _reference_jacobi_eigh(matrix, need_vectors=False)
    lam = float(w[0])
    if not math.isfinite(lam):
        raise EigFailure("the smallest eigenvalue overflows the double range")
    return lam


def _wrapper_input(seed, n, shape, exponent):
    """A size-n symmetric (or Hankel) matrix scaled by 2^exponent: random,
    zero, singular (rank below n), or off bitwise symmetry by 1e-14."""
    rng = np.random.default_rng(seed)
    if shape == "zero":
        return np.zeros((n, n))
    if shape == "hankel":
        m = rng.normal(size=2 * n)
        A = m[np.add.outer(np.arange(n), np.arange(n))]
    elif shape == "singular":
        B = rng.normal(size=(n, int(rng.integers(0, n))))
        A = B @ B.T
    else:
        A = rng.normal(size=(n, n))
        A = A + A.T
        if shape == "nearly":
            A = A + 1e-14 * np.triu(rng.normal(size=(n, n)), 1)
    return np.ldexp(A, exponent)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 13),
       st.sampled_from(["random", "hankel", "singular", "zero", "nearly"]),
       st.sampled_from([-300, -60, 0, 60, 300]) | st.integers(-300, 300), st.booleans(),
       st.booleans())
def test_list_wrapper_bit_identical_to_numpy_wrapper(seed, n, shape, exponent, as_list,
                                                     need_vectors):
    A = _wrapper_input(seed, n, shape, exponent)
    matrix = A.tolist() if as_list else A
    with counters.collect() as stats:
        w, V = _arrays(*jacobi_eigh(matrix, need_vectors))
    w_ref, V_ref, sweeps = _reference_jacobi_eigh(A, need_vectors)
    assert stats["eig_sweeps"] == sweeps and stats["eig_calls"] == 1
    assert w.dtype == w_ref.dtype and w.tobytes() == w_ref.tobytes()
    if need_vectors:
        assert V.shape == V_ref.shape and V.tobytes() == V_ref.tobytes()
    else:
        assert V is None
    lam = lambda_min(matrix)
    assert math.copysign(1.0, lam) == math.copysign(1.0, _reference_lambda_min(A))
    assert lam == _reference_lambda_min(A)


def test_list_wrapper_handles_the_empty_matrix_as_numpy_did():
    w, V = jacobi_eigh(np.zeros((0, 0)))
    w_ref, V_ref, _ = _reference_jacobi_eigh(np.zeros((0, 0)))
    assert w == V == [] and w_ref.shape == (0,) and V_ref.shape == (0, 0)


@pytest.mark.parametrize("matrix", [
    np.ones((2, 3)), [1.0, 2.0], [], [[]], np.zeros((0,)), [[1.0, 2.0]],
    np.eye(SIZE_CAP + 1), np.eye(SIZE_CAP + 1).tolist(),
    [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], [[1.0, -np.inf], [-np.inf, 1.0]],
    [[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0 + 1e-9], [1.0, 1.0]], [[1e300, 1e289], [0.0, 1.0]],
])
@pytest.mark.parametrize("as_array", [False, True])
def test_list_wrapper_raises_the_numpy_wrappers_failures(matrix, as_array):
    if as_array:
        matrix = np.asarray(matrix, dtype=float)
    with pytest.raises(EigFailure) as want:
        _reference_jacobi_eigh(matrix)
    for call in (jacobi_eigh, lambda_min):
        with pytest.raises(EigFailure) as got:
            call(matrix)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("exponent", [-1070, -1060, -1030, 1015, 1020])
@pytest.mark.parametrize("shape", ["random", "hankel", "singular"])
def test_list_wrapper_matches_at_the_ends_of_the_double_range(exponent, shape):
    # Past 2^-1023 the largest entry's scaling 2^-e is no double and each
    # entry is scaled by ldexp; near 2^1024 it is subnormal, and eigenvalues
    # scaled back may overflow.  Subnormal entries round in the scaling.
    A = _wrapper_input(3, 5, shape, exponent)
    for need_vectors in (False, True):
        w, V = _arrays(*jacobi_eigh(A, need_vectors))
        w_ref, V_ref, _ = _reference_jacobi_eigh(A, need_vectors)
        assert w.tobytes() == w_ref.tobytes()
        assert need_vectors or V is None and V_ref is None
        assert not need_vectors or V.tobytes() == V_ref.tobytes()


def test_lambda_min_overflow_matches_the_numpy_wrapper():
    # lambda_min of this matrix is about -2.5e308: inf after the scaling back
    A = [[1e308, 1.7e308], [1.7e308, -1.7e308]]
    w, _ = _arrays(*jacobi_eigh(A, need_vectors=False))
    assert w.tobytes() == _reference_jacobi_eigh(A, need_vectors=False)[0].tobytes()
    for call in (lambda_min, _reference_lambda_min):
        with pytest.raises(EigFailure, match="overflows the double range"):
            call(A)

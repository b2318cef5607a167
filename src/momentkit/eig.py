"""Symmetric eigensolver: cyclic Jacobi rotations.

Matrices here are tiny (Hankel and tridiagonal recurrence matrices, at most
64x64 by contract), so a hand-rolled Jacobi sweep is adequate and keeps the
numerical path fully under our control.  Convergence is declared when the
off-diagonal Frobenius mass drops below 1e-14 of the full Frobenius mass of
the matrix (an absolute threshold would be unreachable in float64 once
entries grow large, and a looser one would poison small eigenvalues).

The wrapper and the kernel share one form, nested lists of Python floats:
the checks, the exact power-of-two scaling, the symmetrization, the
threshold and the return value all work on lists, and numpy is imported
only to read a matrix given in another form.  The sweep runs only where a
spectrum is reported or a failure is worded: the moment support gate passes
what it can from its Cholesky factors.  Each call counts itself and its
sweeps in :mod:`momentkit.counters`, where the gate counts its
factorizations.
"""

from __future__ import annotations

import math
from itertools import chain

from .counters import count
from .errors import EigFailure
from .tolerances import OFFDIAG_MASS_TOL, SYMMETRY_TOL

SIZE_CAP = 64
MAX_SWEEPS = 60


def _jacobi_kernel(rows, vrows, accumulate, threshold, max_sweeps):
    """Rotate the matrix ``rows`` (and ``vrows`` when ``accumulate``) in
    place; sweeps used, or -1.

    Both are nested lists of Python floats: at these sizes indexing numpy
    scalars costs more than the arithmetic.  Every operation is the IEEE
    double one numpy would do, so the results are bitwise the same.

    ``rows`` must be bitwise symmetric, and every rotation keeps it so: a
    two-sided rotation gives entries (k, p) and (p, k) by the same
    operations on the same values, so each is computed once and stored in
    both places.  The 2x2 block keeps the column-then-row order of the
    two-sided rotation.
    """
    n = len(rows)
    skip = threshold / (n * n) if n else threshold
    result = -1
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for p in range(n - 1):
            for apq in rows[p][p + 1:]:
                off += 2.0 * apq * apq
        if off <= threshold:
            result = sweep
            break
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            rp = rows[p]
            for q in range(p + 1, n):
                apq = rp[q]
                if 2.0 * apq * apq <= skip:
                    continue
                rq = rows[q]
                app = rp[p]
                aqq = rq[q]
                theta = 0.5 * (aqq - app) / apq
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        rk = rows[k]
                        akp = rk[p]
                        akq = rk[q]
                        rk[p] = rp[k] = c * akp - s * akq
                        rk[q] = rq[k] = s * akp + c * akq
                rp[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                rq[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                rp[q] = rq[p] = 0.0
                if accumulate:
                    for vk in vrows:
                        vkp = vk[p]
                        vkq = vk[q]
                        vk[p] = c * vkp - s * vkq
                        vk[q] = s * vkp + c * vkq
    return result


def _pairwise_sum(xs: list[float]) -> float:
    """``xs`` summed in numpy's pairwise order, as ``np.add.reduce`` sums a
    float array, bit for bit: under 8 terms in order, up to 128 in 8
    interleaved accumulators, beyond that the two halves split at n/2
    rounded down to a multiple of 8.  (``sum`` would not do: from Python
    3.12 it compensates float rounding.)"""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        end = n - n % 8
        r = []
        for j in range(8):
            acc = xs[j]
            for x in xs[j + 8:end:8]:
                acc += x
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[end:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _frobenius2(rows, s: float = 1.0) -> float:
    """``||s A||_F^2`` of the rows of A, summed as ``np.sum`` sums an array."""
    return _pairwise_sum([(x * s) * (x * s) for r in rows for x in r])


def _checked_rows(matrix):
    """``(rows, amax, symmetric)``: ``matrix`` as a list of rows, the largest
    entry's magnitude, and whether it is bitwise symmetric.

    A square list of lists is taken as it is; anything else is read by numpy,
    imported then.
    The matrix must be square, at most SIZE_CAP rows, finite and symmetric
    to 1e-12 of its largest entry (EigFailure otherwise).
    """
    n = len(matrix) if type(matrix) is list else 0
    if not (n and all(type(r) is list and len(r) == n for r in matrix)):
        import numpy as np

        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise EigFailure(f"expected a square matrix, got shape {a.shape}")
        matrix, n = a.tolist(), a.shape[0]
    if n > SIZE_CAP:
        raise EigFailure(f"matrix size {n} exceeds the {SIZE_CAP}x{SIZE_CAP} cap")
    entries = list(chain.from_iterable(matrix))
    if not all(map(math.isfinite, entries)):
        raise EigFailure("matrix contains non-finite entries")
    amax = max(map(abs, entries), default=0.0)
    symmetric = list(zip(*matrix)) == list(map(tuple, matrix))
    if not symmetric and any(abs(matrix[i][j] - matrix[j][i]) > SYMMETRY_TOL * amax
                             for i in range(n) for j in range(i)):
        raise EigFailure("matrix is not symmetric")
    return matrix, amax, symmetric


def jacobi_eigh(matrix, need_vectors: bool = True):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Returns ``(w, V)``, lists of Python floats: ``w`` the eigenvalues and
    ``V`` the rows of the matrix whose column i, ``[r[i] for r in V]``, is
    the eigenvector for ``w[i]``; ``V`` is None when ``need_vectors`` is
    false.
    """
    # Sweep on a bitwise symmetric s * A, s = 2^-e with 2^(e-1) <= max |A_ij|
    # < 2^e (e at least -1022, so that s is a double): rotations are
    # scale-free and the scaling is exact, so the eigenpairs of any other
    # matrix are bitwise unchanged, and squared entries neither underflow
    # nor overflow.  Products and quotients by s round as ldexp does.
    rows, amax, symmetric = _checked_rows(matrix)
    n = len(rows)
    s = math.ldexp(1.0, -max(math.frexp(amax)[1], -1022))
    a = [[x * s for x in r] for r in rows]
    if not symmetric:
        a = [[0.5 * (x + y) for x, y in zip(r, c)] for r, c in zip(a, zip(*a))]

    # Threshold on the squared off-diagonal norm: (1e-14 * ||A||_F)^2, so the
    # eigenvalue error stays ~1e-14 relative to the matrix scale.  No floor:
    # max(1, ||A||_F^2) would make it absolute for matrices below norm 1.
    threshold = OFFDIAG_MASS_TOL**2 * _frobenius2(a)
    v = [[float(i == j) for j in range(n)] for i in range(n)] if need_vectors else None
    result = _jacobi_kernel(a, v, need_vectors, threshold, MAX_SWEEPS)
    count(eig_calls=1, eig_sweeps=MAX_SWEEPS if result < 0 else result)
    if result < 0:
        raise EigFailure(f"Jacobi sweeps failed to converge in {MAX_SWEEPS} sweeps")

    w = [r[i] / s for i, r in enumerate(a)]  # inf beyond the double range
    order = sorted(range(n), key=w.__getitem__)  # stable, as numpy's stable argsort
    return ([w[i] for i in order],
            [[vk[i] for i in order] for vk in v] if need_vectors else None)


def finite(what: str, *values: float) -> None:
    """EigFailure unless every value is finite: an eigenvalue or moment that
    is reported must lie in the double range."""
    if not all(map(math.isfinite, values)):
        raise EigFailure(f"{what} overflows the double range")


def lambda_min(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigh(matrix, need_vectors=False)
    lam = w[0]
    finite("the smallest eigenvalue", lam)
    return lam

"""Symmetric eigensolver: cyclic Jacobi rotations.

Matrices here are tiny (Hankel and tridiagonal recurrence matrices, at most
64x64 by contract), so a hand-rolled Jacobi sweep is adequate and keeps the
numerical path fully under our control.  Convergence is declared when the
off-diagonal Frobenius mass drops below 1e-14 of the full Frobenius mass of
the matrix (an absolute threshold would be unreachable in float64 once
entries grow large, and a looser one would poison small eigenvalues).

The sweep runs only where a spectrum is reported or a failure is worded: the
moment support gate passes what it can from its Cholesky factors.  Each call
counts itself and its sweeps in :mod:`momentkit.counters`, where the gate
counts its factorizations.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import count
from .errors import EigFailure
from .tolerances import OFFDIAG_MASS_TOL, SYMMETRY_TOL

SIZE_CAP = 64
MAX_SWEEPS = 60


def _jacobi_kernel(a, v, accumulate, threshold, max_sweeps):
    """Rotate ``a`` (and ``v`` when ``accumulate``) in place; sweeps used, or -1.

    The sweeps run on nested lists of Python floats: at these sizes indexing
    numpy scalars costs more than the arithmetic.  Every operation is the
    IEEE double one numpy would do, so the results are bitwise the same.

    ``a`` must be bitwise symmetric, and every rotation keeps it so: a
    two-sided rotation gives entries (k, p) and (p, k) by the same
    operations on the same values, so each is computed once and stored in
    both places.  The 2x2 block keeps the column-then-row order of the
    two-sided rotation.
    """
    rows = a.tolist()
    vrows = v.tolist() if accumulate else None
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
    a[:, :] = rows
    if accumulate:
        v[:, :] = vrows
    return result


def scaled_symmetric(matrix):
    """``(a, e)`` with ``a`` a bitwise symmetric copy of ``2^-e * matrix``.

    The matrix must be square, at most SIZE_CAP rows, finite and symmetric
    to 1e-12 of its largest entry (EigFailure otherwise).  Its entries are
    scaled by a power of two to magnitudes below 1, so squares of them
    neither underflow nor overflow; the scaling is exact.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigFailure(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > SIZE_CAP:
        raise EigFailure(f"matrix size {n} exceeds the {SIZE_CAP}x{SIZE_CAP} cap")
    amax = float(np.abs(a).max()) if n else 0.0
    if not math.isfinite(amax):
        raise EigFailure("matrix contains non-finite entries")
    if n and np.abs(a - a.T).max() > SYMMETRY_TOL * amax:
        raise EigFailure("matrix is not symmetric")
    e = math.frexp(amax)[1]
    a = np.ldexp(a, -e)
    return 0.5 * (a + a.T), e


def jacobi_eigh(matrix, need_vectors: bool = True):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Returns ``(w, V)`` with ``V[:, i]`` the eigenvector for ``w[i]``;
    ``V`` is None when ``need_vectors`` is false.
    """
    # Sweep on 2^-e * A: rotations are scale-free and the scaling is exact,
    # so the eigenpairs of any other matrix are bitwise unchanged.
    a, e = scaled_symmetric(matrix)
    n = a.shape[0]

    # Threshold on the squared off-diagonal norm: (1e-14 * ||A||_F)^2, so the
    # eigenvalue error stays ~1e-14 relative to the matrix scale.  No floor:
    # max(1, ||A||_F^2) would make it absolute for matrices below norm 1.
    threshold = OFFDIAG_MASS_TOL**2 * float((a * a).sum())
    v = np.eye(n) if need_vectors else np.zeros((1, 1))
    result = _jacobi_kernel(a, v, need_vectors, threshold, MAX_SWEEPS)
    count(eig_calls=1, eig_sweeps=MAX_SWEEPS if result < 0 else result)
    if result < 0:
        raise EigFailure(f"Jacobi sweeps failed to converge in {MAX_SWEEPS} sweeps")

    with np.errstate(over="ignore"):  # beyond the double range: inf, for finite() to refuse
        w = np.ldexp(a.diagonal(), e)
    order = w.argsort(kind="stable")
    return w[order], (v[:, order] if need_vectors else None)


def finite(what: str, *values: float) -> None:
    """EigFailure unless every value is finite: an eigenvalue or moment that
    is reported must lie in the double range."""
    if not all(map(math.isfinite, values)):
        raise EigFailure(f"{what} overflows the double range")


def lambda_min(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigh(matrix, need_vectors=False)
    lam = float(w[0])
    finite("the smallest eigenvalue", lam)
    return lam

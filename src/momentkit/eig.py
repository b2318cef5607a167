"""Symmetric eigensolver: cyclic Jacobi rotations.

Matrices here are tiny (Hankel and tridiagonal recurrence matrices, at most
64x64 by contract), so a hand-rolled Jacobi sweep is adequate and keeps the
numerical path fully under our control.  Convergence is declared when the
off-diagonal Frobenius mass drops below 1e-14 of the full Frobenius mass of
the matrix (an absolute threshold would be unreachable in float64 once
entries grow large, and a looser one would poison small eigenvalues).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import EigFailure

SIZE_CAP = 64
OFFDIAG_MASS_TOL = 1e-14
MAX_SWEEPS = 60

_stats = threading.local()


@contextmanager
def collect_eig_stats():
    """Collect (call count, total sweeps) for every Jacobi call in the block."""
    prev = getattr(_stats, "bucket", None)
    _stats.bucket = {"calls": 0, "sweeps": 0}
    try:
        yield _stats.bucket
    finally:
        _stats.bucket = prev


def _jacobi_kernel(a, v, accumulate, threshold, max_sweeps):
    """Rotate ``a`` (and ``v`` when ``accumulate``) in place; sweeps used, or -1.

    The sweeps run on nested lists of Python floats: at these sizes indexing
    numpy scalars costs more than the arithmetic.  Every operation is the
    IEEE double one numpy would do, so the results are bitwise the same.
    """
    rows = a.tolist()
    vrows = v.tolist() if accumulate else None
    n = len(rows)
    skip = threshold / (n * n) if n else threshold
    result = -1
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for p in range(n - 1):
            rp = rows[p]
            for q in range(p + 1, n):
                off += 2.0 * rp[q] * rp[q]
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
                for rk in rows:
                    akp = rk[p]
                    akq = rk[q]
                    rk[p] = c * akp - s * akq
                    rk[q] = s * akp + c * akq
                for k in range(n):
                    apk = rp[k]
                    aqk = rq[k]
                    rp[k] = c * apk - s * aqk
                    rq[k] = s * apk + c * aqk
                rp[q] = 0.0
                rq[p] = 0.0
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


def jacobi_eigh(matrix, need_vectors: bool = True):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Returns ``(w, V)`` with ``V[:, i]`` the eigenvector for ``w[i]``;
    ``V`` is None when ``need_vectors`` is false.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigFailure(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > SIZE_CAP:
        raise EigFailure(f"matrix size {n} exceeds the {SIZE_CAP}x{SIZE_CAP} cap")
    if not np.all(np.isfinite(a)):
        raise EigFailure("matrix contains non-finite entries")
    amax = float(np.abs(a).max()) if n else 0.0
    if n and np.abs(a - a.T).max() > 1e-12 * amax:
        raise EigFailure("matrix is not symmetric")
    # Sweep on 2^-e * A with |entries| < 1, so the squares below neither
    # underflow nor overflow.  Rotations are scale-free and the scaling is
    # exact, so the eigenpairs of any other matrix are bitwise unchanged.
    e = math.frexp(amax)[1]
    a = np.ldexp(a, -e)
    a = 0.5 * (a + a.T)  # exact symmetry for the sweep updates

    # Threshold on the squared off-diagonal norm: (1e-14 * ||A||_F)^2, so the
    # eigenvalue error stays ~1e-14 relative to the matrix scale.  No floor:
    # max(1, ||A||_F^2) would make it absolute for matrices below norm 1.
    threshold = OFFDIAG_MASS_TOL**2 * float(np.sum(a * a))
    v = np.eye(n) if need_vectors else np.zeros((1, 1))
    result = _jacobi_kernel(a, v, need_vectors, threshold, MAX_SWEEPS)
    bucket = getattr(_stats, "bucket", None)
    if bucket is not None:
        bucket["calls"] += 1
        bucket["sweeps"] += MAX_SWEEPS if result < 0 else result
    if result < 0:
        raise EigFailure(f"Jacobi sweeps failed to converge in {MAX_SWEEPS} sweeps")

    w = np.ldexp(np.diag(a), e)
    order = np.argsort(w, kind="stable")
    w = w[order]
    if need_vectors:
        return w, v[:, order]
    return w, None


def lambda_min(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigh(matrix, need_vectors=False)
    return float(w[0])

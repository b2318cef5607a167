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

import numpy as np

from .errors import EigFailure

SIZE_CAP = 64
OFFDIAG_MASS_TOL = 1e-14
MAX_SWEEPS = 60


def _jacobi_kernel(a, v, accumulate, threshold, max_sweeps):
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
    if n and np.abs(a - a.T).max() > 1e-12 * max(1.0, np.abs(a).max()):
        raise EigFailure("matrix is not symmetric")
    a = 0.5 * (a + a.T)  # exact symmetry for the sweep updates

    # Threshold on the squared off-diagonal norm: (1e-14 * ||A||_F)^2, so the
    # eigenvalue error stays ~1e-14 relative to the matrix scale.
    total = float(np.sum(a * a))
    threshold = OFFDIAG_MASS_TOL**2 * max(1.0, total)
    v = np.eye(n) if need_vectors else np.zeros((1, 1))
    result = _jacobi_kernel(a, v, need_vectors, threshold, MAX_SWEEPS)
    if result < 0:
        raise EigFailure(f"Jacobi sweeps failed to converge in {MAX_SWEEPS} sweeps")

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    if need_vectors:
        return w, v[:, order]
    return w, None


def lambda_min(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigh(matrix, need_vectors=False)
    return float(w[0])

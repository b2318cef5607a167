"""Work counters: one thread-local bucket that both kernels count into.

The bucket's keys are the CLI payload's ``diagnostics`` keys: LP solves and
their pivots (:func:`momentkit.simplex.solve_lp`), Jacobi calls and their
sweeps (:func:`momentkit.eig.jacobi_eigh`), and the support gate's Cholesky
factorizations.  A :func:`collect` block inside another shadows the outer
bucket until it exits.
"""

import threading
from contextlib import contextmanager

KEYS = ("lp_solves", "lp_iterations", "eig_calls", "eig_sweeps", "chol_calls")

_local = threading.local()


@contextmanager
def collect():
    """Count the work of the block into a fresh bucket, 0 for every key."""
    prev = getattr(_local, "bucket", None)
    _local.bucket = dict.fromkeys(KEYS, 0)
    try:
        yield _local.bucket
    finally:
        _local.bucket = prev


def count(**counts):
    """Add ``counts`` to the bucket of the innermost open :func:`collect`."""
    bucket = getattr(_local, "bucket", None)
    if bucket is not None:
        for key, n in counts.items():
            bucket[key] += n

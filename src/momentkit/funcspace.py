"""Finite models of function spaces over a finite ground set.

A function on ``n`` named points is just a length-``n`` vector; subspaces
are spanned by finitely many of them.  The two structural questions asked
downstream (is a function absolutely dominated by the span, is it dominated
up to ``eps`` plus a correction term) are linear-program feasibility over
span coefficients, except when the span contains the constant function:
every function on a finite set is bounded, so ``c * 1`` with ``c`` the
largest value to dominate lies above it, and the answer is yes with no LP.

Each row of such an LP is a point, and two points on which every function
of the span agrees give equal rows: over the measurable functions of a
finite partition each row repeats once per point of its block.  The LPs over
points get one copy of each row, at its smallest right-hand side
(:func:`_one_copy`, the first presolve step of Andersen & Andersen 1995,
*Presolving in linear programming*); the solver solves the rows it is given.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotInDomain
from .frozen import Frozen, FrozenValue, set_field
from .simplex import lp_feasible
from .tolerances import ADAPTED_EPS, INDEPENDENCE_TOL


class GroundSet(FrozenValue):
    """Ordered finite set of named points."""

    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        labels = tuple(str(x) for x in labels)
        if len(labels) == 0:
            raise ValueError("ground set must contain at least one point")
        if len(set(labels)) != len(labels):
            raise ValueError("ground set labels must be unique")
        set_field(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, n: int) -> "GroundSet":
        return cls(tuple(f"x{i}" for i in range(n)))


class FunctionVec(Frozen):
    """Real-valued function on a ground set, stored in ground-set order."""

    _fields = ("ground", "values")

    def __init__(self, ground: GroundSet, values: np.ndarray):
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.shape != (ground.size,):
            raise ValueError(f"expected {ground.size} values, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("function values must be finite")
        vals.setflags(write=False)
        set_field(self, "ground", ground)
        set_field(self, "values", vals)

    def abs(self) -> "FunctionVec":
        return FunctionVec(self.ground, np.abs(self.values))

    def __neg__(self) -> "FunctionVec":
        return FunctionVec(self.ground, -self.values)

    def __add__(self, other: "FunctionVec") -> "FunctionVec":
        _same_ground(self, other)
        return FunctionVec(self.ground, self.values + other.values)

    def __sub__(self, other: "FunctionVec") -> "FunctionVec":
        _same_ground(self, other)
        return FunctionVec(self.ground, self.values - other.values)

    def __mul__(self, scalar: float) -> "FunctionVec":
        return FunctionVec(self.ground, self.values * float(scalar))

    __rmul__ = __mul__


def _same_ground(*objs) -> GroundSet:
    ground = objs[0].ground
    for o in objs:  # nearly always one GroundSet object, settled by identity
        if o.ground is not ground and o.ground.labels != ground.labels:
            raise ValueError("operands live on different ground sets")
    return ground


class DependentBasis(ValueError):
    """A basis fails the rank check of :class:`Subspace`."""


class Subspace:
    """Span of finitely many function vectors (possibly empty).

    The basis must be linearly independent; dependence is detected by a
    singular-value rank check at ``INDEPENDENCE_TOL``, which raises
    :class:`DependentBasis`.  The thin SVD
    ``matrix = U diag(s) Vt`` from that check is kept and answers every
    membership question: ``U @ U.T`` projects onto the span, and the
    coefficients of a member ``f`` are ``Vt.T @ (U.T @ f / s)``.
    """

    def __init__(self, ground: GroundSet, basis=()):
        self.ground = ground
        self.basis = basis = tuple(basis)
        _same_ground(self, *basis)
        self._matrix = (
            np.column_stack([v.values for v in basis])
            if basis else np.zeros((ground.size, 0))
        )
        self._u, self._s, self._vt = np.linalg.svd(self._matrix, full_matrices=False)
        if basis and (len(basis) > ground.size
                      or self._s[-1] <= INDEPENDENCE_TOL * max(1.0, self._s[0])):
            raise DependentBasis("basis vectors are linearly dependent")

    @property
    def matrix(self) -> np.ndarray:
        """Ground-size x dim matrix whose columns are the basis vectors."""
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, coefficients) -> FunctionVec:
        coefficients = np.asarray(coefficients, dtype=float)
        return FunctionVec(self.ground, self._matrix @ coefficients)

    def coefficients_of(self, f: FunctionVec) -> np.ndarray:
        """Basis coefficients of ``f``; raises NotInDomain outside the span.

        ``f`` is outside when its distance to the span, the sup norm of
        ``f`` minus its projection, exceeds ``INDEPENDENCE_TOL * max(1, |f|_inf)``.
        """
        _same_ground(f, self)
        proj = self._u.T @ f.values
        residual = np.abs(self._u @ proj - f.values).max()
        if residual > INDEPENDENCE_TOL * max(1.0, np.abs(f.values).max()):
            raise NotInDomain(f"vector is outside the span (residual {residual:.3e})")
        return self._vt.T @ (proj / self._s)

    @cached_property
    def _basis_ids(self) -> frozenset[int]:
        return frozenset(map(id, self.basis))

    def contains(self, f: FunctionVec) -> bool:
        """Is ``f`` in the span?  One of the basis vectors themselves is, with
        no projection."""
        if id(f) in self._basis_ids:
            return True
        try:
            self.coefficients_of(f)
            return True
        except NotInDomain:
            return False

    def extended_by(self, v: FunctionVec) -> "Subspace":
        return Subspace(self.ground, self.basis + (v,))

    @cached_property
    def _spans_constants(self) -> bool:  # asked once per subspace
        return self.contains(FunctionVec(self.ground, np.ones(self.ground.size)))


def _merge_copies(a_ub: np.ndarray, b_ub: np.ndarray):
    """The rows that stand for their copies, or None when no row repeats.

    Rows are grouped by their bytes after ``+ 0.0``, so ``-0.0`` and ``0.0``
    are one key.  Each group is represented by its copy at the smallest
    right-hand side (the first such copy on a tie), and the groups come in
    the order of their first occurrence.  Rows over no columns have no bytes
    to group by; they count as distinct.
    """
    if not a_ub.shape[1]:
        return None
    keys = np.add(a_ub, 0.0, order="C")
    rhs = b_ub.tolist()
    best: dict[bytes, int] = {}
    for i, key in enumerate(keys.view(np.dtype((np.void, keys.strides[0]))).ravel().tolist()):
        j = best.setdefault(key, i)
        if rhs[i] < rhs[j]:
            best[key] = i
    if len(best) == len(rhs):
        return None
    return np.fromiter(best.values(), dtype=int, count=len(best))


def _one_copy(a_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a_ub @ x <= b_ub`` with each repeated row once (:func:`_merge_copies`)."""
    rows = _merge_copies(a_ub, b_ub)
    return (a_ub, b_ub) if rows is None else (a_ub[rows], b_ub[rows])


def hull_contains(A: Subspace, f: FunctionVec) -> bool:
    """Is some member of ``span(A)`` pointwise above ``|f|``?

    This is the convex sufficient test for lattice-hull membership.  When
    the span contains the constants the answer is yes with no LP:
    ``max|f| * 1`` lies above ``|f|``.  Otherwise one feasibility probe in
    the span coefficients decides it (:func:`lp_feasible`, a Farkas LP).
    """
    _same_ground(f, A)
    if A._spans_constants:
        return True
    return lp_feasible(*_one_copy(-A.matrix, -np.abs(f.values)))


def dominates(g: FunctionVec, f: FunctionVec, B: Subspace, eps: float) -> bool:
    """Does some ``h`` in ``span(B)`` satisfy ``|g| <= eps*|f| + h`` pointwise?

    Yes with no LP when the span contains the constants (``h`` a large
    enough constant); otherwise one feasibility LP decides it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _same_ground(g, f, B)
    if B._spans_constants:
        return True
    deficit = np.abs(g.values) - eps * np.abs(f.values)
    return lp_feasible(*_one_copy(-B.matrix, -deficit))


class AdaptednessEntry(NamedTuple):
    target_index: int
    witness_index: int | None

    @property
    def passed(self) -> bool:
        return self.witness_index is not None


class AdaptednessReport(NamedTuple):
    entries: tuple[AdaptednessEntry, ...] = ()

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def check_adapted(A: Subspace, B: Subspace, candidates=None) -> AdaptednessReport:
    """For each basis vector ``g`` of ``A``, the first candidate ``f`` with
    ``|g| <= eps*|f| + h`` solvable at ``eps = ADAPTED_EPS``.

    The paper asks for an ``h`` in ``span(B)`` at every ``eps > 0``.  An ``h``
    that works at ``eps`` works at every larger one, so a finite check is
    settled by its smallest ``eps`` alone: each candidate costs one
    :func:`dominates` call, which is one LP, or none when ``span(B)``
    contains the constants.
    """
    if candidates is None:
        candidates = default_candidates(A)
    candidates = list(candidates)
    if A.dim and not candidates:
        raise ValueError("candidate list must be nonempty")

    entries = []
    for gi, g in enumerate(A.basis):
        witness = next((ci for ci, f in enumerate(candidates)
                        if dominates(g, f, B, ADAPTED_EPS)), None)
        entries.append(AdaptednessEntry(gi, witness))
    return AdaptednessReport(tuple(entries))


def default_candidates(A: Subspace) -> list[FunctionVec]:
    """Domination candidates: basis vectors, their squares when the square
    stays in the span, and the constant function when the span contains it."""
    out = list(A.basis)
    for v in A.basis:
        squared = FunctionVec(A.ground, v.values * v.values)
        if A.contains(squared):
            out.append(squared)
    if A._spans_constants:
        out.append(FunctionVec(A.ground, np.ones(A.ground.size)))
    return out

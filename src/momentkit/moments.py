"""One-dimensional truncated moment problems.

A truncated sequence m_0..m_{2d} determines a linear functional on
polynomials of degree at most 2d through the monomials.  Positivity of that
functional on squares (and on support-weighted squares) is a symmetric
eigenvalue question about Hankel matrices; representing atomic measures are
recovered by turning the moment matrix into the three-term recurrence of
its orthogonal polynomials (Cholesky factor ratios) and diagonalizing the
resulting symmetric tridiagonal matrix, whose eigenvalues are the atoms and
whose first eigenvector components give the weights.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .counters import count
from .eig import _checked_rows, _frobenius2, finite, jacobi_eigh, lambda_min
from .errors import (
    DegreeTooHigh,
    EigFailure,
    LpFailure,
    NotPSD,
    RankDetectionAmbiguous,
)
from .frozen import FrozenValue, set_field
from .funcspace import _merge_copies
from .simplex import SIZE_CAP, solve_lp
from .tolerances import (GRID_SUPPORT_TOL, GRID_VIOLATION_TOL, OFFDIAG_MASS_TOL, PSD_TOL,
                         RANK_PIVOT_DROP, RANK_PIVOT_KEEP, SUPPORT_TOL, TRUNCATION_TOL)


class Support(FrozenValue):
    """Support class of the sought measure: line, halfline or interval."""

    _fields = ("kind", "a", "b")

    def __init__(self, kind: str, a: float | None = None, b: float | None = None):
        if kind not in ("line", "halfline", "interval"):
            raise ValueError(f"unknown support kind {kind!r}")
        if kind == "interval":
            if a is None or b is None or not (a < b):
                raise ValueError("interval support needs finite a < b")
        elif a is not None or b is not None:
            raise ValueError(f"{kind} support takes no endpoints")
        set_field(self, "kind", kind)
        set_field(self, "a", a)
        set_field(self, "b", b)

    @classmethod
    def line(cls):
        return cls("line")

    @classmethod
    def halfline(cls):
        return cls("halfline")

    @classmethod
    def interval(cls, a: float, b: float):
        return cls("interval", float(a), float(b))

    def contains(self, x: float) -> bool:
        """Is ``x`` in the support, or within ``SUPPORT_TOL`` of it?"""
        if self.kind == "line":
            return True
        if self.kind == "halfline":
            return x >= -SUPPORT_TOL
        return self.a - SUPPORT_TOL <= x <= self.b + SUPPORT_TOL


class MomentSequence(FrozenValue):
    """Moments m_0..m_{2d} plus the declared support class."""

    _fields = ("moments", "support")

    def __init__(self, moments: tuple[float, ...], support: Support = Support.line()):
        ms = tuple(map(float, moments))
        if len(ms) == 0 or len(ms) % 2 == 0:
            raise ValueError("need an odd count of moments m_0..m_{2d}")
        if not all(map(math.isfinite, ms)):
            raise ValueError("moments must be finite")
        set_field(self, "moments", ms)
        set_field(self, "support", support)

    @property
    def max_degree(self) -> int:
        return len(self.moments) - 1

    @property
    def d(self) -> int:
        return self.max_degree // 2

    @property
    def scale(self) -> float:
        return max(1.0, max(map(abs, self.moments)))

    def array(self) -> np.ndarray:
        return np.asarray(self.moments, dtype=float)


class Poly(FrozenValue):
    """Dense univariate polynomial, coefficients in ascending degree."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        cs = [float(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        set_field(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    @classmethod
    def x(cls):
        return cls((0.0, 1.0))


class HankelMatrix(NamedTuple):
    """Moment matrix H[i][j] = L(w(x) x^{i+j}) for an optional weight w: an
    array from :func:`hankel`, rows of Python floats inside this module."""

    matrix: np.ndarray | list[list[float]]
    weight: Poly | None
    label: str

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # by identity

    @property
    def size(self) -> int:
        return len(self.matrix)


class MatrixWitness(NamedTuple):
    label: str
    size: int
    lambda_min: float
    witness: Poly | None  # nonnegative-on-support polynomial with negative value, when failing


class Certificate(NamedTuple):
    verdict: str  # "representable" | "not-representable" | "inconclusive"
    witnesses: tuple[MatrixWitness, ...]
    tol: float
    notes: tuple[str, ...] = ()


class AtomicMeasure(FrozenValue):
    """Finite atomic measure: strictly increasing atoms with positive weights."""

    _fields = ("atoms", "weights", "support")

    def __init__(self, atoms: tuple[float, ...], weights: tuple[float, ...],
                 support: Support = Support.line()):
        atoms = tuple(map(float, atoms))
        weights = tuple(map(float, weights))
        if len(atoms) != len(weights):
            raise ValueError("atom and weight counts differ")
        if not all(map((0.0).__lt__, weights)):  # a NaN weight fails too
            raise ValueError("weights must be strictly positive")
        if any(map(float.__le__, atoms[1:], atoms)):
            raise ValueError("atoms must be strictly increasing")
        set_field(self, "atoms", atoms)
        set_field(self, "weights", weights)
        set_field(self, "support", support)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def moments_to(self, degree: int) -> tuple[float, ...]:
        xs = np.asarray(self.atoms)
        ws = np.asarray(self.weights)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
            moments = tuple(float(ws @ xs**k) for k in range(degree + 1))
        finite("a moment of the atomic measure", *moments)
        return moments

    def within_support(self) -> bool:
        return all(self.support.contains(a) for a in self.atoms)


class TruncationReport(NamedTuple):
    residuals: tuple[float, ...]
    max_relative_residual: float
    through_degree: int
    tol: float
    degree_2d_residual: float

    @property
    def passed(self) -> bool:
        return self.max_relative_residual <= self.tol


class ExtensionCandidate(NamedTuple):
    m_next: float
    m_next_next: float
    lambda_min: float


def riesz(m: MomentSequence, p: Poly) -> float:
    """Value of the moment functional on ``p``: sum of c_k m_k."""
    if p.degree > m.max_degree:
        raise DegreeTooHigh(f"poly degree {p.degree} exceeds truncation {m.max_degree}")
    return float(sum(c * mk for c, mk in zip(p.coeffs, m.moments)))


def _hankel_rows(moments, size: int, weight: Poly | None = None) -> list[list[float]]:
    """Rows of the size x size matrix of the moments, localized by ``weight``:
    each entry is the weight's terms added in degree order to 0.0.  Python
    floats overflow to inf and nan quietly, for the gate to refuse."""
    if weight is not None:
        localized = [0.0] * (2 * size - 1)
        for k, c in enumerate(weight.coeffs):
            if c != 0.0:
                localized = [x + c * y for x, y in zip(localized, moments[k:])]
        moments = localized
    return [list(moments[i:i + size]) for i in range(size)]


def hankel(m: MomentSequence, size: int, weight: Poly | None = None) -> HankelMatrix:
    """Moment matrix of the given size, optionally localized by a weight."""
    H = _hankel(m, size, weight)
    return H._replace(matrix=np.array(H.matrix))


def _hankel(m: MomentSequence, size: int, weight: Poly | None = None) -> HankelMatrix:
    """:func:`hankel` with the matrix as rows of Python floats."""
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    top = 2 * (size - 1) + (weight.degree if weight is not None else 0)
    if top > m.max_degree:
        raise DegreeTooHigh(
            f"size-{size} matrix needs moment m_{top}, only m_0..m_{m.max_degree} available"
        )
    label = "hankel" if weight is None else f"localized[{','.join(f'{c:g}' for c in weight.coeffs)}]"
    return HankelMatrix(_hankel_rows(m.moments, size, weight), weight, label)


def psd(H, tol: float = PSD_TOL):
    """Smallest eigenvalue test: ``(lambda_min >= -tol, lambda_min)``."""
    lam = lambda_min(H.matrix if isinstance(H, HankelMatrix) else H)
    return lam >= -tol, lam


def _support_matrices(m: MomentSequence) -> list[HankelMatrix]:
    mats = [_hankel(m, m.d + 1)]
    if m.d >= 1:
        if m.support.kind == "halfline":
            mats.append(_hankel(m, m.d, Poly.x()))
        elif m.support.kind == "interval":
            a, b = m.support.a, m.support.b
            # (b - x)(x - a) = -ab + (a + b) x - x^2
            mats.append(_hankel(m, m.d, Poly((-a * b, a + b, -1.0))))
    return mats


def _gate(m: MomentSequence, tol: float) -> tuple[str | None, list[_Chain]]:
    """Why a support matrix fails positivity (None when all pass), and the
    factor of each matrix passed.  A matrix fails when its smallest
    eigenvalue is below ``-tol * max(1, ||H||_F)``, in units of
    ``2^k``, ``k = max(e, 0)`` with ``2^(e-1) <= max |H_ij| < 2^e``, so that
    neither ``||H||_F`` nor the eigenvalue, taken of ``2^-k H``, overflows.
    The factor passes a matrix when four times the sum of its bound on
    ``-lambda_min(H)`` and the sweep's error is at most that threshold; the
    sweep decides, and words, the rest, on a copy of ``2^-k H`` made then.
    """
    chains = []
    for H in _support_matrices(m):
        rows, amax, _ = _checked_rows(H.matrix)
        k = max(math.frexp(amax)[1], 0)
        s = math.ldexp(1.0, -k)  # a double: x * s rounds as ldexp(x, -k)
        scale = max(s, math.sqrt(_frobenius2(rows, s)))
        chains.append(_leading_chain(rows))
        # stopping error, rotations' rounding, and that of the chain's copy
        sweep_error = (H.size + 1) * OFFDIAG_MASS_TOL * scale
        if 4.0 * (math.ldexp(chains[-1].floor, -k) + sweep_error) <= tol * scale:
            continue
        lam = lambda_min([[x * s for x in r] for r in rows])
        if lam < -tol * scale:
            return f"{H.label} matrix has scaled smallest eigenvalue {lam / scale:.3e}", chains
    return None, chains


def _eigvec_witness(H: HankelMatrix, q: np.ndarray) -> Poly:
    """Square of the polynomial with coefficients ``q``, times the weight.

    With ``q`` the unit eigenvector of the smallest eigenvalue of ``H``, it
    is nonnegative on the support class by construction, with moment value
    equal to that eigenvalue.
    """
    square = np.polynomial.polynomial.polymul(q, q)
    if H.weight is not None:
        square = np.polynomial.polynomial.polymul(square, np.asarray(H.weight.coeffs))
    return Poly(tuple(square))


def positivity_certificate(m: MomentSequence, tol: float = PSD_TOL) -> Certificate:
    """Support-class positivity test on the moment matrices.

    line: plain Hankel; halfline: plus the x-shifted matrix; interval:
    plus the (b-x)(x-a)-localized matrix.  The verdict is read off the
    smallest eigenvalue of them all: representable above +tol,
    not-representable below -tol (each matrix below it gets an explicit
    witness polynomial), inconclusive in between.
    """
    witnesses = []
    for H in _support_matrices(m):
        w, V = jacobi_eigh(H.matrix)
        lam = float(w[0])
        finite(f"the {H.label} matrix's smallest eigenvalue", lam)
        witnesses.append(
            MatrixWitness(H.label, H.size, lam, _eigvec_witness(H, V[:, 0]) if lam < -tol else None)
        )
    lam = min(w.lambda_min for w in witnesses)
    if lam < -tol:
        return Certificate("not-representable", tuple(witnesses), tol)
    if lam > tol:
        return Certificate("representable", tuple(witnesses), tol)
    notes = (f"some eigenvalue sits in the boundary band |lambda| <= {tol:g}",)
    return Certificate("inconclusive", tuple(witnesses), tol, notes)


def haviland_grid_check(m: MomentSequence, grid, tol: float = PSD_TOL):
    """Minimize the moment functional over grid-nonnegative normalized polys.

    The minimum of ``riesz(m, p)`` over polynomials p of degree <= 2d with
    p(x_j) >= 0 on the grid and coefficient 1-norm at most 1 is, by LP
    duality, minus the l-infinity distance from m to the cone of grid
    moment vectors: ``min t`` over ``lam, t >= 0`` with
    ``|m - V^T lam| <= t``, V the grid Vandermonde matrix.

    The LP is solved in u = m / |m|_inf (u = 0 when m = 0) with t = 1 - tau:
    ``max tau`` over ``lam, tau >= 0`` with rows ``V^T lam + tau <= 1 + u``
    and ``-V^T lam + tau <= 1 - u``.  Every right-hand side lies in [0, 2],
    so the slack basis is feasible and there is no phase 1.  lam = 0, t = 1
    is feasible, so tau >= 0 cuts off no optimum; the two rows imply t >= 0,
    so the LP keeps 2(2d+1) rows, less copies: on active points in
    {-1, 0, 1} powers of one parity give equal rows, each solved once at its
    smallest right-hand side with its copies' multipliers 0 (as in
    :mod:`momentkit.funcspace`).  Its dual feasible set does not depend on
    m, so the LP is scale-free, and the multipliers y+ of the first block and
    y- of the second give the minimizer c = y- - y+.  A value at or above
    -tol certifies positivity on the (grid-nonnegative) relaxation of the
    support cone; a failure ships the polynomial as an explicit witness.

    Grid points enter by column generation: solve on at most 256 evenly
    spaced points, add the (up to 16) points where c is most negative,
    repeat.  The witness is then shifted up by its most negative grid value
    and scaled to 1-norm at most 1, so it is grid-nonnegative and
    normalized by construction, and the verdict is read from its value.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    s = m.support
    lo, hi = {"line": (-np.inf, np.inf), "halfline": (0.0, np.inf)}.get(s.kind, (s.a, s.b))
    if not np.all((grid >= lo - GRID_SUPPORT_TOL) & (grid <= hi + GRID_SUPPORT_TOL)):
        raise ValueError("grid points must lie inside the declared support")
    n_coef = m.max_degree + 1
    vander = np.vander(grid, n_coef, increasing=True)
    mom = m.array()
    u = mom / (float(np.abs(mom).max()) or 1.0)
    b_ub = np.concatenate([1.0 + u, 1.0 - u])
    tau_col = np.ones((2 * n_coef, 1))

    # variables: [lam (one per active point), tau] >= 0
    def _witness(points):
        cols = vander[points].T
        a_ub = np.hstack([np.vstack([cols, -cols]), tau_col])
        cost = np.zeros(points.size + 1)
        cost[-1] = -1.0
        rows = _merge_copies(a_ub, b_ub)
        rows = slice(None) if rows is None else rows
        sol = solve_lp(cost, a_ub=a_ub[rows], b_ub=b_ub[rows])
        if not sol.optimal:
            raise LpFailure(f"grid-distance LP ended with status {sol.status}")
        y = np.zeros(b_ub.size)
        y[rows] = sol.duals
        return y[n_coef:] - y[:n_coef], sol.x[:-1]

    # The LP takes `room` grid columns beside tau and the 2 n_coef slacks.  When
    # it would overflow, only the points with positive weight stay: at most
    # n_coef of them are basic, and the last optimum stays feasible.
    room = SIZE_CAP - 1 - 2 * n_coef
    active = np.arange(0, grid.size, -(-grid.size // max(1, min(256, room))))
    for _ in range(60):
        coeffs, lam = _witness(active)
        values = vander @ coeffs
        violated = np.nonzero(values < -GRID_VIOLATION_TOL)[0]
        worst = violated[np.argsort(values[violated])[:16]]
        new = worst[~np.isin(worst, active)]
        if not new.size:
            coeffs[0] += max(0.0, -float(values.min()))
            witness = Poly(tuple(coeffs / max(1.0, float(np.abs(coeffs).sum()))))
            return riesz(m, witness) >= -tol, witness
        if active.size + new.size > room:
            active = active[lam > 0]
        active = np.concatenate([active, new])
    raise LpFailure("column generation for the grid check did not settle")


class _Chain(NamedTuple):
    """Leading-chain factor of H: rows ``0..kept-1`` of its upper Cholesky factor
    ``R``, the scaled pivot that stopped it (or None), ``lambda_min(H) >= -floor``."""

    kept: int
    pivot: float | None
    R: list[list[float]]
    floor: float

    def rank(self) -> int:  # a stopping pivot in the keep/drop band is ambiguous
        if self.pivot is None or self.pivot < RANK_PIVOT_DROP:
            return self.kept
        raise RankDetectionAmbiguous(float(self.pivot), self.kept)


def _leading_chain(rows: list[list[float]]) -> _Chain:
    """Cholesky factorization of H, given as rows, stopped at the first pivot not above
    1e-10 of ``Hs = D^-1 H D^-1``, ``D^2 = diag(H)`` (1 where ``H_ii <= 0``).
    Stopped after rows ``[R11, R12]``, ``Hs = X^T (I + S) X`` with
    ``X = [[R11, R12], [0, I]]``, ``S = Hs22 - R12^T R12``, so
    ``lambda_min(H) >= max(D^2) min(0, lambda_min(S))``; Gershgorin bounds
    lambda_min(S), and the rounding (the partial factorization's backward
    error, Higham 2002, §10.3, then S and the sums) is below
    ``(n + 2) 2^-53 (3 ||R1||_F^2 + 2 sum |S|)``.

    One pass over the upper triangle of ``Hs`` in Python floats, as
    :func:`momentkit.eig._jacobi_kernel` sweeps: at these sizes numpy's
    per-call cost exceeds the arithmetic.  Each kept row k is divided by
    its pivot's root and its outer product subtracted from the rows below
    (right-looking), so where the chain stops the trailing block is S.
    Python floats overflow to inf and nan as numpy's do, quietly: a
    failing matrix's floor is then inf or nan, which passes nothing.
    """
    count(chol_calls=1)
    n = len(rows)
    scale = [math.sqrt(r[i]) if r[i] > 0.0 else 1.0 for i, r in enumerate(rows)]
    a = [[h / (si * sj) for h, sj in zip(r, scale)] for r, si in zip(rows, scale)]
    kept, pivot = n, None
    for k, ak in enumerate(a):
        p = ak[k]
        if not p > RANK_PIVOT_KEEP:
            kept, pivot = k, p
            break
        ak[k] = root = math.sqrt(p)
        for j in range(k + 1, n):
            ak[j] /= root
        for i in range(k + 1, n):
            ai, x = a[i], ak[i]
            for j in range(i, n):
                ai[j] -= x * ak[j]
    R = [[0.0] * i + [x * s for x, s in zip(a[i][i:], scale[i:])] if i < kept else [0.0] * n
         for i in range(n)]
    g, rounding = 0.0, 3.0 * sum(x * x for i in range(kept) for x in a[i][i:])
    if kept < n:  # row sums of |S|, read off the trailing block's upper triangle
        t = [sum(abs(a[min(i, j)][max(i, j)]) for j in range(kept, n)) for i in range(kept, n)]
        g = min(2.0 * max(a[i][i], 0.0) - ti for i, ti in enumerate(t, kept))  # Gershgorin
        rounding += 2.0 * sum(t)
    smax = max(scale)
    deficit = max(-g, 0.0) + (n + 2) * 2.0**-53 * rounding  # max keeps a nan g
    return _Chain(kept, pivot, R, deficit * smax * smax)


def recover_atoms(m: MomentSequence, tol: float = PSD_TOL) -> AtomicMeasure:
    """Atomic measure matching the sequence through degree ``2r - 1``.

    The atom count ``r`` is the leading-chain numerical rank of the moment
    matrix (capped at d: recovering d+1 atoms would need moments beyond the
    truncation).  Atoms and weights come from the symmetric tridiagonal
    recurrence matrix built out of the ratios of the gate's Cholesky factor.
    A support matrix failing the gate at ``tol`` raises :class:`NotPSD`.
    """
    violation, chains = _gate(m, tol)
    if violation is not None:
        raise NotPSD(violation)
    return _atoms(m, chains[0])


def _atoms(m: MomentSequence, chain: _Chain) -> AtomicMeasure:
    """The ``min(rank, d)``-atom measure of ``m``, given the leading-chain
    factor of its moment matrix H_d; the support gate is the caller's."""
    r = min(chain.rank(), m.d)
    if r == 0:
        return AtomicMeasure((), (), m.support)

    # Recurrence from rows 0..r-1 of the factor: alpha_j = R[j, j+1] / R[j, j]
    # - R[j-1, j] / R[j-1, j-1] and beta_j = R[j+1, j+1] / R[j, j].
    # An atom beyond the double range (m = (1e-320, 1e-10, 1) has one near
    # 1e310) overflows here, in the unscaled factor and the scaled one alike.
    R = chain.R
    ratios = [R[j][j + 1] / R[j][j] for j in range(r)]
    J = [[0.0] * r for _ in range(r)]
    for j in range(r):
        J[j][j] = ratios[j] - (ratios[j - 1] if j else 0.0)
        if j:
            J[j - 1][j] = J[j][j - 1] = R[j][j] / R[j - 1][j - 1]
    if not all(map(math.isfinite, (x for row in J for x in row))):
        raise EigFailure("the atoms' recurrence matrix overflows the double range")
    nodes, vectors = jacobi_eigh(J)
    finite("an atom", *nodes)
    weights = m.moments[0] * vectors[0, :] ** 2
    if not (weights > 0.0).all():  # m_0 v^2 below the double range
        raise EigFailure("an atom's weight underflows the double range")
    return AtomicMeasure(nodes.tolist(), weights.tolist(), m.support)


def verify_truncated(m: MomentSequence, mu: AtomicMeasure,
                     through_degree: int | None = None,
                     tol: float = TRUNCATION_TOL) -> TruncationReport:
    """Relative moment residuals of the measure against the sequence.

    Defaults to degrees 0..2d-1 (the guaranteed range); the degree-2d
    residual is reported separately because it may legitimately be nonzero.
    Residuals are measured relative to the magnitude of the sequence,
    ``max(1, max_k |m_k|)``.
    """
    if through_degree is None:
        through_degree = 2 * m.d - 1
    if through_degree > m.max_degree:
        raise DegreeTooHigh(
            f"cannot verify through degree {through_degree}: moments stop at {m.max_degree}"
        )
    scale = m.scale
    mu_moms = mu.moments_to(m.max_degree) if m.max_degree >= 0 else ()
    residuals = tuple(
        abs(m.moments[k] - mu_moms[k]) / scale for k in range(max(through_degree + 1, 0))
    )
    top_residual = abs(m.moments[-1] - mu_moms[-1]) / scale
    return TruncationReport(
        residuals=residuals,
        max_relative_residual=max(residuals, default=0.0),
        through_degree=through_degree,
        tol=tol,
        degree_2d_residual=top_residual,
    )


def _flat_norm2(rows: list[list[float]], b) -> float:
    """``|y|^2`` for ``R^T y = b``, R upper triangular with a positive
    diagonal, by forward substitution on R's rows in Python floats.  Beyond
    the double range the sum is inf or nan, for :func:`finite` to refuse."""
    y = []
    for i, bi in enumerate(b):
        y.append((bi - sum(rows[j][i] * yj for j, yj in enumerate(y))) / rows[i][i])
    return sum(v * v for v in y)


def extend_search(m: MomentSequence, tol: float = PSD_TOL) -> ExtensionCandidate | None:
    """Two more moments m_{2d+1}, m_{2d+2} keeping the bigger moment matrix PSD.

    Decided by the truncated moment theorems (Curto & Fialkow 1991): a
    support matrix below the shared gate has no extension.  A positive
    definite H_d has the flat extension m_{2d+2} = b^T H_d^{-1} b (zero
    Schur complement), with m_{2d+1} = 0 on the line.  On support with a
    left endpoint a, m_{2d+1} = a m_{2d} + c^T S^{-1} c instead, where S is
    the d x d Hankel matrix of s_k = m_{k+1} - a m_k and c = (s_d..s_{2d-1}):
    the flat extension is then the measure with d+1 atoms, all >= a (the
    lower principal measure on an interval).  A singular S leaves no
    measure on [a, inf), since a positive definite H_d needs d+1 atoms.
    A singular H_d extends only by the moments of its unique rank-r atomic
    measure, which must reproduce the sequence through degree 2d inside the
    support.  Returns None when no extension exists.  Only the interval's S
    is factored here: every other factor read is the gate's.  With
    ``H = R^T R``, ``b^T H^-1 b = |y|^2`` for ``R^T y = b``, solved by
    forward substitution (:func:`_flat_norm2`): a general LU solve pivots
    and may swap the rows of a triangular factor.
    """
    violation, chains = _gate(m, tol)
    if violation is not None:
        return None
    ms = m.moments
    d = m.d
    if chains[0].rank() == d + 1:
        a = {"halfline": 0.0, "interval": m.support.a}.get(m.support.kind)
        m_odd = 0.0 if a is None else a * ms[-1]
        if a is not None and d:  # on the halfline S is the gate's localizing matrix
            s = [m1 - a * m0 for m0, m1 in zip(ms, ms[1:])]
            chain_s = (chains[1] if m.support.kind == "halfline"
                       else _leading_chain(_hankel_rows(s, d)))
            if chain_s.rank() < d:
                return None
            m_odd += _flat_norm2(chain_s.R, s[d:])
        ext = (m_odd, _flat_norm2(chains[0].R, ms[d + 1:] + (m_odd,)))
    else:
        mu = _atoms(m, chains[0])
        if not (verify_truncated(m, mu, through_degree=2 * d, tol=tol).passed
                and mu.within_support()):
            return None
        ext = mu.moments_to(2 * d + 2)[-2:]
    finite("an extension moment", *ext)
    lam = lambda_min(_hankel_rows(ms + ext, d + 2))
    return ExtensionCandidate(ext[0], ext[1], lam)

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
from dataclasses import dataclass, field

import numpy as np

from .eig import jacobi_eigh, lambda_min
from .errors import (
    DegreeTooHigh,
    LpFailure,
    NotPSD,
    RankDetectionAmbiguous,
)
from .simplex import SIZE_CAP, solve_lp

PSD_TOL = 1e-8
RANK_PIVOT_KEEP = 1e-10
RANK_PIVOT_DROP = 1e-12


@dataclass(frozen=True)
class Support:
    """Support class of the sought measure: line, halfline or interval."""

    kind: str
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in ("line", "halfline", "interval"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == "interval":
            if self.a is None or self.b is None or not (self.a < self.b):
                raise ValueError("interval support needs finite a < b")
        elif self.a is not None or self.b is not None:
            raise ValueError(f"{self.kind} support takes no endpoints")

    @classmethod
    def line(cls):
        return cls("line")

    @classmethod
    def halfline(cls):
        return cls("halfline")

    @classmethod
    def interval(cls, a: float, b: float):
        return cls("interval", float(a), float(b))

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if self.kind == "line":
            return True
        if self.kind == "halfline":
            return x >= -tol
        return self.a - tol <= x <= self.b + tol


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0..m_{2d} plus the declared support class."""

    moments: tuple[float, ...]
    support: Support = field(default_factory=Support.line)

    def __post_init__(self):
        ms = tuple(float(x) for x in self.moments)
        object.__setattr__(self, "moments", ms)
        if len(ms) == 0 or len(ms) % 2 == 0:
            raise ValueError("need an odd count of moments m_0..m_{2d}")
        if not all(math.isfinite(x) for x in ms):
            raise ValueError("moments must be finite")

    @property
    def max_degree(self) -> int:
        return len(self.moments) - 1

    @property
    def d(self) -> int:
        return self.max_degree // 2

    @property
    def scale(self) -> float:
        return max(1.0, max(abs(x) for x in self.moments))

    def array(self) -> np.ndarray:
        return np.asarray(self.moments, dtype=float)


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, coefficients in ascending degree."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = [float(c) for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    @classmethod
    def x(cls):
        return cls((0.0, 1.0))


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """Moment matrix H[i][j] = L(w(x) x^{i+j}) for an optional weight w."""

    matrix: np.ndarray
    weight: Poly | None
    label: str

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MatrixWitness:
    label: str
    size: int
    lambda_min: float
    witness: Poly | None  # nonnegative-on-support polynomial with negative value, when failing


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "representable" | "not-representable" | "inconclusive"
    witnesses: tuple[MatrixWitness, ...]
    tol: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure: strictly increasing atoms with positive weights."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]
    support: Support = field(default_factory=Support.line)

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if len(atoms) != len(weights):
            raise ValueError("atom and weight counts differ")
        if any(not (w > 0.0) for w in weights):
            raise ValueError("weights must be strictly positive")
        if any(b <= a for a, b in zip(atoms, atoms[1:])):
            raise ValueError("atoms must be strictly increasing")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def moment(self, k: int) -> float:
        return float(sum(w * a**k for a, w in zip(self.atoms, self.weights)))

    def moments_to(self, degree: int) -> tuple[float, ...]:
        xs = np.asarray(self.atoms)
        ws = np.asarray(self.weights)
        return tuple(float(ws @ xs**k) for k in range(degree + 1))

    def within_support(self, tol: float = 1e-8) -> bool:
        return all(self.support.contains(a, tol) for a in self.atoms)


@dataclass(frozen=True)
class TruncationReport:
    residuals: tuple[float, ...]
    max_relative_residual: float
    through_degree: int
    tol: float
    degree_2d_residual: float

    @property
    def passed(self) -> bool:
        return self.max_relative_residual <= self.tol


@dataclass(frozen=True)
class ExtensionCandidate:
    m_next: float
    m_next_next: float
    lambda_min: float


def riesz(m: MomentSequence, p: Poly) -> float:
    """Value of the moment functional on ``p``: sum of c_k m_k."""
    if p.degree > m.max_degree:
        raise DegreeTooHigh(f"poly degree {p.degree} exceeds truncation {m.max_degree}")
    return float(sum(c * mk for c, mk in zip(p.coeffs, m.moments)))


def _hankel_array(moments: np.ndarray, size: int, weight: Poly | None = None) -> np.ndarray:
    idx = np.add.outer(np.arange(size), np.arange(size))
    if weight is None:
        return moments[idx]
    out = np.zeros((size, size))
    for k, c in enumerate(weight.coeffs):
        if c != 0.0:
            out += c * moments[idx + k]
    return out


def hankel(m: MomentSequence, size: int, weight: Poly | None = None) -> HankelMatrix:
    """Moment matrix of the given size, optionally localized by a weight."""
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    top = 2 * (size - 1) + (weight.degree if weight is not None else 0)
    if top > m.max_degree:
        raise DegreeTooHigh(
            f"size-{size} matrix needs moment m_{top}, only m_0..m_{m.max_degree} available"
        )
    label = "hankel" if weight is None else f"localized[{','.join(f'{c:g}' for c in weight.coeffs)}]"
    return HankelMatrix(_hankel_array(m.array(), size, weight), weight, label)


def psd(H, tol: float = PSD_TOL):
    """Smallest eigenvalue test: ``(lambda_min >= -tol, lambda_min)``."""
    matrix = H.matrix if isinstance(H, HankelMatrix) else np.asarray(H, dtype=float)
    lam = lambda_min(matrix)
    return lam >= -tol, lam


def _support_matrices(m: MomentSequence) -> list[HankelMatrix]:
    mats = [hankel(m, m.d + 1)]
    if m.d >= 1:
        if m.support.kind == "halfline":
            mats.append(hankel(m, m.d, Poly.x()))
        elif m.support.kind == "interval":
            a, b = m.support.a, m.support.b
            # (b - x)(x - a) = -ab + (a + b) x - x^2
            mats.append(hankel(m, m.d, Poly((-a * b, a + b, -1.0))))
    return mats


def _support_violation(m: MomentSequence, tol: float) -> str | None:
    """Why a support matrix fails positivity, or None when all pass.

    A matrix fails when its smallest eigenvalue is below
    ``-tol * max(1, ||H||_F)``; atom recovery and the extension share
    this rule.
    """
    for H in _support_matrices(m):
        scale = max(1.0, float(np.sqrt(np.sum(H.matrix * H.matrix))))
        lam = lambda_min(H.matrix)
        if lam < -tol * scale:
            return f"{H.label} matrix has scaled smallest eigenvalue {lam / scale:.3e}"
    return None


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
    plus the (b-x)(x-a)-localized matrix.  Verdict is representable when
    every matrix clears +tol, not-representable when some matrix dips below
    -tol (with an explicit witness polynomial), inconclusive in between.
    """
    witnesses = []
    verdicts = []
    for H in _support_matrices(m):
        w, V = jacobi_eigh(H.matrix)
        lam = float(w[0])
        failing = lam < -tol
        witnesses.append(
            MatrixWitness(H.label, H.size, lam, _eigvec_witness(H, V[:, 0]) if failing else None)
        )
        verdicts.append(-1 if failing else (1 if lam > tol else 0))
    if any(v < 0 for v in verdicts):
        verdict = "not-representable"
        notes = ()
    elif all(v > 0 for v in verdicts):
        verdict = "representable"
        notes = ()
    else:
        verdict = "inconclusive"
        notes = (f"some eigenvalue sits in the boundary band |lambda| <= {tol:g}",)
    return Certificate(verdict, tuple(witnesses), tol, notes)


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
    so the LP keeps 2(2d+1) rows.  Its dual feasible set does not depend on
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
    if not np.all((grid >= lo - 1e-12) & (grid <= hi + 1e-12)):
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
        sol = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, nonneg=True)
        if not sol.optimal:
            raise LpFailure(f"grid-distance LP ended with status {sol.status}")
        return sol.duals[n_coef:] - sol.duals[:n_coef], sol.x[:-1]

    # The LP takes `room` grid columns beside tau and the 2 n_coef slacks.  When
    # it would overflow, only the points with positive weight stay: at most
    # n_coef of them are basic, and the last optimum stays feasible.
    room = SIZE_CAP - 1 - 2 * n_coef
    active = np.arange(0, grid.size, -(-grid.size // max(1, min(256, room))))
    for _ in range(60):
        coeffs, lam = _witness(active)
        values = vander @ coeffs
        violated = np.nonzero(values < -1e-12)[0]
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


def _scaled_cholesky_rank(H: np.ndarray):
    """Leading-chain numerical rank with diagonally scaled pivots.

    Returns ``(rank, R)`` where ``R`` holds the rows of the upper Cholesky
    factor of the *unscaled* matrix computed so far.  Pivots are measured
    after symmetric scaling to unit diagonal, so the keep/drop thresholds
    1e-10 / 1e-12 are scale-free; a pivot inside the band raises
    :class:`RankDetectionAmbiguous`.
    """
    n = H.shape[0]
    diag = np.diag(H).copy()
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    Hs = H / np.outer(scale, scale)
    Rs = np.zeros((n, n))
    rank = n
    for k in range(n):
        pivot = Hs[k, k] - Rs[:k, k] @ Rs[:k, k]
        if pivot > RANK_PIVOT_KEEP:
            Rs[k, k] = math.sqrt(pivot)
            Rs[k, k + 1:] = (Hs[k, k + 1:] - Rs[:k, k] @ Rs[:k, k + 1:]) / Rs[k, k]
        elif pivot < RANK_PIVOT_DROP:
            rank = k
            break
        else:
            raise RankDetectionAmbiguous(float(pivot), k)
    return rank, Rs * scale[None, :]


def recover_atoms(m: MomentSequence, tol: float = PSD_TOL) -> AtomicMeasure:
    """Atomic measure matching the sequence through degree ``2r - 1``.

    The atom count ``r`` is the leading-chain numerical rank of the moment
    matrix (capped at d: recovering d+1 atoms would need moments beyond the
    truncation).  Atoms and weights come from the symmetric tridiagonal
    recurrence matrix built out of Cholesky factor ratios.  A support matrix
    failing the gate at ``tol`` raises :class:`NotPSD`.
    """
    violation = _support_violation(m, tol)
    if violation is not None:
        raise NotPSD(violation)
    rank, _ = _scaled_cholesky_rank(_hankel_array(m.array(), m.d + 1))
    return _atoms(m, rank)


def _atoms(m: MomentSequence, rank: int) -> AtomicMeasure:
    """The ``min(rank, d)``-atom measure of ``m``, given the numerical rank
    of its moment matrix H_d; the support gate is the caller's."""
    r = min(rank, m.d)
    if r == 0:
        return AtomicMeasure((), (), m.support)

    # Recurrence coefficients from the Cholesky factor of the (r+1)-sized
    # leading moment matrix; only rows 0..r-1 are needed (and available).
    _, R = _scaled_cholesky_rank(_hankel_array(m.array(), r + 1))
    alpha = np.empty(r)
    beta = np.empty(max(r - 1, 0))
    for j in range(r):
        alpha[j] = R[j, j + 1] / R[j, j]
        if j >= 1:
            alpha[j] -= R[j - 1, j] / R[j - 1, j - 1]
            beta[j - 1] = R[j, j] / R[j - 1, j - 1]

    J = np.diag(alpha)
    for j in range(r - 1):
        J[j, j + 1] = J[j + 1, j] = beta[j]
    nodes, vectors = jacobi_eigh(J)
    weights = m.moments[0] * vectors[0, :] ** 2
    return AtomicMeasure(tuple(float(x) for x in nodes),
                         tuple(float(w) for w in weights), m.support)


def verify_truncated(m: MomentSequence, mu: AtomicMeasure,
                     through_degree: int | None = None,
                     tol: float = 1e-7) -> TruncationReport:
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
    support.  Returns None when no extension exists.
    """
    if _support_violation(m, tol) is not None:
        return None
    arr = m.array()
    d = m.d
    rank, R = _scaled_cholesky_rank(_hankel_array(arr, d + 1))
    if rank == d + 1:
        m_odd = 0.0
        a = {"halfline": 0.0, "interval": m.support.a}.get(m.support.kind)
        if a is not None:
            s = arr[1:] - a * arr[:-1]
            rank_s, R_s = _scaled_cholesky_rank(_hankel_array(s, d))
            if rank_s < d:
                return None
            y = np.linalg.solve(R_s.T, s[d:])
            m_odd = a * arr[-1] + y @ y
        b = np.append(arr[d + 1:], m_odd)
        y = np.linalg.solve(R.T, b)  # H_d = R^T R, so b^T H_d^{-1} b = |y|^2
        ext = np.array([m_odd, y @ y])
    else:
        mu = _atoms(m, rank)
        if not (verify_truncated(m, mu, through_degree=2 * d, tol=tol).passed
                and mu.within_support()):
            return None
        ext = np.asarray(mu.moments_to(2 * d + 2)[-2:])
    lam = lambda_min(_hankel_array(np.concatenate([arr, ext]), d + 2))
    return ExtensionCandidate(float(ext[0]), float(ext[1]), float(lam))

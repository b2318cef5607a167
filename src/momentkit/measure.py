"""Measures on finite partitions and the representation pipeline.

A finite sigma-algebra is encoded by the partition that generates it; simple
functions are block-constant vectors; the measure induced by a positive
functional assigns each block the value of the functional on its indicator.
With those pieces the representation pipeline is: extend the functional to
every indicator, check that the designated subspace is dense in the induced
L1-style seminorm, read off the measure, and report the gap between
functional values and integrals together with the domination diagnostics.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DensityFailed,
    IntegralOfNonMeasurable,
    LpFailure,
    NegativeMass,
    RangeViolation,
)
from .extend import ExtensionTrace, Functional, extend_to_hull, hb_extend, verify_positive
from .frozen import Frozen, FrozenValue, set_field
from .funcspace import (
    AdaptednessReport,
    FunctionVec,
    GroundSet,
    Subspace,
    _merge_copies,
    _same_ground,
    check_adapted,
    default_candidates,
)
from .simplex import solve_lp
from .tolerances import (ADAPTED_EPS, DENSITY_TOL, MASS_DUST, MASS_ERROR_TOL, MEASURABLE_TOL,
                         RESIDUAL_TOL, T_DECAY_SLACK)


class SigmaAlgebra(FrozenValue):
    """Finite sigma-algebra, stored as the partition generating it."""

    _fields = ("ground", "blocks")

    def __init__(self, ground: GroundSet, blocks: tuple[tuple[int, ...], ...]):
        blocks = tuple(tuple(int(i) for i in block) for block in blocks)
        seen = [i for block in blocks for i in block]
        n = ground.size
        if any(len(block) == 0 for block in blocks):
            raise ValueError("partition blocks must be nonempty")
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must partition the ground set (cover, disjoint)")
        set_field(self, "ground", ground)
        set_field(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def indicator(self, block_index: int) -> FunctionVec:
        vals = np.zeros(self.ground.size)
        vals[list(self.blocks[block_index])] = 1.0
        return FunctionVec(self.ground, vals)

    @cached_property
    def _indicators(self) -> tuple[FunctionVec, ...]:  # built once: they are read-only
        return tuple(self.indicator(i) for i in range(self.n_blocks))

    def indicators(self) -> list[FunctionVec]:
        return list(self._indicators)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The points in block order, and the offset where each block starts."""
        order = np.array([i for block in self.blocks for i in block])
        starts = np.cumsum([0] + [len(block) for block in self.blocks[:-1]])
        return order, starts

    def block_values(self, f: FunctionVec) -> np.ndarray:
        """Per-block constants of ``f`` (its value at each block's first point);
        raises, naming the first such block, if ``f`` varies inside a block:
        its spread there exceeds ``MEASURABLE_TOL * max(1, largest |value|)``."""
        _same_ground(f, self)
        order, starts = self._layout
        vals = f.values[order]
        hi = np.maximum.reduceat(vals, starts)
        lo = np.minimum.reduceat(vals, starts)
        spread = hi - lo
        varies = spread > MEASURABLE_TOL * np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))
        if varies.any():
            i = int(np.argmax(varies))
            raise IntegralOfNonMeasurable(
                f"function is not constant on block {i} (spread {spread[i]:.3e})"
            )
        return vals[starts]

    def is_measurable(self, f: FunctionVec) -> bool:
        try:
            self.block_values(f)
            return True
        except IntegralOfNonMeasurable:
            return False


class SimpleFunction(Frozen):
    """Block-constant function given by one value per partition block."""

    _fields = ("algebra", "block_values")

    def __init__(self, algebra: SigmaAlgebra, block_values: np.ndarray):
        vals = np.atleast_1d(np.asarray(block_values, dtype=float))
        if vals.shape != (algebra.n_blocks,):
            raise ValueError(f"expected {algebra.n_blocks} block values, got {vals.shape}")
        vals.setflags(write=False)
        set_field(self, "algebra", algebra)
        set_field(self, "block_values", vals)

    def as_vec(self) -> FunctionVec:
        out = np.empty(self.algebra.ground.size)
        for value, block in zip(self.block_values, self.algebra.blocks):
            out[list(block)] = value
        return FunctionVec(self.algebra.ground, out)


class Measure(Frozen):
    """Nonnegative mass per partition block."""

    _fields = ("algebra", "block_mass")

    def __init__(self, algebra: SigmaAlgebra, block_mass: np.ndarray):
        mass = np.atleast_1d(np.asarray(block_mass, dtype=float))
        if mass.shape != (algebra.n_blocks,):
            raise ValueError(f"expected {algebra.n_blocks} masses, got {mass.shape}")
        if mass.min(initial=0.0) < -MASS_DUST:
            raise ValueError("block masses must be nonnegative (clamp upstream)")
        mass = np.where(mass < 0.0, 0.0, mass)
        mass.setflags(write=False)
        set_field(self, "algebra", algebra)
        set_field(self, "block_mass", mass)

    @property
    def total(self) -> float:
        return float(self.block_mass.sum())

    def mass_of(self, block_indices) -> float:
        return float(sum(self.block_mass[i] for i in block_indices))


class BinningSpec(FrozenValue):
    """Uniform binning of the value range [a, b) into n bins."""

    _fields = ("a", "b", "n")

    def __init__(self, a: float, b: float, n: int):
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise ValueError("binning requires finite a < b")
        if n < 1:
            raise ValueError("bin count must be at least 1")
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "n", n)

    @property
    def width(self) -> float:
        return (self.b - self.a) / self.n


def seminorm_rho(L: Functional, f: FunctionVec) -> float:
    """The seminorm ``L(|f|)``; nonnegative whenever ``L`` is positive.

    Requires ``|f|`` to lie in the functional's span (finite stand-in for
    lattice completeness of the domain).
    """
    return L(f.abs())


def approx_below(f: FunctionVec, spec: BinningSpec) -> SimpleFunction:
    """Lower simple-function approximation on uniform value bins.

    The k-th bin collects points with value in ``[a+(k-1)w, a+kw)`` and is
    assigned the bin's left edge (including the offset ``a``), so that
    ``0 <= f - phi < w`` holds pointwise.
    """
    vals = f.values
    if vals.min() < spec.a or vals.max() >= spec.b:
        raise RangeViolation(
            f"need a <= min f and max f < b, got a={spec.a}, b={spec.b}, "
            f"range [{vals.min()}, {vals.max()}]"
        )
    w = spec.width
    k = np.floor((vals - spec.a) / w).astype(int)
    k = np.minimum(np.maximum(k, 0), spec.n - 1)
    # One-step corrections against floating-point edge rounding.
    phi = spec.a + k * w
    k = np.where(phi > vals, k - 1, k)
    phi = spec.a + k * w
    k = np.where(vals - phi >= w, k + 1, k)
    k = np.minimum(np.maximum(k, 0), spec.n - 1)
    phi = spec.a + k * w
    if (phi > vals).any() or (vals - phi >= w).any():
        raise RangeViolation("binning could not establish 0 <= f - phi < width")

    order = sorted(set(k.tolist()))
    blocks = tuple(tuple(np.nonzero(k == kk)[0].tolist()) for kk in order)
    algebra = SigmaAlgebra(f.ground, blocks)
    return SimpleFunction(algebra, np.array([spec.a + kk * w for kk in order]))


def build_measure(Lbar: Functional, alg: SigmaAlgebra) -> Measure:
    """Measure with ``mass(block) = Lbar(indicator)``.

    Additivity on block unions is linear algebra.  A block value below
    ``-MASS_ERROR_TOL`` raises :class:`NegativeMass` (the functional is not
    positive); smaller negative dust is clamped to zero.
    """
    return _measure_of_masses(alg, [Lbar(chi) for chi in alg.indicators()])


def _measure_of_masses(alg: SigmaAlgebra, values) -> Measure:
    """:func:`build_measure` from the indicator values ``Lbar(chi_b)``."""
    masses = np.array(values, dtype=float)
    if masses.min(initial=0.0) < -MASS_ERROR_TOL:
        worst = int(np.argmin(masses))
        raise NegativeMass(f"indicator of block {worst} evaluates to {masses[worst]:.3e}")
    return Measure(alg, np.where(masses < 0.0, 0.0, masses))


def integrate(f: FunctionVec, mu: Measure, alg: SigmaAlgebra) -> float:
    """Integral of a block-constant function: sum of value times mass.

    On a finite partition this equals the supremum over dominated simple
    functions (attained at ``f`` itself).
    """
    values = alg.block_values(f)
    return float(values @ mu.block_mass)


class DensityReport(NamedTuple):
    distances: tuple[float, ...]
    tol: float

    @property
    def dense(self) -> bool:
        return all(d <= self.tol for d in self.distances)

    @property
    def max_distance(self) -> float:
        return max(self.distances, default=0.0)


def density_check(B: Subspace, alg: SigmaAlgebra, Lbar: Functional,
                  tol: float = DENSITY_TOL) -> DensityReport:
    """Seminorm distance from each block indicator to ``span(B)``.

    Each distance is ``inf over b of Lbar(|chi - b|)``, the LP
    ``min Lbar(t)`` over ``t`` in Lbar's span with ``t >= chi - b`` and
    ``t >= b - chi`` pointwise: ``min c @ z`` over ``z = (tau, beta)`` with
    ``A z <= r``, ``A = [[-M, -N], [-M, N]]`` and ``r = [-chi; chi]``.
    Dense means every distance is below tol.

    An indicator already in ``span(B)`` (:meth:`Subspace.contains`) gets
    distance 0 without an LP: ``b = chi``, ``t = 0`` is feasible with value
    0, and the LP's minimum is reported as ``max(0, min)``.

    The blocks' LPs differ only in ``r``, so all of them are one solve of
    their dual: ``min r @ y`` over ``y >= 0`` with ``A.T @ y = -c``, whose
    optimum is minus the primal's.  The dual's feasible set does not depend
    on ``r``, so one phase 1 serves every block, and each block outside
    ``span(B)`` is one objective row.  A dual that is infeasible means a
    primal that is unbounded, and a dual that is unbounded a primal that is
    infeasible; either failure names the first block that has an objective.

    The dual's columns are the primal's rows, one per point and sign, and
    they repeat: where Lbar's domain and ``B`` are block-constant, as
    measurable functions are, the columns at two points of one block are
    equal, in ``A.T`` and in every block's cost.  A copy of a column changes
    no optimum, so the LP gets one copy of each (see
    :mod:`momentkit.funcspace`).
    """
    chis = alg.indicators()
    outside = [i for i, chi in enumerate(chis) if not B.contains(chi)]
    distances = [0.0] * len(chis)
    if outside:
        M = Lbar.domain.matrix
        N = B.matrix
        # variables: [tau (Lbar's span), beta (span(B))]
        a_ub = np.block([
            [-M, -N],   # t + b >= chi
            [-M, N],    # t - b >= -chi
        ])
        c = np.concatenate([Lbar.coeffs, np.zeros(N.shape[1])])
        costs = np.array([np.concatenate([-chis[i].values, chis[i].values]) for i in outside])
        # keyed by coefficients and costs: copies agree in both, so no rhs rule
        cols = _merge_copies(np.hstack([a_ub, costs.T]), np.zeros(a_ub.shape[0]))
        if cols is not None:
            a_ub, costs = a_ub[cols], costs[:, cols]
        sol = solve_lp(costs, a_eq=a_ub.T, b_eq=-c)
        if not sol.optimal:
            status = {"infeasible": "unbounded", "unbounded": "infeasible"}[sol.status]
            raise LpFailure(f"density LP for block {outside[0]} ended with status {status}")
        for i, objective in zip(outside, sol.objective.tolist()):
            distances[i] = max(0.0, -objective)
    return DensityReport(tuple(distances), tol)


def gap_T(Ltilde: Functional, mu: Measure, alg: SigmaAlgebra, f: FunctionVec) -> float:
    """Gap between the functional value and the integral, ``L(f) - int f``.

    Zero on everything the measure represents; nonnegative on pointwise
    nonnegative block-constant functions when the measure was built from the
    extension of a positive functional.
    """
    return Ltilde(f) - integrate(f, mu, alg)


class RepresentOptions(NamedTuple):
    rule: str = "midpoint"
    tol: float = DENSITY_TOL
    subspace_variant: bool = False
    witnesses: dict | None = None  # basis index -> FunctionVec, for the subspace variant
    strict: bool = False


class TDecayEntry(NamedTuple):
    """The gap ``T(g)`` of a target and ``T(f)`` of its domination witness;
    a witness that is not block-constant has a NaN gap."""
    target_index: int
    t_target: float
    t_witness: float

    @property
    def ok(self) -> bool:
        """``T(g) <= eps*T(f) + T_DECAY_SLACK`` for every eps in
        ``[ADAPTED_EPS, 1]``, the range the adaptedness check stands for.
        The right-hand side, rounding included, is monotone in eps, so the
        two ends decide it; a NaN gap is never ok."""
        return all(self.t_target <= eps * self.t_witness + T_DECAY_SLACK
                   for eps in (1.0, ADAPTED_EPS))


class RepresentationReport(NamedTuple):
    residuals: tuple[float, ...]
    max_residual: float
    density: DensityReport
    adaptedness: AdaptednessReport | None
    t_decay: tuple[TDecayEntry, ...]
    positive_ok: bool
    worst_positive_value: float
    trace: ExtensionTrace
    extended: Functional  # the functional the measure was built from
    notes: tuple[str, ...] = ()

    @property
    def density_ok(self) -> bool:
        return self.density.dense

    @property
    def certified(self) -> bool:
        return self.density_ok and self.positive_ok and self.max_residual <= RESIDUAL_TOL


def represent_via_adapted(A: Subspace, B: Subspace | None, L: Functional,
                          alg: SigmaAlgebra, opts: RepresentOptions = RepresentOptions()):
    """Full representation pipeline; returns ``(measure, report)``.

    Steps: extend ``L`` to the designated subspace basis and all block
    indicators (through the absolute-domination hull unless the subspace
    variant is requested), check density of ``B``, build the measure, and
    report residuals, gap decay along the domination witnesses, and the
    positivity audit.  A density failure is reported, never hidden: the
    measure is still emitted, flagged uncertified (or raised under
    ``opts.strict``).

    The audit is the minimum of the extension over the normalized cone slice
    of its domain.  When that domain is exactly the block-constant functions
    (it holds every indicator, so this is when its dimension is the block
    count) the slice is the simplex with vertices ``chi_b / |b|`` and the
    minimum is ``min_b Lt(chi_b) / |b|``, with no LP; otherwise it is
    :func:`verify_positive`'s LP.

    ``B=None`` means the block indicators: they span every block-constant
    function, and a domain vector that is not block-constant is rejected
    (:class:`IntegralOfNonMeasurable`), so no domain vector would extend them.

    Work whose answer is known is skipped.  Every target goes to
    :func:`extend_to_hull`, which filters them by span membership only for
    its hull LP, and that LP runs only when ``span(A)`` lacks the constants.
    When ``span(B)`` holds them, as the indicators do (they sum to 1),
    :func:`dominates` says yes to the first candidate, so the first basis
    vector of ``A`` is the only candidate.  A gap-decay witness that is a
    basis vector of ``A`` takes that vector's residual.
    """
    notes = []
    for i, g in enumerate(A.basis):
        if not alg.is_measurable(g):
            raise IntegralOfNonMeasurable(f"domain basis vector {i} is not block-constant")

    indicators = alg.indicators()
    if B is None:  # its basis is the indicators, each a target once
        B, targets = Subspace(alg.ground, indicators), indicators
        B._spans_constants = True  # the indicators sum to 1
    else:
        targets = list(B.basis) + indicators
    if opts.subspace_variant:
        Lt, trace = hb_extend(L, targets, opts.rule)
        notes.append("subspace variant: hull membership not required")
    else:
        Lt, trace = extend_to_hull(L, A, targets, opts.rule)

    density = density_check(B, alg, Lt, opts.tol)
    masses = [Lt(chi) for chi in indicators]
    mu = _measure_of_masses(alg, masses)

    residuals = tuple(gap_T(Lt, mu, alg, g) for g in A.basis)
    max_residual = max((abs(r) for r in residuals), default=0.0)

    adaptedness = None
    witness_map: dict[int, FunctionVec] = {}
    if opts.subspace_variant:
        if opts.witnesses:
            witness_map = dict(opts.witnesses)
        elif A.dim:
            notes.append("no domination witnesses supplied; gap decay not checked")
    else:
        # span(B) holding the constants, the first candidate dominates every g
        candidates = A.basis[:1] if B._spans_constants else default_candidates(A)
        adaptedness = check_adapted(A, B, candidates=candidates)
        for entry in adaptedness.entries:
            if entry.witness_index is not None:
                witness_map[entry.target_index] = candidates[entry.witness_index]

    basis_gaps = {id(g): r for g, r in zip(A.basis, residuals)}
    t_decay = [TDecayEntry(gi, residuals[gi],
                           basis_gaps[id(w)] if id(w) in basis_gaps
                           else gap_T(Lt, mu, alg, w) if alg.is_measurable(w) else float("nan"))
               for gi, w in sorted(witness_map.items())]

    if Lt.domain.dim == alg.n_blocks:
        # the block-constant functions: Lt is least at a vertex chi_b / |b|
        worst = min(mass / len(block) for mass, block in zip(masses, alg.blocks))
        positive_ok = worst >= -opts.tol
    else:
        positive_ok, worst = verify_positive(Lt, opts.tol)

    report = RepresentationReport(
        residuals=residuals,
        max_residual=max_residual,
        density=density,
        adaptedness=adaptedness,
        t_decay=tuple(t_decay),
        positive_ok=positive_ok,
        worst_positive_value=worst,
        trace=trace,
        extended=Lt,
        notes=tuple(notes + (["density hypothesis violated"] if not density.dense else [])),
    )
    if opts.strict and not density.dense:
        raise DensityFailed(
            f"subspace is not dense: max indicator distance {density.max_distance:.6g}"
        )
    return mu, report

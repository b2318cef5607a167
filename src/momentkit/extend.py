"""Stepwise positive extension of a linear functional across the
pointwise-nonnegative cone.

Given a functional ``L`` that is nonnegative on the intersection of its span
with the cone, each new target vector that is sandwiched between two span
elements modulo the cone admits an interval of admissible values
``[-p(v), p(-v)]``, where ``p`` is the sublinear bound

    p(v) = -sup { L(w) : w in span, v - w >= 0 pointwise }.

By LP duality the interval is the range of the integral of ``v`` over the
positive measures on the ground set that represent ``L``:

    -p(v) = min { v . mu : mu >= 0, W^T mu = L },
     p(-v) = max { v . mu : same mu },

with ``W`` the matrix of the span's basis.  This is the paper's
representation question in finite form, and it is how the step computes the
interval: one LP with two objectives over the representing measures, so
both bounds share one phase 1.  Its statuses have fixed meanings:

* infeasible -- no positive measure represents ``L``, so ``L`` is not
  positive on the cone slice of its span (Farkas);
* unbounded -- ``v`` or ``-v`` is not in cone + span, so ``v`` is not
  sandwiched;
* optimal -- both bounds are finite.

Choosing any value in the interval keeps the extended functional dominated
by ``p``, hence nonnegative on the cone slice of the grown span.  The
choice rule (midpoint, lo, hi) is exposed because the interval is genuinely
non-degenerate in most cases.

A chain of steps is one tableau.  Step k+1's LP is step k's with the row
``v_k . mu = chosen_k`` added, so each step starts from the previous step's
solve, which the extended functional carries, and phase 1 runs only on the
new row.  The positivity audit :func:`verify_positive` is the dual over
measures of the minimum over the cone slice,

    max { t : W^T mu + t * W^T 1 = L, mu >= 0 },

the last step's LP with one row and the two columns of ``t = t+ - t-``
added, so it starts from the last step's solve too.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyInterval,
    HullMembershipFailed,
    LpFailure,
    LpUnbounded,
    RankDetectionAmbiguous,
    TargetNotInWC,
)
from .frozen import Frozen, set_field
from .funcspace import (DependentBasis, FunctionVec, Subspace, _one_copy, _same_ground,
                        hull_contains)
from .simplex import lp_feasible, solve_lp
from .tolerances import CHOSEN_SLACK, INTERVAL_TOL, VERDICT_TOL

RULES = ("midpoint", "lo", "hi")


class Functional(Frozen):
    """Linear functional given by its values on a subspace basis."""

    _fields = ("domain", "coeffs")
    # The solve of the Hahn-Banach step that returned this functional, whose
    # tableau the next step and verify_positive start from; None otherwise.
    _chain = None

    def __init__(self, domain: Subspace, coeffs: np.ndarray):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if coeffs.shape != (domain.dim,):
            raise ValueError(
                f"got {coeffs.shape[0]} coefficients for a dimension-{domain.dim} domain"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("functional coefficients must be finite")
        coeffs.setflags(write=False)
        set_field(self, "domain", domain)
        set_field(self, "coeffs", coeffs)

    def __call__(self, v: FunctionVec) -> float:
        """Value on ``v``; raises NotInDomain when ``v`` is outside the span.

        Well-defined because the domain basis is independent by construction.
        """
        return float(self.domain.coefficients_of(v) @ self.coeffs)

    @property
    def ground(self):
        return self.domain.ground


class ExtensionStep(Frozen):
    """One Hahn-Banach step: the admissible interval and the chosen value;
    ``target_index`` is the target's position in the list given to hb_extend."""

    _fields = ("target", "interval_lo", "interval_hi", "chosen", "target_index")

    def __init__(self, target: FunctionVec, interval_lo: float, interval_hi: float,
                 chosen: float, target_index: int | None = None):
        if not (interval_lo - CHOSEN_SLACK <= chosen <= interval_hi + CHOSEN_SLACK):
            raise ValueError("chosen extension value escapes its admissible interval")
        set_field(self, "target", target)
        set_field(self, "interval_lo", interval_lo)
        set_field(self, "interval_hi", interval_hi)
        set_field(self, "chosen", chosen)
        set_field(self, "target_index", target_index)


class ExtensionTrace(NamedTuple):
    steps: tuple[ExtensionStep, ...] = ()


def in_cone_plus_subspace(v: FunctionVec, W: Subspace) -> bool:
    """Is ``v = c + w`` for a pointwise-nonnegative ``c`` and ``w`` in the span?

    Equivalently: does some span member lie pointwise below ``v``?
    """
    _same_ground(v, W)
    return lp_feasible(*_one_copy(W.matrix, v.values))


def wc_contains(v: FunctionVec, W: Subspace) -> bool:
    """Sandwich membership: both ``v`` and ``-v`` decompose as cone + span."""
    return in_cone_plus_subspace(v, W) and in_cone_plus_subspace(-v, W)


def sublinear_p(v: FunctionVec, L: Functional) -> float:
    """The Hahn-Banach bound ``-sup { L(w) : w in span, w <= v pointwise }``.

    Solved as its dual, ``-min { v . mu : mu >= 0, W^T mu = L }`` over the
    positive measures ``mu`` that represent ``L``.  Finite exactly when
    :func:`in_cone_plus_subspace` holds for ``v`` and ``L`` is cone-positive;
    otherwise raises :class:`LpUnbounded` (unbounded: ``v`` is not in
    cone + span; infeasible: no positive measure represents ``L``).
    """
    W = L.domain
    _same_ground(v, W)
    sol = solve_lp(v.values, a_eq=W.matrix.T, b_eq=L.coeffs)
    if sol.status == "unbounded":
        raise LpUnbounded("no span element lies below the target (not in cone + span)")
    if sol.status == "infeasible":
        raise LpUnbounded("no positive measure represents the functional")
    return -float(sol.objective)


def hb_extend_step(L: Functional, v: FunctionVec, rule: str = "midpoint"):
    """One Hahn-Banach step: extend ``L`` to ``span(domain + {v})``.

    Returns ``(extended functional, step record)``.  The admissible value
    interval ``[-p(v), p(-v)]`` is the range of ``v . mu`` over the positive
    measures ``mu`` that represent ``L``, found by one LP with the two
    objectives ``v`` and ``-v`` (see the module docstring).  An unbounded
    objective raises :class:`TargetNotInWC`.  An infeasible LP means ``L``
    is not positive; only then does :func:`wc_contains` run, to tell
    :class:`TargetNotInWC` (``v`` is not sandwiched either) from
    :class:`LpUnbounded`.  A reversed interval beyond 1e-9 raises
    :class:`EmptyInterval`, while a merely degenerate one collapses to its
    common endpoint.  The grown span is built first, so a target already in
    the span fails its rank check with ``ValueError`` before any LP.
    """
    if rule not in RULES:
        raise ValueError(f"unknown extension rule {rule!r}")
    grown = L.domain.extended_by(v)
    sol = solve_lp(np.array([v.values, -v.values]), a_eq=L.domain.matrix.T, b_eq=L.coeffs,
                   start=L._chain)
    if sol.status == "unbounded" or (sol.status == "infeasible"
                                     and not wc_contains(v, L.domain)):
        raise TargetNotInWC(None, "target is not sandwiched by the current domain")
    if sol.status == "infeasible":  # v is sandwiched, so the primal sup is unbounded
        raise LpUnbounded("supremum over dominated span elements is unbounded")
    lo, hi = float(sol.objective[0]), -float(sol.objective[1])
    if hi < lo - INTERVAL_TOL:
        raise EmptyInterval(f"admissible interval is empty: [{lo:.17g}, {hi:.17g}]")
    if hi < lo:  # degenerate within tolerance: the value is forced
        lo = hi = 0.5 * (lo + hi)

    if rule == "midpoint":
        chosen = 0.5 * (lo + hi)
    elif rule == "lo":
        chosen = lo
    else:
        chosen = hi

    extended = Functional(grown, np.append(L.coeffs, chosen))
    set_field(extended, "_chain", sol)
    return extended, ExtensionStep(v, lo, hi, chosen)


def hb_extend(L: Functional, targets, rule: str = "midpoint"):
    """Iterate :func:`hb_extend_step` over ``targets``.

    Targets already inside the (growing) span are skipped, so feeding the
    current domain back in is the identity; this membership test is each
    target's one projection onto the span.  Each step records its target's
    index; a target failing the sandwich test raises :class:`TargetNotInWC`
    carrying its index.  A target outside the span by that test whose grown
    basis still fails the rank check (a residual just above the membership
    tolerance on a basis of mixed scale) raises
    :class:`RankDetectionAmbiguous`: the two tests disagree about it.
    """
    current = L
    steps = []
    for idx, v in enumerate(targets):
        if current.domain.contains(v):
            continue
        try:
            current, step = hb_extend_step(current, v, rule)
        except TargetNotInWC as exc:
            raise TargetNotInWC(idx) from exc
        except DependentBasis as exc:
            raise RankDetectionAmbiguous(None, idx, f"target {idx} lies outside the span by its "
                                         "residual, yet the grown basis fails the rank check") from exc
        steps.append(ExtensionStep(step.target, step.interval_lo, step.interval_hi,
                                   step.chosen, idx))
    return current, ExtensionTrace(tuple(steps))


def extend_to_hull(L: Functional, A: Subspace, hull_basis, rule: str = "midpoint"):
    """Positive extension toward absolutely dominated targets.

    Every target outside ``L``'s span must be dominated in absolute value by
    some member of ``span(A)`` (checked first; failure raises
    :class:`HullMembershipFailed`), after which the extension itself is a
    plain :func:`hb_extend` run over all the targets, which skips those in
    the span; the trace's indices count all of them.

    When ``span(A)`` contains the constants every target is dominated
    (``max|h| * 1`` lies above ``|h|``), so no target is asked about, or
    projected, here.  Otherwise each target is projected onto ``L``'s span
    to find those outside it, and one :func:`hull_contains` LP asks about
    the pointwise max of their ``|h|``: some member of ``span(A)``
    dominates every ``|h|`` iff one dominates their max (the sum of the
    separate dominators, each ``>= |h| >= 0``, is one).  Only when it fails
    are they asked one by one, to name the first that fails by its
    position among them.
    """
    hull_basis = list(hull_basis)
    pending = [] if A._spans_constants else [h for h in hull_basis if not L.domain.contains(h)]
    if pending:
        peak = FunctionVec(A.ground, np.max([np.abs(h.values) for h in pending], axis=0))
        if not hull_contains(A, peak):
            for idx, h in enumerate(pending):
                if not hull_contains(A, h):
                    raise HullMembershipFailed(f"hull target {idx} is not dominated by the span")
    return hb_extend(L, hull_basis, rule)


def verify_positive(L: Functional, tol: float = VERDICT_TOL):
    """Minimum of ``L`` over the normalized cone slice of its domain.

    The minimum of ``L(v)`` over ``v`` in the span with ``v >= 0`` pointwise
    and ``sum(v) = 1`` is solved as its dual over measures,

        max { t : W^T mu + t * W^T 1 = L, mu >= 0 },

    the step LP's rows with the columns of ``t = t+ - t-`` joined.  So when
    ``L`` came from a Hahn-Banach step, the LP starts from that step's
    solve, one row short; otherwise it is solved cold.  Returns
    ``(t >= -tol, t)``.  An unbounded dual means an empty slice, which
    counts as positive with worst value 0.
    """
    W = L.domain.matrix.T
    mass = W.sum(axis=1)[:, None]
    cost = np.zeros(W.shape[1] + 2)
    cost[-2:] = -1.0, 1.0
    sol = solve_lp(cost, a_eq=np.hstack([W, mass, -mass]), b_eq=L.coeffs, start=L._chain)
    if sol.status == "unbounded":
        return True, 0.0
    if sol.status == "infeasible":
        raise LpFailure("the positivity dual is always feasible; an infeasible LP "
                        "indicates a solver bug")
    worst = float(sol.x[-2] - sol.x[-1])
    return worst >= -tol, worst

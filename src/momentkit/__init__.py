"""momentkit: positive-functional extension, finite measure construction,
and 1-D truncated moment problems, all verifiable at desk scale."""

import sys as _sys

__version__ = "0.1.0"

# Each public name by its defining module.  A name, or a module, is imported
# on first access (PEP 562): the moment verbs run on Python floats, and a
# CLI run of one never loads numpy, which the finite-space modules need.
_EXPORTS = {
    "errors": (
        "DegreeTooHigh", "DensityFailed", "EigFailure", "EmptyInterval",
        "HullMembershipFailed", "IntegralOfNonMeasurable", "IoError", "LpFailure",
        "LpUnbounded", "MomentkitError", "NegativeMass", "NotInDomain", "NotPSD",
        "RangeViolation", "RankDetectionAmbiguous", "SchemaError", "TargetNotInWC",
    ),
    "funcspace": (
        "AdaptednessReport", "FunctionVec", "GroundSet", "Subspace", "check_adapted",
        "default_candidates", "dominates", "hull_contains",
    ),
    "extend": (
        "ExtensionStep", "ExtensionTrace", "Functional", "extend_to_hull", "hb_extend",
        "hb_extend_step", "in_cone_plus_subspace", "sublinear_p", "verify_positive",
        "wc_contains",
    ),
    "measure": (
        "BinningSpec", "DensityReport", "Measure", "RepresentOptions", "RepresentationReport",
        "SigmaAlgebra", "SimpleFunction", "approx_below", "build_measure", "density_check",
        "gap_T", "integrate", "represent_via_adapted", "seminorm_rho",
    ),
    "moments": (
        "AtomicMeasure", "Certificate", "ExtensionCandidate", "HankelMatrix",
        "MomentSequence", "Poly", "Support", "TruncationReport", "extend_search", "hankel",
        "haviland_grid_check", "positivity_certificate", "psd", "recover_atoms", "riesz",
        "verify_truncated",
    ),
    "simplex": ("LpSolution", "lp_feasible", "solve_lp"),
    "eig": ("jacobi_eigh", "lambda_min"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "counters", "frozen", "jsonio", "tolerances"}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name if name in _MODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds the module here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _MODULES)


# Deferring saves numpy's import and nothing else.  A process that already
# holds numpy loads the library's modules now, as an eager package would, so
# that tools which find its functions through sys.modules (a tracer that
# binds wrappers into every loaded module by name) see all of them.
if "numpy" in _sys.modules:
    from . import measure, moments  # measure loads extend, funcspace and simplex

"""momentkit: positive-functional extension, finite measure construction,
and 1-D truncated moment problems, all verifiable at desk scale."""

__version__ = "0.1.0"

from .errors import (
    DegreeTooHigh,
    DensityFailed,
    EigFailure,
    EmptyInterval,
    HullMembershipFailed,
    IntegralOfNonMeasurable,
    IoError,
    LpFailure,
    LpUnbounded,
    MomentkitError,
    NegativeMass,
    NotInDomain,
    NotPSD,
    RangeViolation,
    RankDetectionAmbiguous,
    SchemaError,
    TargetNotInWC,
)
from .funcspace import (
    AdaptednessReport,
    FunctionVec,
    GroundSet,
    Subspace,
    check_adapted,
    default_candidates,
    dominates,
    hull_contains,
)
from .extend import (
    ExtensionStep,
    ExtensionTrace,
    Functional,
    extend_to_hull,
    hb_extend,
    hb_extend_step,
    in_cone_plus_subspace,
    sublinear_p,
    verify_positive,
    wc_contains,
)
from .measure import (
    BinningSpec,
    DensityReport,
    Measure,
    RepresentOptions,
    RepresentationReport,
    SigmaAlgebra,
    SimpleFunction,
    approx_below,
    build_measure,
    density_check,
    gap_T,
    integrate,
    represent_via_adapted,
    seminorm_rho,
)
from .moments import (
    AtomicMeasure,
    Certificate,
    ExtensionCandidate,
    HankelMatrix,
    MomentSequence,
    Poly,
    Support,
    TruncationReport,
    extend_search,
    hankel,
    haviland_grid_check,
    positivity_certificate,
    psd,
    recover_atoms,
    riesz,
    verify_truncated,
)
from .simplex import LpSolution, lp_feasible, solve_lp
from .eig import jacobi_eigh, lambda_min

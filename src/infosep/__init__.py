"""Information measures on finite joint distributions.

The package computes dependence measures (mutual information and general
f-informations, the dependence spectrum, deterministic and stochastic
common information, the information bottleneck frontier) and exposes the
machinery that makes their computation separable: sufficiency-based
reduction of the input alphabets to the minimal symbols that carry the
dependence.
"""

__version__ = "0.1.0"

from .dist import (
    ConditionalKernel,
    DeterministicMap,
    InfoValue,
    JointDistribution,
    conditional_kernel,
    conditional_mutual_information,
    entropy,
    lift_conditional,
    marginals,
    mutual_information,
    pushforward,
    validate_and_trim,
)
from .errors import (
    DimensionError,
    InconsistentDecomposition,
    InfosepError,
    InsufficientStatistic,
    InvalidDistribution,
    InvalidGenerator,
    InvalidMap,
    NoFeasiblePoint,
    NumericalError,
)
from .finfo import (
    BUILTIN_GENERATORS,
    FGenerator,
    f_information,
    get_generator,
)
from .modal import (
    CdkMatrix,
    ModalDecomposition,
    SufficiencyVerdict,
    cdk_matrix,
    check_sufficiency,
    maximal_correlation,
    minimal_sufficient_maps,
    modal_decompose,
    reconstruct_joint,
    reduce_joint,
)
from .common_info import (
    GkResult,
    WynerResult,
    gacs_korner,
    gk_via_components,
    wyner_grid_oracle,
    wyner_solve,
)
from .ib import (
    IbCurve,
    IbSolution,
    ib_curve,
    ib_fixed_point,
    theta_of_R,
)
from .harness import (
    RefinementSpec,
    SeparabilityReport,
    SimulationResult,
    SolverConfig,
    dsbs,
    random_joint,
    random_refinement,
    refine_embedding,
    simulate_and_estimate,
    verify_separability,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Information measures on finite joint distributions.

The package computes dependence measures (mutual information and general
f-informations, the dependence spectrum, deterministic and stochastic
common information, the information bottleneck frontier) and exposes the
machinery that makes their computation separable: sufficiency-based
reduction of the input alphabets to the minimal symbols that carry the
dependence.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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
    InfosepError,
    InsufficientStatistic,
    InvalidDistribution,
    InvalidGenerator,
    InvalidMap,
    NumericalError,
)
from .finfo import (
    BUILTIN_GENERATORS,
    FGenerator,
    f_information,
    get_generator,
)
from .modal import (
    ModalDecomposition,
    SufficiencyVerdict,
    check_sufficiency,
    minimal_sufficient_maps,
    modal_decompose,
    reduce_joint,
)
from .common_info import (
    GkResult,
    WynerResult,
    gacs_korner,
    gk_via_components,
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
    SeparabilityReport,
    SimulationResult,
    dsbs,
    random_joint,
    random_refinement,
    simulate_and_estimate,
    verify_separability,
)

# Importing the names above also binds their submodules here; those stay
# reachable as attributes but are not part of the star-import surface.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

"""Mirror extragradient solvers for variational inequalities and market equilibria.

The names imported here are the package's public API.
"""

from .errors import (
    DegenerateSolution,
    EvaluationError,
    InsufficientData,
    InvalidInput,
    MirrorVIError,
)
from .kernels import (
    BOX,
    ENTROPY,
    EUCLIDEAN,
    MEMBERSHIP_TOL,
    SIMPLEX,
    FeasibleSet,
    Kernel,
    box,
    bregman_divergence,
    linear_max,
    mirror_step,
    negative_entropy,
    simplex,
    simplex_projection,
    squared_euclidean,
    unit_box,
)
from .vi import (
    RunTrace,
    SolverConfig,
    VIProblem,
    gap,
    minty_certificate,
    mirror_extragradient_solve,
    mirror_gradient_solve,
    pathwise_modulus,
    rate_slope,
    rotation_operator,
    scalar_nonminty_operator,
)
from .economy import (
    CES,
    COBB_DOUGLAS,
    LEONTIEF,
    Consumer,
    ExchangeEconomy,
    ScarfEconomy,
    bregman_continuity_bound,
    check_homogeneity,
    check_lsd_sample,
    check_warp_sample,
    check_wgs_sample,
    consumer_demand,
    elasticity_bound_estimate,
)
from .tatonnement import (
    EquilibriumCertificate,
    PriceRun,
    auto_step_size,
    equilibrium_certificate,
    mirror_extratatonnement,
    mirror_tatonnement,
    probe_modulus,
    recommended_step_size,
    scale_to_equilibrium,
)
from .gen import (
    CES_COMPLEMENTS,
    CES_SUBSTITUTES,
    GenSpec,
    generate_economy,
    initial_prices,
)

__version__ = "0.1.0"

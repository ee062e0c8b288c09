"""Critical temperatures of the BCS model on the line and half-line.

The package discretizes the momentum-space Birman-Schwinger operator of
the model with a delta interaction, solves the implicit equations for
the bulk and half-line critical temperatures (Dirichlet or Neumann
boundary), and ships a verification harness for the kernel inequalities
and asymptotics the construction rests on.
"""

from .errors import (
    BracketFailure,
    CutoffTooSmall,
    DenominatorNonnegative,
    NoConvergence,
    NumericsError,
    QuadratureUnderresolved,
    RefusedRegime,
    ToleranceUnreachable,
)
from .bs_operator import (
    BoundaryCondition,
    DiscretizedOperator,
    assemble,
    eval_A,
    eval_E,
    spectral_gap,
    top_eigenpair,
)
from .critical_temperature import (
    RatioCurve,
    RatioRow,
    TcResult,
    ratio_curve,
    tc_boundary,
    tc_bulk,
    tc_bulk_asymptotic,
    v_of_T,
)
from .kernels import (
    EULER_GAMMA,
    ModelParams,
    eval_B,
    eval_F,
    eval_L,
    eval_a,
)
from .lemma_suite import (
    CheckReport,
    check_B_uniform_norm,
    check_E_log_growth,
    check_K_majorant,
    check_L_sandwich,
    check_concavity_bound,
    check_mean_bound,
    check_tanh_diff,
    check_tanh_sum,
)
from .quadrature import (
    GridKnobs,
    GridPolicy,
    MomentumGrid,
    build_grid,
    tail_bound,
)
from .variational import (
    TrialConfig,
    int_F_residual,
    scaled_sup,
    trial_gap,
)

__version__ = "0.3.0"

__all__ = [
    "__version__",
    "BracketFailure",
    "CutoffTooSmall",
    "DenominatorNonnegative",
    "NoConvergence",
    "NumericsError",
    "QuadratureUnderresolved",
    "RefusedRegime",
    "ToleranceUnreachable",
    "EULER_GAMMA",
    "ModelParams",
    "eval_A",
    "eval_B",
    "eval_E",
    "eval_F",
    "eval_L",
    "eval_a",
    "GridKnobs",
    "GridPolicy",
    "MomentumGrid",
    "build_grid",
    "tail_bound",
    "BoundaryCondition",
    "DiscretizedOperator",
    "assemble",
    "spectral_gap",
    "top_eigenpair",
    "TcResult",
    "RatioRow",
    "RatioCurve",
    "tc_bulk",
    "tc_bulk_asymptotic",
    "tc_boundary",
    "v_of_T",
    "ratio_curve",
    "TrialConfig",
    "trial_gap",
    "int_F_residual",
    "scaled_sup",
    "CheckReport",
    "check_tanh_sum",
    "check_tanh_diff",
    "check_mean_bound",
    "check_concavity_bound",
    "check_K_majorant",
    "check_E_log_growth",
    "check_B_uniform_norm",
    "check_L_sandwich",
]

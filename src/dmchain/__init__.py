"""Characterization of anisotropic XY spin chains with antisymmetric
exchange through the information carried by two-spin measurements."""

__version__ = "0.1.0"

from .chain import (
    ChainParams,
    ChainPoints,
    Correlators,
    CriticalPoint,
    PARAM_TAGS,
    PositivityViolation,
    TwoSpinXState,
    XStateDerivative,
    chain_point,
    chain_points,
    delta,
    x_matrix,
    x_state,
)
from .fisher import (
    FisherPoint,
    fisher_point,
    magnetization_fi,
    qfi_xstate,
)
from .quadrature import (
    DEFAULT_QUAD,
    QuadratureConfig,
    QuadratureFailure,
    integrate_many,
    integrate_points,
)
from .multiparam import (
    QfiMatrix,
    SingularInformation,
    SloppinessReport,
    UhlmannMatrix,
    matrix_crb,
    qfi_matrix,
    qfim_det,
    uhlmann_matrix,
)
from .protocol import (
    CrbReport,
    DegenerateLikelihoodWarning,
    MleResult,
    NonConvergenceWarning,
    ProtocolConfig,
    ProtocolTrace,
    RoundRecord,
    adaptive_run,
    crb_report,
    mle_estimate,
    outcome_probabilities,
    sample_outcomes,
)
from .features import (
    FeatureReport,
    FlatProfile,
    InsufficientResolution,
    classify_curve,
    default_curve,
    detect_d_loss,
    detect_features,
)
from .sweep import (
    CriticalNudgeWarning,
    FIGURES,
    SweepSpec,
    SweepTable,
    figure_bundle,
    sweep,
)

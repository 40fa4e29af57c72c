"""regretlab: online regression forecasters with certified regret bounds,
plus an exact desk-scale engine for the quantities that drive them --
sequential and offset Rademacher complexities, covers, fat-shattering
dimensions, conjugate offset functions, rate formulas, and minimax values
of tiny discretized games.
"""

from .comparators import (
    ComparatorFamily,
    FiniteTableFamily,
    LinearFamily,
    SparseConvexFamily,
    best_comparator_loss,
    family_from_json,
)
from .complexity import (
    CoverReport,
    PowerLogCover,
    StaircaseLogCover,
    ShatterCertificate,
    cover_fat_bound,
    dudley_bound,
    fat_shattering,
    finite_class_linear_bound,
    finite_class_offset_bound,
    khinchine_lower_bound,
    offset_rademacher,
    offset_rademacher_sup,
    offset_tree_max,
    rate_exponent,
    rate_lower,
    rate_upper,
    seq_cover_number,
    seq_rademacher,
    sparse_cover_bound,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    ProtocolError,
    ResourceGuardError,
    ShapeError,
)
from .forecasters import (
    AdmissibilityReport,
    CumulativeLoss,
    ExpertsForecaster,
    FixedComparatorForecaster,
    RelaxationForecaster,
    RelaxationOracle,
    RidgeStatistics,
    RoundRecord,
    VAWForecaster,
    check_admissibility,
    clip,
    conditional_rademacher_oracle,
    experts_relaxation_oracle,
    regret_bound,
    run_online,
    vaw_relaxation_oracle,
)
from .harness import ExperimentConfig, generate_sequence, run_experiment
from .losses import (
    LossModel,
    absolute_loss,
    logistic_loss,
    power_conjugate,
    q_loss,
    square_loss,
)
from .minimax import GameSpec, SolvedGame
from .trees import LabeledTree, SignPath, prefix_index
from .verify import run_suite

__version__ = "0.1.0"

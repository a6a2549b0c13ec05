"""Optimized randomized pre-processing for disparate-impact control.

Learns a randomized mapping of tabular records that caps group
discrimination, bounds per-individual distortion, and minimizes the
population-level utility loss, by solving a convex program over discrete
distributions; then applies, audits, and bounds that mapping.
"""

from .audit import (
    AdvantageReport,
    AdvantageVerdict,
    DiscriminationReport,
    DistortionSummary,
    RobustnessBound,
    UtilityReport,
    audit_discrimination,
    audit_distortion,
    audit_utility,
    check_estimation_discrimination,
    cohort_delta_table,
    ratio_drift_bounds,
    map_advantage,
    pushforward_joint,
    pushforward_xy,
    robustness_bounds,
)
from .constraints import (
    DiscriminationSpec,
    VariableLayout,
    ratio_distance,
)
from .distortion import (
    DistortionBudget,
    DistortionMetric,
    RuleCondition,
    TableRule,
    distortion_matrix,
    evaluate_distortion,
    label_table,
    ordinal_jump_table,
)
from .domain import (
    Alphabet,
    Dataset,
    JointPMF,
    Quantizer,
    Schema,
    Variable,
    conditional,
    estimate_empirical,
    kl_divergence,
    l1_distance,
)
from .optimizer import (
    Problem,
    Solution,
    SweepResult,
    TransformKernel,
    assemble,
    identity_kernel,
    replacement_kernel,
    sof_solve,
    solve,
    sweep_epsilon,
)
from .transform import (
    ApplyBudget,
    ApplyMapper,
    SeedSpec,
    apply_distortion_bound,
    derive_apply_kernel,
    transform_apply,
    transform_train,
)

__version__ = "0.1.0"

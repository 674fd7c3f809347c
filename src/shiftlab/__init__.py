"""Exact cell models of dissipative composition operators, the weighted
backward shifts they factor onto, and decidable dynamics certificates."""

from ._version import __version__
from .criteria import (
    CriterionReport,
    Verdict,
    cofinite_quotient_witness,
    conditionmix_lhs,
    hypercyclicity_report,
    menet_unilateral,
    shift_hypercyclicity_report,
    telescoping_bound_check,
    weak_mixing_consistency,
)
from .errors import (
    ConfigError,
    EmptyWindow,
    HorizonExhausted,
    HypothesisViolated,
    InconsistentWitness,
    NoAdmissibleLevels,
    NonPositiveMeasure,
    ShiftlabError,
    TailRuleMissing,
    UsageError,
)
from .factor_map import ExactSeqVector, project, semiconjugacy_defect, tagged_backward
from .hc_lab import construct_hc_approx, orbit_density_report
from .lp_space import (
    StepFunction,
    apply_Tf,
    apply_Tf_inverse,
    gs_decay_check,
    lp_norm_step,
)
from .measure_system import MeasureSystem
from .shift_space import (
    BILATERAL,
    UNILATERAL,
    SeqVector,
    WeightSequence,
    apply_backward,
    apply_forward_inverse,
    derive_weights,
    lp_distance,
    weight_product,
    wp_product,
)

__all__ = [
    "BILATERAL",
    "UNILATERAL",
    "ConfigError",
    "CriterionReport",
    "EmptyWindow",
    "ExactSeqVector",
    "HorizonExhausted",
    "HypothesisViolated",
    "InconsistentWitness",
    "MeasureSystem",
    "NoAdmissibleLevels",
    "NonPositiveMeasure",
    "SeqVector",
    "ShiftlabError",
    "StepFunction",
    "TailRuleMissing",
    "UsageError",
    "Verdict",
    "WeightSequence",
    "apply_Tf",
    "apply_Tf_inverse",
    "apply_backward",
    "apply_forward_inverse",
    "cofinite_quotient_witness",
    "conditionmix_lhs",
    "construct_hc_approx",
    "derive_weights",
    "gs_decay_check",
    "hypercyclicity_report",
    "lp_distance",
    "lp_norm_step",
    "menet_unilateral",
    "orbit_density_report",
    "project",
    "semiconjugacy_defect",
    "shift_hypercyclicity_report",
    "tagged_backward",
    "telescoping_bound_check",
    "weak_mixing_consistency",
    "weight_product",
    "wp_product",
    "__version__",
]

"""Perturbed distillation loss, proxy-teacher solver, and coefficient search."""

from .core import (
    ConfigurationError,
    DegenerateTeacherError,
    InvalidInputError,
    PROB_FLOOR,
    ProbVector,
    SearchFailureError,
    SolverDivergenceError,
    TrainingDivergenceError,
)
from .losses import PerturbationConfig, kl_rows, make_loss, pt_rows
from .equivalence import (
    EquivalenceReport,
    focal_coefficients,
    ls_coefficients,
    truncation_bound,
    verify_equivalence,
)
from .proxy import SolverConfig, solve_proxy_rows
from .selection import (
    QualityScore,
    RiskGapTerms,
    SearchSpec,
    best_trial,
    quality_score,
    risk_gap_terms,
    run_search,
)
from .data import GaussianMixtureSpec, LabeledDataset, generate
from .nn import MlpModel, TrainConfig
from .distill import (
    DistillationReport,
    SweepPoint,
    distill_student,
    sweep_proxy_teachers,
    train_teacher,
)

__version__ = "0.1.0"

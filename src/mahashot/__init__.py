"""Transductive Mahalanobis-distance few-shot classification on embeddings.

A library for few-shot episodes over precomputed feature vectors:
shrinkage-regularized class-covariance estimation, Mahalanobis softmax
and GMM assignment rules, iterative transductive refinement that folds
unlabelled query examples into the estimates, episodic task sampling,
and a paired-seed evaluation/ablation harness.
"""

from .classification import (
    GMM,
    MAHALANOBIS_SOFTMAX,
    AssignmentRule,
    argmax_labels,
    bregman_divergence,
    classify_many,
)
from .data import (
    EmbeddingDataset,
    SyntheticSpec,
    Task,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from .errors import (
    DegenerateClass,
    DimensionMismatch,
    EmptyClass,
    EmptyInput,
    FactorizationFailed,
    InsufficientClasses,
    InsufficientExamples,
    InvalidSpec,
    MahashotError,
    NonFiniteInput,
    NotSymmetric,
    ParseError,
)
from .estimation import (
    ClassParams,
    Responsibilities,
    TaskStats,
    estimate_unweighted,
    estimate_weighted,
)
from .harness import (
    AblationGrid,
    AblationSpec,
    EvalReport,
    GridCell,
    emit_report,
    evaluate,
    render_report,
    run_ablation,
)
from .numerics import (
    DEFAULT_JITTER,
    SpdFactor,
    mahalanobis_sq,
    mahalanobis_sq_many,
    solve_spd,
    spd_factorize,
)
from .refinement import RefineConfig, RefineTrace, classify_task, refine
from .sampler import (
    FixedSamplerConfig,
    VariableSamplerConfig,
    episode_rng,
    sample_fixed,
    sample_task,
    sample_variable,
)

__version__ = "0.1.0"

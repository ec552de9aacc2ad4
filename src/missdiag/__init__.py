"""Missing-modality masking protocols and modality balance diagnostics.

Submodules:

- `protocol`: shared/imbalanced missing-rate distributions, the
  canonical pattern order, mask sampling, truncated marginals,
  divergences, mean-matching.
- `equity`: the ablation-based modality equity index.
- `learning`: the gradient-trace modality learning index.
- `simtrainer`: a deterministic toy multimodal trainer that emits the
  artifacts the two indices consume.
- `config` / `report` / `cli`: experiment configuration, checksummed
  JSON reports, and the `missdiag` command-line tool.
"""

from .equity import (
    BALANCED_IS_ONE,
    DOMINANCE_IS_ONE,
    AblationTable,
    ContributionProfile,
    MEIResult,
    PerfMetric,
    contribution,
    mei,
    mei_from_table,
    perf_drops,
)
from .errors import (
    ConfigError,
    DegenerateContributionError,
    DimensionError,
    DuplicateSampleError,
    EmptyDatasetError,
    FileFormatError,
    IncompleteTableError,
    InsufficientTraceError,
    InvalidPatternError,
    InvalidTraceError,
    MissdiagError,
    TrainingDivergedError,
)
from .learning import (
    GRAD_SAMPLE_DTYPE,
    GradTrace,
    MLIResult,
    assemble_trace,
    mli,
    samples_from_norms,
    trace_from_norms,
)
from .protocol import (
    JS,
    KL,
    MaskMatrix,
    PatternDistribution,
    RateVector,
    divergence,
    empirical_rates,
    generate_mask_matrix,
    marginal_missing_rate,
    marginal_missing_rates,
    mean_match_shared,
    pattern_bits,
    pattern_distribution,
)
from .simtrainer import (
    CLASSIFICATION,
    CLASSIFICATION_METRICS,
    REGRESSION,
    REGRESSION_METRICS,
    TASKS,
    RunLog,
    SynthDataset,
    SynthSpec,
    ToyModel,
    TrainConfig,
    ablation_table,
    default_metrics,
    forward,
    gen_synthetic,
    run_arms,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

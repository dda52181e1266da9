"""Model-agnostic counterfactual explanations for tabular binary classifiers.

The package finds, for a given instance and classifier, a minimally changed
copy of the instance that the classifier predicts as the other class. The
main algorithm walks from the instance toward its nearest correctly
predicted training neighbor of the opposite class, copying one feature at a
time under a configurable reward (sparsity, proximity, or plausibility), and
always terminates with a valid counterfactual. Reference baselines, quality
metrics, and a rank-based benchmark harness (Friedman test, critical
difference) are included, along with a CLI (``nicecf``).
"""

from .distance import heom, heom_feature, k_nearest, nearest_unlike_neighbor
from .errors import (
    ConfigError,
    DistanceError,
    EncodeError,
    EngineError,
    EvalError,
    IngestError,
    ModelIOError,
    NoUnlikeNeighborError,
    StatsError,
    TrainError,
)
from .evaluation import (
    MetricRecord,
    RankTable,
    compute_metrics,
    cross_model_robustness,
    friedman_test,
    nemenyi_cd,
    rank_table,
    render_report,
    summarize_records,
    write_records_csv,
    write_timings_csv,
)
from .explainers import (
    Explanation,
    RewardKind,
    SearchContext,
    TraceStep,
    explain_cbr,
    explain_nice,
    explain_sedc,
    explain_wit,
    explanation_to_dict,
    reward,
)
from .model import (
    ClassifierHandle,
    external_model,
    train_knn_classifier,
    train_logistic,
)
from .plausibility import (
    AEConfig,
    AEModel,
    ae_error,
    ae_scorer,
    train_autoencoder,
)
from .rng import SplitMix64
from .synthetic import make_dataset, save_dataset
from .tabular import (
    Dataset,
    FeatureKind,
    FeatureSpec,
    FeatureStats,
    Instance,
    encode,
    encode_batch,
    fit_stats,
    load_dataset,
    load_schema,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "AEConfig",
    "AEModel",
    "ClassifierHandle",
    "ConfigError",
    "Dataset",
    "DistanceError",
    "EncodeError",
    "EngineError",
    "EvalError",
    "Explanation",
    "FeatureKind",
    "FeatureSpec",
    "FeatureStats",
    "IngestError",
    "Instance",
    "MetricRecord",
    "ModelIOError",
    "NoUnlikeNeighborError",
    "RankTable",
    "RewardKind",
    "SearchContext",
    "SplitMix64",
    "StatsError",
    "TraceStep",
    "TrainError",
    "ae_error",
    "ae_scorer",
    "compute_metrics",
    "cross_model_robustness",
    "encode",
    "encode_batch",
    "explain_cbr",
    "explain_nice",
    "explain_sedc",
    "explain_wit",
    "explanation_to_dict",
    "external_model",
    "fit_stats",
    "friedman_test",
    "heom",
    "heom_feature",
    "k_nearest",
    "load_dataset",
    "load_schema",
    "make_dataset",
    "nearest_unlike_neighbor",
    "nemenyi_cd",
    "rank_table",
    "render_report",
    "reward",
    "save_dataset",
    "split",
    "summarize_records",
    "train_autoencoder",
    "train_knn_classifier",
    "train_logistic",
    "write_records_csv",
    "write_timings_csv",
]

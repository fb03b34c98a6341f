"""triscope: three-way tensor analysis of notification logs.

Builds a Users x Features x Hours tensor from message inter-arrival, fits a
Tucker3 model, ranks abnormal users in the user-component space, projects
per-user temporal trajectories, Ward-clusters them, and flags network-event
windows on the cluster centers.
"""

import os
import sys

# The pipeline's matrices are small: extra OpenBLAS threads only spin, and
# make the last digits depend on the core count. A caller's value is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .anomaly import AnomalyRanking, ranking_correlation, user_scores
from .clustering import (
    Dendrogram,
    EventScan,
    EventWindow,
    center_trajectory,
    cut,
    detect_events,
    ward_cluster,
)
from .errors import DegenerateInputError, InvalidInputError, NumericalError, TriscopeError
from .hmm import (
    HmmFits,
    HmmModel,
    baum_welch,
    baum_welch_many,
    extract_features,
    forward_log_likelihood,
    viterbi,
)
from .ingest import (
    FEATURE_NAMES,
    FeatureTensor,
    HmmConfig,
    HourlyDeltas,
    NotificationLog,
    build_feature_tensor,
    compute_deltas,
    hour_summary_features,
    parse_log,
    preprocess,
    write_log,
)
from .synth import EventSpec, GroundTruth, SynthConfig, generate
from .tensor import (
    fold,
    frobenius_norm,
    matrix,
    mode_multiply,
    read_tensor_text,
    reconstruct,
    tensor3,
    unfold,
    write_matrix_text,
    write_tensor_text,
)
from .trajectory import Trajectories, build_trajectories, trajectory_distance
from .tucker import (
    AnovaReport,
    ScreeResult,
    TuckerModel,
    anova_interaction,
    fit_percent,
    hooi,
    hosvd,
    load_model,
    save_model,
    scree_select,
)

__all__ = [
    "__version__",
    "AnomalyRanking",
    "AnovaReport",
    "Dendrogram",
    "DegenerateInputError",
    "EventScan",
    "EventSpec",
    "EventWindow",
    "FEATURE_NAMES",
    "FeatureTensor",
    "GroundTruth",
    "HmmConfig",
    "HmmFits",
    "HmmModel",
    "HourlyDeltas",
    "InvalidInputError",
    "NotificationLog",
    "NumericalError",
    "ScreeResult",
    "SynthConfig",
    "Trajectories",
    "TriscopeError",
    "TuckerModel",
    "anova_interaction",
    "baum_welch",
    "baum_welch_many",
    "build_feature_tensor",
    "build_trajectories",
    "center_trajectory",
    "compute_deltas",
    "cut",
    "detect_events",
    "extract_features",
    "fit_percent",
    "fold",
    "forward_log_likelihood",
    "frobenius_norm",
    "generate",
    "hooi",
    "hosvd",
    "hour_summary_features",
    "load_model",
    "matrix",
    "mode_multiply",
    "parse_log",
    "preprocess",
    "ranking_correlation",
    "read_tensor_text",
    "reconstruct",
    "save_model",
    "scree_select",
    "tensor3",
    "trajectory_distance",
    "unfold",
    "user_scores",
    "viterbi",
    "ward_cluster",
    "write_log",
    "write_matrix_text",
    "write_tensor_text",
]

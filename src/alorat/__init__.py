"""Anomaly diagnosis for multivariate time series built on low-rank
regularized self-attention: detection via a rank-based score on the
attention spectrum, localization via closed-form input-to-output
contribution weights, plus evaluation metrics, synthetic data, and a
numerical verifier for the unrolled algebraic forms of the encoder."""

from .linalg import spectrum
from .embedding import (
    PairSelection,
    EmbeddingKernels,
    select_pairs,
)
from .attention import AttentionLayerParams
from .model import (
    ModelParams,
    TrainConfig,
    Thresholds,
    ScoreSeries,
    TrainResult,
    NumericError,
    total_loss,
    train,
    score_frame,
    save_checkpoint,
    load_checkpoint,
)
from .localize import (
    ContributionWeights,
    compute_b,
    compute_e,
    compute_c,
    contribution_weights,
    las,
    rank_series,
)
from .metrics import (
    EventSegment,
    events_from_labels,
    best_f1_sweep,
    affiliation_pr,
    hit_rate,
    ndcg,
    ips,
)
from .data import (
    DataError,
    LocalizationTruth,
    TimeSeriesFrame,
    NormStats,
    load_csv,
    save_csv,
    normalize,
    downsample_mean,
    windows,
    simulate_mean_shift,
    inject_anomaly,
)
from .star_verify import (
    VerificationReport,
    unroll_no_skip,
    unroll_skip,
    verify_unrolled,
    verify_ffn_regroup,
)

__version__ = "0.1.0"

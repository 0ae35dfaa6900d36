"""Anomaly diagnosis for multivariate time series built on low-rank
regularized self-attention: detection via a rank-based score on the
attention spectrum, localization via closed-form input-to-output
contribution weights, plus evaluation metrics, synthetic data, and a
numerical verifier for the unrolled algebraic forms of the encoder."""

from .linalg import SvdResult, svd, softmax_rows, spectrum
from .embedding import (
    PairSelection,
    EmbeddingKernels,
    spearman,
    select_pairs,
    init_kernels,
    embed,
)
from .attention import AttentionLayerParams, AttentionTrace
from .model import (
    ModelParams,
    TrainConfig,
    Thresholds,
    ScoreSeries,
    TrainResult,
    NumericError,
    forward,
    total_loss,
    train,
    calibrate_h1,
    alora_t_score,
    anomaly_score,
    score_frame,
    detect,
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
    LocalizationTruth,
    events_from_labels,
    best_f1_sweep,
    affiliation_pr,
    hit_rate,
    ndcg,
    ips,
)
from .data import (
    DataError,
    TimeSeriesFrame,
    NormStats,
    load_csv,
    save_csv,
    normalize,
    denormalize,
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

"""Sparse pairwise embedding.

Each embedding channel mixes exactly two input series through a short
learnable filter (a learnable vector-moving-average), so the parameter
count is 2*m*d_model regardless of how many input series there are.
Channel pairs are picked by ranked correlation magnitude (Spearman by
default, Pearson as a variant) on the training data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .data import DataError

__all__ = [
    "PairSelection",
    "EmbeddingKernels",
    "spearman",
    "select_pairs",
    "init_kernels",
    "embed",
    "pair_conv",
]


@dataclass(frozen=True)
class PairSelection:
    """Ranked series pairs (i < j) with their correlation magnitudes,
    non-increasing; ties broken by lexicographic (i, j)."""

    pairs: tuple[tuple[int, int], ...]
    scores: np.ndarray

    def __post_init__(self):
        if len(self.pairs) != len(self.scores):
            raise ValueError("pairs and scores must align")

    def save(self, path):
        """One `i,j,score` line per pair."""
        with open(path, "w", encoding="utf-8") as fh:
            for (i, j), score in zip(self.pairs, self.scores):
                fh.write(f"{i},{j},{repr(float(score))}\n")

    @classmethod
    def load(cls, path) -> "PairSelection":
        pairs = []
        scores = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                i, j, score = line.split(",")
                pairs.append((int(i), int(j)))
                scores.append(float(score))
        return cls(pairs=tuple(pairs), scores=np.array(scores))


@dataclass
class EmbeddingKernels:
    """Per-channel filters: channel k reads the two series of ``pairs[k]``
    through ``weights[k]`` (shape (2, m)), lags spanning -(m-1)/2 .. (m-1)/2."""

    n_series: int
    pairs: np.ndarray  # (d_model, 2) int
    weights: np.ndarray  # (d_model, 2, m) float64

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (d_model, 2)")
        if self.weights.shape[:2] != (self.pairs.shape[0], 2):
            raise ValueError("weights must have shape (d_model, 2, m)")
        if self.m % 2 != 1:
            raise ValueError("kernel size m must be odd")
        if np.any(self.pairs[:, 0] == self.pairs[:, 1]):
            raise ValueError("each channel must reference two distinct series")
        if np.any(self.pairs < 0) or np.any(self.pairs >= self.n_series):
            raise ValueError(f"channel references a series index >= d={self.n_series}")

    @property
    def d_model(self) -> int:
        return self.pairs.shape[0]

    @property
    def m(self) -> int:
        return self.weights.shape[2]


def _rank_average(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    _, inverse, counts = np.unique(sx, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    group_rank = starts + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(x.shape, dtype=np.float64)
    ranks[order] = group_rank[inverse]
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling.

    A constant input has no defined rank correlation; 0 is returned and a
    RuntimeWarning is emitted.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size < 2:
        raise ValueError("spearman needs two equal-length 1-D sequences of length >= 2")
    rx = _rank_average(xa)
    ry = _rank_average(ya)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        warnings.warn("constant sequence: rank correlation undefined, using 0", RuntimeWarning)
        return 0.0
    corr = np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy)
    return float(np.clip(corr, -1.0, 1.0))


def select_pairs(train, k: int, method: str = "spearman") -> PairSelection:
    """Top-k series pairs ranked by correlation magnitude, descending; ties
    broken by lexicographic (i, j).  All C(d, 2) pairs are included when
    they do not exceed k."""
    values = train.values if hasattr(train, "values") else np.asarray(train, dtype=np.float64)
    d = values.shape[1]
    if d < 2:
        raise DataError("pair selection needs at least 2 series")
    if method not in ("spearman", "pearson"):
        raise ValueError(f"unknown correlation method {method!r}")
    if k < 1:
        raise ValueError("k must be >= 1")

    cols = values
    if method == "spearman":
        cols = np.column_stack([_rank_average(values[:, i]) for i in range(d)])
    stds = cols.std(axis=0)
    if np.any(stds == 0.0):
        warnings.warn("constant series: its pair correlations set to 0", RuntimeWarning)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(cols, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)

    entries = []
    for i in range(d):
        for j in range(i + 1, d):
            entries.append((-abs(corr[i, j]), i, j))
    entries.sort()
    kept = entries[: min(k, len(entries))]
    pairs = tuple((i, j) for _, i, j in kept)
    scores = np.array([-neg for neg, _, _ in kept])
    return PairSelection(pairs=pairs, scores=scores)


def init_kernels(
    selection: PairSelection,
    n_series: int,
    d_model: int,
    m: int = 3,
    rng: np.random.Generator | None = None,
) -> EmbeddingKernels:
    """Assign ranked pairs to channels (cycling when d_model exceeds the
    pair count) and draw fan-in-scaled uniform initial weights."""
    if not selection.pairs:
        raise ValueError("empty pair selection")
    if rng is None:
        rng = np.random.default_rng()
    pair_arr = np.array(
        [selection.pairs[c % len(selection.pairs)] for c in range(d_model)], dtype=np.int64
    )
    bound = 1.0 / np.sqrt(2.0 * m)
    weights = rng.uniform(-bound, bound, size=(d_model, 2, m))
    return EmbeddingKernels(n_series=n_series, pairs=pair_arr, weights=weights)


def pair_conv(x: np.ndarray, weights: Tensor, pairs: np.ndarray) -> Tensor:
    """Zero-padded sparse pairwise convolution along time.

    ``x`` has shape (..., T, d) and is treated as constant; ``weights`` is a
    (d_model, 2, m) Tensor.  Output channel k at time t is
    sum over the channel's two series s and lags of
    weights[k, s, lag] * x[t + lag - (m-1)/2, pairs[k, s]].

    The channels' distinct series are gathered and padded once; one GEMM
    with a (series, m * d_model) mixing matrix gives every lag's term, and
    lag ``j``'s column block enters the output shifted by ``j`` rows.
    """
    d_model, _, m = weights.data.shape
    half = (m - 1) // 2
    t_len = x.shape[-2]
    series, slot = np.unique(pairs, return_inverse=True)
    slot, n_used = slot.reshape(pairs.shape), series.size
    xp = np.zeros((x[..., 0, 0].size, t_len + 2 * half, n_used))
    xp[:, half : half + t_len] = x[..., series].reshape(-1, t_len, n_used)
    xp = xp.reshape(-1, n_used)
    channels = np.arange(d_model)
    mix = np.zeros((n_used, m, d_model))
    for side in (0, 1):
        mix[slot[:, side], :, channels] = weights.data[:, side, :]
    full = (xp @ mix.reshape(n_used, -1)).reshape(-1, t_len + 2 * half, m, d_model)
    out = full[:, 0:t_len, 0].copy()
    for lag in range(1, m):
        out += full[:, lag : lag + t_len, lag]

    def backward(grad):
        d_full = np.zeros(full.shape)
        for lag in range(m):
            d_full[:, lag : lag + t_len, lag] = grad.reshape(-1, t_len, d_model)
        d_mix = (xp.T @ d_full.reshape(xp.shape[0], -1)).reshape(mix.shape)
        weights._accumulate(np.stack([d_mix[slot[:, side], :, channels] for side in (0, 1)], 1))

    out = out.reshape(x.shape[:-1] + (d_model,))
    return Tensor(out, weights.requires_grad, (weights,), backward)


def embed(window, kernels: EmbeddingKernels) -> np.ndarray:
    """Embed a T x d window to T x d_model with zero-padded boundaries."""
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("window must be 2-D")
    if x.shape[1] != kernels.n_series:
        raise ValueError(f"window has {x.shape[1]} series, kernels expect {kernels.n_series}")
    if x.shape[0] < kernels.m:
        raise ValueError(f"window of {x.shape[0]} rows shorter than kernel size {kernels.m}")
    return pair_conv(x, Tensor(kernels.weights), kernels.pairs).data

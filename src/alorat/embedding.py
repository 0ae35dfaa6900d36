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

from .data import DataError, write_table


@dataclass(frozen=True)
class PairSelection:
    """Ranked series pairs (i < j) with their correlation magnitudes,
    non-increasing; ties broken by lexicographic (i, j)."""

    pairs: tuple[tuple[int, int], ...]
    scores: np.ndarray

    def __post_init__(self):
        if len(self.pairs) != len(self.scores):
            raise ValueError("pairs and scores must align")

    def channels(self, d_model: int) -> np.ndarray:
        """(d_model, 2) channel pairs: the ranked pairs cycled over the
        channels when d_model exceeds their count."""
        if not self.pairs:
            raise ValueError("empty pair selection")
        return np.array(self.pairs, dtype=np.int64)[np.arange(d_model) % len(self.pairs)]

    def save(self, path):
        """An `i,j,score` header, then one row per pair."""
        write_table(path, ["i", "j", "score"],
                    [[i for i, _ in self.pairs], [j for _, j in self.pairs], self.scores])


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


def select_pairs(train, k: int, method: str = "spearman") -> PairSelection:
    """Top-k series pairs ranked by correlation magnitude, descending; ties
    broken by lexicographic (i, j).  All C(d, 2) pairs are included when
    they do not exceed k.  A constant series warns once, by its name when
    ``train`` is a frame and by its index otherwise."""
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
    constant = np.flatnonzero(cols.std(axis=0) == 0.0)
    if constant.size:
        names = getattr(train, "names", range(d))
        warnings.warn(f"constant series {', '.join(str(names[i]) for i in constant)}: "
                      "its pair correlations set to 0", RuntimeWarning)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(cols, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)

    i, j = np.triu_indices(d, 1)  # in (i, j) order, which the stable sort keeps for ties
    mag = np.abs(corr[i, j])
    kept = np.argsort(-mag, kind="stable")[:k]
    return PairSelection(pairs=tuple(zip(i[kept].tolist(), j[kept].tolist())), scores=mag[kept])


def pair_conv(x: np.ndarray, weights: np.ndarray, pairs: np.ndarray):
    """Zero-padded sparse pairwise convolution along time.

    ``x`` has shape (..., T, d) and is treated as constant; ``weights`` has
    shape (d_model, 2, m).  Returns (out, backward): output channel k at time t is
    sum over the channel's two series s and lags of
    weights[k, s, lag] * x[t + lag - (m-1)/2, pairs[k, s]].

    The channels' distinct series are gathered and padded once; one GEMM
    with a (series, m * d_model) mixing matrix gives every lag's term, and
    lag ``j``'s column block enters the output shifted by ``j`` rows.
    ``backward(d_out)`` returns the gradient of ``weights``.
    """
    d_model, _, m = weights.shape
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
        mix[slot[:, side], :, channels] = weights[:, side, :]
    full = (xp @ mix.reshape(n_used, -1)).reshape(-1, t_len + 2 * half, m, d_model)
    out = full[:, 0:t_len, 0].copy()
    for lag in range(1, m):
        out += full[:, lag : lag + t_len, lag]

    def backward(grad):
        d_full = np.zeros(full.shape)
        for lag in range(m):
            d_full[:, lag : lag + t_len, lag] = grad.reshape(-1, t_len, d_model)
        d_mix = (xp.T @ d_full.reshape(xp.shape[0], -1)).reshape(mix.shape)
        return np.stack([d_mix[slot[:, side], :, channels] for side in (0, 1)], 1)

    return out.reshape(x.shape[:-1] + (d_model,)), backward


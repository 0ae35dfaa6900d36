"""Closed-form input-to-output contribution weights and the per-series
localization score.

The latent map of the linear encoder factors into a left (attention)
product shared across series and a right product of per-layer effective
value maps; the right product B, folded through the embedding filters (E)
and the output projection (C), quantifies how much each input series
contributes to each latent feature and to each reconstructed series.  The
localization score of series i at time t weighs the per-series squared
residuals by row i of C.

These forms are exact for identity activation; with a nonlinear activation
they are computed the same way and labeled as an approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import attention
from .data import write_table
from .embedding import EmbeddingKernels

__all__ = [
    "ContributionWeights",
    "compute_b",
    "compute_e",
    "compute_c",
    "contribution_weights",
    "las",
    "rank_series",
    "save_las_csv",
    "save_matrix_csv",
]

EXACT_MODE = "exact"
APPROX_MODE = "approximation (nonlinear path)"


@dataclass(frozen=True)
class ContributionWeights:
    """b: latent-to-latent value product; e: input-to-latent weights;
    c: input-to-reconstruction weights (c = e @ w_out)."""

    b: np.ndarray
    e: np.ndarray
    c: np.ndarray
    mode: str = EXACT_MODE


def compute_b(value_maps, skip: bool) -> np.ndarray:
    """Ordered product over layers of (W_v + I) with skip connections, or of
    the W_v alone without them."""
    maps = [np.asarray(w, dtype=np.float64) for w in value_maps]
    if not maps:
        raise ValueError("need at least one value map")
    d_model = maps[0].shape[0]
    for w in maps:
        if w.shape != (d_model, d_model):
            raise ValueError(f"value map shape {w.shape} != {(d_model, d_model)}")
    eye = np.eye(d_model)
    b = np.eye(d_model)
    for w in maps:
        b = b @ (w + eye if skip else w)
    return b


def compute_e(kernels: EmbeddingKernels | None, b: np.ndarray) -> np.ndarray:
    """Input-to-latent weights: E_ij = sum_k (lag-sum of series i's filter in
    channel k) * b_kj.  Without an embedding the weights reduce to E = B."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("b must be square")
    if kernels is None:
        return b.copy()
    if kernels.d_model != b.shape[0]:
        raise ValueError(f"kernels have {kernels.d_model} channels, b is {b.shape[0]} wide")
    lag_sums = kernels.weights.sum(axis=2)  # (d_model, 2)
    series_weights = np.zeros((kernels.n_series, kernels.d_model))
    channel_idx = np.arange(kernels.d_model)
    np.add.at(series_weights, (kernels.pairs[:, 0], channel_idx), lag_sums[:, 0])
    np.add.at(series_weights, (kernels.pairs[:, 1], channel_idx), lag_sums[:, 1])
    return series_weights @ b


def compute_c(e: np.ndarray, w_out: np.ndarray) -> np.ndarray:
    """Input-to-reconstruction weights C = E @ W_out."""
    e = np.asarray(e, dtype=np.float64)
    w_out = np.asarray(w_out, dtype=np.float64)
    if e.shape[1] != w_out.shape[0]:
        raise ValueError(f"inner dimensions {e.shape[1]} and {w_out.shape[0]} do not match")
    return e @ w_out


def contribution_weights(params, skip: bool, activation: str = "identity") -> ContributionWeights:
    """Assemble B, E, C from trained model parameters."""
    value_maps = [attention.effective_value_map(p) for p in params.layers]
    b = compute_b(value_maps, skip)
    e = compute_e(params.kernels, b)
    c = compute_c(e, params.w_out)
    mode = EXACT_MODE if activation == "identity" else APPROX_MODE
    return ContributionWeights(b=b, e=e, c=c, mode=mode)


def las(
    c: np.ndarray,
    residuals: np.ndarray,
    top_k: int | None = None,
    absolute: bool = False,
) -> np.ndarray:
    """Localization scores (timesteps x d): row i weighs the per-series
    squared residuals by row i of C, either over all series or only over
    the top_k largest entries of that row.  `absolute` swaps C for |C|."""
    c = np.asarray(c, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("c must be a square d x d matrix")
    if r.ndim != 2 or r.shape[1] != c.shape[0]:
        raise ValueError(f"residuals shape {r.shape} incompatible with c {c.shape}")
    if np.any(r < 0):
        raise ValueError("residuals must be non-negative")
    weights = np.abs(c) if absolute else c.copy()
    d = c.shape[0]
    if top_k is not None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if top_k > d:
            warnings.warn(f"top_k={top_k} exceeds d={d}; clamping", RuntimeWarning)
            top_k = d
        masked = np.zeros_like(weights)
        for i in range(d):
            keep = rank_series(weights[i], top_k)
            masked[i, keep] = weights[i, keep]
        weights = masked
    return r @ weights.T


def rank_series(las_row, k: int) -> np.ndarray:
    """Indices of the k largest values, descending; ties resolve to the
    lower index."""
    row = np.asarray(las_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError("expected a 1-D score vector")
    if not 0 <= k <= row.size:
        raise ValueError(f"k={k} out of range for {row.size} series")
    order = np.argsort(-row, kind="stable")
    return order[:k]


def save_las_csv(path, las_matrix: np.ndarray, names):
    """LAS matrix as CSV: header = series names, one row per timestep."""
    las_matrix = np.asarray(las_matrix, dtype=np.float64)
    if las_matrix.shape[1] != len(names):
        raise ValueError(f"{len(names)} names for {las_matrix.shape[1]} columns")
    write_table(path, names, las_matrix.T)


def save_matrix_csv(path, matrix: np.ndarray, row_labels, col_labels):
    """Labeled matrix dump (first column = row label)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_labels), len(col_labels)):
        raise ValueError(f"matrix shape {matrix.shape} != labels "
                         f"({len(row_labels)}, {len(col_labels)})")
    write_table(path, ["", *col_labels], [row_labels, *matrix.T])

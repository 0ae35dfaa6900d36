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


def contribution_weights(params, skip: bool, activation: str = "identity") -> ContributionWeights:
    """B, E and C of trained model parameters.  B is the ordered product
    over layers of each effective value map (plus I with skip connections);
    E_ij = sum_k (lag-sum of series i's filter in channel k) * B_kj; and
    C = E @ W_out."""
    kernels = params.kernels
    eye = np.eye(kernels.d_model)
    b = np.eye(kernels.d_model)
    for p in params.layers:
        w = attention.effective_value_map(p)
        b = b @ (w + eye if skip else w)
    lag_sums = kernels.weights.sum(axis=2)  # (d_model, 2)
    series_weights = np.zeros((kernels.n_series, kernels.d_model))
    channel_idx = np.arange(kernels.d_model)
    np.add.at(series_weights, (kernels.pairs[:, 0], channel_idx), lag_sums[:, 0])
    np.add.at(series_weights, (kernels.pairs[:, 1], channel_idx), lag_sums[:, 1])
    e = series_weights @ b
    mode = EXACT_MODE if activation == "identity" else APPROX_MODE
    return ContributionWeights(b=b, e=e, c=e @ params.w_out, mode=mode)


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
    weights = np.abs(c) if absolute else c
    d = c.shape[0]
    if top_k is not None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if top_k > d:
            warnings.warn(f"top_k={top_k} exceeds d={d}; clamping", RuntimeWarning)
            top_k = d
        keep = np.argsort(-weights, axis=1, kind="stable")[:, :top_k]
        masked = np.zeros_like(weights)
        np.put_along_axis(masked, keep, np.take_along_axis(weights, keep, axis=1), axis=1)
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

"""Low-rank-regularized self-attention layers.

A layer projects its input into per-head queries/keys/values, forms
row-stochastic attention matrices S_h = softmax(Q_h K_h^T / sqrt(d_model)
[+ mask]), applies the value path with an output projection and an optional
residual connection, and exposes the head-averaged attention matrix, which
is what the Geman low-rank penalty acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

__all__ = [
    "AttentionLayerParams",
    "AttentionTrace",
    "init_layer_params",
    "attention_scores",
    "layer_forward",
    "effective_value_map",
    "per_head_value_maps",
]

ACTIVATIONS = ("identity", "gelu")


@dataclass
class AttentionLayerParams:
    """Per-head projections stacked head-major: w_q/w_k/w_v have shape
    (H, d_model, d_model/H) and w_proj (d_model, d_model) maps the
    concatenated head outputs back to model width."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_proj: np.ndarray
    layer_index: int = 0

    def __post_init__(self):
        h, dm, dh = self.w_q.shape
        if h * dh != dm:
            raise ValueError(f"head count {h} must divide d_model {dm}")
        for name in ("w_k", "w_v"):
            if getattr(self, name).shape != (h, dm, dh):
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {(h, dm, dh)}")
        if self.w_proj.shape != (dm, dm):
            raise ValueError(f"w_proj shape {self.w_proj.shape} != {(dm, dm)}")

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_q.shape[1]


@dataclass
class AttentionTrace:
    """Head-averaged attention matrix per layer plus the singular values of
    the final layer's matrix, for one window."""

    s_layers: list[np.ndarray]
    final_sigma: np.ndarray


def init_layer_params(
    d_model: int, heads: int, layer_index: int = 0, rng: np.random.Generator | None = None
) -> AttentionLayerParams:
    if d_model % heads != 0:
        raise ValueError(f"heads {heads} must divide d_model {d_model}")
    if rng is None:
        rng = np.random.default_rng()
    dh = d_model // heads
    bound = 1.0 / np.sqrt(d_model)

    def draw(*shape):
        return rng.uniform(-bound, bound, size=shape)

    return AttentionLayerParams(
        w_q=draw(heads, d_model, dh),
        w_k=draw(heads, d_model, dh),
        w_v=draw(heads, d_model, dh),
        w_proj=draw(d_model, d_model),
        layer_index=layer_index,
    )


def effective_value_map(params: AttentionLayerParams) -> np.ndarray:
    """Single d_model x d_model value map: concatenated per-head value
    projections followed by the output projection."""
    stacked = np.concatenate(list(params.w_v), axis=-1)
    return stacked @ params.w_proj


def per_head_value_maps(params: AttentionLayerParams) -> np.ndarray:
    """(H, d_model, d_model) per-head value maps; their sum equals
    :func:`effective_value_map`."""
    dh = params.d_model // params.heads
    return np.stack(
        [params.w_v[h] @ params.w_proj[h * dh : (h + 1) * dh] for h in range(params.heads)]
    )


# -- tensor cores (shared by inference wrappers and the training tape) --------


def scores_t(z: Tensor, w_q: Tensor, w_k: Tensor, mask: np.ndarray | None):
    """Per-head attention matrices (..., H, T, T) and their head average."""
    d_model = z.shape[-1]
    zh = ag.expand_dims(z, -3)
    q = zh @ w_q
    k = zh @ w_k
    logits = (q @ k.transpose_last()) * (1.0 / np.sqrt(d_model))
    s_heads = ag.softmax_rows(logits, mask)
    s_avg = ag.mean_axis(s_heads, -3)
    return s_heads, s_avg


def forward_t(
    z: Tensor,
    w_q: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    w_proj: Tensor,
    skip: bool,
    activation: str,
    mask: np.ndarray | None,
):
    """One layer; returns (z_next, s_avg, s_heads)."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    s_heads, s_avg = scores_t(z, w_q, w_k, mask)
    zh = ag.expand_dims(z, -3)
    heads = s_heads @ (zh @ w_v)  # (..., H, T, dh)
    t_len, dh = heads.shape[-2], heads.shape[-1]
    h_count = heads.shape[-3]
    merged = ag.reshape(ag.moveaxis(heads, -3, -2), heads.shape[:-3] + (t_len, h_count * dh))
    out = merged @ w_proj
    if skip:
        out = out + z
    if activation == "gelu":
        out = ag.gelu(out)
    return out, s_avg, s_heads


# -- public numpy API ----------------------------------------------------------


def attention_scores(z, params: AttentionLayerParams, mask=None):
    """Per-head attention matrices (H, T, T) and their average (T, T)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.d_model:
        raise ValueError(f"input shape {z.shape} incompatible with d_model {params.d_model}")
    s_heads, s_avg = scores_t(Tensor(z), Tensor(params.w_q), Tensor(params.w_k), mask)
    return s_heads.data, s_avg.data


def layer_forward(
    z_prev, params: AttentionLayerParams, skip: bool = True, activation: str = "identity", mask=None
):
    """Apply one layer to a T x d_model input; returns (z_next, s_avg)."""
    z = np.asarray(z_prev, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.d_model:
        raise ValueError(f"input shape {z.shape} incompatible with d_model {params.d_model}")
    out, s_avg, _ = forward_t(
        Tensor(z),
        Tensor(params.w_q),
        Tensor(params.w_k),
        Tensor(params.w_v),
        Tensor(params.w_proj),
        skip,
        activation,
        mask,
    )
    return out.data, s_avg.data

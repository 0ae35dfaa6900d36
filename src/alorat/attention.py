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

from . import linalg

ACTIVATIONS = ("identity", "gelu")
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


@dataclass
class AttentionLayerParams:
    """Per-head projections stacked head-major: w_q/w_k/w_v have shape
    (H, d_model, d_model/H) and w_proj (d_model, d_model) maps the
    concatenated head outputs back to model width."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_proj: np.ndarray

    def __post_init__(self):
        h, dm, dh = self.w_q.shape
        if h * dh != dm:
            raise ValueError(f"head count {h} must divide d_model {dm}")
        for name, shape in layer_shapes(dm, h):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_q.shape[1]


def layer_shapes(d_model: int, heads: int) -> list[tuple[str, tuple[int, ...]]]:
    """A layer's arrays as (field name, shape) pairs, in field order."""
    per_head = (heads, d_model, d_model // heads)
    return [("w_q", per_head), ("w_k", per_head), ("w_v", per_head), ("w_proj", (d_model, d_model))]


def init_layer_params(d_model: int, heads: int, rng: np.random.Generator) -> AttentionLayerParams:
    """Each array of :func:`layer_shapes` in order, uniform in
    +-1/sqrt(d_model)."""
    bound = 1.0 / np.sqrt(d_model)
    return AttentionLayerParams(**{name: rng.uniform(-bound, bound, size=shape)
                                   for name, shape in layer_shapes(d_model, heads)})


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


# -- the layer kernel, shared by training and inference ------------------------


def gelu_parts(x: np.ndarray):
    """tanh-form GELU of an array, with the tanh term its slope reuses."""
    th = np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + th), th


def gelu_slope(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Derivative of :func:`gelu_parts` at ``x``."""
    du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du


def forward_t(
    z: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    w_proj: np.ndarray,
    skip: bool,
    activation: str,
    mask: np.ndarray | None,
):
    """One layer over a (..., T, d_model) stack; returns (z_next, s_avg,
    s_heads, backward): the output, the head-averaged attention (..., T, T),
    the per-head attention (..., H, T, T), and ``backward(d_next, d_s)``,
    which maps the gradients of z_next and s_avg to those of (z, w_q, w_k,
    w_v, w_proj).  Inference drops ``backward`` at once, so the arrays it
    holds are freed with the call.

    Queries, keys and values come from one (B*T, d_model) @ (d_model,
    3*d_model) product with the 1/sqrt(d_model) scale folded into the query
    columns.  The backward is written out: with P a head's attention, dP
    its incoming gradient (value path plus the share of s_avg's), the
    logits get P * (dP - rowsum(dP * P)).
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    heads, d_model, dh = w_q.shape
    if z.shape[-1] != d_model:
        raise ValueError(f"input shape {z.shape} incompatible with d_model {d_model}")
    lead, t_len = z.shape[:-2], z.shape[-2]
    z2 = z.reshape(-1, d_model)
    b = z2.shape[0] // t_len
    scale = 1.0 / np.sqrt(d_model)
    w_qkv = np.concatenate([w_q * scale, w_k, w_v]).transpose(1, 0, 2)
    w_qkv = w_qkv.reshape(d_model, 3 * d_model)
    # Head-major (H, B, T, dh) views: the head mean then adds whole slabs.
    qkv = (z2 @ w_qkv).reshape(b, t_len, 3, heads, dh).transpose(2, 3, 0, 1, 4)
    q, k, v = qkv
    logits = q @ np.swapaxes(k, -1, -2)
    if mask is not None:
        logits += mask
    p = linalg.softmax_last(logits)
    s_avg = p.mean(axis=0)
    merged = (p @ v).transpose(1, 2, 0, 3).reshape(-1, d_model)
    pre = merged @ w_proj
    if skip:
        pre += z2
    out, th = gelu_parts(pre) if activation == "gelu" else (pre, None)

    def backward(d_next, d_s):
        g = d_next.reshape(-1, d_model)
        if th is not None:
            g = g * gelu_slope(pre, th)
        d_proj = merged.T @ g
        d_o = (g @ w_proj.T).reshape(b, t_len, heads, dh).transpose(2, 0, 1, 3)
        d_qkv = np.empty((b, t_len, 3, heads, dh))
        d_q, d_k, d_v = d_qkv.transpose(2, 3, 0, 1, 4)
        np.matmul(np.swapaxes(p, -1, -2), d_o, out=d_v)
        # Softmax backward on the key-major (Tk, H, B, Tq) layout.
        p_km = np.moveaxis(p, -1, 0)
        d_p = np.empty(p_km.shape)
        np.matmul(v, np.swapaxes(d_o, -1, -2), out=np.moveaxis(d_p, 0, -2))
        d_p += np.moveaxis(d_s.reshape(b, t_len, t_len), -1, 0)[:, None] * (1.0 / heads)
        d_p -= np.sum(d_p * p_km, axis=0)
        d_p *= p_km
        d_l = np.moveaxis(d_p, 0, -1)
        np.matmul(d_l, k, out=d_q)
        np.matmul(np.swapaxes(d_l, -1, -2), q, out=d_k)
        d_qkv = d_qkv.reshape(-1, 3 * d_model)
        d_w = (z2.T @ d_qkv).reshape(d_model, 3, heads, dh).transpose(1, 2, 0, 3)
        d_w[0] *= scale
        d_z = d_qkv @ w_qkv.T
        if skip:
            d_z += g
        return d_z.reshape(z.shape), *d_w, d_proj

    s_heads = np.moveaxis(p, 0, -3).reshape(lead + p.shape[:1] + p.shape[2:])
    return out.reshape(z.shape), s_avg.reshape(lead + (t_len, t_len)), s_heads, backward

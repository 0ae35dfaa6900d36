"""Numerical certification that the layer-by-layer forward pass equals its
unrolled algebraic forms.

Without residual connections the stack collapses to a single left product
of attention matrices and right product of value maps around the embedded
input; with residual connections it expands into one term per subset of
layers (descending attention order on the left, ascending value order on
the right) plus the identity term.  Attention matrices are harvested from
the genuine forward pass, since each layer's matrix depends on the
realized input of that layer; with multiple heads each subset term expands
over per-head attention/value pairs.

The regrouping check confirms that a linear map applied after the latent
stage folds into the value-side weights (b~ = b @ w) entrywise.

The seeded grid is a list of :class:`alorat.model.TrainConfig`, checked by
the same limits as a training config.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import attention
from .model import TrainConfig, attention_mask

DEFAULT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """`passed` is None in approximation mode (nothing is asserted)."""

    mode: str  # no_skip | skip | ffn_regroup | approximation
    max_abs_error: float
    max_rel_error: float
    term_count: int
    passed: bool | None

    def line(self) -> str:
        verdict = "N/A" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return (
            f"mode={self.mode} terms={self.term_count} "
            f"abs={self.max_abs_error:.3e} rel={self.max_rel_error:.3e} {verdict}"
        )


def _check_layers(layers):
    if not layers:
        raise ValueError("need at least one layer")
    for heads in layers:
        if not heads:
            raise ValueError("each layer needs at least one (attention, value) pair")


def unroll_no_skip(layers, x_embedded) -> np.ndarray:
    """Explicit product form: sum over per-layer head choices of
    S^(L)...S^(1) @ X~ @ W^(1)...W^(L).  `layers` is a sequence of
    [(S_h, W_h), ...] per layer; returns the T x d_model matrix."""
    _check_layers(layers)
    x = np.asarray(x_embedded, dtype=np.float64)
    total = np.zeros_like(x)
    for combo in itertools.product(*[range(len(heads)) for heads in layers]):
        left = layers[0][combo[0]][0]
        right = layers[0][combo[0]][1]
        for l in range(1, len(layers)):
            left = layers[l][combo[l]][0] @ left
            right = right @ layers[l][combo[l]][1]
        total += left @ x @ right
    return total


def unroll_skip(layers, x_embedded) -> np.ndarray:
    """Subset expansion with residual connections: X~ plus, for every
    nonempty subset of layers, the descending attention product times X~
    times the ascending value product (expanded over head choices)."""
    _check_layers(layers)
    x = np.asarray(x_embedded, dtype=np.float64)
    total = x.copy()
    indices = range(len(layers))
    for size in range(1, len(layers) + 1):
        for subset in itertools.combinations(indices, size):
            total += unroll_no_skip([layers[i] for i in subset], x)
    return total


def harvest_layers(layer_params, x_embedded, skip: bool, mask=None, activation: str = "identity"):
    """Run the real forward pass, collecting per-layer per-head attention
    matrices paired with per-head effective value maps.

    Returns (layers, z_final) where `layers` feeds the unroll functions and
    `z_final` is the forward-pass reference output.
    """
    z = np.asarray(x_embedded, dtype=np.float64)
    layers = []
    for p in layer_params:
        z, _, s_heads, _ = attention.forward_t(
            z, p.w_q, p.w_k, p.w_v, p.w_proj, skip, activation, mask)
        layers.append(list(zip(s_heads, attention.per_head_value_maps(p))))
    return layers, z


def _error_report(mode, reference, candidate, term_count, tolerance, assertable=True):
    abs_err = float(np.max(np.abs(reference - candidate)))
    scale = float(np.max(np.abs(reference)))
    rel_err = abs_err / scale if scale > 0 else abs_err
    passed = (rel_err <= tolerance) if assertable else None
    return VerificationReport(
        mode=mode,
        max_abs_error=abs_err,
        max_rel_error=rel_err,
        term_count=term_count,
        passed=passed,
    )


def verify_unrolled(
    layer_params,
    x_embedded,
    skip: bool,
    mask=None,
    activation: str = "identity",
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Compare the forward pass against its unrolled form.

    With identity activation the equality is exact and asserted at
    `tolerance`; with any other activation the unrolled linear form no
    longer holds, so the report carries mode "approximation" and the
    observed divergence without asserting.
    """
    exact = activation == "identity"
    layers, z_ref = harvest_layers(layer_params, x_embedded, skip, mask, activation)
    if skip:
        candidate = unroll_skip(layers, x_embedded)
        terms = 2 ** len(layer_params)
    else:
        candidate = unroll_no_skip(layers, x_embedded)
        terms = 1
    mode = ("skip" if skip else "no_skip") if exact else "approximation"
    return _error_report(mode, z_ref, candidate, terms, tolerance, assertable=exact)


def verify_ffn_regroup(b, w_ffn, tolerance: float = 1e-12) -> VerificationReport:
    """Check b~_kj = sum_r w_rj b_kr against the matrix product b @ w, and
    that applying the linear map after the latent stage reproduces the
    unrolled form with b~ in place of b."""
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(w_ffn, dtype=np.float64)
    if b.ndim != 2 or w.ndim != 2 or b.shape[1] != w.shape[0]:
        raise ValueError(f"shapes {b.shape} and {w.shape} do not compose")
    product = b @ w
    summed = np.zeros_like(product)
    for k in range(b.shape[0]):
        for j in range(w.shape[1]):
            summed[k, j] = sum(w[r, j] * b[k, r] for r in range(b.shape[1]))
    abs1 = float(np.max(np.abs(product - summed)))

    rng = np.random.Generator(np.random.PCG64(20240517))
    t_probe = 5
    a_t = rng.normal(size=(1, t_probe))
    x_probe = rng.normal(size=(t_probe, b.shape[0]))
    after = (a_t @ x_probe @ b) @ w
    regrouped = a_t @ x_probe @ product
    abs2 = float(np.max(np.abs(after - regrouped)))

    abs_err = max(abs1, abs2)
    scale = max(float(np.max(np.abs(product))), float(np.max(np.abs(after))), 1e-300)
    rel_err = abs_err / scale
    return VerificationReport(
        mode="ffn_regroup",
        max_abs_error=abs_err,
        max_rel_error=rel_err,
        term_count=b.shape[1],
        passed=rel_err <= tolerance,
    )


# -- seeded verification grid -----------------------------------------------------


def build_grid(n: int = 20, base_seed: int = 0) -> list[TrainConfig]:
    """Deterministic spread over L in {1,2,3}, T in {4,8,16}, d_model in
    {2,4,8}, H in {1,2}, mask in {none, causal}."""
    layer_opts = (1, 2, 3)
    t_opts = (4, 8, 16)
    dm_opts = (2, 4, 8)
    head_opts = (1, 2)
    mask_opts = ("none", "causal")
    return [
        TrainConfig(
            layers=layer_opts[i % 3],
            t_window=t_opts[(i // 3) % 3],
            d_model=dm_opts[(i // 9) % 3],
            heads=head_opts[i % 2],
            mask=mask_opts[(i // 2) % 2],
            seed=base_seed + i,
        )
        for i in range(n)
    ]


def describe(config: TrainConfig) -> str:
    """A grid point's label in the star-check report."""
    return (f"L={config.layers} T={config.t_window} d_model={config.d_model} "
            f"H={config.heads} mask={config.mask} seed={config.seed}")


def run_config(config: TrainConfig, tolerance: float = DEFAULT_TOLERANCE):
    """Random model for one grid point; returns {"skip": report,
    "no_skip": report}."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    x_embedded = rng.normal(size=(config.t_window, config.d_model))
    params = [attention.init_layer_params(config.d_model, config.heads, rng)
              for _ in range(config.layers)]
    mask = attention_mask(config)
    return {
        "skip": verify_unrolled(params, x_embedded, skip=True, mask=mask, tolerance=tolerance),
        "no_skip": verify_unrolled(params, x_embedded, skip=False, mask=mask, tolerance=tolerance),
    }


def run_grid(n: int = 20, base_seed: int = 0, tolerance: float = DEFAULT_TOLERANCE):
    """All grid configurations with both skip modes; returns a list of
    (config, reports) pairs."""
    return [(config, run_config(config, tolerance)) for config in build_grid(n, base_seed)]

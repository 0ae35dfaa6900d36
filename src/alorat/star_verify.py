"""Numerical certification that the layer-by-layer forward pass equals its
unrolled algebraic form.

Each layer computes sum_h S_h z W_h, plus z itself with a residual
connection, so the residual branch is one more (attention, value) choice:
the pair (I_T, I_d_model).  The stack then unrolls into one expansion, a
sum over one choice per layer of the descending attention product times
the embedded input times the ascending value product.  Attention matrices
are harvested from the genuine forward pass, since each layer's matrix
depends on the realized input of that layer.

The regrouping check confirms that a linear map applied after the latent
stage folds into the value-side weights (b~ = b @ w) entrywise.

The seeded grid is a list of :class:`alorat.model.TrainConfig`, checked by
the same limits as a training config.
"""

from __future__ import annotations

import itertools
import math
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


def unroll(layers, x_embedded) -> np.ndarray:
    """The expansion: the sum over one (S, W) choice per layer of
    S^(L)...S^(1) @ X~ @ W^(1)...W^(L).  `layers` is a sequence of
    [(S_h, W_h), ...] per layer; returns the T x d_model matrix."""
    if not layers or not all(layers):
        raise ValueError("need at least one layer, each with an (attention, value) pair")
    x = np.asarray(x_embedded, dtype=np.float64)
    total = np.zeros_like(x)
    for (left, right), *rest in itertools.product(*layers):
        for s, w in rest:
            left = s @ left
            right = right @ w
        total += left @ x @ right
    return total


def harvest_layers(layer_params, x_embedded, skip: bool, mask=None, activation: str = "identity"):
    """Run the real forward pass, collecting per-layer per-head attention
    matrices paired with per-head effective value maps; with `skip` each
    layer's list ends with the residual branch's (I_T, I_d_model) pair.

    Returns (layers, z_final) where `layers` feeds :func:`unroll` and
    `z_final` is the forward-pass reference output.
    """
    z = np.asarray(x_embedded, dtype=np.float64)
    residual = [(np.eye(z.shape[0]), np.eye(z.shape[1]))] if skip else []
    layers = []
    for p in layer_params:
        z, _, s_heads, _ = attention.forward_t(
            z, p.w_q, p.w_k, p.w_v, p.w_proj, skip, activation, mask)
        layers.append(list(zip(s_heads, attention.per_head_value_maps(p))) + residual)
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
    # one term per choice in every layer: prod(H_l + 1) with skip, prod(H_l) without
    terms = math.prod(map(len, layers))
    mode = ("skip" if skip else "no_skip") if exact else "approximation"
    return _error_report(mode, z_ref, unroll(layers, x_embedded), terms, tolerance,
                         assertable=exact)


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

    rng = np.random.Generator(np.random.PCG64(20240517))
    t_probe = 5
    a_t = rng.normal(size=(1, t_probe))
    x_probe = rng.normal(size=(t_probe, b.shape[0]))
    after = (a_t @ x_probe @ b) @ w
    regrouped = a_t @ x_probe @ product
    return _error_report("ffn_regroup", np.concatenate([product.ravel(), after.ravel()]),
                         np.concatenate([summed.ravel(), regrouped.ravel()]), b.shape[1],
                         tolerance)


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

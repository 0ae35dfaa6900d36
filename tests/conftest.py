"""Shared fixtures: the pinned-matrix bivariate simulation model and the
h1 cutoff rule."""

import numpy as np
import pytest

from alorat import attention, data, embedding, linalg, model
from alorat.model import ModelParams, TrainConfig


def controlled_sim_params(rng) -> ModelParams:
    """Two-layer one-head encoder with identity feedthrough embedding and
    pinned value/output maps; only the query/key projections are meant to
    train."""
    kernels = embedding.EmbeddingKernels(
        n_series=2,
        pairs=np.array([[0, 1], [0, 1]]),
        weights=np.array(
            [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]
        ),
    )
    bound = 1.0 / np.sqrt(2.0)

    def qk():
        return rng.uniform(-bound, bound, size=(1, 2, 2))

    layers = [
        attention.AttentionLayerParams(
            w_q=qk(), w_k=qk(), w_v=np.eye(2)[None], w_proj=np.eye(2)
        ),
        attention.AttentionLayerParams(
            w_q=qk(), w_k=qk(), w_v=np.array([[[0.2, 0.7], [0.8, 0.3]]]), w_proj=np.eye(2)
        ),
    ]
    return ModelParams(kernels=kernels, layers=layers, w_out=np.array([[0.1, 0.9], [0.9, 0.1]]))


@pytest.fixture(scope="session")
def pinned_sim_run():
    """Train the pinned encoder on clean data and score the shifted frame.

    Returns (cfg, train result, shifted frame with labels, score series).
    """
    seed = 2
    cfg = TrainConfig(
        t_window=16,
        d_model=2,
        heads=1,
        layers=2,
        lambda_reg=10.0,
        learning_rate=1e-3,
        max_epochs=6,
        patience=6,
        k_pairs=1,
        seed=seed,
        batch_size=64,
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    clean, stats = data.normalize(data.simulate_mean_shift(delta=0.0, seed=seed + 50_000))
    result = model.train(clean, cfg, init=controlled_sim_params(rng), trainable=("w_q", "w_k"))
    shifted = data.simulate_mean_shift(delta=3.0, seed=seed)
    shifted_n, _ = data.normalize(shifted, stats)
    series = model.score_frame(shifted_n, result.params, cfg, result.thresholds.h1)
    return cfg, result, shifted, series


@pytest.fixture
def h1_rule(monkeypatch):
    """Training's h1 rule as a function of given 4th and 5th singular-value
    trajectories: ``model._h1_from_params`` over windows whose final-layer
    spectra are stood in for by rows holding those values."""
    monkeypatch.setattr(model, "batch_forward", lambda chunk, params, cfg: (None, [chunk]))
    monkeypatch.setattr(linalg, "spectrum", lambda s: s)
    cfg = TrainConfig(t_window=5, d_model=2, heads=1)

    def rule(fourth, fifth):
        sigma = np.zeros((len(fourth), cfg.t_window))
        sigma[:, 3], sigma[:, 4] = fourth, fifth
        return model._h1_from_params(sigma, None, cfg)

    return rule

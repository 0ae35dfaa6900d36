import re
import tracemalloc
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest
from test_attention import layer_forward

from alorat import data, embedding, harness, linalg, model
from alorat.attention import AttentionLayerParams
from alorat.data import DataError, TimeSeriesFrame
from alorat.embedding import EmbeddingKernels
from alorat.model import ModelParams, TrainConfig


def tiny_cfg(**over):
    base = dict(
        t_window=8,
        d_model=4,
        heads=2,
        layers=2,
        lambda_reg=2.0,
        learning_rate=1e-3,
        max_epochs=3,
        patience=3,
        k_pairs=4,
        seed=0,
        batch_size=16,
    )
    base.update(over)
    return TrainConfig(**base)


def random_params(cfg, d, seed):
    values = np.random.default_rng(seed).normal(size=(50, d))
    params, _ = model.init_params(values, cfg, np.random.default_rng(seed + 1))
    return params


def unit_stats(d):
    """Normalization stats that leave every value bit-exactly as it is."""
    return data.NormStats(mean=np.zeros(d), std=np.ones(d))


def forward_one(window, params, cfg):
    """One T x d window through :func:`model.batch_forward`: its
    reconstruction and every layer's head-averaged attention."""
    recon, s_layers = model.batch_forward(window[None], params, cfg)
    return recon[0], [s[0] for s in s_layers]


def zero_params(cfg, d):
    zeros = [np.zeros(shape) for _, shape in model.param_layout(cfg, d)]
    return ModelParams.from_arrays(d, np.tile([0, 1], (cfg.d_model, 1)), zeros)


class TestModelParams:
    def test_w_out_columns_must_match_the_series(self):
        """Before the check, a (2, 3) w_out on 4 series was accepted, then
        failed in scoring and saved a checkpoint that did not load."""
        params = zero_params(tiny_cfg(d_model=2, heads=1), 4)
        with pytest.raises(ValueError, match=r"w_out shape \(2, 3\)"):
            ModelParams(kernels=params.kernels, layers=params.layers, w_out=np.zeros((2, 3)))


class TestForward:
    def test_zero_everything_reconstructs_zero(self):
        cfg = tiny_cfg()
        params = zero_params(cfg, 3)
        recon, s_layers = forward_one(np.zeros((8, 3)), params, cfg)
        np.testing.assert_array_equal(recon, np.zeros((8, 3)))
        assert len(s_layers) == 2

    def test_identity_pipeline(self):
        # one channel per series through a lag-0 impulse, zero value path,
        # identity output projection: the window passes through untouched
        cfg = tiny_cfg(layers=1, d_model=2, heads=1, skip=True)
        kernels = EmbeddingKernels(
            n_series=2,
            pairs=np.array([[0, 1], [0, 1]]),
            weights=np.array(
                [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]
            ),
        )
        layer = AttentionLayerParams(
            w_q=np.random.default_rng(0).normal(size=(1, 2, 2)),
            w_k=np.random.default_rng(1).normal(size=(1, 2, 2)),
            w_v=np.zeros((1, 2, 2)),
            w_proj=np.zeros((2, 2)),
        )
        params = ModelParams(kernels=kernels, layers=[layer], w_out=np.eye(2))
        window = np.random.default_rng(2).normal(size=(8, 2))
        recon, s_layers = forward_one(window, params, cfg)
        np.testing.assert_allclose(recon, window, atol=1e-12)
        # with perfect reconstruction the objective is the penalty term alone;
        # at lambda 0 it is the reconstruction term alone
        total = model.total_loss(window[None], params, cfg)
        recon_term = model.total_loss(window[None], params, replace(cfg, lambda_reg=0.0))
        reg = cfg.lambda_reg * linalg.geman_batch(s_layers[0][None], cfg.r)[0]
        assert recon_term == pytest.approx(0.0, abs=1e-20)
        assert total == pytest.approx(reg, rel=1e-12, abs=1e-15)

    def test_against_module_chain_oracle(self):
        cfg = tiny_cfg(mask="causal")
        params = random_params(cfg, 3, seed=5)
        window = np.random.default_rng(6).normal(size=(8, 3))
        recon, s_layers = forward_one(window, params, cfg)

        z = embedding.pair_conv(window, params.kernels.weights, params.kernels.pairs)[0]
        mask = linalg.causal_mask(cfg.t_window)
        for p, s_expected in zip(params.layers, s_layers):
            z, s_avg = layer_forward(
                z, p, skip=cfg.skip, activation=cfg.activation, mask=mask
            )
            np.testing.assert_allclose(s_avg, s_expected, atol=1e-10)
        np.testing.assert_allclose(recon, z @ params.w_out, atol=1e-10)
        np.testing.assert_allclose(
            linalg.spectrum(s_layers[-1]), np.linalg.svd(s_layers[-1], compute_uv=False),
            atol=1e-10,
        )

    def test_shape_mismatch(self):
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=7)
        with pytest.raises(ValueError):
            forward_one(np.zeros((8, 4)), params, cfg)
        with pytest.raises(ValueError):
            forward_one(np.zeros((9, 3)), params, cfg)


class TestTotalLoss:
    def test_lambda_zero_is_reconstruction_error(self):
        cfg = tiny_cfg(lambda_reg=0.0)
        params = random_params(cfg, 3, seed=8)
        batch = np.random.default_rng(9).normal(size=(4, 8, 3))
        total = model.total_loss(batch, params, cfg)
        recon, _ = model.batch_forward(batch, params, cfg)
        # the penalty term adds exactly 0.0
        assert total == float(np.sum((batch - recon) ** 2))

    def test_termwise_oracle(self):
        cfg = tiny_cfg(lambda_reg=3.5)
        params = random_params(cfg, 3, seed=10)
        batch = np.random.default_rng(11).normal(size=(5, 8, 3))
        total = model.total_loss(batch, params, cfg)
        recon_term = model.total_loss(batch, params, replace(cfg, lambda_reg=0.0))

        expected_recon = 0.0
        expected_reg = 0.0
        for window in batch:
            recon, s_layers = forward_one(window, params, cfg)
            expected_recon += np.sum((window - recon) ** 2)
            for s in s_layers:
                expected_reg += cfg.lambda_reg * linalg.geman_batch(s[None], cfg.r)[0]
        assert recon_term == pytest.approx(expected_recon, rel=1e-10)
        assert total - recon_term == pytest.approx(expected_reg, rel=1e-10)
        assert total == pytest.approx(expected_recon + expected_reg, rel=1e-10)


class TestCalibration:
    def test_max_rule(self, h1_rule):
        fourth = [0.01, 0.03, 0.02]
        fifth = [0.005, 0.01, 0.002]
        assert h1_rule(fourth, fifth) == 0.03

    def test_degenerate_zeros(self, h1_rule):
        assert h1_rule(np.zeros(5), np.zeros(5)) == 0.0

    def test_fifth_can_dominate(self, h1_rule):
        assert h1_rule([0.1, 0.2], [0.5, 0.0]) == 0.5

    @pytest.mark.parametrize("t_window", [3, 4, 8])
    def test_trained_h1_matches_trajectory_max(self, t_window):
        # windows narrower than 5 fall back to the available trailing
        # singular values
        rng = np.random.default_rng(30 + t_window)
        frame = TimeSeriesFrame(values=rng.normal(size=(60, 2)), names=("a", "b"))
        cfg = tiny_cfg(t_window=t_window, d_model=2, heads=1, layers=1,
                       max_epochs=1, k_pairs=1)
        result = model.train(frame, cfg)
        win = data.windows(frame.values, t_window)
        _, s_layers = model.batch_forward(win, result.params, cfg)
        sigma = np.linalg.svd(s_layers[-1], compute_uv=False)
        idx = [i for i in (3, 4) if i < t_window] or [t_window - 1]
        assert result.thresholds.h1 == np.max(sigma[:, idx])


class TestSpectrum:
    """Rank counts and h1 equal those of the SVD on the final-layer
    attention of a trained model, whose tail singular values the penalty
    has pushed close to zero."""

    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(40)
        t = np.arange(700)
        base = np.sin(2 * np.pi * t[:, None] / rng.uniform(20, 90, 4) + rng.uniform(0, 6, 4))
        mix = np.eye(4) + 0.4 * rng.normal(size=(4, 4))
        values = base @ mix + 0.3 * rng.normal(size=(700, 4))
        frame, _ = data.normalize(TimeSeriesFrame(values=values, names=tuple("abcd")))
        cfg = tiny_cfg(t_window=16, d_model=8, heads=2, lambda_reg=10.0, learning_rate=1e-2,
                       max_epochs=4, patience=4, k_pairs=6, batch_size=64)
        result = model.train(frame, cfg)
        s_final = model.batch_forward(data.windows(frame.values, 16), result.params, cfg)[1][-1]
        return result, frame, cfg, np.linalg.svd(s_final, compute_uv=False)

    def test_h1_agrees_with_svd(self, trained):
        result, _, _, svd = trained
        assert result.thresholds.h1 == svd[:, 3:5].max()

    def test_counts_equal_svd_counts(self, trained):
        result, frame, cfg, svd = trained
        # the trained h1, a cutoff below every trained tail value, and
        # cutoffs sitting exactly on a singular value
        cutoffs = [result.thresholds.h1, 1e-9, 1e-3, *svd[::97, 3], *svd[::89, 1]]
        for h1 in cutoffs:
            got = model.score_frame(frame, result.params, cfg, h1).alora_score[15:]
            np.testing.assert_array_equal(got, np.sum(svd > h1, axis=1), err_msg=f"h1={h1!r}")


def rank_count(s, h1):
    """Count of singular values above h1, as :func:`model.score_frame`
    takes it."""
    return int(np.sum(linalg.spectrum(s) > h1))


class TestScores:
    def test_alora_score_identity_attention(self):
        assert rank_count(np.eye(8), 0.5) == 8

    def test_alora_score_rank_one(self):
        sigma = np.zeros(8)
        sigma[0] = 1.0
        assert rank_count(np.diag(sigma), 0.5) == 1

    def test_alora_score_monotone_in_h1(self):
        s = np.diag([1.0, 0.6, 0.3, 0.05])
        counts = [rank_count(s, h) for h in (0.0, 0.1, 0.5, 0.9, 2.0)]
        assert counts == sorted(counts, reverse=True)

    def test_alora_score_recount_oracle(self):
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=12)
        window = np.random.default_rng(13).normal(size=(8, 3))
        frame = TimeSeriesFrame(values=window, names=("a", "b", "c"))
        h1 = 0.01
        _, s_layers = forward_one(window, params, cfg)
        recount = int(np.sum(np.linalg.svd(s_layers[-1], compute_uv=False) > h1))
        assert model.score_frame(frame, params, cfg, h1).alora_score[-1] == recount

    def test_anomaly_score(self):
        # zero parameters: zero reconstruction and uniform attention, whose
        # one singular value above 0.5 is 1; so the score is the row's
        # squared norm
        cfg = tiny_cfg()
        params = zero_params(cfg, 2)
        zeros = TimeSeriesFrame(values=np.zeros((10, 2)), names=("a", "b"))
        assert np.all(model.score_frame(zeros, params, cfg, 0.5).anomaly_score == 0.0)
        ones = TimeSeriesFrame(values=np.ones((10, 2)), names=("a", "b"))
        np.testing.assert_allclose(model.score_frame(ones, params, cfg, 0.5).anomaly_score, 2.0)

    def test_anomaly_score_nonnegative_and_zero_iff(self):
        rng = np.random.default_rng(14)
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=14)
        for _ in range(20):
            frame = TimeSeriesFrame(values=rng.normal(size=(10, 3)), names=("a", "b", "c"))
            series = model.score_frame(frame, params, cfg, float(rng.choice([0.01, 1.0, 3.0])))
            val = series.anomaly_score
            assert np.all(val >= 0.0)
            np.testing.assert_array_equal(
                val == 0.0, (series.residual_sq == 0.0) | (series.alora_score == 0)
            )


class TestScoreFrame:
    def test_each_timestep_scored_from_its_window(self):
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=15)
        values = np.random.default_rng(16).normal(size=(20, 3))
        frame = TimeSeriesFrame(values=values, names=("a", "b", "c"))
        series = model.score_frame(frame, params, cfg, h1=0.01)

        def expected(window, row, t):
            recon, s_layers = forward_one(window, params, cfg)
            count = np.sum(np.linalg.svd(s_layers[-1], compute_uv=False) > 0.01)
            return np.sum((values[t] - recon[row]) ** 2) * count

        t_len = cfg.t_window
        for t in (t_len - 1, t_len + 3, 19):
            window = values[t - t_len + 1 : t + 1]
            assert series.anomaly_score[t] == pytest.approx(expected(window, -1, t), rel=1e-10)
        # early timesteps come from the first window
        for t in range(t_len - 1):
            assert series.anomaly_score[t] == pytest.approx(
                expected(values[:t_len], t, t), rel=1e-10
            )

    def test_anomaly_is_residual_times_rank(self):
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=15)
        frame = TimeSeriesFrame(values=np.random.default_rng(16).normal(size=(40, 3)),
                                names=("a", "b", "c"))
        series = model.score_frame(frame, params, cfg, h1=0.01)
        product = series.residual_sq * series.alora_score
        assert series.anomaly_score.tobytes() == product.tobytes()
        assert np.all(series.anomaly_score >= 0.0)

    def test_too_short(self):
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=17)
        frame = TimeSeriesFrame(values=np.zeros((5, 3)), names=("a", "b", "c"))
        with pytest.raises(DataError):
            model.score_frame(frame, params, cfg, h1=0.0)


class TestChunking:
    """Every inference pass walks the window view in chunks; the chunk
    length changes no per-window output."""

    def test_score_frame_independent_of_chunk_size(self, monkeypatch):
        cfg = tiny_cfg()
        params = random_params(cfg, 3, seed=18)
        values = np.random.default_rng(19).normal(size=(60, 3))
        frame = TimeSeriesFrame(values=values, names=("a", "b", "c"))
        names = ("anomaly_score", "alora_score", "residual_sq", "residual_sq_per_series")
        outputs = []
        for size in (1, 7, values.shape[0] - cfg.t_window + 1):
            monkeypatch.setattr(model, "_chunk_windows", lambda cfg, size=size: size)
            series = model.score_frame(frame, params, cfg, h1=0.01)
            outputs.append([getattr(series, name).tobytes() for name in names])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_outputs_independent_of_helper_thread(self, monkeypatch):
        """With two usable CPUs each chunk's spectrum runs on the pool of
        :func:`linalg.overlap`; h1 and every scoring array keep their bits."""
        cfg = tiny_cfg(max_epochs=2)
        frame = TimeSeriesFrame(values=np.random.default_rng(24).normal(size=(90, 3)),
                                names=("a", "b", "c"))
        names = ("anomaly_score", "alora_score", "residual_sq", "residual_sq_per_series")
        monkeypatch.setattr(model, "_chunk_windows", lambda cfg: 7)  # 12 chunks
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(linalg, "_WORKERS", workers)
            result = model.train(frame, cfg)
            series = model.score_frame(frame, result.params, cfg, result.thresholds.h1)
            outputs.append([result.thresholds.h1]
                           + [getattr(series, name).tobytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_chunked_mean_loss_matches_one_shot(self, monkeypatch):
        cfg = tiny_cfg(lambda_reg=3.0)
        params = random_params(cfg, 3, seed=20)
        win = data.windows(np.random.default_rng(21).normal(size=(80, 3)), cfg.t_window)
        one_shot = model.total_loss(win, params, cfg) / win.shape[0]
        monkeypatch.setattr(model, "_chunk_windows", lambda cfg: 7)
        assert model._mean_loss(win, params, cfg) == pytest.approx(one_shot, rel=1e-12, abs=0)

    def test_chunk_holds_one_mebibyte_of_attention(self):
        # 4 heads x 20 x 20 float64 = 12,800 bytes per window
        assert model._chunk_windows(tiny_cfg(t_window=20, d_model=16, heads=4)) == 81
        assert model._chunk_windows(tiny_cfg(t_window=16, d_model=8, heads=2)) == 256
        assert model._chunk_windows(tiny_cfg(t_window=2048, d_model=8, heads=8)) == 1

    def test_scoring_memory_does_not_grow_with_window_stack(self):
        cfg = tiny_cfg(t_window=16, d_model=4, heads=1, layers=1, k_pairs=2)
        d = 4
        params = random_params(cfg, d, seed=22)
        rng = np.random.default_rng(23)
        small, large = 2000, 8000
        frames = [TimeSeriesFrame(values=rng.normal(size=(n, d)), names=tuple("abcd"))
                  for n in (small, large)]

        def traced_peak(frame):
            tracemalloc.start()
            try:
                model.score_frame(frame, params, cfg, h1=0.01)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(frames[0])  # first call pays for one-off imports and caches
        growth = traced_peak(frames[1]) - traced_peak(frames[0])
        # The N x T x d stack that a contiguous copy of the windows would take.
        stack = (large - cfg.t_window + 1) * cfg.t_window * d * 8
        assert growth < stack / 4

    def test_inference_chunk_peak_memory(self):
        """One full chunk of total_loss at the benchmark's score shape (T=20,
        d_model=16, 4 heads, 2 layers, 20 series): each layer's backward is
        dropped with its call, so the traced peak stays under four chunks of
        attention.  Backwards kept alive to the chunk's end would hold every
        layer's temporaries at once, 4.7 MiB here."""
        cfg = tiny_cfg(t_window=20, d_model=16, heads=4, layers=2, k_pairs=16)
        params = random_params(cfg, 20, seed=25)
        values = np.random.default_rng(26).normal(size=(100, 20))
        chunk = np.ascontiguousarray(data.windows(values, cfg.t_window)[:81])
        assert chunk.shape[0] == model._chunk_windows(cfg)
        model.total_loss(chunk, params, cfg)  # one-off imports and caches
        tracemalloc.start()
        try:
            model.total_loss(chunk, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * model.CHUNK_BYTES


class TestDetect:
    """The ``score`` command is the one place that turns anomaly scores into
    alarms with h2."""

    def _labels(self, tmp_path, h2):
        cfg = tiny_cfg()
        values = np.random.default_rng(19).normal(size=(30, 3))
        params, _ = model.init_params(values, cfg, np.random.default_rng(18))
        model.save_checkpoint(tmp_path / "model.alora", params, cfg, 0.01, unit_stats(3))
        data.save_csv(TimeSeriesFrame(values=values, names=("a", "b", "c")),
                      tmp_path / "data.csv")
        (tmp_path / "score.ini").write_text(
            f"[score]\ncheckpoint = {tmp_path / 'model.alora'}\n"
            f"data = {tmp_path / 'data.csv'}\nout = {tmp_path / 'out'}\nh2 = {h2!r}\n"
        )
        assert harness.main(["score", "--config", str(tmp_path / "score.ini")]) == 0
        lines = (tmp_path / "out" / "scores.csv").read_text().splitlines()
        assert lines[0].endswith(",label") and len(lines) == 31
        return np.array([int(line.rsplit(",", 1)[1]) for line in lines[1:]])

    def test_infinite_threshold_silences(self, tmp_path):
        assert self._labels(tmp_path, np.inf).sum() == 0

    def test_negative_threshold_alarms_everywhere(self, tmp_path):
        assert self._labels(tmp_path, -1.0).sum() == 30

    def test_scores_spike_inside_simulated_shift(self, pinned_sim_run):
        _, _, _, series = pinned_sim_run
        inside = np.median(series.anomaly_score[200:300])
        outside = np.percentile(
            np.concatenate([series.anomaly_score[:200], series.anomaly_score[300:]]), 95
        )
        assert inside > outside

    def test_alarms_cover_simulated_shift(self, pinned_sim_run):
        from alorat.metrics import best_f1_sweep

        cfg, result, shifted, series = pinned_sim_run
        _, _, _, h2 = best_f1_sweep(series.anomaly_score, shifted.labels)
        coverage = np.mean(series.anomaly_score[200:300] >= h2)
        assert coverage >= 0.8


class TestTrain:
    def test_too_short_series(self):
        cfg = tiny_cfg()
        frame = TimeSeriesFrame(values=np.zeros((4, 3)), names=("a", "b", "c"))
        with pytest.raises(DataError):
            model.train(frame, cfg)

    def test_bare_array_is_rejected(self, monkeypatch):
        # A bare array would skip the frame's finite check, and the nan
        # below would surface as a NumericError from the SVD.
        cfg = tiny_cfg()
        values = np.random.default_rng(24).normal(size=(200, 3))
        values[50, 1] = np.nan
        params = random_params(cfg, 3, seed=24)

        def no_numeric_work(*args, **kwargs):
            raise AssertionError("windowed a bare array")

        monkeypatch.setattr(model, "windows", no_numeric_work)
        with pytest.raises(AttributeError):
            model.train(values, cfg)
        with pytest.raises(AttributeError):
            model.score_frame(values, params, cfg, h1=0.01)

    def test_loss_decreases_and_h1_set(self):
        rng = np.random.default_rng(20)
        t = np.arange(120)
        values = np.stack(
            [np.sin(t / 7.0) + 0.1 * rng.normal(size=120) for _ in range(3)], axis=1
        )
        frame, _ = data.normalize(TimeSeriesFrame(values=values, names=("a", "b", "c")))
        cfg = tiny_cfg(max_epochs=5, learning_rate=3e-3)
        result = model.train(frame, cfg)
        assert result.thresholds.h1 is not None and result.thresholds.h1 >= 0
        assert result.history[-1].val_total <= result.history[0].val_total
        assert result.selection.pairs == embedding.select_pairs(frame.values, cfg.k_pairs).pairs

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        rng = np.random.default_rng(21)
        frame = TimeSeriesFrame(values=rng.normal(size=(60, 3)), names=("a", "b", "c"))
        cfg = tiny_cfg(learning_rate=1e160, max_epochs=3)
        with pytest.raises(model.NumericError):
            model.train(frame, cfg)

    def test_determinism(self):
        rng = np.random.default_rng(22)
        values = rng.normal(size=(80, 3))
        frame = TimeSeriesFrame(values=values, names=("a", "b", "c"))
        cfg = tiny_cfg(max_epochs=2)
        a = model.train(frame, cfg)
        b = model.train(frame, cfg)
        assert a.thresholds.h1 == b.thresholds.h1
        assert a.params.w_out.tobytes() == b.params.w_out.tobytes()
        assert a.params.kernels.weights.tobytes() == b.params.kernels.weights.tobytes()
        sa = model.score_frame(frame, a.params, cfg, a.thresholds.h1)
        sb = model.score_frame(frame, b.params, cfg, b.thresholds.h1)
        assert sa.anomaly_score.tobytes() == sb.anomaly_score.tobytes()

    def test_returns_best_epoch_params(self):
        """Training updates its parameters in place; the result is a copy of
        the best validation epoch's, not the last epoch's."""
        values = np.random.default_rng(0).normal(size=(80, 3))
        frame = TimeSeriesFrame(values=values, names=("a", "b", "c"))
        cfg = tiny_cfg(max_epochs=3, patience=3, learning_rate=0.3)
        result = model.train(frame, cfg)
        val = [e.val_total for e in result.history]
        assert len(val) == 3 and np.argmin(val) < 2
        win = data.windows(values, cfg.t_window)
        assert model._mean_loss(win[-max(1, win.shape[0] // 10):], result.params, cfg) == min(val)

    def test_partial_freeze(self):
        rng = np.random.default_rng(23)
        frame = TimeSeriesFrame(values=rng.normal(size=(60, 2)), names=("a", "b"))
        cfg = tiny_cfg(d_model=2, heads=1, layers=1, max_epochs=2, k_pairs=1)
        init, _ = model.init_params(frame.values, cfg, np.random.default_rng(3))
        result = model.train(frame, cfg, init=init, trainable=("w_q", "w_k"))
        assert result.params.w_out.tobytes() == init.w_out.tobytes()
        assert result.params.kernels.weights.tobytes() == init.kernels.weights.tobytes()
        assert result.params.layers[0].w_q.tobytes() != init.layers[0].w_q.tobytes()

    @pytest.mark.parametrize("init_over, first", [
        (dict(d_model=4, layers=1), "('kernels', (4, 2, 3)) differs from the config's "
                                    "('kernels', (8, 2, 3))"),
        (dict(d_model=8, layers=1), "('w_out', (8, 3)) differs from the config's "
                                    "('w_q', (2, 8, 4))"),
        (dict(d_model=8, layers=3), "('w_q', (2, 8, 4)) differs from the config's "
                                    "('w_out', (8, 3))"),
    ])
    def test_warm_start_with_other_layout_is_rejected(self, monkeypatch, init_over, first):
        """An init whose arrays differ from the config's layout raises before
        any step, naming the first group that differs; trained as it is, it
        would be saved as a checkpoint that does not load."""
        frame = TimeSeriesFrame(values=np.random.default_rng(24).normal(size=(60, 3)),
                                names=("a", "b", "c"))
        init, _ = model.init_params(frame, tiny_cfg(**init_over), np.random.default_rng(3))

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(model, "_objective", no_step)
        with pytest.raises(ValueError, match=re.escape(f"init array {first}")):
            model.train(frame, tiny_cfg(d_model=8, layers=2), init=init)


class TestObjective:
    """The training objective and its reverse pass against :func:`total_loss`."""

    @staticmethod
    def _setup(**over):
        cfg = tiny_cfg(**over)
        values = np.random.default_rng(40).normal(size=(30, 3))
        params, _ = model.init_params(values, cfg, np.random.default_rng(41))
        x = data.windows(values, cfg.t_window)[:3]
        return cfg, params, x

    def test_backward_returns_every_grad_contiguous(self):
        """The reverse pass returns one C-contiguous gradient per parameter
        array, in :meth:`ModelParams.arrays` order, the layers' strided
        w_q/w_k/w_v gradients included."""
        cfg, params, x = self._setup(layers=2)
        loss, _, _ = model._objective(x, params, cfg)
        grads = loss.backward()
        assert len(grads) == len(params.arrays())
        for (_, a), grad in zip(params.arrays(), grads):
            assert grad.shape == a.shape and grad.flags.c_contiguous

    def test_gradient_matches_total_loss(self):
        """One entry of every parameter array: the reverse pass's gradient against
        central differences of total_loss(x) / B."""
        cfg, params, x = self._setup(activation="gelu", mask="causal")
        loss, _, _ = model._objective(x, params, cfg)
        assert float(loss.data) == pytest.approx(model.total_loss(x, params, cfg) / 3)
        grads = loss.backward()
        rng = np.random.default_rng(42)
        h = 1e-6
        for pos, grad in enumerate(grads):
            fi = rng.integers(grad.size)

            def objective(step):
                arrays = [a.copy() for _, a in params.arrays()]
                arrays[pos].flat[fi] += step
                moved = ModelParams.from_arrays(params.d_in, params.kernels.pairs, arrays)
                return model.total_loss(x, moved, cfg) / x.shape[0]

            fd = (objective(h) - objective(-h)) / (2 * h)
            assert grad.flat[fi] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestCheckpoint:
    def test_warm_start_with_other_channel_pairs_roundtrips(self, tmp_path):
        """A warm start keeps ``init``'s channels, here all (2, 3), while its
        selection is the data's ranking; the checkpoint stores the channels
        themselves, so the loaded model scores byte-identically."""
        rng = np.random.default_rng(43)
        values = rng.normal(size=(60, 4))
        values[:, 1] = values[:, 0] + 0.1 * rng.normal(size=60)
        frame = TimeSeriesFrame(values=values, names=("a", "b", "c", "d"))
        cfg = tiny_cfg(max_epochs=1)
        init, _ = model.init_params(values, cfg, np.random.default_rng(44))
        init.kernels.pairs[:] = (2, 3)
        result = model.train(frame, cfg, init=init)
        assert result.selection.pairs[0] == (0, 1)
        assert (result.params.kernels.pairs == (2, 3)).all()
        path = tmp_path / "m.alora"
        model.save_checkpoint(path, result.params, cfg, result.thresholds.h1,
                              unit_stats(result.params.d_in))
        loaded, _, h1, _ = model.load_checkpoint(path)
        assert loaded.kernels.pairs.tobytes() == result.params.kernels.pairs.tobytes()
        want = model.score_frame(frame, result.params, cfg, result.thresholds.h1)
        got = model.score_frame(frame, loaded, cfg, h1)
        for name in ("anomaly_score", "alora_score", "residual_sq", "residual_sq_per_series"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_warm_start_pairs_roundtrip(self, pinned_sim_run, tmp_path):
        cfg, result, _, _ = pinned_sim_run
        path = tmp_path / "m.alora"
        model.save_checkpoint(path, result.params, cfg, result.thresholds.h1,
                              unit_stats(result.params.d_in))
        loaded, _, _, _ = model.load_checkpoint(path)
        assert loaded.kernels.pairs.tobytes() == result.params.kernels.pairs.tobytes()

    def test_roundtrip(self, tmp_path):
        cfg = tiny_cfg(mask="causal", activation="gelu", pair_method="pearson")
        values = np.random.default_rng(24).normal(size=(50, 3))
        params, _ = model.init_params(values, cfg, np.random.default_rng(25))
        stats = data.NormStats(mean=values.mean(axis=0), std=values.std(axis=0))
        path = tmp_path / "model.alora"
        model.save_checkpoint(path, params, cfg, h1=0.0123, norm_stats=stats)

        loaded, cfg2, h1, stats2 = model.load_checkpoint(path)
        assert cfg2 == cfg
        assert h1 == 0.0123
        np.testing.assert_array_equal(loaded.kernels.weights, params.kernels.weights)
        np.testing.assert_array_equal(loaded.kernels.pairs, params.kernels.pairs)
        for a, b in zip(loaded.layers, params.layers):
            for name in ("w_q", "w_k", "w_v", "w_proj"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(loaded.w_out, params.w_out)
        np.testing.assert_array_equal(stats2.mean, stats.mean)
        np.testing.assert_array_equal(stats2.std, stats.std)
        assert (tmp_path / "model.alora.manifest.txt").exists()
        with open(path, "rb") as fh:
            assert fh.read(6) == b"ALORA3"

    @staticmethod
    def _saved(tmp_path):
        """A tiny 3-series checkpoint and its path."""
        params = random_params(tiny_cfg(), 3, seed=26)
        path = tmp_path / "m.alora"
        model.save_checkpoint(path, params, tiny_cfg(), 0.5, unit_stats(3))
        return path

    @staticmethod
    def _edit_header(path, old, new):
        """Replace header line ``old`` by ``new`` and recompute the CRC, so
        that only the decoding can reject the file."""
        head, _, body = path.read_bytes().partition(b"\n\n")
        covered = head.rpartition(b"\n")[0] + b"\n"
        covered = covered.replace(b"\n" + old + b"\n", b"\n" + new + b"\n")
        assert new in covered
        crc = b"crc32=%08x" % zlib.crc32(body, zlib.crc32(covered))
        path.write_bytes(covered + crc + b"\n\n" + body)

    def test_header_without_h1_or_stats_is_data_error(self, tmp_path):
        """The calibrated h1 and the training normalization are required:
        a header without either is a data error, not a model that scores
        without them."""
        for old, new in ((b"h1=0.5", b"h1=nan"), (b"h1=0.5", b"h1=inf"),
                         (b"norm_stats=True", b"norm_stats=False")):
            path = self._saved(tmp_path)
            self._edit_header(path, old, new)
            with pytest.raises(DataError, match=new.decode()):
                model.load_checkpoint(path)

    def test_header_is_pinned(self, tmp_path):
        """Every key of the v3 header in order, as every trained checkpoint
        has written it, so each one still loads."""
        cfg = tiny_cfg()
        layout = model.param_layout(cfg, 3)
        arrays = [np.full(shape, 0.25) for _, shape in layout]
        params = ModelParams.from_arrays(3, np.array([[0, 1], [1, 2], [0, 2], [0, 1]]), arrays)
        path = tmp_path / "m.alora"
        stats = data.NormStats(mean=np.array([1.0, 2.0, 3.0]), std=np.array([0.5, 1.0, 2.0]))
        model.save_checkpoint(path, params, cfg, 0.0123, stats)
        assert (tmp_path / "m.alora.manifest.txt").read_text() == (
            "ALORA3\nt_window=8\nd_model=4\nheads=2\nlayers=2\nlambda_reg=2.0\n"
            "learning_rate=0.001\nmax_epochs=3\npatience=3\nk_pairs=4\nr=1\nseed=0\n"
            "skip=True\nactivation=identity\nmask=none\nbatch_size=16\n"
            "pair_method=spearman\nkernel_size=3\nd_in=3\nh1=0.0123\nnorm_stats=True\n"
            "crc32=28044ad0\n"
        )

    def test_pair_outside_series_is_data_error(self, tmp_path):
        """A pairs block naming series 3 of a 3-series model, with the CRC
        recomputed so that only the decoding can reject it."""
        cfg = tiny_cfg()
        values = np.random.default_rng(28).normal(size=(50, 3))
        params, _ = model.init_params(values, cfg, np.random.default_rng(29))
        path = tmp_path / "m.alora"
        model.save_checkpoint(path, params, cfg, 0.5, unit_stats(3))
        head, _, body = path.read_bytes().partition(b"\n\n")
        covered = head.rpartition(b"\n")[0] + b"\n"
        body = np.array([[0, 3]], dtype="<i8").tobytes() + body[16:]
        crc = b"crc32=%08x" % zlib.crc32(body, zlib.crc32(covered))
        path.write_bytes(covered + crc + b"\n\n" + body)
        with pytest.raises(DataError, match="series index >= d=3"):
            model.load_checkpoint(path)

    def test_param_layout(self, tmp_path):
        """The layout lists init_params' arrays in order, and a checkpoint
        body is exactly the pairs, those arrays and the norm stats."""
        d = 3
        values = np.random.default_rng(30).normal(size=(50, d))
        stats = data.NormStats(mean=values.mean(axis=0), std=values.std(axis=0))
        path = tmp_path / "m.alora"
        for cfg in (tiny_cfg(), tiny_cfg(layers=3, heads=4, kernel_size=5), tiny_cfg(layers=1)):
            params, _ = model.init_params(values, cfg, np.random.default_rng(31))
            layout = model.param_layout(cfg, d)
            assert [(name, a.shape) for name, a in params.arrays()] == layout
            model.save_checkpoint(path, params, cfg, h1=0.5, norm_stats=stats)
            body = path.read_bytes().partition(b"\n\n")[2]
            sizes = sum(np.prod(shape) for _, shape in layout)
            assert len(body) == 8 * (2 * cfg.d_model + sizes + 2 * d)

    def test_header_claiming_one_more_layer_is_data_error(self, tmp_path):
        path = self._saved(tmp_path)
        self._edit_header(path, b"layers=2", b"layers=3")
        with pytest.raises(DataError, match="truncated checkpoint"):
            model.load_checkpoint(path)

    def test_header_claiming_huge_layer_count_is_data_error(self, tmp_path):
        """Rejected before the parameter layout lists 10**6 layers."""
        path = self._saved(tmp_path)
        self._edit_header(path, b"layers=2", b"layers=%d" % 10**6)
        with pytest.raises(DataError, match="truncated checkpoint"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("value", [2**31, 2**62, 2**63, 10**20])
    def test_header_integers_at_the_int64_edge(self, tmp_path, monkeypatch, value):
        """Each integer header key at ``value``, the CRC recomputed.  A key
        that sets an array dimension is a data error that names it, raised
        before any view of the body; a count (epochs, patience, pairs, r,
        seed) decodes."""
        sizes = ("t_window", "d_model", "heads", "layers", "batch_size", "kernel_size", "d_in")
        cfg = tiny_cfg()
        for key in [f.name for f in fields(TrainConfig) if f.type == "int"] + ["d_in"]:
            path = self._saved(tmp_path)
            old = 3 if key == "d_in" else getattr(cfg, key)
            self._edit_header(path, f"{key}={old}".encode(), f"{key}={value}".encode())
            if key not in sizes:
                assert getattr(model.load_checkpoint(path)[1], key) == value
                continue
            with monkeypatch.context() as patch:
                patch.setattr(np, "frombuffer", None)  # a view of the body raises TypeError
                named = rf"^{re.escape(str(path))}: .*\b{key}( must|=)"
                with pytest.raises(DataError, match=named):
                    model.load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.alora"
        path.write_bytes(b"NOTANALORA" * 20)
        with pytest.raises(ValueError):
            model.load_checkpoint(path)

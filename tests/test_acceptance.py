"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two training-based
criteria (4 and 5) are the slow ones; the whole module stays inside the
stated runtime budgets on a desktop CPU.
"""

import math
import time

import numpy as np
import pytest

from conftest import SIM_W_OUT as W_OUT, SIM_W_V2 as W_V2, controlled_sim_params

from alorat import attention, data, linalg, localize, metrics, model, star_verify
from alorat import autograd as ag
from alorat.autograd import Tensor
from alorat.harness import main
from alorat.model import TrainConfig


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_star_equivalence():
    start = time.time()
    grid = star_verify.build_grid(20, base_seed=0)
    assert {c.layers for c in grid} == {1, 2, 3}
    assert {c.t_window for c in grid} == {4, 8, 16}
    assert {c.d_model for c in grid} == {2, 4, 8}
    assert {c.heads for c in grid} == {1, 2}
    assert {c.mask for c in grid} == {"none", "causal"}
    worst = 0.0
    for config, reports in star_verify.run_grid(20, base_seed=0, tolerance=1e-6):
        for mode in ("skip", "no_skip"):
            rep = reports[mode]
            assert rep.passed, f"{config.describe()} {rep.line()}"
            worst = max(worst, rep.max_rel_error)
    elapsed = time.time() - start
    assert elapsed <= 10.0
    report(1, "unrolled-form equivalence", f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_ffn_regroup():
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        d_model = int(rng.integers(2, 7))
        width = int(rng.integers(2, 7))
        b = rng.normal(size=(d_model, d_model))
        w = rng.normal(size=(d_model, width))
        rep = star_verify.verify_ffn_regroup(b, w, tolerance=1e-12)
        assert rep.passed, f"trial {trial}: rel {rep.max_rel_error:.2e}"
    elapsed = time.time() - start
    assert elapsed <= 1.0
    report(2, "linear-map regrouping", f"20 pairs, {elapsed:.2f}s")


def _distinct_sigma_matrix(rng):
    while True:
        m = rng.normal(size=(6, 6))
        sigma = np.linalg.svd(m, compute_uv=False)
        if np.min(np.abs(np.diff(sigma))) > 1e-2 and sigma[-1] > 1e-2:
            return m


def _after_w_q(params):
    """forward_t's arguments after w_q: the other weights as constants,
    skip on, identity activation, no mask (s_avg depends on none of them
    but w_k)."""
    return Tensor(params.w_k), Tensor(params.w_v), Tensor(params.w_proj), True, "identity", None


def test_criterion_3_geman_gradient():
    start = time.time()
    rng = np.random.default_rng(33)
    for _ in range(10):
        m = _distinct_sigma_matrix(rng)
        grad = linalg.geman_batch(m[None], 1)[1][0]
        h = 1e-6
        fd = np.zeros_like(m)
        for i in range(6):
            for j in range(6):
                up = m.copy()
                up[i, j] += h
                down = m.copy()
                down[i, j] -= h
                fd[i, j] = (
                    linalg.geman_batch(up[None], 1)[0] - linalg.geman_batch(down[None], 1)[0]
                ) / (2 * h)
        rel = np.abs(grad - fd).max() / np.abs(fd).max()
        assert rel <= 1e-4

    # end-to-end through the softmax into the query projection
    for seed in range(3):
        params = attention.init_layer_params(4, 2, rng=np.random.default_rng(100 + seed))
        z = np.random.default_rng(200 + seed).normal(size=(6, 4))

        def loss_for(w_q_data):
            _, s_avg, _ = attention.forward_t(Tensor(z), Tensor(w_q_data), *_after_w_q(params))
            return float(ag.geman_penalty(s_avg, 1).data)

        w_q = Tensor(params.w_q.copy(), requires_grad=True)
        _, s_avg, _ = attention.forward_t(Tensor(z), w_q, *_after_w_q(params))
        ag.geman_penalty(s_avg, 1).backward()
        h = 1e-6
        for fi in np.random.default_rng(300 + seed).choice(params.w_q.size, 6, replace=False):
            up = params.w_q.copy()
            up.flat[fi] += h
            down = params.w_q.copy()
            down.flat[fi] -= h
            fd = (loss_for(up) - loss_for(down)) / (2 * h)
            rel = abs(w_q.grad.flat[fi] - fd) / max(abs(fd), 1e-10)
            assert rel <= 1e-3
    elapsed = time.time() - start
    assert elapsed <= 30.0
    report(3, "low-rank penalty gradient", f"{elapsed:.2f}s")


def _smooth_frame(n, d, seed):
    """Correlated sinusoid mixture plus noise standing in for normal data."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = np.stack(
        [np.sin(2 * np.pi * t / p + rng.uniform(0, 2 * np.pi)) for p in rng.uniform(20, 90, d)],
        axis=1,
    )
    mix = rng.normal(size=(d, d)) * 0.4 + np.eye(d)
    values = base @ mix + 0.3 * rng.normal(size=(n, d))
    return data.TimeSeriesFrame(values=values, names=tuple(f"s{i}" for i in range(d)))


def test_criterion_4_regularization_effect():
    start = time.time()
    seg = (1000, 1100)
    wins = 0
    for seed in range(5):
        cfgs = {
            lam: TrainConfig(
                t_window=16,
                d_model=8,
                heads=2,
                layers=2,
                lambda_reg=lam,
                learning_rate=1e-3,
                max_epochs=8,
                patience=8,
                k_pairs=6,
                seed=seed,
                batch_size=128,
            )
            for lam in (10.0, 0.0)
        }
        train_frame, stats = data.normalize(_smooth_frame(2000, 4, seed))
        results = {lam: model.train(train_frame, cfg) for lam, cfg in cfgs.items()}

        test_frame, _ = data.normalize(_smooth_frame(2000, 4, seed + 1000), stats)
        h1 = results[10.0].thresholds.h1
        scores = {
            lam: model.score_frame(test_frame, results[lam].params, cfgs[lam], h1)
            for lam in (10.0, 0.0)
        }
        injected = data.inject_anomaly(test_frame, "level_shift", 0, seg, 3.0, seed=seed)
        inj_scores = model.score_frame(injected, results[10.0].params, cfgs[10.0], h1)

        t_idx = np.arange(test_frame.n)
        anom = (t_idx >= seg[0]) & (t_idx < seg[1])
        normal = (t_idx < seg[0] - 16) | (t_idx >= seg[1] + 16)
        reg_mean = scores[10.0].alora_score[normal].mean()
        unreg_mean = scores[0.0].alora_score[normal].mean()
        anom_mean = inj_scores.alora_score[anom].mean()
        norm_mean = inj_scores.alora_score[normal].mean()
        ok = reg_mean < unreg_mean and anom_mean > norm_mean
        wins += ok
        print(
            f"  seed {seed}: normal-rank reg={reg_mean:.2f} unreg={unreg_mean:.2f}; "
            f"injected anom={anom_mean:.2f} vs normal={norm_mean:.2f} "
            f"{'ok' if ok else 'MISS'}"
        )
    elapsed = time.time() - start
    assert wins >= 4, f"regularization effect held in only {wins}/5 seeds"
    assert elapsed <= 300.0
    report(4, "regularization shrinks attention rank", f"{wins}/5 seeds, {elapsed:.1f}s")


def test_criterion_5_controlled_simulation():
    start = time.time()
    cfg_base = dict(
        t_window=16,
        d_model=2,
        heads=1,
        layers=2,
        lambda_reg=10.0,
        learning_rate=1e-3,
        max_epochs=6,
        patience=6,
        k_pairs=1,
        batch_size=64,
        skip=True,
    )
    good = 0
    f1s = []
    for seed in range(100):
        cfg = TrainConfig(seed=seed, **cfg_base)
        rng = np.random.Generator(np.random.PCG64(seed))
        clean, stats = data.normalize(data.simulate_mean_shift(delta=0.0, seed=seed + 50_000))
        result = model.train(
            clean, cfg, init=controlled_sim_params(rng), trainable=("w_q", "w_k")
        )
        test = data.simulate_mean_shift(n=500, t1=200, t2=300, delta=3.0, seed=seed)
        test_n, _ = data.normalize(test, stats)
        series = model.score_frame(test_n, result.params, cfg, result.thresholds.h1)
        f1, _, _, _ = metrics.best_f1_sweep(series.anomaly_score, test.labels)
        f1s.append(f1)
        weights = localize.contribution_weights(result.params, cfg.skip, cfg.activation)
        las = localize.las(weights.c, series.residual_sq_per_series)
        origin, other = las[200:300, 0].mean(), las[200:300, 1].mean()
        good += f1 >= 0.6 and origin > other
    elapsed = time.time() - start
    assert good >= 90, f"only {good}/100 runs detected and localized the shift"
    assert elapsed <= 600.0
    report(
        5,
        "controlled simulation reproduction",
        f"{good}/100 runs, median f1 {np.median(f1s):.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_h1_calibration():
    traj4 = np.array([0.011, 0.03, 0.007, 0.02])
    traj5 = np.array([0.002, 0.01, 0.0, 0.004])
    assert model.calibrate_h1(traj4, traj5) == 0.03
    assert model.calibrate_h1(np.zeros(10), np.zeros(10)) == 0.0
    assert model.calibrate_h1([0.1], [0.7]) == 0.7
    report(6, "singular-value cutoff calibration (exact max rule)")


def test_criterion_7_metric_fixtures():
    # top-k count rule: 3 truth features at P=150 inspect 5 ranks
    assert math.ceil(3 * 150 / 100) == 5
    ranked = [7, 0, 9, 1, 2, 3]
    assert metrics.hit_rate(ranked, {0, 1, 2}, 150) == pytest.approx(1.0, abs=1e-12)
    assert metrics.hit_rate(ranked, {0, 1, 2}, 100) == pytest.approx(1 / 3, abs=1e-12)

    # NDCG hand fixtures
    assert metrics.ndcg([4, 1, 3], {4, 1}, 100) == pytest.approx(1.0, abs=1e-12)
    expected = (1 / math.log2(3)) / 1.0
    assert metrics.ndcg([9, 4, 7], {4}, 200) == pytest.approx(expected, abs=1e-12)
    mixed = (1.0 + 1 / math.log2(4)) / (1.0 + 1 / math.log2(3))
    assert metrics.ndcg([5, 0, 6], {5, 6}, 150) == pytest.approx(mixed, abs=1e-12)

    # IPS hand fixture: segments scoring 1.0 and 0.5 average to 0.75
    las = np.zeros((20, 4))
    las[0:3, 0] = 9.0
    las[10:12, 1] = 9.0
    las[10:12, 0] = 8.0
    score = metrics.ips(
        las,
        [metrics.EventSegment(0, 3), metrics.EventSegment(10, 12)],
        [{0}, {1, 2}],
    )
    assert score == pytest.approx(0.75, abs=1e-12)

    # best-F1 sweep against the exhaustive oracle on 50 random vectors
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(8, 80))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        f1, _, _, thr = metrics.best_f1_sweep(scores, labels)
        best = None
        for cand in sorted(set(scores.tolist())):
            pred = scores >= cand
            tp = np.sum(pred & (labels == 1))
            p = tp / pred.sum() if pred.sum() else 0.0
            r = tp / labels.sum()
            f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            if best is None or f > best[0] + 1e-15:
                best = (f, cand)
        assert f1 == pytest.approx(best[0], abs=1e-12)
        assert thr == pytest.approx(best[1], abs=1e-12)
    report(7, "metric fixtures and sweep oracle")


def test_criterion_8_determinism(tmp_path):
    frame = data.simulate_mean_shift(seed=21)
    data.save_csv(frame, tmp_path / "train.csv")
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(
            "\n".join(
                [
                    "[train]",
                    f"data = {tmp_path / 'train.csv'}",
                    f"out = {tmp_path / ('run_' + tag)}",
                    "seed = 4",
                    "t_window = 16",
                    "d_model = 4",
                    "heads = 2",
                    "layers = 2",
                    "max_epochs = 3",
                    "k_pairs = 2",
                    "batch_size = 64",
                    "",
                    "[score]",
                    f"checkpoint = {tmp_path / ('run_' + tag) / 'model.alora'}",
                    f"data = {tmp_path / 'train.csv'}",
                    f"out = {tmp_path / ('scored_' + tag)}",
                    "h2 = 4.0",
                ]
            )
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["score", "--config", str(cfg)]) == 0
    a = (tmp_path / "scored_a" / "scores.csv").read_bytes()
    b = (tmp_path / "scored_b" / "scores.csv").read_bytes()
    assert a == b
    report(8, "seeded train+score byte-identical")


def _brute_force_weights(params, skip):
    d_model = params.d_model
    d = params.d_in
    maps = [attention.effective_value_map(p) for p in params.layers]
    b = np.eye(d_model)
    for w in maps:
        b = b @ (w + np.eye(d_model)) if skip else b @ w
    e = np.zeros((d, d_model))
    for i in range(d):
        for j in range(d_model):
            for k in range(d_model):
                w_sum = 0.0
                for slot in range(2):
                    if params.kernels.pairs[k, slot] == i:
                        w_sum += params.kernels.weights[k, slot].sum()
                e[i, j] += w_sum * b[k, j]
    c = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d_model):
                c[i, j] += params.w_out[k, j] * e[i, k]
    return b, e, c


def test_criterion_9_localization_closed_forms():
    rng = np.random.default_rng(99)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        heads = int(rng.choice([1, 2]))
        d_model = int(rng.choice([2, 4, 6]))
        layers = int(rng.integers(1, 4))
        cfg = TrainConfig(
            t_window=8, d_model=d_model, heads=heads, layers=layers, k_pairs=8, seed=trial
        )
        values = np.random.default_rng(1000 + trial).normal(size=(40, d))
        params, _ = model.init_params(values, cfg, np.random.default_rng(2000 + trial))
        skip = bool(trial % 2)
        got = localize.contribution_weights(params, skip)
        b, e, c = _brute_force_weights(params, skip)
        np.testing.assert_allclose(got.b, b, atol=1e-12)
        np.testing.assert_allclose(got.e, e, atol=1e-12)
        np.testing.assert_allclose(got.c, c, atol=1e-12)

    # pinned-matrix case, both readings
    b_skip = localize.compute_b([np.eye(2), W_V2], skip=True)
    np.testing.assert_allclose(b_skip, [[2.4, 1.4], [1.6, 2.6]], atol=1e-12)
    b_ns = localize.compute_b([np.eye(2), W_V2], skip=False)
    c_ns = localize.compute_c(localize.compute_e(None, b_ns), W_OUT)
    np.testing.assert_allclose(c_ns, [[0.65, 0.25], [0.35, 0.75]], atol=1e-12)
    report(9, "contribution weights match brute-force sums")

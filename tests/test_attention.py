import numpy as np
import pytest

from alorat import attention, linalg
from alorat.attention import AttentionLayerParams


def make_params(d_model, heads, seed):
    return attention.init_layer_params(d_model, heads, rng=np.random.default_rng(seed))


def _after_w_q(params):
    """forward_t's arguments after w_q: the other weights as constants,
    skip on, identity activation, no mask (s_avg depends on none of them
    but w_k)."""
    return params.w_k, params.w_v, params.w_proj, True, "identity", None


def run_layer(z, params, skip=True, activation="identity", mask=None):
    """One forward_t call on a T x d_model array; (z_next, s_avg, s_heads)."""
    weights = (params.w_q, params.w_k, params.w_v, params.w_proj)
    return attention.forward_t(
        np.asarray(z, dtype=np.float64), *weights, skip, activation, mask
    )[:3]


def attention_scores(z, params, mask=None):
    """Per-head attention matrices (H, T, T) and their average (T, T)."""
    _, s_avg, s_heads = run_layer(z, params, mask=mask)
    return s_heads, s_avg


def layer_forward(z, params, skip=True, activation="identity", mask=None):
    """One layer on a T x d_model input; (z_next, s_avg)."""
    return run_layer(z, params, skip, activation, mask)[:2]


def scores_oracle(z, params, mask=None):
    """Hand-composed per-head attention with explicit products."""
    d_model = params.d_model
    out = []
    for h in range(params.heads):
        q = z @ params.w_q[h]
        k = z @ params.w_k[h]
        logits = q @ k.T / np.sqrt(d_model)
        if mask is not None:
            logits = logits + mask
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out.append(e / e.sum(axis=1, keepdims=True))
    return np.stack(out), np.mean(out, axis=0)


def layer_oracle(z, params, skip, mask=None):
    """Step-by-step recomputation of one layer (identity activation)."""
    s_heads, _ = scores_oracle(z, params, mask)
    heads = [s_heads[h] @ (z @ params.w_v[h]) for h in range(params.heads)]
    merged = np.concatenate(heads, axis=1) @ params.w_proj
    return merged + z if skip else merged


class TestScores:
    def test_zero_projections_give_uniform(self):
        params = make_params(4, 2, 0)
        params.w_q[:] = 0.0
        params.w_k[:] = 0.0
        z = np.random.default_rng(1).normal(size=(6, 4))
        s_heads, s_avg = attention_scores(z, params)
        np.testing.assert_allclose(s_heads, 1.0 / 6.0, atol=1e-15)
        np.testing.assert_allclose(s_avg, 1.0 / 6.0, atol=1e-15)

    def test_single_head_average_is_the_head(self):
        params = make_params(4, 1, 2)
        z = np.random.default_rng(3).normal(size=(5, 4))
        s_heads, s_avg = attention_scores(z, params)
        np.testing.assert_array_equal(s_heads[0], s_avg)

    def test_against_composition_oracle(self):
        params = make_params(8, 2, 4)
        z = np.random.default_rng(5).normal(size=(7, 8))
        got_heads, got_avg = attention_scores(z, params)
        exp_heads, exp_avg = scores_oracle(z, params)
        np.testing.assert_allclose(got_heads, exp_heads, atol=1e-12)
        np.testing.assert_allclose(got_avg, exp_avg, atol=1e-12)

    def test_row_stochastic(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            params = make_params(6, 3, seed)
            z = rng.normal(size=(9, 6)) * 5
            s_heads, s_avg = attention_scores(z, params)
            np.testing.assert_allclose(s_heads.sum(axis=-1), 1.0, atol=1e-9)
            np.testing.assert_allclose(s_avg.sum(axis=-1), 1.0, atol=1e-9)
            assert linalg.spectrum(s_avg)[0] >= 1.0 - 1e-9

    def test_shape_validation(self):
        params = make_params(4, 2, 7)
        with pytest.raises(ValueError):
            attention_scores(np.zeros((5, 3)), params)


class TestLayerForward:
    def test_zero_values_with_skip_is_identity(self):
        params = make_params(4, 2, 8)
        params.w_v[:] = 0.0
        z = np.random.default_rng(9).normal(size=(6, 4))
        out, _ = layer_forward(z, params, skip=True)
        np.testing.assert_allclose(out, z, atol=1e-15)

    def test_identity_attention_projects_values(self):
        # a diagonal-only mask forces S = I, isolating the value path
        params = make_params(4, 2, 10)
        t_len = 5
        mask = np.full((t_len, t_len), -np.inf)
        np.fill_diagonal(mask, 0.0)
        z = np.random.default_rng(11).normal(size=(t_len, 4))
        out, s_avg = layer_forward(z, params, skip=False, mask=mask)
        np.testing.assert_allclose(s_avg, np.eye(t_len), atol=1e-15)
        np.testing.assert_allclose(out, z @ attention.effective_value_map(params), atol=1e-12)

    def test_against_step_by_step_oracle(self):
        for heads in (1, 2, 4):
            params = make_params(8, heads, 12 + heads)
            z = np.random.default_rng(13 + heads).normal(size=(6, 8))
            for skip in (False, True):
                got, _ = layer_forward(z, params, skip=skip)
                np.testing.assert_allclose(got, layer_oracle(z, params, skip), atol=1e-12)

    def test_affine_in_values(self):
        # doubling every per-head value projection doubles the update
        params = make_params(6, 2, 14)
        z = np.random.default_rng(15).normal(size=(5, 6))
        out1, _ = layer_forward(z, params, skip=True)
        params.w_v *= 2.0
        out2, _ = layer_forward(z, params, skip=True)
        np.testing.assert_allclose(out2 - z, 2.0 * (out1 - z), atol=1e-12)

    def test_gelu_activation_applies(self):
        params = make_params(4, 1, 16)
        z = np.random.default_rng(17).normal(size=(5, 4))
        ident, _ = layer_forward(z, params, skip=True, activation="identity")
        gelu, _ = layer_forward(z, params, skip=True, activation="gelu")
        assert not np.allclose(ident, gelu)
        with pytest.raises(ValueError):
            layer_forward(z, params, activation="relu")


class TestKeyMajorLogits:
    """forward_t writes Q·Kᵀ key-major and softmaxes it in place; the result
    has the bytes of the softmax of a C-order product."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_equals_softmax_of_c_order_logits(self, masked):
        t_len, d_model, heads = 7, 6, 3
        params = make_params(d_model, heads, seed=31)
        z = np.random.default_rng(32).normal(size=(5, t_len, d_model))
        mask = linalg.causal_mask(t_len) if masked else None
        _, s_avg, s_heads, _ = attention.forward_t(
            z, params.w_q, params.w_k, params.w_v, params.w_proj, True, "identity", mask)
        # forward_t's Q/K/V product: the scale folded into the query columns.
        w_qkv = np.concatenate([params.w_q * (1.0 / np.sqrt(d_model)), params.w_k, params.w_v])
        w_qkv = w_qkv.transpose(1, 0, 2).reshape(d_model, 3 * d_model)
        dh = d_model // heads
        qkv = (z.reshape(-1, d_model) @ w_qkv).reshape(5, t_len, 3, heads, dh)
        q, k = qkv.transpose(2, 3, 0, 1, 4)[:2]
        logits = np.ascontiguousarray(q @ np.swapaxes(k, -1, -2))
        if masked:
            logits += mask
        p = linalg.softmax_last(logits)  # (H, B, T, T)
        assert np.array_equal(s_heads, np.moveaxis(p, 0, 1))
        assert np.array_equal(s_avg, p.mean(axis=0))


class TestLayerLoss:
    def test_uniform_attention_rank_one(self):
        s = np.full((6, 6), 1.0 / 6.0)
        loss, _ = linalg.geman_batch(s[None], 1)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_identity_attention(self):
        loss, _ = linalg.geman_batch(np.eye(4)[None], 1)
        assert loss == pytest.approx(1.5)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(18)
        s = linalg.softmax_last(rng.normal(size=(7, 7)))
        perm = rng.permutation(7)
        loss_a, _ = linalg.geman_batch(s[None], 1)
        loss_b, _ = linalg.geman_batch(s[perm][:, perm][None], 1)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)

    def test_end_to_end_gradient_wrt_wq(self):
        """Geman loss through head average and softmax vs central differences."""
        params = make_params(4, 2, 19)
        z = np.random.default_rng(20).normal(size=(6, 4))

        def loss_for(w_q_data):
            _, s_avg, _, _ = attention.forward_t(z, w_q_data, *_after_w_q(params))
            return linalg.geman_batch(s_avg, 1)[0]

        z_next, s_avg, _, backward = attention.forward_t(z, params.w_q, *_after_w_q(params))
        w_q_grad = backward(np.zeros_like(z_next), linalg.geman_batch(s_avg, 1)[1])[1]

        rng = np.random.default_rng(21)
        h = 1e-6
        max_rel = 0.0
        for fi in rng.choice(params.w_q.size, size=8, replace=False):
            up = params.w_q.copy()
            up.flat[fi] += h
            down = params.w_q.copy()
            down.flat[fi] -= h
            fd = (loss_for(up) - loss_for(down)) / (2 * h)
            rel = abs(w_q_grad.flat[fi] - fd) / max(abs(fd), 1e-10)
            max_rel = max(max_rel, rel)
        assert max_rel <= 1e-3


class TestValueMaps:
    def test_effective_map_is_sum_of_heads(self):
        params = make_params(8, 2, 22)
        total = attention.effective_value_map(params)
        per_head = attention.per_head_value_maps(params)
        np.testing.assert_allclose(per_head.sum(axis=0), total, atol=1e-12)

    def test_single_head_effective_map(self):
        params = make_params(4, 1, 23)
        np.testing.assert_allclose(
            attention.effective_value_map(params), params.w_v[0] @ params.w_proj, atol=1e-15
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AttentionLayerParams(
                w_q=np.zeros((2, 4, 1)),
                w_k=np.zeros((2, 4, 2)),
                w_v=np.zeros((2, 4, 2)),
                w_proj=np.zeros((4, 4)),
            )
        with pytest.raises(ValueError):
            attention.init_layer_params(5, 2, np.random.default_rng(0))

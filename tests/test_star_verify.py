import numpy as np
import pytest

from test_attention import layer_forward

from alorat import attention, linalg, star_verify
from alorat.model import TrainConfig


def make_stack(d_model, heads, layers, seed):
    rng = np.random.default_rng(seed)
    return [attention.init_layer_params(d_model, heads, rng) for _ in range(layers)]


class TestUnrollNoSkip:
    def test_single_layer_matches_forward(self):
        params = make_stack(4, 1, 1, 0)
        x = np.random.default_rng(1).normal(size=(6, 4))
        layers, z_ref = star_verify.harvest_layers(params, x, skip=False)
        out = star_verify.unroll_no_skip(layers, x)
        np.testing.assert_allclose(out, z_ref, atol=1e-12)

    def test_three_layers_match_forward(self):
        params = make_stack(4, 1, 3, 2)
        x = np.random.default_rng(3).normal(size=(8, 4))
        layers, z_ref = star_verify.harvest_layers(params, x, skip=False)
        out = star_verify.unroll_no_skip(layers, x)
        rel = np.abs(out - z_ref).max() / np.abs(z_ref).max()
        assert rel <= 1e-6

    def test_identity_values_leave_pure_temporal_mixing(self):
        # with every value map = identity the latent is the attention
        # product applied to the embedded input
        params = make_stack(3, 1, 2, 6)
        x = np.random.default_rng(7).normal(size=(5, 3))
        layers, _ = star_verify.harvest_layers(params, x, skip=False)
        ident_layers = [[(s, np.eye(3)) for s, _ in layer] for layer in layers]
        out = star_verify.unroll_no_skip(ident_layers, x)
        expected = ident_layers[1][0][0] @ (ident_layers[0][0][0] @ x)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestUnrollSkip:
    def test_single_layer_closed_form(self):
        params = make_stack(4, 1, 1, 8)
        x = np.random.default_rng(9).normal(size=(6, 4))
        layers, z_ref = star_verify.harvest_layers(params, x, skip=True)
        s, w = layers[0][0]
        np.testing.assert_allclose(x + s @ x @ w, z_ref, atol=1e-12)
        np.testing.assert_allclose(star_verify.unroll_skip(layers, x), z_ref, atol=1e-12)

    def test_zero_values_leave_identity_term(self):
        params = make_stack(4, 2, 2, 10)
        for p in params:
            p.w_v[:] = 0.0
        x = np.random.default_rng(11).normal(size=(5, 4))
        layers, z_ref = star_verify.harvest_layers(params, x, skip=True)
        np.testing.assert_allclose(z_ref, x, atol=1e-12)
        np.testing.assert_allclose(star_verify.unroll_skip(layers, x), x, atol=1e-12)

    def test_three_layer_expansion(self):
        params = make_stack(4, 1, 3, 12)
        x = np.random.default_rng(13).normal(size=(8, 4))
        layers, z_ref = star_verify.harvest_layers(params, x, skip=True)
        out = star_verify.unroll_skip(layers, x)
        rel = np.abs(out - z_ref).max() / np.abs(z_ref).max()
        assert rel <= 1e-6


class TestVerifyUnrolled:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("t_window", [4, 8, 16])
    @pytest.mark.parametrize("d_model", [2, 4, 8])
    @pytest.mark.parametrize("mask_kind", ["none", "causal"])
    def test_skip_mode_grid(self, layers, t_window, d_model, mask_kind):
        rng = np.random.default_rng(layers * 100 + t_window * 10 + d_model)
        params = make_stack(d_model, 1, layers, seed=layers + t_window + d_model)
        x = rng.normal(size=(t_window, d_model))
        mask = linalg.causal_mask(t_window) if mask_kind == "causal" else None
        report = star_verify.verify_unrolled(params, x, skip=True, mask=mask)
        assert report.passed
        assert report.term_count == 2**layers

    def test_multi_head_exactness(self):
        params = make_stack(8, 2, 3, 14)
        x = np.random.default_rng(15).normal(size=(6, 8))
        for skip in (True, False):
            report = star_verify.verify_unrolled(params, x, skip=skip)
            assert report.passed
            assert report.max_rel_error <= 1e-9

    def test_multi_head_term_count(self):
        # two layers of two heads: (1+2)**2 terms with skip, 2**2 without
        params = make_stack(4, 2, 2, 20)
        x = np.random.default_rng(21).normal(size=(5, 4))
        assert star_verify.verify_unrolled(params, x, skip=True).term_count == 9
        assert star_verify.verify_unrolled(params, x, skip=False).term_count == 4

    def test_gelu_reports_approximation(self):
        params = make_stack(4, 1, 2, 16)
        x = np.random.default_rng(17).normal(size=(6, 4))
        report = star_verify.verify_unrolled(params, x, skip=True, activation="gelu")
        assert report.mode == "approximation"
        assert report.passed is None
        assert report.max_abs_error > 0
        _, z_ref = star_verify.harvest_layers(params, x, skip=True, activation="gelu")
        z = x
        for p in params:
            z, _ = layer_forward(z, p, skip=True, activation="gelu")
        np.testing.assert_array_equal(z_ref, z)


class TestFfnRegroup:
    def test_identity_ffn_keeps_b(self):
        rng = np.random.default_rng(18)
        b = rng.normal(size=(4, 4))
        report = star_verify.verify_ffn_regroup(b, np.eye(4))
        assert report.passed
        assert report.max_abs_error <= 1e-15

    def test_random_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            b = rng.normal(size=(5, 5))
            w = rng.normal(size=(5, 3))
            report = star_verify.verify_ffn_regroup(b, w)
            assert report.passed
            assert report.max_rel_error <= 1e-12

    def test_small_worked_case(self):
        # d_model = 3, window length 2: regrouped weights must reproduce the
        # post-map latent exactly
        b = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 1.0], [0.0, 0.3, 2.0]])
        w = np.array([[0.2, 0.1, 0.0], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        expected = np.zeros((3, 3))
        for k in range(3):
            for j in range(3):
                expected[k, j] = sum(w[r, j] * b[k, r] for r in range(3))
        np.testing.assert_allclose(b @ w, expected, atol=1e-15)
        a_t = np.array([[0.3, 0.7]])
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose((a_t @ x @ b) @ w, a_t @ x @ (b @ w), atol=1e-12)
        assert star_verify.verify_ffn_regroup(b, w).passed

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            star_verify.verify_ffn_regroup(np.zeros((2, 3)), np.zeros((2, 3)))


class TestGrid:
    def test_grid_spans_all_values(self):
        grid = star_verify.build_grid(20)
        assert {c.layers for c in grid} == {1, 2, 3}
        assert {c.t_window for c in grid} == {4, 8, 16}
        assert {c.d_model for c in grid} == {2, 4, 8}
        assert {c.heads for c in grid} == {1, 2}
        assert {c.mask for c in grid} == {"none", "causal"}
        assert len({c.seed for c in grid}) == 20

    def test_grid_points_are_checked_train_configs(self):
        grid = star_verify.build_grid(2, base_seed=5)
        assert all(isinstance(c, TrainConfig) for c in grid)
        assert star_verify.describe(grid[1]) == "L=2 T=4 d_model=2 H=2 mask=none seed=6"
        with pytest.raises(ValueError, match="seed must be >= 0"):
            star_verify.build_grid(1, base_seed=-1)

    def test_run_grid_passes(self):
        for config, reports in star_verify.run_grid(6, base_seed=3):
            assert reports["skip"].passed, star_verify.describe(config)
            assert reports["no_skip"].passed, star_verify.describe(config)

    def test_report_line_format(self):
        report = star_verify.run_config(star_verify.build_grid(1)[0])["skip"]
        line = report.line()
        assert "mode=skip" in line and "PASS" in line

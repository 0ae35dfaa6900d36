import numpy as np
import pytest

from conftest import controlled_sim_params

from alorat import attention, embedding, localize, model
from alorat.model import TrainConfig


def hand_params(value_maps, w_out=None, kernels=None):
    """A model of one-head layers with the given value maps (w_proj = I),
    behind the identity feedthrough embedding unless `kernels` is given."""
    d_model = value_maps[0].shape[0]
    if kernels is None:
        weights = np.zeros((d_model, 2, 3))
        weights[:, 0, 1] = 1.0  # channel k passes series k through unchanged
        channels = np.arange(d_model)
        kernels = embedding.EmbeddingKernels(
            n_series=d_model, pairs=np.column_stack([channels, (channels + 1) % d_model]),
            weights=weights)
    layers = [
        attention.AttentionLayerParams(
            w_q=np.zeros((1, w.shape[0], w.shape[0])), w_k=np.zeros((1, w.shape[0], w.shape[0])),
            w_v=np.asarray(w, dtype=np.float64)[None], w_proj=np.eye(w.shape[0]))
        for w in value_maps
    ]
    if w_out is None:
        w_out = np.eye(d_model, kernels.n_series)
    return model.ModelParams(kernels=kernels, layers=layers, w_out=w_out)


def random_params(d, d_model, seed):
    """A freshly initialized one-head model of d_model channels on d series."""
    cfg = TrainConfig(d_model=d_model, heads=1, k_pairs=6)
    rng = np.random.default_rng(seed)
    return model.init_params(rng.normal(size=(40, d)), cfg, rng)[0]


class TestComputeB:
    def test_single_identity_layer_with_skip(self):
        b = localize.contribution_weights(hand_params([np.eye(3)]), skip=True).b
        np.testing.assert_array_equal(b, 2 * np.eye(3))

    def test_two_layers_without_skip(self):
        rng = np.random.default_rng(0)
        w1, w2 = rng.normal(size=(2, 4, 4))
        b = localize.contribution_weights(hand_params([w1, w2]), skip=False).b
        np.testing.assert_allclose(b, w1 @ w2, atol=1e-12)

    def test_fixed_matrices_with_skip(self):
        params = controlled_sim_params(np.random.default_rng(0))
        b = localize.contribution_weights(params, skip=True).b
        np.testing.assert_allclose(b, [[2.4, 1.4], [1.6, 2.6]], atol=1e-12)

    def test_ordering_left_to_right(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = localize.contribution_weights(hand_params([a, c]), skip=False).b
        np.testing.assert_allclose(b, a @ c, atol=1e-15)
        assert not np.allclose(a @ c, c @ a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            localize.contribution_weights(hand_params([np.eye(2), np.eye(3)]), skip=True)


class TestComputeE:
    def test_no_embedding_reduces_to_b(self):
        """A feedthrough embedding, which passes each series to one channel
        unchanged, leaves E = B bit for bit."""
        w1, w2 = np.random.default_rng(1).normal(size=(2, 3, 3))
        for skip in (False, True):
            weights = localize.contribution_weights(hand_params([w1, w2]), skip)
            np.testing.assert_array_equal(weights.e, weights.b)

    def test_zero_lag_sums(self):
        kernels = embedding.EmbeddingKernels(
            n_series=3,
            pairs=np.array([[0, 1], [1, 2]]),
            weights=np.array(
                [[[1.0, -2.0, 1.0], [0.5, 0.0, -0.5]], [[2.0, -1.0, -1.0], [0.0, 0.0, 0.0]]]
            ),
        )
        rng = np.random.default_rng(2)
        params = hand_params([rng.normal(size=(2, 2))], rng.normal(size=(2, 3)), kernels)
        e = localize.contribution_weights(params, skip=False).e
        np.testing.assert_allclose(e, np.zeros((3, 2)), atol=1e-12)

    def test_against_double_sum_oracle(self):
        params = random_params(4, 5, 3)
        weights = localize.contribution_weights(params, skip=False)
        kernels, b = params.kernels, weights.b

        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(5):
                    w_sum = 0.0
                    for slot in range(2):
                        if kernels.pairs[k, slot] == i:
                            w_sum += kernels.weights[k, slot].sum()
                    expected[i, j] += w_sum * b[k, j]
        np.testing.assert_allclose(weights.e, expected, atol=1e-12)


class TestComputeC:
    def test_identity_output_projection(self):
        params = hand_params([np.random.default_rng(4).normal(size=(3, 3))], np.eye(3))
        weights = localize.contribution_weights(params, skip=True)
        np.testing.assert_allclose(weights.c, weights.e, atol=1e-15)

    def test_fixed_matrices_no_skip(self):
        params = controlled_sim_params(np.random.default_rng(0))
        c = localize.contribution_weights(params, skip=False).c
        np.testing.assert_allclose(c, [[0.65, 0.25], [0.35, 0.75]], atol=1e-12)

    def test_entrywise_sum_equals_product(self):
        params = random_params(4, 6, 5)
        weights = localize.contribution_weights(params, skip=True)
        e, w_out = weights.e, params.w_out
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                for k in range(6):
                    expected[i, j] += w_out[k, j] * e[i, k]
        np.testing.assert_allclose(weights.c, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        """A w_out of the wrong height never reaches the product: the model
        refuses it."""
        with pytest.raises(ValueError, match="w_out shape"):
            hand_params([np.eye(2)], np.zeros((3, 2)))


class TestLas:
    def test_identity_c_returns_residuals(self):
        rng = np.random.default_rng(6)
        r = rng.uniform(size=(5, 3))
        np.testing.assert_allclose(localize.las(np.eye(3), r), r, atol=1e-15)

    def test_zero_residuals(self):
        c = np.random.default_rng(7).normal(size=(3, 3))
        np.testing.assert_array_equal(localize.las(c, np.zeros((4, 3))), np.zeros((4, 3)))

    def test_top_k_full_equals_plain(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(4, 4))
        r = rng.uniform(size=(6, 4))
        np.testing.assert_allclose(localize.las(c, r, top_k=4), localize.las(c, r), atol=1e-12)

    def test_top_k_clamps_with_warning(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=(3, 3))
        r = rng.uniform(size=(2, 3))
        with pytest.warns(RuntimeWarning):
            clamped = localize.las(c, r, top_k=7)
        np.testing.assert_allclose(clamped, localize.las(c, r), atol=1e-12)

    def test_top_k_bounded_for_nonnegative_c(self):
        rng = np.random.default_rng(10)
        c = rng.uniform(size=(5, 5))
        r = rng.uniform(size=(8, 5))
        full = localize.las(c, r)
        partial = localize.las(c, r, top_k=2)
        assert np.all(partial <= full + 1e-12)

    def test_absolute_mode(self):
        c = np.array([[1.0, -2.0], [0.5, 1.0]])
        r = np.array([[1.0, 1.0]])
        np.testing.assert_allclose(localize.las(c, r, absolute=True), [[3.0, 1.5]])

    def test_top_k_selects_largest_row_entries(self):
        c = np.array([[0.1, 5.0, 2.0], [3.0, 0.2, 0.1], [0.0, 1.0, 1.0]])
        r = np.ones((1, 3))
        out = localize.las(c, r, top_k=1)
        np.testing.assert_allclose(out[0], [5.0, 3.0, 1.0])

    def test_top_k_matches_row_loop_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = np.round(rng.normal(size=(6, 6)), 1)  # rounding makes ties
            r = rng.uniform(size=(4, 6))
            for k in (1, 3, 6):
                for absolute in (False, True):
                    weights = np.abs(c) if absolute else c
                    masked = np.zeros_like(c)
                    for i in range(6):
                        keep = sorted(range(6), key=lambda j: (-weights[i, j], j))[:k]
                        masked[i, keep] = weights[i, keep]
                    np.testing.assert_array_equal(localize.las(c, r, k, absolute), r @ masked.T)

    def test_top_k_tie_keeps_lower_series_index(self):
        # row 0 ties series 0 and 1; keeping series 1 would give 5.0
        out = localize.las(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 5.0]]), top_k=1)
        assert out[0, 0] == 1.0

    def test_rejects_negative_residuals(self):
        with pytest.raises(ValueError):
            localize.las(np.eye(2), np.array([[1.0, -0.1]]))


class TestRankSeries:
    def test_basic(self):
        np.testing.assert_array_equal(localize.rank_series(np.array([0.1, 5.0, 2.0]), 2), [1, 2])

    def test_tie_breaks_to_lower_index(self):
        np.testing.assert_array_equal(localize.rank_series(np.array([1.0, 1.0, 1.0]), 2), [0, 1])

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            row = rng.normal(size=9)
            full = sorted(range(9), key=lambda i: (-row[i], i))
            for k in (1, 4, 9):
                np.testing.assert_array_equal(localize.rank_series(row, k), full[:k])


class TestContributionWeights:
    def test_relative_reliance_rows_sum_to_one(self):
        c = np.array([[2.0, 1.0, 1.0], [0.5, 0.5, 1.0]])
        reliance = c / c.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(reliance.sum(axis=1), 1.0, atol=1e-15)

    def test_assembled_from_model_params(self):
        cfg = TrainConfig(t_window=8, d_model=4, heads=2, layers=3, k_pairs=4, seed=0)
        values = np.random.default_rng(12).normal(size=(40, 3))
        params, _ = model.init_params(values, cfg, np.random.default_rng(13))
        maps = [attention.effective_value_map(p) for p in params.layers]
        for skip in (False, True):
            weights = localize.contribution_weights(params, skip)
            b = np.eye(4)
            for w in maps:
                b = b @ (w + np.eye(4) if skip else w)
            np.testing.assert_allclose(weights.b, b, atol=1e-12)
            np.testing.assert_array_equal(weights.c, weights.e @ params.w_out)
            assert weights.mode == localize.EXACT_MODE
        approx = localize.contribution_weights(params, True, activation="gelu")
        assert approx.mode == localize.APPROX_MODE


class TestCsvExport:
    def test_las_csv(self, tmp_path):
        las_matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "las.csv"
        localize.save_las_csv(path, las_matrix, ["a", "b"])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert [float(x) for x in lines[1].split(",")] == [1.0, 2.0]

    def test_matrix_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        localize.save_matrix_csv(path, np.eye(2), ["r0", "r1"], ["c0", "c1"])
        lines = path.read_text().splitlines()
        assert lines[0] == ",c0,c1"
        assert lines[1].startswith("r0,")

import warnings

import numpy as np
import pytest

from alorat import data, embedding, model
from alorat.embedding import EmbeddingKernels, PairSelection


def rank_then_pearson(x, y):
    """Independent oracle: average ranks by explicit grouping, then Pearson."""

    def ranks(a):
        a = np.asarray(a, dtype=float)
        out = np.empty(len(a))
        for i, v in enumerate(a):
            less = np.sum(a < v)
            equal = np.sum(a == v)
            out[i] = less + (equal + 1) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    return np.corrcoef(rx, ry)[0, 1]


def pair_score(x, y):
    """The Spearman magnitude :func:`embedding.select_pairs` scores the one
    pair of two series with."""
    return embedding.select_pairs(np.column_stack([x, y]), 1).scores[0]


class TestSpearman:
    def test_monotone_increasing(self):
        assert pair_score([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        assert pair_score([1, 2, 3], [30, 20, 10]) == pytest.approx(1.0)

    def test_ties_against_rank_pearson_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.integers(0, 4, size=30).astype(float)  # heavy ties
            y = rng.integers(0, 4, size=30).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert pair_score(x, y) == pytest.approx(abs(rank_then_pearson(x, y)), abs=1e-12)

    def test_constant_sequence(self):
        with pytest.warns(RuntimeWarning):
            assert pair_score([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


def select_pairs_loop(values, k, method):
    """The ranking of :func:`embedding.select_pairs` as the double loop over
    pairs it replaced: every (-|r|, i, j) tuple, sorted, the first k kept."""
    d = values.shape[1]
    cols = values
    if method == "spearman":
        cols = np.column_stack([embedding._rank_average(values[:, i]) for i in range(d)])
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.nan_to_num(np.corrcoef(cols, rowvar=False), nan=0.0)
    entries = sorted((-abs(corr[i, j]), i, j) for i in range(d) for j in range(i + 1, d))[:k]
    return tuple((i, j) for _, i, j in entries), np.array([-neg for neg, _, _ in entries])


class TestSelectPairs:
    @pytest.mark.parametrize("method", ["spearman", "pearson"])
    def test_matches_pair_loop_oracle(self, method):
        """Pairs and score bytes equal the loop's on seeded frames with tied
        columns, a constant series and integer values, for k below, at and
        above C(d, 2)."""
        rng = np.random.default_rng(27)
        for case in range(150):
            n, d = int(rng.integers(3, 40)), int(rng.integers(2, 12))
            values = rng.normal(size=(n, d))
            if case % 3 == 0:
                values = np.round(values)
            if case % 4 == 0:
                values[:, -1] = -2.0 * values[:, 0]
            if case % 5 == 0:
                values[:, int(rng.integers(0, d))] = 1.5
            n_pairs = d * (d - 1) // 2
            for k in {1, max(1, n_pairs - 1), n_pairs, n_pairs + 3, 10**20}:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    sel = embedding.select_pairs(values, k, method)
                pairs, scores = select_pairs_loop(values, k, method)
                assert sel.pairs == pairs, (case, k)
                assert sel.scores.dtype == scores.dtype
                assert sel.scores.tobytes() == scores.tobytes(), (case, k)

    def test_small_d_keeps_all_pairs(self):
        rng = np.random.default_rng(1)
        sel = embedding.select_pairs(rng.normal(size=(50, 3)), 512)
        assert sel.pairs == ((0, 1), (0, 2), (1, 2)) or len(sel.pairs) == 3
        assert set(sel.pairs) == {(0, 1), (0, 2), (1, 2)}

    def test_dependent_pair_ranked_first(self):
        rng = np.random.default_rng(2)
        s1 = rng.normal(size=200)
        vals = np.column_stack([2.0 * s1, s1, rng.normal(size=200)])
        sel = embedding.select_pairs(vals, 512)
        assert sel.pairs[0] == (0, 1)
        assert sel.scores[0] == pytest.approx(1.0)

    def test_against_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(60, 8))
        vals[:, 3] = vals[:, 0] * 0.7 + 0.3 * rng.normal(size=60)
        sel = embedding.select_pairs(vals, 5)
        scored = []
        for i in range(8):
            for j in range(i + 1, 8):
                scored.append((-abs(rank_then_pearson(vals[:, i], vals[:, j])), i, j))
        scored.sort()
        expected = tuple((i, j) for _, i, j in scored[:5])
        assert sel.pairs == expected
        assert np.all(np.diff(sel.scores) <= 1e-15)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(80, 5))
        transformed = vals.copy()
        transformed[:, 1] = np.exp(transformed[:, 1])
        transformed[:, 3] = transformed[:, 3] ** 3
        a = embedding.select_pairs(vals, 10, method="spearman")
        b = embedding.select_pairs(transformed, 10, method="spearman")
        assert a.pairs == b.pairs
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_pearson_variant(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(100, 4))
        sel = embedding.select_pairs(vals, 6, method="pearson")
        corr = np.corrcoef(vals, rowvar=False)
        for (i, j), s in zip(sel.pairs, sel.scores):
            assert s == pytest.approx(abs(corr[i, j]), abs=1e-12)

    def test_too_few_series(self):
        with pytest.raises(ValueError):
            embedding.select_pairs(np.zeros((10, 1)), 4)

    def test_sidecar_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        sel = embedding.select_pairs(rng.normal(size=(40, 5)), 7)
        path = tmp_path / "pairs.txt"
        sel.save(path)
        _, table = data.read_table(path)
        assert tuple((int(i), int(j)) for i, j in table[:, :2]) == sel.pairs
        np.testing.assert_array_equal(table[:, 2], sel.scores)


def seeded_kernels(rng, d, d_model, m):
    """Channels of the ranked pairs of a random (30, d) frame, with weights
    drawn from ``rng``."""
    sel = embedding.select_pairs(rng.normal(size=(30, d)), d * (d - 1) // 2)
    weights = rng.uniform(-1.0, 1.0, size=(d_model, 2, m))
    return EmbeddingKernels(n_series=d, pairs=sel.channels(d_model), weights=weights)


class TestKernels:
    def test_parameter_count_independent_of_d(self):
        rng = np.random.default_rng(7)
        cfg = model.TrainConfig(d_model=12, heads=4, kernel_size=3)
        for d in (4, 16, 64):
            k = model.init_params(rng.normal(size=(30, d)), cfg, rng)[0].kernels
            assert k.weights.size == 2 * 3 * 12

    def test_channel_cycling(self):
        sel = PairSelection(pairs=((0, 1), (1, 2)), scores=np.array([0.9, 0.5]))
        np.testing.assert_array_equal(sel.channels(5), [[0, 1], [1, 2], [0, 1], [1, 2], [0, 1]])

    def test_truncates_to_d_model(self):
        sel = PairSelection(
            pairs=((0, 1), (0, 2), (1, 2)), scores=np.array([0.9, 0.5, 0.1])
        )
        np.testing.assert_array_equal(sel.channels(2), [[0, 1], [0, 2]])

    def test_validation(self):
        with pytest.raises(ValueError):  # even kernel size
            EmbeddingKernels(n_series=3, pairs=np.array([[0, 1]]), weights=np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):  # same series twice
            EmbeddingKernels(n_series=3, pairs=np.array([[1, 1]]), weights=np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):  # series out of range
            EmbeddingKernels(n_series=2, pairs=np.array([[0, 2]]), weights=np.zeros((1, 2, 3)))


def dense_conv_oracle(window, kernels):
    """Zero-padded dense convolution with all non-pair weights zero."""
    t_len, d = window.shape
    half = (kernels.m - 1) // 2
    dense = np.zeros((kernels.d_model, d, kernels.m))
    for k in range(kernels.d_model):
        i, j = kernels.pairs[k]
        dense[k, i] = kernels.weights[k, 0]
        dense[k, j] = kernels.weights[k, 1]
    out = np.zeros((t_len, kernels.d_model))
    for t in range(t_len):
        for k in range(kernels.d_model):
            for i in range(d):
                for lag in range(-half, half + 1):
                    src = t + lag
                    if 0 <= src < t_len:
                        out[t, k] += dense[k, i, lag + half] * window[src, i]
    return out


def conv(window, kernels):
    """One T x d window through :func:`embedding.pair_conv`."""
    return embedding.pair_conv(window, kernels.weights, kernels.pairs)[0]


class TestEmbed:
    def test_identity_filter(self):
        kernels = EmbeddingKernels(
            n_series=3,
            pairs=np.array([[1, 2]]),
            weights=np.array([[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]]),
        )
        rng = np.random.default_rng(8)
        window = rng.normal(size=(10, 3))
        out = conv(window, kernels)
        np.testing.assert_allclose(out[:, 0], window[:, 1], atol=1e-15)

    def test_zero_kernels(self):
        kernels = EmbeddingKernels(
            n_series=2, pairs=np.array([[0, 1]]), weights=np.zeros((1, 2, 3))
        )
        out = conv(np.ones((6, 2)), kernels)
        np.testing.assert_array_equal(out, np.zeros((6, 1)))

    def test_against_dense_conv_oracle(self):
        rng = np.random.default_rng(9)
        kernels = seeded_kernels(rng, d=4, d_model=5, m=3)
        window = rng.normal(size=(12, 4))
        np.testing.assert_allclose(
            conv(window, kernels), dense_conv_oracle(window, kernels), atol=1e-12
        )

    def test_wider_kernel_against_oracle(self):
        rng = np.random.default_rng(10)
        kernels = seeded_kernels(rng, d=3, d_model=4, m=5)
        window = rng.normal(size=(9, 3))
        np.testing.assert_allclose(
            conv(window, kernels), dense_conv_oracle(window, kernels), atol=1e-12
        )

    def test_linearity(self):
        rng = np.random.default_rng(11)
        kernels = seeded_kernels(rng, d=3, d_model=4, m=3)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        lhs = conv(2.5 * x - 1.5 * y, kernels)
        rhs = 2.5 * conv(x, kernels) - 1.5 * conv(y, kernels)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_window_shorter_than_kernel(self):
        # t_window = 2 with kernel_size = 5 is a valid config: every lag
        # beyond the window reads zero padding
        rng = np.random.default_rng(12)
        kernels = EmbeddingKernels(
            n_series=2, pairs=np.array([[0, 1]]), weights=rng.normal(size=(1, 2, 5))
        )
        window = rng.normal(size=(2, 2))
        np.testing.assert_allclose(conv(window, kernels), dense_conv_oracle(window, kernels),
                                   atol=1e-12)

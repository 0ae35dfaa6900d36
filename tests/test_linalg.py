import numpy as np
import pytest

from alorat import linalg


class TestSvd:
    """Singular values through :func:`linalg.spectrum`, the package's
    value-only SVD."""

    def test_identity(self):
        np.testing.assert_allclose(linalg.spectrum(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(linalg.spectrum(np.diag([3.0, 0.5, 0.0])), [3.0, 0.5, 0.0])

    @pytest.mark.parametrize("shape", [(4, 7), (7, 4), (6, 6)])
    def test_orthonormal_columns(self, shape):
        rng = np.random.default_rng(3)
        m = rng.normal(size=shape)
        sigma = linalg.spectrum(m)
        assert np.all(np.diff(sigma) <= 0)
        assert np.all(sigma >= 0)
        k = min(shape)
        np.testing.assert_allclose(sigma[:k], np.linalg.svd(m, compute_uv=False), atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 6))
        a = linalg.spectrum(m)
        b = linalg.spectrum(m.copy())
        assert a.tobytes() == b.tobytes()

    def test_row_stochastic_leading_sigma(self):
        # a row-stochastic matrix maps the constant vector to itself
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = linalg.softmax_last(rng.normal(size=(8, 8)))
            assert linalg.spectrum(m)[0] >= 1.0 - 1e-12


class TestGemanLoss:
    def test_direct_value(self):
        loss, _ = linalg.geman_batch(np.diag([1.0, 0.5])[None], 1)
        assert loss == pytest.approx(0.5 / 1.5)

    def test_rank_one_matrix(self):
        m = np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])
        loss, grad = linalg.geman_batch(m[None], 1)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_r_at_least_dimension(self):
        loss, grad = linalg.geman_batch(np.eye(3)[None], 3)
        assert loss == 0.0
        np.testing.assert_array_equal(grad[0], np.zeros((3, 3)))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            linalg.geman_batch(np.ones((2, 3))[None], 1)
        with pytest.raises(ValueError):
            linalg.geman_batch(np.eye(2)[None], -1)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(123)
        m = rng.normal(size=(6, 6))
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

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(4, 5, 5))
        total, grads = linalg.geman_batch(stack, 1)
        singles = [linalg.geman_batch(m[None], 1) for m in stack]
        assert total == pytest.approx(sum(s[0] for s in singles))
        for g_batch, (_, g_single) in zip(grads, singles):
            np.testing.assert_allclose(g_batch, g_single[0], atol=1e-12)


class TestSoftmaxRows:
    """Row softmax through :func:`linalg.softmax_last`; a mask is added to
    the logits beforehand."""

    def test_uniform(self):
        np.testing.assert_allclose(linalg.softmax_last(np.zeros((2, 2))), 0.25 + 0.25 * np.ones((2, 2)))

    def test_closed_form(self):
        out = linalg.softmax_last(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = linalg.softmax_last(rng.normal(size=(9, 9)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_causal_mask_zeros(self):
        rng = np.random.default_rng(4)
        out = linalg.softmax_last(rng.normal(size=(4, 4)) + linalg.causal_mask(4))
        upper = np.triu_indices(4, k=1)
        assert np.all(out[upper] == 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_fully_masked_row_rejected(self):
        mask = np.full((2, 2), -np.inf)
        mask[1] = 0.0
        with pytest.raises(ValueError):
            linalg.softmax_last(np.zeros((2, 2)) + mask)

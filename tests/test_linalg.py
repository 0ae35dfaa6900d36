import numpy as np
import pytest

from alorat import linalg


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(3))
        np.testing.assert_allclose(res.sigma, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 0.5, 0.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 0.5, 0.0])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(5, 5))
        res = linalg.svd(m)
        err = np.linalg.norm(res.reconstruct() - m) / np.linalg.norm(m)
        assert err <= 1e-9

    @pytest.mark.parametrize("shape", [(4, 7), (7, 4), (6, 6)])
    def test_orthonormal_columns(self, shape):
        rng = np.random.default_rng(3)
        res = linalg.svd(rng.normal(size=shape))
        k = min(shape)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), atol=1e-9)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(k), atol=1e-9)
        assert np.all(np.diff(res.sigma) <= 0)
        assert np.all(res.sigma >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 6))
        a = linalg.svd(m)
        b = linalg.svd(m.copy())
        assert a.u.tobytes() == b.u.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_sign_convention(self):
        res = linalg.svd(np.diag([-2.0, 1.0]))
        for i in range(res.u.shape[1]):
            col = res.u[:, i]
            nz = np.flatnonzero(col)
            assert col[nz[0]] > 0

    def test_row_stochastic_leading_sigma(self):
        # a row-stochastic matrix maps the constant vector to itself
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = linalg.softmax_rows(rng.normal(size=(8, 8)))
            assert linalg.svd(m).sigma[0] >= 1.0 - 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linalg.svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            linalg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            linalg.svd(np.empty((0, 3)))


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
    def test_uniform(self):
        np.testing.assert_allclose(linalg.softmax_rows(np.zeros((2, 2))), 0.25 + 0.25 * np.ones((2, 2)))

    def test_closed_form(self):
        out = linalg.softmax_rows(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = linalg.softmax_rows(rng.normal(size=(9, 9)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_causal_mask_zeros(self):
        rng = np.random.default_rng(4)
        out = linalg.softmax_rows(rng.normal(size=(4, 4)), linalg.causal_mask(4))
        upper = np.triu_indices(4, k=1)
        assert np.all(out[upper] == 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_fully_masked_row_rejected(self):
        mask = np.full((2, 2), -np.inf)
        mask[1] = 0.0
        with pytest.raises(ValueError):
            linalg.softmax_rows(np.zeros((2, 2)), mask)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            linalg.softmax_rows(np.zeros((2, 2)), np.full((2, 2), -1.0))
        with pytest.raises(ValueError):
            linalg.softmax_rows(np.zeros((2, 2)), np.zeros((3, 3)))

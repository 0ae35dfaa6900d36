import os
import signal
import threading
import time

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
        """r >= T spares every singular value: the empty tail gives loss 0
        and zero gradients, with or without the gradient."""
        for r in (3, 4, 2**63):
            loss, grad = linalg.geman_batch(np.eye(3)[None], r)
            assert loss == 0.0
            np.testing.assert_array_equal(grad, np.zeros((1, 3, 3)))
            assert linalg.geman_batch(np.eye(3)[None], r, grad=False) == (0.0, None)

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


class TestStackSplit:
    """geman_batch's SVDs run on contiguous slices of the stack, one per
    usable CPU: the caller takes the first and the pool the others; every
    split gives the single-call result bit for bit."""

    @staticmethod
    def _count_svd_calls(monkeypatch):
        """One ``(slice address, on the caller's thread)`` pair per SVD call;
        sorted, the pairs follow the slices' order in the stack."""
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            on_caller = threading.current_thread() is threading.main_thread()
            calls.append((a.__array_interface__["data"][0], on_caller))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, linalg._MIN_PART - 1, 2 * linalg._MIN_PART,
                                   2 * linalg._MIN_PART + 1, 129])
    def test_bit_identical_to_one_call(self, monkeypatch, workers, n):
        rng = np.random.default_rng(n)
        s = linalg.softmax_last(3.0 * rng.normal(size=(n, 16, 16)))
        monkeypatch.setattr(linalg, "_WORKERS", 1)
        loss_one, grad_one = linalg.geman_batch(s, 1)
        values_one, _ = linalg.geman_batch(s, 1, grad=False)

        monkeypatch.setattr(linalg, "_WORKERS", workers)
        calls = self._count_svd_calls(monkeypatch)
        loss, grad = linalg.geman_batch(s, 1)
        values, none = linalg.geman_batch(s, 1, grad=False)
        assert loss == loss_one and values == values_one and none is None
        assert grad.tobytes() == grad_one.tobytes()
        parts = max(1, min(workers, n // linalg._MIN_PART))
        assert len(calls) == 2 * parts
        on_caller = [caller for _, caller in calls]
        assert on_caller.count(True) == 2  # the caller runs one slice of each call

    @pytest.mark.parametrize("grad", [True, False])
    def test_failure_in_last_slice_reaches_caller(self, monkeypatch, grad):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        calls = self._count_svd_calls(monkeypatch)
        s = np.random.default_rng(1).normal(size=(2 * linalg._MIN_PART, 16, 16))
        s[-1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            linalg.geman_batch(s, 1, grad=grad)
        assert [caller for _, caller in sorted(calls)] == [True, False]  # the last on the pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        s = np.random.default_rng(2).normal(size=(2 * linalg._MIN_PART, 16, 16))
        grad = linalg.geman_batch(s, 1)[1]  # the parent's pool exists from here on
        pid = os.fork()
        if pid == 0:  # the child exits 0 only if its split call returns the same bits
            code = 1
            try:
                signal.alarm(20)
                code = 0 if linalg.geman_batch(s, 1)[1].tobytes() == grad.tobytes() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestOverlap:
    """``overlap(produce, consume, items)`` returns the inline list; with
    two usable CPUs ``consume`` runs on the pool, one item at a time, while
    the caller's thread runs every ``produce``."""

    @staticmethod
    def _recording(log):
        def produce(x):
            log.append(("produce", x, threading.current_thread() is threading.main_thread()))
            return 10 * x

        def consume(y):
            log.append(("consume", y, threading.current_thread() is threading.main_thread()))
            return y + 1

        return produce, consume

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_inline_result_and_threads(self, monkeypatch, workers, n):
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        log = []
        out = linalg.overlap(*self._recording(log), iter(range(n)))
        assert out == [10 * x + 1 for x in range(n)]
        assert sorted(log) == sorted([("produce", x, True) for x in range(n)]
                                     + [("consume", 10 * x, workers == 1) for x in range(n)])
        # consume runs in item order, each after its own produce
        consumed = [y for step, y, _ in log if step == "consume"]
        assert consumed == [10 * x for x in range(n)]
        for x in range(n):
            assert log.index(("produce", x, True)) < log.index(("consume", 10 * x, workers == 1))

    def test_one_consume_in_flight(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        busy, overlaps = [], []

        def consume(y):
            overlaps.append(len(busy))
            busy.append(y)
            time.sleep(0.002)
            busy.remove(y)
            return y

        assert linalg.overlap(lambda x: x, consume, range(20)) == list(range(20))
        assert overlaps == [0] * 20

    def test_linalg_error_in_consume_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        nan = np.full((1, 4, 4), np.nan)
        where = []

        def consume(m):
            where.append(threading.current_thread() is threading.main_thread())
            return np.linalg.svd(m, compute_uv=False)

        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            linalg.overlap(lambda x: x, consume, [np.eye(4)[None], nan, np.eye(4)[None]])
        assert where and not any(where)

    def test_no_helper_task_outlives_failing_produce(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        started, finished = threading.Event(), []

        def produce(x):
            if x == 1:
                assert started.wait(10)
                raise RuntimeError("produce failed")
            return x

        def consume(y):
            started.set()
            time.sleep(0.1)
            finished.append(y)

        with pytest.raises(RuntimeError, match="produce failed"):
            linalg.overlap(produce, consume, range(3))
        assert finished == [0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_helper(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        expected = [x * x for x in range(4)]
        assert linalg.overlap(lambda x: x, lambda y: y * y, range(4)) == expected
        assert linalg._pool is not None  # the parent's pool exists from here on
        pid = os.fork()
        if pid == 0:  # the child exits 0 only if it starts a pool of its own
            code = 1
            try:
                signal.alarm(20)
                fresh = linalg._pool is None
                result = linalg.overlap(lambda x: x, lambda y: y * y, range(4))
                code = 0 if fresh and result == expected else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_caller_is_the_pools_first_worker(monkeypatch, workers):
    """A split Geman SVD followed by an overlap run starts at most
    ``_WORKERS - 1`` threads, and none with one usable CPU."""
    monkeypatch.setattr(linalg, "_WORKERS", workers)
    monkeypatch.setattr(linalg, "_pool", None)
    before = set(threading.enumerate())
    try:
        s = np.random.default_rng(3).normal(size=(3 * linalg._MIN_PART, 16, 16))
        linalg.geman_batch(s, 1)
        assert linalg.overlap(lambda x: x, lambda y: y * y, range(4)) == [0, 1, 4, 9]
        added = set(threading.enumerate()) - before
    finally:
        if linalg._pool is not None:
            linalg._pool.shutdown()
    assert len(added) <= workers - 1


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

    def test_fully_masked_row_is_nan(self):
        """A row of all -inf, which only overflowed logits give, comes back
        nan, and the other rows are untouched."""
        mask = np.full((2, 2), -np.inf)
        mask[1] = 0.0
        with np.errstate(invalid="ignore"):
            out = linalg.softmax_last(np.zeros((2, 2)) + mask)
        assert np.isnan(out[0]).all()
        np.testing.assert_array_equal(out[1], [0.5, 0.5])

    def _copy_form(self, a):
        """The softmax on an explicit key-major copy of ``a``."""
        e = np.moveaxis(a, -1, 0).copy()
        e -= np.max(e, axis=0)
        np.exp(e, out=e)
        e *= 1.0 / np.sum(e, axis=0)
        return np.moveaxis(e, 0, -1)

    def test_key_major_input_is_softmaxed_in_place(self):
        """An input whose last axis is its slowest, as forward_t writes its
        logits, comes back as a view of itself, with the copy form's bytes."""
        rng = np.random.default_rng(11)
        buf = rng.normal(size=(6, 3, 2, 6))  # (Tk, H, B, Tq)
        logits = np.moveaxis(buf, 0, -1)
        want = self._copy_form(logits)
        out = linalg.softmax_last(logits)
        assert np.shares_memory(out, logits)
        assert out.shape == logits.shape and out.strides == logits.strides
        assert out.tobytes() == want.tobytes()

    def test_c_order_input_is_left_unchanged(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(3, 2, 6, 6))
        kept = logits.copy()
        out = linalg.softmax_last(logits)
        assert not np.shares_memory(out, logits)
        assert logits.tobytes() == kept.tobytes()
        assert out.tobytes() == self._copy_form(kept).tobytes()

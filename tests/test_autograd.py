"""Finite-difference checks of every tape operation, the attention layer
node included."""

import numpy as np
import pytest

from alorat import attention, embedding, linalg
from alorat import autograd as ag
from alorat.autograd import Tensor


def _sum_all(x: Tensor) -> Tensor:
    """Scalar sum of all entries, as a node of its own."""
    return Tensor(x.data.sum(), x.requires_grad, (x,),
                  lambda grad: x._accumulate(np.full(x.data.shape, grad)))


def fd_check(build, arrays, rel_tol=1e-6, seed=0):
    """`build(*tensors)` must return a Tensor; compare its gradients on each
    input against central differences of a fixed random projection."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    proj = rng.normal(size=out.data.shape)

    def scalarize(values):
        o = build(*[Tensor(v) for v in values])
        return float(np.sum(o.data * proj))

    _sum_all(out * Tensor(proj)).backward()

    h = 1e-6
    for pos, (t, arr) in enumerate(zip(tensors, arrays)):
        assert t.grad is not None, "missing gradient"
        idx = rng.choice(arr.size, size=min(5, arr.size), replace=False)
        for fi in idx:
            up_vals = [a.copy() for a in arrays]
            up_vals[pos].flat[fi] += h
            down_vals = [a.copy() for a in arrays]
            down_vals[pos].flat[fi] -= h
            fd = (scalarize(up_vals) - scalarize(down_vals)) / (2 * h)
            assert t.grad.flat[fi] == pytest.approx(fd, rel=rel_tol, abs=1e-7)


def test_add_broadcast():
    rng = np.random.default_rng(1)
    fd_check(lambda a, b: a + b, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])


def test_sub():
    rng = np.random.default_rng(2)
    fd_check(lambda a, b: a - b, [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])


def test_mul_broadcast():
    rng = np.random.default_rng(3)
    fd_check(lambda a, b: a * b, [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4))])


def test_scalar_mul():
    rng = np.random.default_rng(4)
    fd_check(lambda a: a * 2.5, [rng.normal(size=(3, 3))])


def test_matmul():
    rng = np.random.default_rng(5)
    fd_check(lambda a, b: a @ b, [rng.normal(size=(4, 3)), rng.normal(size=(3, 5))])


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(6)
    fd_check(lambda a, b: a @ b, [rng.normal(size=(2, 3, 4, 3)), rng.normal(size=(3, 5))])
    fd_check(lambda a, b: a @ b, [rng.normal(size=(4, 3)), rng.normal(size=(5, 3, 6))])


def _layer_inputs(seed, t_len=5, d_model=4, heads=2, batch=2):
    rng = np.random.default_rng(seed)
    p = attention.init_layer_params(d_model, heads, rng=rng)
    return [rng.normal(size=(batch, t_len, d_model)), p.w_q, p.w_k, p.w_v, p.w_proj]


def _layer(index, skip=True, activation="identity", mask=None, output=0):
    """forward_t as a function of its ``index``-th input alone (z, w_q, w_k,
    w_v, w_proj), returning z_next (output 0) or s_avg (output 1)."""

    def build(inputs, varying):
        args = [Tensor(a) for a in inputs]
        args[index] = varying
        return attention.forward_t(*args, skip, activation, mask)[output]

    return build


def test_transpose_last():
    """The logits' key transpose lives inside forward_t: gradient into w_k."""
    inputs = _layer_inputs(7)
    build = _layer(2)
    fd_check(lambda w_k: build(inputs, w_k), [inputs[2]])


def test_softmax_rows():
    """Softmax backward inside forward_t: z through the head-averaged
    attention alone."""
    inputs = _layer_inputs(8)
    build = _layer(0, output=1)
    fd_check(lambda z: build(inputs, z), [inputs[0]])


def test_softmax_rows_masked():
    inputs = _layer_inputs(9, t_len=4)
    build = _layer(0, mask=linalg.causal_mask(4), output=1)
    fd_check(lambda z: build(inputs, z), [inputs[0]])


def test_gelu():
    rng = np.random.default_rng(10)
    fd_check(lambda a: ag.gelu(a), [rng.normal(size=(3, 5))])


def test_concat_last():
    """The head merge inside forward_t: gradient into the per-head w_v."""
    inputs = _layer_inputs(11)
    build = _layer(3)
    fd_check(lambda w_v: build(inputs, w_v), [inputs[3]])


def test_sum_squares():
    rng = np.random.default_rng(12)
    fd_check(lambda a: ag.sum_squares(a), [rng.normal(size=(4, 4))])


def test_shape_ops():
    """The reshapes and the head mean inside forward_t: gradients into
    w_proj and w_q through z_next, and into w_q through s_avg."""
    inputs = _layer_inputs(13)
    for index, output in ((4, 0), (1, 0), (1, 1)):
        build = _layer(index, output=output)
        fd_check(lambda w: build(inputs, w), [inputs[index]])


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("activation", ["identity", "gelu"])
def test_attention_layer_node(mask, skip, activation):
    """Every input of the fused layer node, through z_next and through
    s_avg into the Geman penalty at once."""
    inputs = _layer_inputs(16, t_len=6, d_model=6, heads=3)
    weight = np.random.default_rng(17).normal(size=inputs[0].shape)
    mk = linalg.causal_mask(6) if mask else None

    def build(*tensors):
        z_next, s_avg, _ = attention.forward_t(*tensors, skip, activation, mk)
        return _sum_all(z_next * Tensor(weight)) + ag.geman_penalty(s_avg, 1)

    fd_check(build, inputs, rel_tol=1e-4)


@pytest.mark.parametrize("shape, m", [((2, 6, 5), 3), ((7, 5), 5), ((2, 2, 4, 5), 1)])
def test_pair_conv(shape, m):
    """The embedding's GEMM and its lag-shifted backward, into the kernels."""
    rng = np.random.default_rng(18)
    x = rng.normal(size=shape)
    pairs = np.array([[0, 3], [1, 2], [0, 4], [2, 3]])
    fd_check(lambda w: embedding.pair_conv(x, w, pairs), [rng.normal(size=(4, 2, m))])


def test_geman_penalty():
    rng = np.random.default_rng(14)
    fd_check(lambda a: ag.geman_penalty(a, 1), [rng.normal(size=(2, 5, 5))], rel_tol=1e-4)


def test_backward_needs_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t + t).backward()


def test_grad_accumulates_through_shared_node():
    a = Tensor(np.array([3.0]), requires_grad=True)
    out = _sum_all(a * a + a * a)
    out.backward()
    assert a.grad[0] == pytest.approx(12.0)


def test_adam_minimizes_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = ag.Adam([p], lr=0.1)
    for _ in range(300):
        diff = p - Tensor(target)
        loss = ag.sum_squares(diff)
        opt.zero_grad()
        loss.backward()
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-3)

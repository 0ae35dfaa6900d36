"""Finite-difference checks of every kernel's returned backward, the
attention layer's included, and of ADAM."""

import numpy as np
import pytest

from alorat import attention, embedding, linalg, model
from alorat import autograd as ag


def fd_check(forward, arrays, rel_tol=1e-6, seed=0):
    """``forward(*arrays)`` returns (output, backward), and ``backward(d_out)``
    the gradients of ``arrays`` (one array when there is one input); compare
    them against central differences of a fixed random projection."""
    rng = np.random.default_rng(seed)
    out, backward = forward(*[a.copy() for a in arrays])
    proj = rng.normal(size=np.shape(out))

    def scalarize(values):
        return float(np.sum(forward(*values)[0] * proj))

    grads = backward(proj)
    if isinstance(grads, np.ndarray):
        grads = (grads,)

    h = 1e-6
    for pos, (grad, arr) in enumerate(zip(grads, arrays, strict=True)):
        assert grad.shape == arr.shape
        idx = rng.choice(arr.size, size=min(5, arr.size), replace=False)
        for fi in idx:
            up_vals = [a.copy() for a in arrays]
            up_vals[pos].flat[fi] += h
            down_vals = [a.copy() for a in arrays]
            down_vals[pos].flat[fi] -= h
            fd = (scalarize(up_vals) - scalarize(down_vals)) / (2 * h)
            assert grad.flat[fi] == pytest.approx(fd, rel=rel_tol, abs=1e-7)


def _layer_inputs(seed, t_len=5, d_model=4, heads=2, batch=2):
    rng = np.random.default_rng(seed)
    p = attention.init_layer_params(d_model, heads, rng=rng)
    return [rng.normal(size=(batch, t_len, d_model)), p.w_q, p.w_k, p.w_v, p.w_proj]


def _layer(index, skip=True, activation="identity", mask=None, output=0):
    """forward_t as a function of its ``index``-th input alone (z, w_q, w_k,
    w_v, w_proj), returning z_next (output 0) or s_avg (output 1) and the
    backward from that output into the input."""

    def build(inputs, varying):
        args = list(inputs)
        args[index] = varying
        outs = attention.forward_t(*args, skip, activation, mask)

        def backward(d_out):
            d = [np.zeros_like(outs[0]), np.zeros_like(outs[1])]
            d[output] = d_out
            return outs[3](*d)[index]

        return outs[output], backward

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


def _gelu(x):
    """GELU with its backward, from the formula and slope forward_t uses."""
    out, th = attention.gelu_parts(x)
    return out, lambda d_out: d_out * attention.gelu_slope(x, th)


def test_gelu():
    rng = np.random.default_rng(10)
    fd_check(_gelu, [rng.normal(size=(3, 5))])


def test_concat_last():
    """The head merge inside forward_t: gradient into the per-head w_v."""
    inputs = _layer_inputs(11)
    build = _layer(3)
    fd_check(lambda w_v: build(inputs, w_v), [inputs[3]])


def test_sum_squares():
    """The squared reconstruction error of one (T, d_model) latent."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    fd_check(lambda z, w: model._recon_error(z, w, x),
             [rng.normal(size=(4, 5)), rng.normal(size=(5, 3))])


def test_recon_error_batched():
    """A (B, T, d_model) stack: w_out's gradient sums over the batch."""
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3, 4, 2))
    fd_check(lambda z, w: model._recon_error(z, w, x),
             [rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))])


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
    """Every input of the fused layer kernel, through z_next and through
    s_avg into the Geman penalty at once."""
    inputs = _layer_inputs(16, t_len=6, d_model=6, heads=3)
    weight = np.random.default_rng(17).normal(size=inputs[0].shape)
    mk = linalg.causal_mask(6) if mask else None

    def build(*arrays):
        z_next, s_avg, _, backward = attention.forward_t(*arrays, skip, activation, mk)
        pen, d_pen = linalg.geman_batch(s_avg, 1)
        return np.sum(z_next * weight) + pen, lambda d: backward(d * weight, d * d_pen)

    fd_check(build, inputs, rel_tol=1e-4)


@pytest.mark.parametrize("shape, m", [((2, 6, 5), 3), ((7, 5), 5), ((2, 2, 4, 5), 1)])
def test_pair_conv(shape, m):
    """The embedding's GEMM and its lag-shifted backward, into the kernels."""
    rng = np.random.default_rng(18)
    x = rng.normal(size=shape)
    pairs = np.array([[0, 3], [1, 2], [0, 4], [2, 3]])
    fd_check(lambda w: embedding.pair_conv(x, w, pairs), [rng.normal(size=(4, 2, m))])


def _geman(s):
    """The Geman penalty with its closed-form gradient as the backward."""
    loss, d_s = linalg.geman_batch(s, 1)
    return loss, lambda d_out: d_out * d_s


def test_geman_batch_gradient():
    rng = np.random.default_rng(14)
    fd_check(_geman, [rng.normal(size=(2, 5, 5))], rel_tol=1e-4)


def test_adam_minimizes_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    p = np.zeros((3, 1))
    opt = ag.Adam([p], lr=0.1)
    for _ in range(300):
        _, backward = model._recon_error(np.eye(3), p, target[:, None])
        opt.step([backward(1.0)[1]])
    np.testing.assert_allclose(p[:, 0], target, atol=1e-3)

"""Minimal reverse-mode autodiff over float64 numpy arrays.

The tape holds only the encoder's own nodes, each with a hand-written
backward: the embedding (:func:`alorat.embedding.pair_conv`), one node per
attention layer (:func:`alorat.attention.forward_t`, built on the GELU
formula and slope defined here), the squared reconstruction error through
the output projection, the Geman low-rank penalty with its closed-form
singular-vector gradient, and the weighted sum that makes them the
objective.  Gradients are accumulated by replaying the tape in reverse
topological order.
"""

from __future__ import annotations

import numpy as np

from . import linalg

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


class Tensor:
    """Array node in the computation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = grad
        else:
            self.grad += grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# -- functional ops ----------------------------------------------------------


def gelu_parts(x: np.ndarray):
    """tanh-form GELU of an array, with the tanh term its slope reuses."""
    th = np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + th), th


def gelu_slope(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Derivative of :func:`gelu_parts` at ``x``."""
    du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du


def squared_error(z: Tensor, w_out: Tensor, x: np.ndarray) -> Tensor:
    """Scalar ``sum((z @ w_out - x)**2)`` of a (..., T, d_model) latent
    stack, with gradients into ``z`` and ``w_out``."""
    diff = z.data @ w_out.data - x

    def backward(grad):
        g = 2.0 * grad * diff
        if z.requires_grad:
            z._accumulate(g @ w_out.data.T)
        if w_out.requires_grad:
            # Batched product, then the sum over the batch: one flattened
            # (B*T)-row product would add the same terms in another order.
            g_w = np.swapaxes(z.data, -1, -2) @ g
            w_out._accumulate(g_w.sum(axis=tuple(range(g_w.ndim - 2))))

    req = z.requires_grad or w_out.requires_grad
    return Tensor(np.sum(diff**2), req, (z, w_out), backward)


def weighted_sum(terms: list[Tensor], weights: list[float]) -> Tensor:
    """Scalar ``sum(w * t)`` over scalar nodes ``terms``."""
    value = sum(w * t.data for t, w in zip(terms, weights))

    def backward(grad):
        for t, w in zip(terms, weights):
            if t.requires_grad:
                t._accumulate(grad * w)

    return Tensor(value, any(t.requires_grad for t in terms), tuple(terms), backward)


def geman_penalty(s: Tensor, r: int) -> Tensor:
    """Summed truncated Geman penalty over a stack of square matrices.

    Backward uses the closed-form subgradient from
    :func:`alorat.linalg.geman_batch`; the SVD is computed once here.
    """
    loss, grad_s = linalg.geman_batch(s.data, r)

    def backward(grad):
        s._accumulate(grad * grad_s)

    return Tensor(loss, s.requires_grad, (s,), backward)


class Adam:
    """ADAM over a list of parameter Tensors."""

    def __init__(self, params: list[Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

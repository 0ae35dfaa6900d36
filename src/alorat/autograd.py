"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just the handful of operations the encoder needs: broadcasting
arithmetic, (batched) matmul, squared error, and a custom node for the
Geman low-rank penalty whose backward pass is the closed-form
singular-vector expression.  An attention layer is one node of its own
(:func:`alorat.attention.forward_t`), built on the GELU formula and slope
defined here.  Gradients are accumulated by replaying the tape in reverse
topological order.
"""

from __future__ import annotations

import numpy as np

from . import linalg

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data
        req = self.requires_grad or other.requires_grad

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor(out_data, req, (self, other), backward)

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data
        req = self.requires_grad or other.requires_grad

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(-_unbroadcast(grad, other.data.shape))

        return Tensor(out_data, req, (self, other), backward)

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data
        req = self.requires_grad or other.requires_grad

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor(out_data, req, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data
        req = self.requires_grad or other.requires_grad

        def backward(grad):
            if self.requires_grad:
                ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return Tensor(out_data, req, (self, other), backward)

    # -- tape ---------------------------------------------------------------

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- functional ops ----------------------------------------------------------


def gelu_parts(x: np.ndarray):
    """tanh-form GELU of an array, with the tanh term its slope reuses."""
    th = np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + th), th


def gelu_slope(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Derivative of :func:`gelu_parts` at ``x``."""
    du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du


def sum_squares(x: Tensor) -> Tensor:
    """Scalar sum of squared entries."""
    out_data = np.sum(x.data**2)

    def backward(grad):
        x._accumulate(2.0 * grad * x.data)

    return Tensor(out_data, x.requires_grad, (x,), backward)


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

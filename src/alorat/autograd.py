"""The value-with-backward ``Tensor`` and ADAM.

Each training kernel returns a ``backward`` that maps output gradients to
input gradients as arrays (:func:`alorat.embedding.pair_conv`,
:func:`alorat.attention.forward_t`).  The objective of
:func:`alorat.model._objective` is a :class:`Tensor` whose ``backward()``
chains them in one fixed reverse order and returns the gradients.
"""

from __future__ import annotations

import numpy as np

class Tensor:
    """A value; ``backward()`` runs the reverse pass given and returns its result."""

    __slots__ = ("data", "_backward")

    def __init__(self, data, backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._backward = backward

    def backward(self):
        return self._backward()


# ADAM's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """ADAM over a list of float64 parameter arrays, updated in place."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]):
        """One update from the gradients of ``params``, in their order."""
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

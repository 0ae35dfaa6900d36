"""Dense real-matrix kernels: SVD, row-wise softmax, and the truncated
Geman low-rank penalty with its closed-form subgradient.

Everything here is pure and operates on float64 ``numpy`` arrays; the rest
of the package is built on these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdResult", "svd", "softmax_rows", "geman_batch"]


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(sigma) @ v.T``.

    ``u`` and ``v`` have orthonormal columns, ``sigma`` is descending and
    non-negative.  Column signs are normalized (first nonzero entry of each
    left singular vector is non-negative) so repeated calls on identical
    input bits return identical bits.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def svd(m) -> SvdResult:
    """Full (thin) SVD of a dense real matrix with deterministic signs."""
    a = _as_matrix(m)
    u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.T
    # Sign convention: make the first nonzero entry of every left singular
    # vector non-negative; flip u and v columns together so the product is
    # unchanged.
    for i in range(u.shape[1]):
        col = u[:, i]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            u[:, i] = -col
            v[:, i] = -v[:, i]
    return SvdResult(u=u, sigma=sigma, v=v)


def _rank_tol(sigma: np.ndarray, dim: int):
    """Per-matrix cutoff below which singular values count as exact zeros."""
    return dim * np.finfo(np.float64).eps * np.max(sigma, axis=-1, keepdims=True)


def geman_batch(s: np.ndarray, r: int) -> tuple[float, np.ndarray]:
    """Truncated Geman penalty ``sum_{i>r} sigma_i / (sigma_i + 1)``, summed
    over a stack of square matrices with shape ``(..., T, T)`` and sparing
    each matrix's ``r`` leading singular values, together with the
    per-matrix gradients ``sum_{i>r} u_i v_i^T / (sigma_i + 1)^2``.

    At repeated singular values the returned gradient is one valid
    subgradient (ties are measure-zero under training noise).  Numerically
    zero singular values contribute no gradient, so the gradient vanishes
    wherever a matrix already has rank <= r.  ``r >= T`` gives loss 0 and
    zero gradients.  A single matrix ``m`` is the stack ``m[None]``.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    k = s.shape[-1]
    if s.shape[-2] != k:
        raise ValueError(f"expected square matrices, got shape {s.shape}")
    if r >= k:
        return 0.0, np.zeros_like(s)
    u, sigma, vh = np.linalg.svd(s)
    tail = sigma[..., r:]
    loss = float(np.sum(tail / (tail + 1.0)))
    weights = np.where(tail > _rank_tol(sigma, k), 1.0 / (tail + 1.0) ** 2, 0.0)
    grad = (u[..., :, r:] * weights[..., None, :]) @ vh[..., r:, :]
    return loss, grad


def softmax_rows(m, mask=None) -> np.ndarray:
    """Row-wise softmax; ``mask`` is an additive matrix of 0 / -inf entries
    and masked positions come out exactly 0.  A fully masked row is an error
    (the distribution would be undefined)."""
    a = _as_matrix(m)
    if mask is not None:
        mk = np.asarray(mask, dtype=np.float64)
        if mk.shape != a.shape:
            raise ValueError(f"mask shape {mk.shape} != matrix shape {a.shape}")
        if not np.all((mk == 0.0) | np.isneginf(mk)):
            raise ValueError("mask entries must be 0 or -inf")
        a = a + mk
    return softmax_last(a)


def softmax_last(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an arbitrary stack; -inf entries map
    to exact zeros.  Exponent and division run in place on the one
    ``a - top`` temporary."""
    top = np.max(a, axis=-1, keepdims=True)
    if np.isneginf(top).any():
        raise ValueError("softmax over a fully masked row is undefined")
    e = np.subtract(a, top)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def causal_mask(t: int) -> np.ndarray:
    """Additive mask blocking attention to future timesteps (strict upper
    triangle -inf)."""
    mk = np.zeros((t, t))
    mk[np.triu_indices(t, k=1)] = -np.inf
    return mk

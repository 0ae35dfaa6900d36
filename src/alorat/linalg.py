"""Dense real-matrix kernels: the value-only spectrum, the softmax over the
last axis, and the truncated Geman low-rank penalty with its closed-form
subgradient.

Everything here is pure and operates on float64 ``numpy`` arrays; the rest
of the package is built on these primitives.
"""

from __future__ import annotations

import numpy as np

__all__ = ["geman_batch", "spectrum"]


def geman_batch(s: np.ndarray, r: int, grad: bool = True) -> tuple[float, np.ndarray | None]:
    """Truncated Geman penalty ``sum_{i>r} sigma_i / (sigma_i + 1)``, summed
    over a stack of square matrices with shape ``(..., T, T)`` and sparing
    each matrix's ``r`` leading singular values, together with the
    per-matrix gradients ``sum_{i>r} u_i v_i^T / (sigma_i + 1)^2``.

    At repeated singular values the returned gradient is one valid
    subgradient (ties are measure-zero under training noise).  Singular
    values below ``T * eps * sigma_1`` count as exact zeros and contribute
    no gradient, so the gradient vanishes wherever a matrix already has
    rank <= r.  ``r >= T`` gives loss 0 and zero gradients.  A single
    matrix ``m`` is the stack ``m[None]``.  ``grad=False`` returns
    ``(loss, None)`` from ``svd(compute_uv=False)``, not :func:`spectrum`:
    the penalty's tail values lie below what ``eigvalsh(S^T S)`` resolves.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    k = s.shape[-1]
    if s.shape[-2] != k:
        raise ValueError(f"expected square matrices, got shape {s.shape}")
    if r >= k:
        return 0.0, np.zeros_like(s) if grad else None
    if grad:
        u, sigma, vh = np.linalg.svd(s)
    else:
        sigma = np.linalg.svd(s, compute_uv=False)
    tail = sigma[..., r:]
    loss = float(np.sum(tail / (tail + 1.0)))
    if not grad:
        return loss, None
    zero = k * np.finfo(np.float64).eps * sigma[..., :1]
    weights = np.where(tail > zero, 1.0 / (tail + 1.0) ** 2, 0.0)
    return loss, (u[..., :, r:] * weights[..., None, :]) @ vh[..., r:, :]


# Below this cutoff every singular value compared against it comes from the
# SVD: there eigvalsh(S^T S) has no correct digits left.
SPECTRUM_SVD_BELOW = 1e-6


def spectrum(s: np.ndarray, near: float | None = None) -> np.ndarray:
    """Singular values of every square matrix of a ``(..., T, T)`` stack,
    descending, as ``sqrt(max(eigvalsh(S^T S), 0))``.

    The eigenvalues carry an absolute error of about ``T * eps * sigma_1**2``.
    With ``near``, every matrix that has an eigenvalue within that bound of
    ``near**2`` is recomputed with ``svd(compute_uv=False)``, and so is the
    whole stack when ``near`` is below :data:`SPECTRUM_SVD_BELOW`; so the
    count of values above ``near``, and the largest value at ``near``, are
    those of the SVD.
    """
    if near is not None and near < SPECTRUM_SVD_BELOW:
        return np.linalg.svd(s, compute_uv=False)
    lam = np.linalg.eigvalsh(np.swapaxes(s, -1, -2) @ s)[..., ::-1]
    sigma = np.sqrt(np.maximum(lam, 0.0))
    if near is not None:
        bound = s.shape[-1] * np.finfo(np.float64).eps * lam[..., :1]
        redo = np.any(np.abs(lam - near * near) <= bound, axis=-1)
        if redo.any():
            sigma[redo] = np.linalg.svd(s[redo], compute_uv=False)
    return sigma


def softmax_last(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an arbitrary stack; -inf entries map
    to exact zeros.

    The work runs on one contiguous copy with the reduced axis moved to the
    front, where max, sum and scaling act on whole slabs, not short rows;
    the result is a view of that copy in the input's orientation."""
    e = np.moveaxis(a, -1, 0).copy()
    top = np.max(e, axis=0)
    if np.isneginf(top).any():
        raise ValueError("softmax over a fully masked row is undefined")
    e -= top
    np.exp(e, out=e)
    e *= 1.0 / np.sum(e, axis=0)
    return np.moveaxis(e, 0, -1)


def causal_mask(t: int) -> np.ndarray:
    """Additive mask blocking attention to future timesteps (strict upper
    triangle -inf)."""
    mk = np.zeros((t, t))
    mk[np.triu_indices(t, k=1)] = -np.inf
    return mk

"""Dense real-matrix kernels: the value-only spectrum, the softmax over the
last axis, and the truncated Geman low-rank penalty with its closed-form
subgradient.

Everything here is pure and operates on float64 ``numpy`` arrays; the rest
of the package is built on these primitives.  The only threads of the package
live here: the CPU-bound pool that splits the Geman SVD, and the one helper
thread of :func:`overlap` that takes inference chunks' spectra.
"""

from __future__ import annotations

import itertools
import os

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
        u, sigma, vh = _stack_map(np.linalg.svd, s)
    else:
        sigma = _stack_map(np.linalg.svd, s, compute_uv=False)
    tail = sigma[..., r:]
    loss = float(np.sum(tail / (tail + 1.0)))
    if not grad:
        return loss, None
    zero = k * np.finfo(np.float64).eps * sigma[..., :1]
    weights = np.where(tail > zero, 1.0 / (tail + 1.0) ** 2, 0.0)
    return loss, (u[..., :, r:] * weights[..., None, :]) @ vh[..., r:, :]


# Usable CPUs ([0] where they cannot be read); the fewest matrices worth a thread.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
_WORKERS = len(_CPUS)
_MIN_PART = 16
_pool = None
_helper = None
if hasattr(os, "register_at_fork"):  # a forked child has none of their threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None, _helper=None))


def _stack_map(fn, s: np.ndarray, **kwargs):
    """``fn(s, **kwargs)`` for a numpy call that factors each matrix of a
    (n, T, T) stack on its own, run as up to ``_WORKERS`` slices of ``_MIN_PART``
    or more matrices on pool threads bound one per CPU; bit-identical to one call."""
    global _pool
    parts = min(_WORKERS, s.shape[0] // _MIN_PART) if s.ndim == 3 else 1
    if parts < 2:
        return fn(s, **kwargs)
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # deferred: ~7 ms to import
        # Unbound, the threads were seen to share the caller's CPU while another idled.
        cpus = itertools.cycle(_CPUS)
        _pool = ThreadPoolExecutor(
            _WORKERS, initializer=lambda: os.sched_setaffinity(0, {next(cpus)}))
    futures = [_pool.submit(fn, part, **kwargs) for part in np.array_split(s, parts)]
    outs = [f.result() for f in futures]
    if isinstance(outs[0], tuple):
        return tuple(map(np.concatenate, zip(*outs)))
    return np.concatenate(outs)


def overlap(produce, consume, items) -> list:
    """``[consume(produce(x)) for x in items]``, with ``consume`` of item k
    run on one helper thread while the caller's thread runs ``produce`` of
    item k+1.  At most one ``consume`` is in flight, results come back in
    item order, and an exception from either side reaches the caller only
    after the helper is idle.  With one usable CPU everything runs inline.

    The helper is not bound to a CPU: the pool's threads are, one of them to
    the caller's CPU, where ``consume`` would wait on ``produce``.
    ``consume`` must call nothing traced, nothing on the pool and not
    :func:`overlap`, so every traced call stays on the caller's thread."""
    global _helper
    if _WORKERS < 2:
        return [consume(produce(x)) for x in items]
    if _helper is None:
        from concurrent.futures import ThreadPoolExecutor  # deferred: ~7 ms to import
        _helper = ThreadPoolExecutor(1)
    outs, pending = [], None
    try:
        for x in items:
            y = produce(x)
            if pending is not None:
                outs.append(pending.result())
            pending = _helper.submit(consume, y)
        if pending is not None:
            outs.append(pending.result())
    finally:
        if pending is not None:
            pending.exception()  # waits for the helper without raising
    return outs


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

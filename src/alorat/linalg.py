"""Dense real-matrix kernels: the singular values (:func:`spectrum`, the one
routine that takes them), the softmax over the last axis, and the truncated
Geman low-rank penalty with its closed-form subgradient.

Everything here is pure and operates on float64 ``numpy`` arrays; the rest
of the package is built on these primitives.  The only threads of the package
live here: one unbound pool of ``_WORKERS - 1`` threads whose first worker is
the caller, which takes the Geman SVD's slices and :func:`overlap`'s spectra.
"""

from __future__ import annotations

import os

import numpy as np


def spectrum(s: np.ndarray) -> np.ndarray:
    """Singular values of every matrix of a ``(..., T, T)`` stack,
    descending: ``svd(compute_uv=False)``, the package's one singular-value
    routine.  Rank counts, h1 and the Geman penalty's value all read it."""
    return np.linalg.svd(s, compute_uv=False)


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
    ``(loss, None)`` from the values of :func:`spectrum`.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    k = s.shape[-1]
    if s.shape[-2] != k:
        raise ValueError(f"expected square matrices, got shape {s.shape}")
    if grad:
        u, sigma, vh = _stack_map(np.linalg.svd, s)
    else:
        sigma = _stack_map(spectrum, s)
    tail = sigma[..., r:]
    loss = float(np.sum(tail / (tail + 1.0)))
    if not grad:
        return loss, None
    zero = k * np.finfo(np.float64).eps * sigma[..., :1]
    weights = np.where(tail > zero, 1.0 / (tail + 1.0) ** 2, 0.0)
    return loss, (u[..., :, r:] * weights[..., None, :]) @ vh[..., r:, :]


# Usable CPUs (1 where they cannot be read); the fewest matrices worth a thread.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_MIN_PART = 16
_pool = None
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _submit(fn, arg):
    """``fn(arg)`` queued on the pool, built on first use with ``_WORKERS - 1``
    threads: the caller is its first worker and runs work of its own."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # deferred: ~7 ms to import
        _pool = ThreadPoolExecutor(_WORKERS - 1)
    return _pool.submit(fn, arg)


def _stack_map(fn, s: np.ndarray):
    """``fn(s)`` for a numpy call that factors each matrix of a (n, T, T)
    stack on its own, run as up to ``_WORKERS`` slices of ``_MIN_PART`` or
    more matrices: the caller takes the first, the pool the others; results
    are gathered in order, so it is bit-identical to one call."""
    parts = min(_WORKERS, s.shape[0] // _MIN_PART) if s.ndim == 3 else 1
    if parts < 2:
        return fn(s)
    first, *rest = np.array_split(s, parts)
    futures = [_submit(fn, part) for part in rest]
    outs = [fn(first)] + [f.result() for f in futures]
    if isinstance(outs[0], tuple):
        return tuple(map(np.concatenate, zip(*outs)))
    return np.concatenate(outs)


def overlap(produce, consume, items) -> list:
    """``[consume(produce(x)) for x in items]``, with ``consume`` of item k
    queued on the pool while the caller's thread runs ``produce`` of item
    k+1.  At most one ``consume`` is in flight, results come back in item
    order, and an exception from either side reaches the caller only after
    the last queued ``consume`` has finished.  With one usable CPU everything
    runs inline.

    ``consume`` must call nothing traced, nothing on the pool and not
    :func:`overlap`, so every traced call stays on the caller's thread."""
    if _WORKERS < 2:
        return [consume(produce(x)) for x in items]
    outs, pending = [], None
    try:
        for x in items:
            y = produce(x)
            if pending is not None:
                outs.append(pending.result())
            pending = _submit(consume, y)
        if pending is not None:
            outs.append(pending.result())
    finally:
        if pending is not None:
            pending.exception()  # waits for that consume without raising
    return outs


def softmax_last(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an arbitrary stack; -inf entries map
    to exact zeros, and a row of all -inf (which only overflowed logits
    give: :func:`causal_mask` keeps the diagonal) comes back nan.

    The work runs on a key-major array, the reduced axis moved to the front
    and C-contiguous, where max, sum and scaling act on whole slabs, not
    short rows; the result is a view of it in the input's orientation.  An
    input that is already key-major (``np.moveaxis(a, -1, 0)`` C-contiguous,
    as :func:`alorat.attention.forward_t` writes its logits) is softmaxed in
    place and overwritten; any other input is copied and left unchanged."""
    e = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    e -= np.max(e, axis=0)
    np.exp(e, out=e)
    e *= 1.0 / np.sum(e, axis=0)
    return np.moveaxis(e, 0, -1)


def causal_mask(t: int) -> np.ndarray:
    """Additive mask blocking attention to future timesteps (strict upper
    triangle -inf)."""
    mk = np.zeros((t, t))
    mk[np.triu_indices(t, k=1)] = -np.inf
    return mk

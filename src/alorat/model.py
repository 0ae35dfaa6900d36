"""Encoder assembly: forward pass over windows, the training objective and
ADAM loop with early stopping, the singular-value-cutoff calibration, and
per-timestep anomaly scoring.

The anomaly score at a timestep is the squared reconstruction residual
multiplied by the count of final-layer attention singular values above the
calibrated cutoff h1.  The ``score`` command's alarm threshold h2 turns
scores into labels.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import attention, autograd as ag, embedding, linalg
from .autograd import Tensor
from .data import DataError, TimeSeriesFrame, NormStats, windows

CHECKPOINT_MAGIC = "ALORA3"


class NumericError(RuntimeError):
    """Training or scoring produced a non-finite value."""


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {"str": str, "int": int, "float": float,
            "bool": lambda raw: _BOOL_WORDS[raw.strip().lower()]}
_EXPECTED = {"str": "a string", "int": "an integer", "float": "a number", "bool": "a boolean"}


def parse_value(kind: str, raw: str, key: str, error: type[ValueError] = ValueError):
    """The one text-to-value conversion of config files and checkpoint
    headers.  ``kind`` is a :class:`TrainConfig` annotation (str, int, float
    or bool); text that does not parse raises ``error``."""
    parse = _PARSERS[kind]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise error(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}") from None


def check_limit(key: str, value, limit, error: type[ValueError] = ValueError):
    """The one range check of config keys.  A limit is a (requirement,
    test) pair; a value that fails the test raises ``error("{key} must be
    {requirement}")``.  A None value or limit passes."""
    if limit is not None and value is not None and not limit[1](value):
        raise error(f"{key} must be {limit[0]}")


def at_least(low):
    return (f">= {low}", lambda v: v >= low)


def between(low, high):
    return (f"in [{low}, {high}]", lambda v: low <= v <= high)


# The largest value of a key that sets an array dimension.  A parameter
# array spans at most two such sizes, so one too large to allocate is a
# MemoryError, never past numpy's limit of 2**63 bytes.
MAX_SIZE = 10**6


def one_of(*choices):
    return ("one of " + ", ".join(choices), lambda v: v in choices)


FINITE_AT_LEAST_0 = ("finite and >= 0", lambda v: 0 <= v < math.inf)
FINITE_ABOVE_0 = ("finite and > 0", lambda v: 0 < v < math.inf)


def _key(default, limit):
    return field(default=default, metadata={"limit": limit})


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; each field's metadata holds its limit."""

    t_window: int = _key(20, between(2, MAX_SIZE))
    d_model: int = _key(64, between(1, MAX_SIZE))
    heads: int = _key(8, between(1, MAX_SIZE))
    layers: int = _key(3, between(1, MAX_SIZE))
    lambda_reg: float = _key(10.0, FINITE_AT_LEAST_0)
    learning_rate: float = _key(1e-4, FINITE_ABOVE_0)
    max_epochs: int = _key(50, at_least(1))
    patience: int = _key(5, at_least(0))
    k_pairs: int = _key(512, at_least(1))
    r: int = _key(1, at_least(0))
    seed: int = _key(0, at_least(0))
    skip: bool = _key(True, None)
    activation: str = _key("identity", one_of(*attention.ACTIVATIONS))
    mask: str = _key("none", one_of("none", "causal"))
    batch_size: int = _key(64, between(1, MAX_SIZE))
    pair_method: str = _key("spearman", one_of("spearman", "pearson"))
    kernel_size: int = _key(3, (f"odd and in [1, {MAX_SIZE}]",
                                 lambda v: 1 <= v <= MAX_SIZE and v % 2 == 1))

    def __post_init__(self):
        for f in fields(self):
            check_limit(f.name, getattr(self, f.name), f.metadata["limit"])
        if self.d_model % self.heads:
            raise ValueError(f"heads {self.heads} must divide d_model {self.d_model}")


@dataclass
class Thresholds:
    """h1: singular-value cutoff for the rank score."""

    h1: float


def param_layout(cfg: TrainConfig, d_in: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter array of a ``cfg`` model on ``d_in`` series as (group
    name, shape) pairs, in :meth:`ModelParams.arrays` order."""
    return ([("kernels", (cfg.d_model, 2, cfg.kernel_size))]
            + attention.layer_shapes(cfg.d_model, cfg.heads) * cfg.layers
            + [("w_out", (cfg.d_model, d_in))])


def _body_layout(cfg: TrainConfig, d_in: int) -> list[tuple[str, tuple[int, ...]]]:
    """The checkpoint body as (block name, shape) pairs in file order: the
    channel pairs (int64), the :func:`param_layout` arrays, then the
    normalization mean and std (float64)."""
    return ([("pairs", (cfg.d_model, 2))] + param_layout(cfg, d_in)
            + [("mean", (d_in,)), ("std", (d_in,))])


def _check_layout(label: str, arrays: list[tuple[str, np.ndarray]], layout):
    """Raise ValueError naming the first of the (name, array) ``arrays``
    whose name or shape differs from ``layout`` or that holds a non-finite
    value."""
    # Layouts of other lengths already differ where the shorter has w_out.
    for (name, a), want in zip(arrays, layout):
        if (name, a.shape) != want:
            raise ValueError(f"{label} array {(name, a.shape)} differs from the config's {want}")
        if not np.isfinite(a).all():
            raise ValueError(f"{label} array {name!r} holds a non-finite value")


_LAYER_ARRAYS = tuple(name for name, _ in attention.layer_shapes(1, 1))


@dataclass
class ModelParams:
    kernels: embedding.EmbeddingKernels
    layers: list[attention.AttentionLayerParams]
    w_out: np.ndarray

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("need at least one attention layer")
        for i, layer in enumerate(self.layers):
            if layer.d_model != self.kernels.d_model:
                raise ValueError(f"layer {i} d_model {layer.d_model} != embedding d_model "
                                 f"{self.kernels.d_model}")
        want = (self.kernels.d_model, self.d_in)
        if self.w_out.shape != want:
            raise ValueError(f"w_out shape {self.w_out.shape} != (d_model, d) {want}")

    @property
    def d_in(self) -> int:
        return self.kernels.n_series

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter array with its group name, in the one order that
        copies, training gradients and checkpoints share: embedding kernels,
        then w_q, w_k, w_v, w_proj of each layer, then w_out."""
        out = [("kernels", self.kernels.weights)]
        for p in self.layers:
            out += [(name, getattr(p, name)) for name in _LAYER_ARRAYS]
        return out + [("w_out", self.w_out)]

    @classmethod
    def from_arrays(cls, n_series: int, pairs, arrays: list[np.ndarray]) -> "ModelParams":
        """Inverse of :meth:`arrays` from the bare arrays in that order."""
        per = len(_LAYER_ARRAYS)
        layers = [
            attention.AttentionLayerParams(**dict(zip(_LAYER_ARRAYS, arrays[i : i + per])))
            for i in range(1, len(arrays) - 1, per)
        ]
        kernels = embedding.EmbeddingKernels(n_series=n_series, pairs=pairs, weights=arrays[0])
        return cls(kernels=kernels, layers=layers, w_out=arrays[-1])

    def copy(self) -> "ModelParams":
        return ModelParams.from_arrays(
            self.d_in, self.kernels.pairs.copy(), [a.copy() for _, a in self.arrays()]
        )


@dataclass
class ScoreSeries:
    """Per-timestep detection outputs.  Timesteps before the first full
    window are scored from the first window.  The anomaly and rank scores
    are None when scoring ran without h1."""

    anomaly_score: np.ndarray | None
    alora_score: np.ndarray | None
    residual_sq: np.ndarray
    residual_sq_per_series: np.ndarray


@dataclass
class EpochStats:
    epoch: int
    train_total: float
    train_recon: float
    train_reg: float
    val_total: float


@dataclass
class TrainResult:
    """``selection`` is the pair ranking of the training data, also after a
    warm start whose channels keep other pairs.  ``stop_reason`` is
    ``patience`` or ``max_epochs``; h1 is the ``h1_sigma``-th singular value
    (4 or 5, the trailing one when T < 5) of window ``h1_window``."""
    params: ModelParams
    thresholds: Thresholds
    selection: embedding.PairSelection
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int | None = None
    stop_reason: str | None = None
    h1_window: int | None = None
    h1_sigma: int | None = None


# -- forward ---------------------------------------------------------------------


PARAM_GROUPS = ("kernels", *_LAYER_ARRAYS, "w_out")


def _recon_error(z: np.ndarray, w_out: np.ndarray, x: np.ndarray):
    """``sum((z @ w_out - x)**2)`` of a (..., T, d_model) latent stack, and
    ``backward(scale)``: the gradients of ``scale`` times it into (z, w_out)."""
    diff = z @ w_out - x

    def backward(scale):
        g = 2.0 * scale * diff
        # Batched product, then the sum over the batch: one flattened
        # (B*T)-row product would add the same terms in another order.
        g_w = np.swapaxes(z, -1, -2) @ g
        return g @ w_out.T, g_w.sum(axis=tuple(range(g_w.ndim - 2)))

    return np.sum(diff**2), backward


def attention_mask(cfg: TrainConfig) -> np.ndarray | None:
    """The additive attention mask that ``cfg.mask`` names, or None."""
    return linalg.causal_mask(cfg.t_window) if cfg.mask == "causal" else None


def _objective(x: np.ndarray, params: ModelParams, cfg: TrainConfig):
    """The training objective of a (B, T, d) batch: over B, the squared
    reconstruction error plus lambda times every layer's Geman penalty.

    Returns (objective, error, penalties).  The objective's ``backward()``
    runs the reverse pass: the output projection, each layer from the last
    to the first with its share of the penalties' gradient, then the
    embedding; it returns the C-contiguous gradients of
    :meth:`ModelParams.arrays`, in that order.  The backward-free form of
    the same sum is :func:`total_loss`."""
    mask = attention_mask(cfg)
    z, embed_back = embedding.pair_conv(x, params.kernels.weights, params.kernels.pairs)
    layers = []  # (backward, penalty, penalty gradient) per layer
    for p in params.layers:
        z, s_avg, _, back = attention.forward_t(
            z, p.w_q, p.w_k, p.w_v, p.w_proj, cfg.skip, cfg.activation, mask)
        layers.append((back, *linalg.geman_batch(s_avg, cfg.r)))
    error, error_back = _recon_error(z, params.w_out, x)
    pens = [pen for _, pen, _ in layers]
    scale = 1.0 / x.shape[0]
    weight = scale * cfg.lambda_reg
    value = sum([scale * error] + [weight * pen for pen in pens])

    def backward():
        d_z, d_out = error_back(scale)
        grads = [d_out]
        for back, _, d_pen in reversed(layers):
            d_z, *d_w = back(d_z, weight * d_pen)
            grads[:0] = d_w
        grads.insert(0, embed_back(d_z))
        return [np.ascontiguousarray(grad) for grad in grads]

    return Tensor(value, backward), error, pens


def batch_forward(x: np.ndarray, params: ModelParams, cfg: TrainConfig):
    """Inference over a (B, T, d) stack: reconstructions and the
    head-averaged attention matrices (B, T, T) of every layer.  Callers that
    read the final layer's singular values take them with
    :func:`alorat.linalg.spectrum`.  No backward outlives its kernel call."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.t_window or x.shape[2] != params.d_in:
        raise ValueError(
            f"window stack shape {x.shape} incompatible with "
            f"(T={cfg.t_window}, d={params.d_in})"
        )
    mask = attention_mask(cfg)
    z = embedding.pair_conv(x, params.kernels.weights, params.kernels.pairs)[0]
    s_layers = []
    for p in params.layers:
        z, s_avg = attention.forward_t(
            z, p.w_q, p.w_k, p.w_v, p.w_proj, cfg.skip, cfg.activation, mask)[:2]
        s_layers.append(s_avg)
    return z @ params.w_out, s_layers


def total_loss(batch: np.ndarray, params: ModelParams, cfg: TrainConfig) -> float:
    """Summed squared reconstruction error over a (B, T, d) batch plus the
    lambda-weighted Geman penalties of every layer's attention matrices."""
    recon, s_layers = batch_forward(batch, params, cfg)
    reg = sum(linalg.geman_batch(s, cfg.r, grad=False)[0] for s in s_layers)
    return float(np.sum((batch - recon) ** 2)) + cfg.lambda_reg * reg


# -- training ---------------------------------------------------------------------


def init_params(train, cfg: TrainConfig, rng: np.random.Generator):
    """Pair selection on the training frame (or its values), the ranked
    pairs cycled over the channels, and every array of :func:`param_layout`
    drawn from ``rng`` in order, uniform in +-1/sqrt(fan-in): the fan-in is
    2 * kernel_size for the kernels and d_model for every other array."""
    selection = embedding.select_pairs(train, cfg.k_pairs, cfg.pair_method)
    d = np.shape(getattr(train, "values", train))[1]
    arrays = []
    for name, shape in param_layout(cfg, d):
        bound = 1.0 / np.sqrt(2 * cfg.kernel_size if name == "kernels" else cfg.d_model)
        arrays.append(rng.uniform(-bound, bound, size=shape))
    params = ModelParams.from_arrays(d, selection.channels(cfg.d_model), arrays)
    return params, selection


def _mean_loss(win: np.ndarray, params: ModelParams, cfg: TrainConfig) -> float:
    """Mean per-window :func:`total_loss`, summed chunk by chunk."""
    total = sum(total_loss(chunk, params, cfg) for chunk in _chunks(win, cfg))
    return total / win.shape[0]


def _h1_from_params(win: np.ndarray, params: ModelParams, cfg: TrainConfig) -> float:
    """The cutoff alone of :func:`_h1_calibration`."""
    return _h1_calibration(win, params, cfg)[0]


def _h1_calibration(win: np.ndarray, params: ModelParams, cfg: TrainConfig):
    """The cutoff rule: the largest of the final layer's 4th and 5th
    singular values over every window (the trailing ones when T < 5).
    Returns (h1, window index, 1-based rank of the singular value), the
    first such window and rank on a tie."""
    idx = [i for i in (3, 4) if i < cfg.t_window] or [cfg.t_window - 1]

    def final_layer(chunk):
        return batch_forward(chunk, params, cfg)[1][-1]

    def sig_cols(s_final):
        return linalg.spectrum(s_final)[:, idx]

    traj = np.concatenate(linalg.overlap(final_layer, sig_cols, _chunks(win, cfg)), axis=0)
    window, col = divmod(int(np.argmax(traj)), len(idx))
    return float(traj[window, col]), window, idx[col] + 1


# Bytes of one chunk's (windows, heads, T, T) attention stack.  Chunks this
# small keep an inference pass's temporaries in cache, and the allocator
# reuses them from chunk to chunk instead of returning them to the kernel
# and faulting them in again.
CHUNK_BYTES = 1 << 20


def _chunk_windows(cfg: TrainConfig) -> int:
    """Windows per inference chunk: :data:`CHUNK_BYTES` of attention."""
    return max(1, CHUNK_BYTES // (8 * cfg.heads * cfg.t_window**2))


def _chunks(win: np.ndarray, cfg: TrainConfig):
    """The one walker of every inference pass over a window stack."""
    size = _chunk_windows(cfg)
    for start in range(0, win.shape[0], size):
        yield win[start : start + size]


def train(
    train_frame: TimeSeriesFrame,
    cfg: TrainConfig,
    init: ModelParams | None = None,
    trainable=None,
) -> TrainResult:
    """ADAM training with early stopping on the last 10% of windows.

    The training frame is expected to be normalized already.  After the
    best parameters are restored, the 4th/5th singular-value trajectories
    of the final layer over the full training sequence set h1.

    ``init`` warm-starts from a copy of existing parameters, channel pairs
    included, and must have finite arrays in :func:`param_layout`;
    ``trainable`` restricts the optimized groups (subset of
    :data:`PARAM_GROUPS`), leaving the rest frozen.
    """
    groups = set(PARAM_GROUPS if trainable is None else trainable)
    unknown = groups - set(PARAM_GROUPS)
    if unknown:
        raise ValueError(f"unknown parameter groups: {sorted(unknown)}")
    win = windows(train_frame.values, cfg.t_window)
    num = win.shape[0]
    if num < 2:
        raise DataError("need at least 2 training windows for the validation split")
    n_val = max(1, num // 10)
    train_win = win[: num - n_val]
    val_win = win[num - n_val :]

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if init is None:
        params, selection = init_params(train_frame, cfg, rng)
    else:
        _check_layout("init", init.arrays(), param_layout(cfg, train_frame.d))
        params = init.copy()
        selection = embedding.select_pairs(train_frame, cfg.k_pairs, cfg.pair_method)
    trained = [name in groups for name, _ in params.arrays()]
    optimizer = ag.Adam([a for (_, a), keep in zip(params.arrays(), trained) if keep],
                        lr=cfg.learning_rate)

    best_val = np.inf
    wait = 0
    history: list[EpochStats] = []
    stop_reason = "max_epochs"

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(train_win.shape[0])
        recon_sum = 0.0
        reg_sum = 0.0
        try:
            for start in range(0, len(order), cfg.batch_size):
                x = train_win[order[start : start + cfg.batch_size]]
                loss, error, pens = _objective(x, params, cfg)
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite training loss at epoch {epoch}")
                optimizer.step([g for g, keep in zip(loss.backward(), trained) if keep])
                recon_sum += float(error)
                reg_sum += cfg.lambda_reg * sum(pens)
            # The last step's backward would stay alive under validation and
            # calibration, so it is dropped once per epoch.  Dropped after
            # every step, it lowers peak RSS, but the allocator then trims
            # and re-faults its heap every batch: a fit at the benchmark's
            # fit shape took 140k minor faults instead of 18k, and longer.
            del loss
            val_total = _mean_loss(val_win, params, cfg)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"numerical failure at epoch {epoch}: {exc}") from None
        if not np.isfinite(val_total):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        history.append(
            EpochStats(
                epoch=epoch,
                train_total=(recon_sum + reg_sum) / train_win.shape[0],
                train_recon=recon_sum / train_win.shape[0],
                train_reg=reg_sum / train_win.shape[0],
                val_total=val_total,
            )
        )
        if val_total < best_val:
            best_val = val_total
            best_params = params.copy()
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait > cfg.patience:
                stop_reason = "patience"
                break

    h1, h1_window, h1_sigma = _h1_calibration(win, best_params, cfg)
    return TrainResult(
        params=best_params,
        thresholds=Thresholds(h1=h1),
        history=history,
        selection=selection,
        best_epoch=best_epoch,
        stop_reason=stop_reason,
        h1_window=h1_window,
        h1_sigma=h1_sigma,
    )


# -- scoring ----------------------------------------------------------------------


def score_frame(
    frame: TimeSeriesFrame, params: ModelParams, cfg: TrainConfig, h1: float | None
) -> ScoreSeries:
    """Score every timestep: each t is the last row of its window; the
    first T-1 timesteps reuse the first window.  Windows are forwarded
    chunk by chunk from a view of ``frame``, so memory is the O(N·d)
    outputs plus two chunks: :func:`linalg.overlap` takes one chunk's
    spectrum on the pool while the caller forwards the next.  With
    ``h1=None`` no spectrum is taken and only the residuals are filled in
    (the anomaly and rank scores are None)."""
    values = frame.values
    n, d = values.shape
    t_len = cfg.t_window
    win = windows(values, t_len)

    res_per_series = np.empty((n, d))
    offset = 0

    def forward(chunk):
        """The chunk's residuals into ``res_per_series``; returns its
        final-layer attention.  A non-finite residual raises here, before
        the chunk's spectrum is taken."""
        nonlocal offset
        recon, s_layers = batch_forward(chunk, params, cfg)
        first, stop = offset + t_len - 1, offset + t_len - 1 + chunk.shape[0]
        res_per_series[first:stop] = (chunk[:, -1, :] - recon[:, -1, :]) ** 2
        if offset == 0:
            first = 0
            res_per_series[: t_len - 1] = (values[: t_len - 1] - recon[0, : t_len - 1]) ** 2
        offset += chunk.shape[0]
        bad = np.argwhere(~np.isfinite(res_per_series[first:stop]))
        if bad.size:
            t, j = bad[0]
            raise NumericError(f"non-finite reconstruction residual of series "
                               f"{frame.names[j]} at timestep {first + t}")
        return s_layers[-1]

    if h1 is None:
        for chunk in _chunks(win, cfg):
            forward(chunk)
    else:
        def rank(s_final):
            return np.sum(linalg.spectrum(s_final) > h1, axis=1)

        counts = np.concatenate(linalg.overlap(forward, rank, _chunks(win, cfg)))

    residual_sq = res_per_series.sum(axis=1)
    alora = None if h1 is None else np.concatenate([np.full(t_len - 1, counts[0]), counts])
    score = residual_sq if alora is None else residual_sq * alora
    bad = np.flatnonzero(~np.isfinite(score))  # finite terms whose sum or product overflows
    if bad.size:
        raise NumericError(f"non-finite score at timestep {bad[0]}")
    return ScoreSeries(
        anomaly_score=None if alora is None else score,
        alora_score=alora,
        residual_sq=residual_sq,
        residual_sq_per_series=res_per_series,
    )


# -- checkpoint io ------------------------------------------------------------------

# Header keys after the TrainConfig fields, with their kinds.
_HEADER_EXTRAS = {"d_in": "int", "h1": "float", "norm_stats": "bool"}


def _check_body(label: str, blocks: list[tuple[str, np.ndarray]], layout, h1: float):
    """:func:`_check_layout` of checkpoint ``blocks`` against their
    :func:`_body_layout`, then a std >= 0 and a finite h1 >= 0."""
    _check_layout(label, blocks, layout)
    if (blocks[-1][1] < 0).any():
        raise ValueError(f"{label} array 'std' holds a negative value")
    if not 0 <= h1 < math.inf:
        raise ValueError(f"h1={h1} is not a finite value >= 0")


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig, h1: float,
                    norm_stats: NormStats):
    """Checkpoint v3: an ``ALORA3`` line, ``key=value`` lines (the
    TrainConfig fields in order, then d_in, h1 and ``norm_stats=True``), a
    ``crc32=`` line, a blank line, then the raw little-endian blocks of
    :func:`_body_layout`.  The CRC-32 (zlib, 8 hex digits) covers the header
    lines before it and the blocks.  The header text is also written to
    ``<path>.manifest.txt``.  Content that :func:`load_checkpoint` would
    refuse raises ValueError before anything is written."""
    blocks = ([("pairs", params.kernels.pairs)] + params.arrays()
              + [("mean", np.asarray(norm_stats.mean)), ("std", np.asarray(norm_stats.std))])
    _check_body("saved", blocks, _body_layout(cfg, params.d_in), h1)
    header = {**asdict(cfg), "d_in": params.d_in, "h1": float(h1), "norm_stats": True}
    text = CHECKPOINT_MAGIC + "\n" + "".join(f"{key}={value}\n" for key, value in header.items())
    body = b"".join(np.asarray(a, "<i8" if name == "pairs" else "<f8").tobytes()
                    for name, a in blocks)
    text += f"crc32={zlib.crc32(body, zlib.crc32(text.encode('ascii'))):08x}\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii") + b"\n" + body)
    with open(f"{path}.manifest.txt", "w", encoding="ascii") as fh:
        fh.write(text)


def load_checkpoint(path):
    """Returns (params, cfg, h1, norm_stats).  A file that is not a
    complete v3 checkpoint whose :func:`_body_layout` blocks pass the checks
    of :func:`save_checkpoint` raises :class:`DataError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, body = raw.partition(b"\n\n")
    lines = head.split(b"\n")
    if lines[0] != CHECKPOINT_MAGIC.encode():
        raise DataError(f"{path}: not an {CHECKPOINT_MAGIC} checkpoint")
    covered, _, crc_line = head.rpartition(b"\n")
    if not sep or crc_line != b"crc32=%08x" % zlib.crc32(body, zlib.crc32(covered + b"\n")):
        raise DataError(f"{path}: checksum mismatch: damaged or truncated checkpoint")
    kinds = {**{f.name: f.type for f in fields(TrainConfig)}, **_HEADER_EXTRAS}
    try:
        items = [line.decode("ascii").partition("=") for line in lines[1:-1]]
    except UnicodeDecodeError:
        items = []
    if [key for key, _, _ in items] != list(kinds):
        raise DataError(f"{path}: damaged or truncated checkpoint header")
    values = {key: parse_value(kinds[key], text, f"{path}: {key}", DataError)
              for key, _, text in items}
    d_in, h1, has_stats = (values.pop(key) for key in _HEADER_EXTRAS)
    try:
        cfg = TrainConfig(**values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not 2 <= d_in <= MAX_SIZE or not math.isfinite(h1) or not has_stats:
        raise DataError(f"{path}: header has d_in={d_in}, h1={h1}, norm_stats={has_stats}")
    # A layer count the body cannot hold fails before the layout lists it.
    layer = attention.layer_shapes(cfg.d_model, cfg.heads)
    if 8 * cfg.layers * sum(math.prod(shape) for _, shape in layer) > len(body):
        raise DataError(f"{path}: truncated checkpoint")

    # Views into the file first: a header that claims more data than the
    # file holds fails here, before any array is allocated.
    layout = _body_layout(cfg, d_in)
    blocks, offset = [], 0
    try:
        for name, shape in layout:
            a = np.frombuffer(body, "<i8" if name == "pairs" else "<f8", math.prod(shape), offset)
            blocks.append((name, a.reshape(shape)))
            offset += a.nbytes
    except ValueError:
        raise DataError(f"{path}: truncated checkpoint") from None
    if offset != len(body):
        raise DataError(f"{path}: {len(body) - offset} trailing bytes")

    try:
        _check_body("checkpoint", blocks, layout, h1)
        params = ModelParams.from_arrays(d_in, blocks[0][1], [a for _, a in blocks[1:-2]])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return params, cfg, h1, NormStats(blocks[-2][1], blocks[-1][1])

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

__all__ = [
    "NumericError",
    "TrainConfig",
    "Thresholds",
    "ModelParams",
    "ScoreSeries",
    "LossTerms",
    "TrainResult",
    "init_params",
    "batch_forward",
    "total_loss",
    "train",
    "calibrate_h1",
    "score_frame",
    "save_checkpoint",
    "load_checkpoint",
    "parse_value",
]

CHECKPOINT_MAGIC = "ALORA2"


class NumericError(RuntimeError):
    """Training or scoring produced a non-finite value."""


@dataclass(frozen=True)
class TrainConfig:
    t_window: int = 20
    d_model: int = 64
    heads: int = 8
    layers: int = 3
    lambda_reg: float = 10.0
    learning_rate: float = 1e-4
    max_epochs: int = 50
    patience: int = 5
    k_pairs: int = 512
    r: int = 1
    seed: int = 0
    skip: bool = True
    activation: str = "identity"
    mask: str = "none"
    batch_size: int = 64
    pair_method: str = "spearman"
    kernel_size: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.lambda_reg) and self.lambda_reg >= 0):
            raise ValueError(f"lambda_reg must be finite and >= 0, got {self.lambda_reg!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.t_window < 2:
            raise ValueError("t_window must be >= 2")
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.heads < 1 or self.d_model < 1 or self.d_model % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide d_model {self.d_model}")
        if self.activation not in attention.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.mask not in ("none", "causal"):
            raise ValueError(f"unknown mask {self.mask!r}")
        if self.pair_method not in ("spearman", "pearson"):
            raise ValueError(f"unknown pair method {self.pair_method!r}")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd and >= 1")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0 or self.k_pairs < 1:
            raise ValueError("batch_size/max_epochs >= 1, patience >= 0, k_pairs >= 1")

    def mask_matrix(self) -> np.ndarray | None:
        return linalg.causal_mask(self.t_window) if self.mask == "causal" else None


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


@dataclass
class Thresholds:
    """h1: singular-value cutoff for the rank score."""

    h1: float | None = None

    def __post_init__(self):
        if self.h1 is not None and self.h1 < 0:
            raise ValueError("h1 must be >= 0")


_LAYER_ARRAYS = ("w_q", "w_k", "w_v", "w_proj")


@dataclass
class ModelParams:
    kernels: embedding.EmbeddingKernels
    layers: list[attention.AttentionLayerParams]
    w_out: np.ndarray

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("need at least one attention layer")
        d_model = self.kernels.d_model
        if self.w_out.shape[0] != d_model:
            raise ValueError(f"w_out rows {self.w_out.shape[0]} != d_model {d_model}")

    @property
    def d_model(self) -> int:
        return self.kernels.d_model

    @property
    def d_in(self) -> int:
        return self.kernels.n_series

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter array with its group name, in the one order that
        copies, training tensors and checkpoints share: embedding kernels,
        then w_q, w_k, w_v, w_proj of each layer, then w_out."""
        out = [("kernels", self.kernels.weights)]
        for p in self.layers:
            out += [(name, getattr(p, name)) for name in _LAYER_ARRAYS]
        return out + [("w_out", self.w_out)]

    @classmethod
    def from_arrays(cls, n_series: int, pairs, arrays: list[np.ndarray]) -> "ModelParams":
        """Inverse of :meth:`arrays` from the bare arrays in that order;
        layer ``l`` gets ``layer_index=l``."""
        per = len(_LAYER_ARRAYS)
        layers = [
            attention.AttentionLayerParams(
                **dict(zip(_LAYER_ARRAYS, arrays[1 + l * per : 1 + (l + 1) * per])), layer_index=l
            )
            for l in range((len(arrays) - 2) // per)
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
    window are scored from the first window and flagged.  The anomaly and
    rank scores are None when scoring ran without h1."""

    anomaly_score: np.ndarray | None
    alora_score: np.ndarray | None
    residual_sq: np.ndarray
    residual_sq_per_series: np.ndarray
    from_first_window: np.ndarray


@dataclass
class LossTerms:
    total: float
    recon: float
    reg: float


@dataclass
class EpochStats:
    epoch: int
    train_total: float
    train_recon: float
    train_reg: float
    val_total: float


@dataclass
class TrainResult:
    """``selection`` is None after a warm start whose channels it does not give."""
    params: ModelParams
    thresholds: Thresholds
    history: list[EpochStats] = field(default_factory=list)
    selection: embedding.PairSelection | None = None


# -- forward ---------------------------------------------------------------------


PARAM_GROUPS = ("kernels", *_LAYER_ARRAYS, "w_out")


def _forward_t(x: np.ndarray, leaves: list[Tensor], pairs: np.ndarray, cfg: TrainConfig):
    """Forward a (B, T, d) stack through the embedding and every layer;
    ``leaves`` are the parameter Tensors in :meth:`ModelParams.arrays`
    order, and ``w_out`` is left to the caller.

    Returns (final latent Tensor (B, T, d_model), list of head-averaged
    attention Tensors (B, T, T))."""
    mask = cfg.mask_matrix()
    z = embedding.pair_conv(x, leaves[0], pairs)
    s_avgs = []
    per = len(_LAYER_ARRAYS)
    for i in range(1, len(leaves) - 1, per):
        z, s_avg, _ = attention.forward_t(z, *leaves[i : i + per], cfg.skip, cfg.activation, mask)
        s_avgs.append(s_avg)
    return z, s_avgs


def _objective(x: np.ndarray, leaves: list[Tensor], pairs: np.ndarray, cfg: TrainConfig):
    """The training objective of a (B, T, d) batch on the tape: over B, the
    squared reconstruction error plus lambda times every layer's Geman
    penalty.  Returns (objective, error node, penalty nodes); the node-free
    form of the same sum is :func:`total_loss`."""
    z, s_avgs = _forward_t(x, leaves, pairs, cfg)
    error = ag.squared_error(z, leaves[-1], x)
    pens = [ag.geman_penalty(s_avg, cfg.r) for s_avg in s_avgs]
    scale = 1.0 / x.shape[0]
    weights = [scale] + [scale * cfg.lambda_reg] * len(pens)
    return ag.weighted_sum([error, *pens], weights), error, pens


def batch_forward(x: np.ndarray, params: ModelParams, cfg: TrainConfig):
    """Inference over a (B, T, d) stack: reconstructions and the
    head-averaged attention matrices (B, T, T) of every layer.  Callers that
    read the final layer's singular values take them with
    :func:`alorat.linalg.spectrum`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.t_window or x.shape[2] != params.d_in:
        raise ValueError(
            f"window stack shape {x.shape} incompatible with "
            f"(T={cfg.t_window}, d={params.d_in})"
        )
    leaves = [Tensor(a) for _, a in params.arrays()]
    z, s_avgs = _forward_t(x, leaves, params.kernels.pairs, cfg)
    return z.data @ params.w_out, [s.data for s in s_avgs]


def total_loss(batch, params: ModelParams, cfg: TrainConfig) -> LossTerms:
    """Summed squared reconstruction error over the batch plus the
    lambda-weighted Geman penalties of every layer's attention matrices."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    recon, s_layers = batch_forward(x, params, cfg)
    recon_term = float(np.sum((x - recon) ** 2))
    reg = sum(linalg.geman_batch(s, cfg.r, grad=False)[0] for s in s_layers)
    reg_term = cfg.lambda_reg * reg
    return LossTerms(total=recon_term + reg_term, recon=recon_term, reg=reg_term)


# -- training ---------------------------------------------------------------------


def init_params(values: np.ndarray, cfg: TrainConfig, rng: np.random.Generator):
    """Pair selection on the training values plus seeded parameter init."""
    selection = embedding.select_pairs(values, cfg.k_pairs, cfg.pair_method)
    kernels = embedding.init_kernels(
        selection, n_series=values.shape[1], d_model=cfg.d_model, m=cfg.kernel_size, rng=rng
    )
    layers = [
        attention.init_layer_params(cfg.d_model, cfg.heads, layer_index=l, rng=rng)
        for l in range(cfg.layers)
    ]
    bound = 1.0 / np.sqrt(cfg.d_model)
    w_out = rng.uniform(-bound, bound, size=(cfg.d_model, values.shape[1]))
    params = ModelParams(kernels=kernels, layers=layers, w_out=w_out)
    return params, selection


def _mean_loss(win: np.ndarray, params: ModelParams, cfg: TrainConfig) -> float:
    """Mean per-window :func:`total_loss`, summed chunk by chunk."""
    total = sum(total_loss(chunk, params, cfg).total for chunk in _chunks(win, cfg))
    return total / win.shape[0]


def calibrate_h1(fourth, fifth) -> float:
    """Cutoff rule: the maximum value observed across the two singular-value
    trajectories."""
    both = np.concatenate([np.asarray(fourth, dtype=np.float64).ravel(),
                           np.asarray(fifth, dtype=np.float64).ravel()])
    if both.size == 0:
        return 0.0
    return float(np.max(both))


def _h1_from_params(win: np.ndarray, params: ModelParams, cfg: TrainConfig) -> float:
    """:func:`calibrate_h1` over the final layer's 4th and 5th singular
    values on every window (the trailing ones when T < 5).  Each chunk's
    largest value is made exact by a second :func:`linalg.spectrum` call
    near it."""
    idx = [i for i in (3, 4) if i < cfg.t_window] or [cfg.t_window - 1]

    def final_layer(chunk):
        return batch_forward(chunk, params, cfg)[1][-1]

    def sig_cols(s_final):
        sigma = linalg.spectrum(s_final)[:, idx]
        return linalg.spectrum(s_final, near=float(sigma.max()))[:, idx]

    traj = np.concatenate(linalg.overlap(final_layer, sig_cols, _chunks(win, cfg)), axis=0)
    return calibrate_h1(traj[:, 0], traj[:, -1])


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

    ``init`` warm-starts from existing parameters; ``trainable`` restricts
    the optimized groups (subset of :data:`PARAM_GROUPS`), leaving the rest
    frozen.
    """
    groups = set(PARAM_GROUPS if trainable is None else trainable)
    unknown = groups - set(PARAM_GROUPS)
    if unknown:
        raise ValueError(f"unknown parameter groups: {sorted(unknown)}")
    values = train_frame.values
    if values.shape[0] < cfg.t_window:
        raise DataError(f"training length {values.shape[0]} shorter than window {cfg.t_window}")
    win = windows(values, cfg.t_window, stride=1)
    num = win.shape[0]
    if num < 2:
        raise DataError("need at least 2 training windows for the validation split")
    n_val = max(1, num // 10)
    train_win = win[: num - n_val]
    val_win = win[num - n_val :]

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if init is None:
        params, selection = init_params(values, cfg, rng)
    else:
        params = init.copy()
        selection = embedding.select_pairs(values, cfg.k_pairs, cfg.pair_method)
        if not np.array_equal(selection.channels(params.d_model), params.kernels.pairs):
            selection = None
    leaves = [Tensor(a, name in groups) for name, a in params.arrays()]
    optimizer = ag.Adam([t for t in leaves if t.requires_grad], lr=cfg.learning_rate)

    best_val = np.inf
    best_params = params.copy()
    wait = 0
    history: list[EpochStats] = []

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(train_win.shape[0])
        recon_sum = 0.0
        reg_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = train_win[idx]
            try:
                loss, error, pens = _objective(x, leaves, params.kernels.pairs, cfg)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"numerical failure at epoch {epoch}: {exc}") from None
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            recon_sum += float(error.data)
            reg_sum += cfg.lambda_reg * sum(float(pen.data) for pen in pens)
        # The last step's autodiff graph would stay alive under validation
        # and calibration.  Dropping it once per epoch, not per step, keeps
        # the allocator from trimming and re-faulting its heap every batch.
        del loss, error, pens

        current = ModelParams.from_arrays(
            params.d_in, params.kernels.pairs.copy(), [t.data.copy() for t in leaves]
        )
        try:
            val_total = _mean_loss(val_win, current, cfg)
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
            best_params = current
            wait = 0
        else:
            wait += 1
            if wait > cfg.patience:
                break

    h1 = _h1_from_params(win, best_params, cfg)
    return TrainResult(
        params=best_params,
        thresholds=Thresholds(h1=h1),
        history=history,
        selection=selection,
    )


# -- scoring ----------------------------------------------------------------------


def score_frame(
    frame: TimeSeriesFrame, params: ModelParams, cfg: TrainConfig, h1: float | None
) -> ScoreSeries:
    """Score every timestep: each t is the last row of its window; the
    first T-1 timesteps reuse the first window and are flagged.  Windows
    are forwarded chunk by chunk from a view of ``frame``, so memory is the
    O(N·d) outputs plus two chunks: the spectrum of one chunk is taken by
    :func:`linalg.overlap` while the next is forwarded.  With ``h1=None`` no
    spectrum is taken and only the residuals are filled in (the anomaly and
    rank scores are None)."""
    values = frame.values
    n, d = values.shape
    t_len = cfg.t_window
    if n < t_len:
        raise DataError(f"test length {n} shorter than window {t_len}")
    win = windows(values, t_len, stride=1)

    res_per_series = np.empty((n, d))
    offset = 0

    def forward(chunk):
        """The chunk's residuals into ``res_per_series``; returns its
        final-layer attention."""
        nonlocal offset
        recon, s_layers = batch_forward(chunk, params, cfg)
        if offset == 0:
            res_per_series[: t_len - 1] = (values[: t_len - 1] - recon[0, : t_len - 1]) ** 2
        res_per_series[offset + t_len - 1 : offset + t_len - 1 + chunk.shape[0]] = (
            chunk[:, -1, :] - recon[:, -1, :]
        ) ** 2
        offset += chunk.shape[0]
        return s_layers[-1]

    if h1 is None:
        for chunk in _chunks(win, cfg):
            forward(chunk)
    else:
        def rank(s_final):
            return np.sum(linalg.spectrum(s_final, near=h1) > h1, axis=1)

        counts = np.concatenate(linalg.overlap(forward, rank, _chunks(win, cfg)))

    residual_sq = res_per_series.sum(axis=1)
    if not np.isfinite(residual_sq).all():
        raise NumericError("non-finite reconstruction residuals")
    alora = None if h1 is None else np.concatenate([np.full(t_len - 1, counts[0]), counts])
    from_first = np.zeros(n, dtype=bool)
    from_first[: t_len - 1] = True
    return ScoreSeries(
        anomaly_score=None if alora is None else residual_sq * alora,
        alora_score=alora,
        residual_sq=residual_sq,
        residual_sq_per_series=res_per_series,
        from_first_window=from_first,
    )


# -- checkpoint io ------------------------------------------------------------------

# Header keys after the TrainConfig fields, with their kinds.
_HEADER_EXTRAS = {"d_in": "int", "n_pairs": "int", "h1": "float", "norm_stats": "bool"}


def save_checkpoint(
    path,
    params: ModelParams,
    cfg: TrainConfig,
    selection: embedding.PairSelection,
    h1: float | None = None,
    norm_stats: NormStats | None = None,
):
    """Checkpoint v2: an ``ALORA2`` line, ``key=value`` lines (the
    TrainConfig fields in order, then d_in, n_pairs, h1 and norm_stats; an
    uncalibrated h1 is written as nan), a ``crc32=`` line, a blank line,
    then raw little-endian blocks: the ranked pairs as int64, their scores,
    the :meth:`ModelParams.arrays` in order, and the optional normalization
    mean and std.  The CRC-32 (zlib, 8 hex digits) covers the header lines
    before it and the blocks.  The header text is also written to
    ``<path>.manifest.txt``.

    :func:`load_checkpoint` rebuilds the channel pairs from ``selection``,
    so params whose channels are not :meth:`PairSelection.channels` of it
    (a warm start keeps its own) raise ``ValueError``."""
    if not np.array_equal(params.kernels.pairs, selection.channels(params.d_model)):
        raise ValueError("channel pairs are not the selection's pairs cycled over the channels")
    header = {
        **asdict(cfg),
        "d_in": params.d_in,
        "n_pairs": len(selection.pairs),
        "h1": float("nan") if h1 is None else float(h1),
        "norm_stats": norm_stats is not None,
    }
    text = CHECKPOINT_MAGIC + "\n" + "".join(f"{key}={value}\n" for key, value in header.items())
    blocks = [a for _, a in params.arrays()]
    if norm_stats is not None:
        blocks += [norm_stats.mean, norm_stats.std]
    body = b"".join(
        [np.asarray(selection.pairs, dtype="<i8").tobytes(),
         np.asarray(selection.scores, dtype="<f8").tobytes()]
        + [np.asarray(block, dtype="<f8").tobytes() for block in blocks]
    )
    text += f"crc32={zlib.crc32(body, zlib.crc32(text.encode('ascii'))):08x}\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii") + b"\n" + body)
    with open(f"{path}.manifest.txt", "w", encoding="ascii") as fh:
        fh.write(text)


def load_checkpoint(path):
    """Returns (params, cfg, selection, h1, norm_stats).  A file that is not
    a complete v2 checkpoint raises :class:`DataError`."""
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
    d_in, n_pairs, h1, has_stats = (values.pop(key) for key in _HEADER_EXTRAS)
    try:
        cfg = TrainConfig(**values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if d_in < 2 or n_pairs < 1:
        raise DataError(f"{path}: header has d_in={d_in}, n_pairs={n_pairs}")

    # Views into the file first: a header that claims more data than the
    # file holds fails here, before any array is allocated.
    offset = 0

    def view(dtype, shape):
        nonlocal offset
        arr = np.frombuffer(body, dtype, math.prod(shape), offset).reshape(shape)
        offset += arr.nbytes
        return arr

    dm, dh = cfg.d_model, cfg.d_model // cfg.heads
    layer_shapes = [(cfg.heads, dm, dh)] * 3 + [(dm, dm)]
    try:
        pairs, scores = view("<i8", (n_pairs, 2)), view("<f8", (n_pairs,))
        blocks = [view("<f8", (dm, 2, cfg.kernel_size))]
        for _ in range(cfg.layers):
            blocks += [view("<f8", shape) for shape in layer_shapes]
        blocks.append(view("<f8", (dm, d_in)))
        stats = [view("<f8", (d_in,)) for _ in range(2 * has_stats)]
    except ValueError:
        raise DataError(f"{path}: truncated checkpoint") from None
    if offset != len(body):
        raise DataError(f"{path}: {len(body) - offset} trailing bytes")

    selection = embedding.PairSelection(
        pairs=tuple(map(tuple, pairs.tolist())), scores=scores.astype(np.float64)
    )
    try:
        params = ModelParams.from_arrays(
            d_in, selection.channels(dm), [b.astype(np.float64) for b in blocks]
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    norm_stats = NormStats(*(s.astype(np.float64) for s in stats)) if has_stats else None
    return params, cfg, selection, None if math.isnan(h1) else h1, norm_stats

"""Frames, CSV ingestion, preprocessing, and synthetic generators.

A :class:`TimeSeriesFrame` is an N x d float64 value matrix with unique
series names and optional per-step binary labels plus localization truth.
Preprocessing covers train-fitted z-normalization, block-mean downsampling,
and overlapping window extraction.  The synthetic side provides a seeded
bivariate mean-shift generator and a small additive anomaly injector
(spike / level shift / variance burst / trend).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .metrics import LocalizationTruth

__all__ = [
    "DataError",
    "TimeSeriesFrame",
    "NormStats",
    "load_csv",
    "save_csv",
    "load_loc_truth",
    "save_loc_truth",
    "normalize",
    "denormalize",
    "downsample_mean",
    "windows",
    "simulate_mean_shift",
    "inject_anomaly",
]

ANOMALY_KINDS = ("spike", "level_shift", "variance_burst", "trend")


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class TimeSeriesFrame:
    values: np.ndarray
    names: tuple[str, ...]
    labels: np.ndarray | None = None
    loc_truth: LocalizationTruth | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) != v.shape[1]:
            raise DataError(f"{len(self.names)} names for {v.shape[1]} series")
        if len(set(self.names)) != len(self.names):
            raise DataError("series names must be unique")
        if not np.isfinite(v).all():
            raise DataError("values must be finite (nan or inf found)")
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (v.shape[0],):
                raise DataError("labels length must match the number of rows")
            if not np.all((lab == 0) | (lab == 1)):
                raise DataError("labels must be 0 or 1")
            object.__setattr__(self, "labels", lab.astype(np.int8))
        if self.loc_truth is not None:
            self.loc_truth.validate_dims(v.shape[0], v.shape[1])

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-series mean/std fitted on training data; zero-std series are
    flagged and only centered."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def constant(self) -> np.ndarray:
        return self.std == 0.0


# -- CSV in/out -----------------------------------------------------------------


def load_csv(path, label_column: str | None = "label") -> TimeSeriesFrame:
    """Load a rectangular numeric CSV with a header row.

    A column whose name equals ``label_column`` (default "label") becomes the
    binary label sequence instead of a value series; a label cell that is
    not 0 or 1 is a :class:`DataError` naming its line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        label_idx = None
        if label_column is not None and label_column in header:
            label_idx = header.index(label_column)
        names = [h for i, h in enumerate(header) if i != label_idx]
        rows: list[list[float]] = []
        labels: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            try:
                parsed = [float(cell) for cell in row]
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            if label_idx is not None:
                label = parsed.pop(label_idx)
                if not np.isfinite(label):
                    raise DataError(f"{path}:{line_no}: non-finite label {label}")
                if label not in (0.0, 1.0):
                    raise DataError(f"{path}:{line_no}: label {label:g} is not 0 or 1")
                labels.append(int(label))
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite cell")
    return TimeSeriesFrame(
        values=values,
        names=tuple(names),
        labels=np.array(labels, dtype=np.int8) if label_idx is not None else None,
    )


def save_csv(frame: TimeSeriesFrame, path):
    """Write values (and labels, when present) with a header row.  Floats are
    written with a round-trip representation, so save -> load is bit-exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(frame.names)
        if frame.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(frame.n):
            cells = [repr(float(x)) for x in frame.values[i]]
            if frame.labels is not None:
                cells.append(str(int(frame.labels[i])))
            writer.writerow(cells)


def save_loc_truth(truth: LocalizationTruth, path):
    """Companion CSV of (timestep, series_index) rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestep,series_index\n")
        for t in sorted(truth.by_time):
            for i in sorted(truth.by_time[t]):
                fh.write(f"{t},{i}\n")


def load_loc_truth(path) -> LocalizationTruth:
    by_time: dict[int, set[int]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if line_no == 1 and row and row[0].strip().lower() == "timestep":
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{line_no}: expected 2 cells, got {len(row)}")
            try:
                t, i = int(row[0]), int(row[1])
            except ValueError:
                raise DataError(f"{path}:{line_no}: non-integer cell") from None
            by_time.setdefault(t, set()).add(i)
    return LocalizationTruth(by_time={t: frozenset(g) for t, g in by_time.items()})


# -- preprocessing ----------------------------------------------------------------


def normalize(frame: TimeSeriesFrame, stats: NormStats | None = None):
    """Per-series z-normalization.  Without ``stats`` the parameters are
    fitted on this frame; with ``stats`` (e.g. from the training split) they
    are applied as-is.  Zero-std series are centered only.

    Returns (normalized frame, stats).
    """
    if stats is None:
        mean = frame.values.mean(axis=0)
        std = frame.values.std(axis=0)
        stats = NormStats(mean=mean, std=std)
    elif stats.mean.shape != (frame.d,):
        raise DataError(f"stats have {stats.mean.shape[0]} series, frame has {frame.d}")
    safe_std = np.where(stats.std == 0.0, 1.0, stats.std)
    out = (frame.values - stats.mean) / safe_std
    return replace(frame, values=out), stats


def denormalize(frame: TimeSeriesFrame, stats: NormStats) -> TimeSeriesFrame:
    safe_std = np.where(stats.std == 0.0, 1.0, stats.std)
    return replace(frame, values=frame.values * safe_std + stats.mean)


def downsample_mean(frame: TimeSeriesFrame, factor: int) -> TimeSeriesFrame:
    """Average non-overlapping blocks of ``factor`` rows; a trailing partial
    block is averaged over its actual length.  Labels downsample by the
    any-positive rule; localization truth sets are unioned per block."""
    if factor < 1:
        raise DataError("factor must be >= 1")
    if factor == 1:
        return frame
    n_blocks = -(-frame.n // factor)
    values = np.empty((n_blocks, frame.d))
    for b in range(n_blocks):
        values[b] = frame.values[b * factor : (b + 1) * factor].mean(axis=0)
    labels = None
    if frame.labels is not None:
        labels = np.array(
            [int(frame.labels[b * factor : (b + 1) * factor].any()) for b in range(n_blocks)],
            dtype=np.int8,
        )
    loc_truth = None
    if frame.loc_truth is not None:
        by_time: dict[int, frozenset[int]] = {}
        for t, g in frame.loc_truth.by_time.items():
            b = t // factor
            by_time[b] = by_time.get(b, frozenset()) | g
        loc_truth = LocalizationTruth(by_time=by_time)
    return TimeSeriesFrame(values=values, names=frame.names, labels=labels, loc_truth=loc_truth)


def windows(values, t: int, stride: int = 1) -> np.ndarray:
    """Overlapping windows [s, s+t) for s = 0, stride, ...; shape
    (count, t, d) with count = floor((N - t) / stride) + 1.

    The result is a read-only view that shares memory with ``values``: no
    window is copied, so its ``nbytes`` counts every row once per window
    while it occupies only the N x d input.  Callers that write to windows
    copy them first, e.g. with ``np.array(win)``; fancy indexing such as
    ``win[idx]`` already returns a copy."""
    if isinstance(values, TimeSeriesFrame):
        values = values.values
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise DataError("windows expects an N x d array or frame")
    if stride < 1:
        raise DataError("stride must be >= 1")
    if v.shape[0] < t:
        raise DataError(f"series length {v.shape[0]} shorter than window {t}")
    return np.lib.stride_tricks.sliding_window_view(v, (t, v.shape[1]))[::stride, 0]


# -- synthetic data ----------------------------------------------------------------


def simulate_mean_shift(
    n: int = 500,
    t1: int = 200,
    t2: int = 300,
    delta: float = 3.0,
    mu=(0.0, 0.0),
    sigma=(1.0, 1.0),
    seed: int = 0,
) -> TimeSeriesFrame:
    """Bivariate i.i.d. Gaussian frame where the first series' mean is
    shifted by ``delta`` on [t1, t2).  Labels mark the shifted segment and
    the localization truth points at series 0 there."""
    if not 0 <= t1 < t2 <= n:
        raise DataError(f"need 0 <= t1 < t2 <= n, got t1={t1}, t2={t2}, n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    values = np.empty((n, 2))
    values[:, 0] = rng.normal(mu[0], sigma[0], size=n)
    values[:, 1] = rng.normal(mu[1], sigma[1], size=n)
    values[t1:t2, 0] += delta
    labels = np.zeros(n, dtype=np.int8)
    labels[t1:t2] = 1
    truth = LocalizationTruth(by_time={t: frozenset({0}) for t in range(t1, t2)})
    return TimeSeriesFrame(values=values, names=("x1", "x2"), labels=labels, loc_truth=truth)


def inject_anomaly(
    frame: TimeSeriesFrame,
    kind: str,
    series: int,
    at: tuple[int, int],
    magnitude: float,
    seed: int = 0,
) -> TimeSeriesFrame:
    """Additively inject an anomaly into one series over [start, end).

    ``magnitude`` is in units of the series' standard deviation:

    - ``spike``: impulse of magnitude*std at the segment's first timestep;
    - ``level_shift``: constant offset magnitude*std over the segment;
    - ``variance_burst``: zero-mean noise raising the segment std by the
      factor ``magnitude`` (requires magnitude >= 1 to have an effect);
    - ``trend``: linear ramp from 0 to magnitude*std across the segment.

    Labels cover the segment and the localization truth gains the series
    there.  Re-injecting into timesteps already attributed to the same
    series is rejected.
    """
    if kind not in ANOMALY_KINDS:
        raise DataError(f"unknown anomaly kind {kind!r}; choose from {ANOMALY_KINDS}")
    start, end = at
    if not 0 <= start < end <= frame.n:
        raise DataError(f"segment [{start}, {end}) outside [0, {frame.n})")
    if not 0 <= series < frame.d:
        raise DataError(f"series index {series} out of range")
    prior = frame.loc_truth.by_time if frame.loc_truth is not None else {}
    for t in range(start, end):
        if series in prior.get(t, frozenset()):
            raise DataError(f"series {series} already injected at timestep {t}")

    std = float(frame.values[:, series].std())
    scale = std if std > 0 else 1.0
    values = frame.values.copy()
    if kind == "spike":
        values[start, series] += magnitude * scale
    elif kind == "level_shift":
        values[start:end, series] += magnitude * scale
    elif kind == "variance_burst":
        noise_std = scale * np.sqrt(max(magnitude**2 - 1.0, 0.0))
        rng = np.random.Generator(np.random.PCG64(seed))
        values[start:end, series] += rng.normal(0.0, 1.0, size=end - start) * noise_std
    elif kind == "trend":
        ramp = np.linspace(0.0, magnitude * scale, num=end - start)
        values[start:end, series] += ramp

    labels = np.zeros(frame.n, dtype=np.int8) if frame.labels is None else frame.labels.copy()
    labels[start:end] = 1
    by_time = dict(prior)
    for t in range(start, end):
        by_time[t] = by_time.get(t, frozenset()) | {series}
    return TimeSeriesFrame(
        values=values,
        names=frame.names,
        labels=labels,
        loc_truth=LocalizationTruth(by_time=by_time),
    )

"""Frames, the CSV table format, preprocessing, and synthetic generators.

A :class:`TimeSeriesFrame` is an N x d float64 value matrix with unique
series names and optional per-step binary labels plus localization truth.
Every CSV the package reads or writes goes through :func:`read_table` and
:func:`write_table`.  ``np.loadtxt`` parses a table's rows; a file it
rejects, or parses into a table that breaks a rule, is walked row by row
with ``float``, which accepts ``1_000`` and non-ASCII digits and otherwise
names the line of the first fault.
Preprocessing covers train-fitted z-normalization, block-mean downsampling,
and overlapping window extraction.  The synthetic side provides a seeded
bivariate mean-shift generator and a small additive anomaly injector
(spike / level shift / variance burst / trend).
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

ANOMALY_KINDS = ("spike", "level_shift", "variance_burst", "trend")
TRUTH_HEADER = ["timestep", "series_index"]
# Tables are converted between text and float64 this many rows at a time,
# so the per-cell Python objects of a conversion never span a whole file.
TABLE_CHUNK_ROWS = 1024


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class LocalizationTruth:
    """Ground truth for localization: the set of anomalous series indices
    at each anomalous timestep.  Timesteps without an entry are normal."""

    by_time: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        self.by_time = {int(t): frozenset(int(i) for i in g) for t, g in self.by_time.items()}
        for t, g in self.by_time.items():
            if not g:
                raise DataError(f"empty truth set at timestep {t}")

    def validate_dims(self, n: int, d: int):
        for t, g in self.by_time.items():
            if not 0 <= t < n:
                raise DataError(f"truth timestep {t} out of range [0, {n})")
            if min(g) < 0 or max(g) >= d:
                raise DataError(f"truth series index out of range [0, {d}) at t={t}")

    def segment_set(self, segment) -> frozenset[int]:
        """Union of truth sets over the half-open ``segment``'s timesteps."""
        steps = range(segment.start, segment.end)
        return frozenset().union(*(self.by_time.get(t, ()) for t in steps))


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
    only centered."""

    mean: np.ndarray
    std: np.ndarray


# -- CSV tables ------------------------------------------------------------------


def read_table(path):
    """Read a rectangular numeric CSV with a header row.

    Returns (header, N x columns float64 array).  A ragged row (a blank line
    included), a cell that ``float`` rejects and a non-finite cell are each a
    :class:`DataError` naming ``path:line``; so are an empty file, a
    header without rows and a cell that ``csv`` rejects (one longer than
    its field size limit).  A leading UTF-8 byte-order mark is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = next(csv.reader(fh), None)
            lines = fh.readlines()
        table = _parse_rows(lines)
        if (table is None or table.shape != (len(lines), len(header))
                or not np.isfinite(table).all()):
            header, blocks = _read_blocks(path)
            if not blocks:
                raise DataError(f"{path}: no rows")
            table = np.concatenate(blocks)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # such as a cell over csv's field size limit
        raise DataError(f"{path}: {exc}") from None
    return header, table


def _parse_rows(lines):
    """``np.loadtxt`` of the data lines, or None where it raises or warns.
    It skips blank lines, which :func:`read_table` catches by comparing
    the row count with the line count."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
    except (ValueError, Warning):
        return None


def _read_blocks(path):
    """:func:`read_table`'s header and checked row blocks."""
    blocks = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        numbered = _numbered_rows(reader)
        while chunk := list(itertools.islice(numbered, TABLE_CHUNK_ROWS)):
            line_nos, rows = zip(*chunk)
            try:
                block = np.array(rows, dtype=np.float64)
            except ValueError:
                block = None
            if block is None or block.shape[1] != len(header):
                for line_no, row in chunk:
                    if len(row) != len(header):
                        raise DataError(
                            f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
                    try:
                        list(map(float, row))
                    except ValueError as exc:
                        raise DataError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                raise DataError(f"{path}:{line_nos[int(np.argmin(finite))]}: non-finite cell")
            blocks.append(block)
    return header, blocks


def _numbered_rows(reader):
    """Each row of ``reader`` with its first physical line (a quoted cell can span lines)."""
    start = reader.line_num + 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def _line_of(path, row: int) -> int:
    """The first physical line of :func:`read_table` row ``row`` of ``path``."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return next(itertools.islice(_numbered_rows(reader), row, None))[0]


def write_table(path, header, columns):
    """Write a header row, then one row per index of the equal-length
    ``columns``, as ``csv.writer`` would.  Numbers are written with their
    round-trip ``repr``, so :func:`read_table` restores them bit-exactly."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, len(columns[0]), TABLE_CHUNK_ROWS):
            stop = start + TABLE_CHUNK_ROWS
            cells = [map(_quote if c.dtype.kind == "U" else repr, c[start:stop].tolist())
                     for c in columns]
            fh.writelines([",".join(row) + "\n" for row in zip(*cells)])


def _quote(text: str) -> str:
    """A string cell as ``csv.writer`` writes it beside other cells."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def load_csv(path, label_column: str | None = "label") -> TimeSeriesFrame:
    """Load a :func:`read_table` CSV as a frame.

    A column whose name equals ``label_column`` (default "label") becomes the
    binary label sequence instead of a value series; a label cell that is
    not 0 or 1 is a :class:`DataError` naming its line.
    """
    header, values = read_table(path)
    labels = None
    if label_column is not None and label_column in header:
        idx = header.index(label_column)
        labels = values[:, idx]
        bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
        if bad.size:
            raise DataError(f"{path}:{_line_of(path, bad[0])}: "
                            f"label {labels[bad[0]]:g} is not 0 or 1")
        values = np.delete(values, idx, axis=1)
        del header[idx]
    return TimeSeriesFrame(values=values, names=tuple(header), labels=labels)


def save_csv(frame: TimeSeriesFrame, path):
    """Write values (and labels, when present) with a header row; save ->
    load is bit-exact.  A value series named ``label`` would load back as
    the labels, so it is a :class:`DataError`."""
    if "label" in frame.names:
        raise DataError(f"{path}: a value series named 'label' would load as the labels")
    header, columns = list(frame.names), list(frame.values.T)
    if frame.labels is not None:
        header.append("label")
        columns.append(frame.labels)
    write_table(path, header, columns)


def save_loc_truth(truth: LocalizationTruth, path):
    """Companion CSV of (timestep, series_index) rows."""
    rows = [(t, i) for t in sorted(truth.by_time) for i in sorted(truth.by_time[t])]
    write_table(path, TRUTH_HEADER, [[t for t, _ in rows], [i for _, i in rows]])


def load_loc_truth(path) -> LocalizationTruth:
    """Read a :func:`save_loc_truth` CSV; every cell must be a non-negative
    integer that fits in int64 (below 2**63)."""
    header, cells = read_table(path)
    if header != TRUTH_HEADER:
        raise DataError(f"{path}: expected header {','.join(TRUTH_HEADER)}")
    bad = np.flatnonzero(((cells < 0) | (cells >= 2.0**63) | (cells != np.floor(cells)))
                         .any(axis=1))
    if bad.size:
        raise DataError(f"{path}:{_line_of(path, bad[0])}: cells must be non-negative integers")
    by_time: dict[int, set[int]] = {}
    for t, i in cells.astype(np.int64).tolist():
        by_time.setdefault(t, set()).add(i)
    return LocalizationTruth(by_time=by_time)


# -- preprocessing ----------------------------------------------------------------


def normalize(frame: TimeSeriesFrame, stats: NormStats | None = None):
    """Per-series z-normalization.  Without ``stats`` the parameters are
    fitted on this frame; with ``stats`` (e.g. from the training split) they
    are applied as-is.  Zero-std series are centered only.  A fitted mean
    or std that overflows float64 is a :class:`DataError` naming its series.

    Returns (normalized frame, stats).
    """
    if stats is None:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = frame.values.mean(axis=0)
            std = frame.values.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            names = ", ".join(frame.names[i] for i in np.flatnonzero(bad))
            raise DataError(f"series {names}: fitted mean or std is not finite (float64 overflow)")
        stats = NormStats(mean=mean, std=std)
    elif stats.mean.shape != (frame.d,):
        raise DataError(f"stats have {stats.mean.shape[0]} series, frame has {frame.d}")
    safe_std = np.where(stats.std == 0.0, 1.0, stats.std)
    out = (frame.values - stats.mean) / safe_std
    return replace(frame, values=out), stats


def downsample_mean(frame: TimeSeriesFrame, factor: int) -> TimeSeriesFrame:
    """Average non-overlapping blocks of ``factor`` rows; a trailing partial
    block is averaged over its actual length.  Labels downsample by the
    any-positive rule; localization truth sets are unioned per block."""
    if factor < 1:
        raise DataError("factor must be >= 1")
    if factor == 1:
        return frame
    n, d = frame.values.shape
    factor = min(factor, max(n, 1))  # a factor above n makes the same one block
    cut = n - n % factor
    values = frame.values[:cut].reshape(cut // factor, factor, d).mean(axis=1)
    if cut < n:
        values = np.vstack([values, frame.values[cut:].mean(axis=0)])
    labels = None
    if frame.labels is not None:
        labels = np.maximum.reduceat(frame.labels, np.arange(0, n, factor))
    loc_truth = None
    if frame.loc_truth is not None:
        by_time: dict[int, frozenset[int]] = {}
        for t, g in frame.loc_truth.by_time.items():
            b = t // factor
            by_time[b] = by_time.get(b, frozenset()) | g
        loc_truth = LocalizationTruth(by_time=by_time)
    return TimeSeriesFrame(values=values, names=frame.names, labels=labels, loc_truth=loc_truth)


def windows(values, t: int) -> np.ndarray:
    """Overlapping windows [s, s+t) for s = 0, 1, ..., N - t of an N x d
    array; shape (N - t + 1, t, d).

    The result is a read-only view that shares memory with ``values``: no
    window is copied, so its ``nbytes`` counts every row once per window
    while it occupies only the N x d input.  Callers that write to windows
    copy them first, e.g. with ``np.array(win)``; fancy indexing such as
    ``win[idx]`` already returns a copy."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise DataError("windows expects an N x d array")
    if v.shape[0] < t:
        raise DataError(f"series length {v.shape[0]} shorter than window {t}")
    return np.lib.stride_tricks.sliding_window_view(v, (t, v.shape[1]))[:, 0]


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
    values = np.column_stack([rng.normal(mu[i], sigma[i], size=n) for i in (0, 1)])
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
    return replace(frame, values=values, labels=labels,
                   loc_truth=LocalizationTruth(by_time=by_time))

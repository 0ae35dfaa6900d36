"""Detection and localization evaluation.

Detection: point-wise best-F1 threshold sweep and event-level
"affiliation-style" precision/recall built on directed temporal distances.
Localization: hit rate and NDCG over the top ``ceil(|G| * P%)`` ranked
series per timestep, and the segment-level interpretation score (IPS).

The affiliation-style metrics here are a declared approximation: the
affinity of an event to the other side is ``max(0, 1 - gap / horizon)``
where ``gap`` is the directed Hausdorff distance from the event's timesteps
to the union of the other side's timesteps.  They are not claimed identical
to any external reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import write_table


@dataclass(frozen=True, order=True)
class EventSegment:
    """Half-open anomaly segment [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"empty segment [{self.start}, {self.end})")

    def timesteps(self) -> np.ndarray:
        return np.arange(self.start, self.end)


def events_from_labels(labels) -> list[EventSegment]:
    """Maximal runs of positive labels as segments."""
    lab = np.asarray(labels).astype(bool)
    if lab.ndim != 1:
        raise ValueError("labels must be 1-D")
    padded = np.concatenate(([False], lab, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return [EventSegment(int(s), int(e)) for s, e in zip(starts, ends)]


# -- detection ----------------------------------------------------------------


def f1_sweep_curve(scores, labels):
    """Point-wise precision/recall/F1 at every distinct score value used as
    an inclusive threshold (alarm when score >= threshold).

    Returns (thresholds, precision, recall, f1), thresholds descending.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("no positive labels; F1 undefined")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    cum_tp = np.cumsum(y_sorted)
    # one sweep point per distinct value, at the last (lowest) index of its run
    last_of_value = np.flatnonzero(np.diff(s_sorted, append=np.nan) != 0)
    tp = cum_tp[last_of_value].astype(np.float64)
    n_pred = (last_of_value + 1).astype(np.float64)
    precision = tp / n_pred
    recall = tp / n_pos
    denom = precision + recall
    f1 = np.where(denom > 0, 2 * precision * recall / np.where(denom > 0, denom, 1.0), 0.0)
    return s_sorted[last_of_value], precision, recall, f1


def best_f1_sweep(scores, labels) -> tuple[float, float, float, float]:
    """Best point-wise F1 over all distinct-score thresholds.

    Returns (f1, precision, recall, threshold); ties on F1 resolve to the
    smallest threshold.
    """
    thresholds, precision, recall, f1 = f1_sweep_curve(scores, labels)
    best = len(f1) - 1 - int(np.argmax(f1[::-1]))  # thresholds descend: last max is smallest
    return float(f1[best]), float(precision[best]), float(recall[best]), float(thresholds[best])


class AffiliationResult(NamedTuple):
    precision: float
    recall: float
    f1: float
    empty_predictions: bool


def _directed_gap(event: EventSegment, other_points: np.ndarray) -> float:
    """Directed Hausdorff distance from the event's timesteps to a sorted
    array of timesteps on the other side."""
    pts = event.timesteps()
    pos = np.searchsorted(other_points, pts)
    left = np.where(pos > 0, pts - other_points[np.maximum(pos - 1, 0)], np.inf)
    right = np.where(
        pos < len(other_points), other_points[np.minimum(pos, len(other_points) - 1)] - pts, np.inf
    )
    return float(np.max(np.minimum(left, right)))


def _event_points(events: Sequence[EventSegment]) -> np.ndarray:
    if not events:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([e.timesteps() for e in events]))


def affiliation_pr(pred_events, true_events, horizon: int) -> AffiliationResult:
    """Affiliation-style event precision/recall/F1.

    Each predicted event contributes affinity max(0, 1 - gap/horizon)
    against the union of true timesteps (precision); recall swaps roles.
    An empty prediction set yields precision 0 with the flag set.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not true_events:
        raise ValueError("true event set must be non-empty")
    true_pts = _event_points(true_events)
    empty = len(pred_events) == 0
    if empty:
        precision = 0.0
    else:
        precision = float(
            np.mean([max(0.0, 1.0 - _directed_gap(p, true_pts) / horizon) for p in pred_events])
        )
    if empty:
        recall = 0.0
    else:
        pred_pts = _event_points(pred_events)
        recall = float(
            np.mean([max(0.0, 1.0 - _directed_gap(t, pred_pts) / horizon) for t in true_events])
        )
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return AffiliationResult(precision, recall, f1, empty)


# -- localization --------------------------------------------------------------


def _top_k_count(n_truth: int, p_percent: int) -> int:
    return math.ceil(n_truth * p_percent / 100)


def hit_rate(ranked, g, p_percent: int) -> float:
    """Fraction of the truth set found in the top ceil(|g| * P%) ranks."""
    truth = set(int(i) for i in g)
    if not truth:
        raise ValueError("empty truth set")
    k = _top_k_count(len(truth), p_percent)
    top = set(int(i) for i in list(ranked)[:k])
    return len(truth & top) / len(truth)


def ndcg(ranked, g, p_percent: int) -> float:
    """Rank-discounted hit quality over the top ceil(|g| * P%) ranks,
    normalized by the ideal prefix gain."""
    truth = set(int(i) for i in g)
    if not truth:
        raise ValueError("empty truth set")
    k = _top_k_count(len(truth), p_percent)
    top = list(ranked)[:k]
    dcg = sum(1.0 / math.log2(j + 2) for j, idx in enumerate(top) if int(idx) in truth)
    idcg = sum(1.0 / math.log2(j + 2) for j in range(len(truth)))
    return dcg / idcg


def ips(las, segments: Sequence[EventSegment], seg_truth: Sequence) -> float:
    """Segment-level interpretation score.

    Per segment the score of each series is the max of its LAS over the
    segment; the top |G| series are the prediction and the segment scores
    |G ∩ P| / |G|.  Segments are equally weighted.
    """
    las = np.asarray(las, dtype=np.float64)
    if len(segments) != len(seg_truth):
        raise ValueError("segments and truth must align")
    if not segments:
        raise ValueError("need at least one segment")
    total = 0.0
    for seg, g in zip(segments, seg_truth):
        truth = set(int(i) for i in g)
        if not truth:
            raise ValueError(f"empty truth for segment [{seg.start}, {seg.end})")
        if seg.end > las.shape[0]:
            raise ValueError(f"segment [{seg.start}, {seg.end}) outside score range")
        series_score = las[seg.start : seg.end].max(axis=0)
        order = np.argsort(-series_score, kind="stable")
        pred = set(int(i) for i in order[: len(truth)])
        total += len(truth & pred) / len(truth)
    return total / len(segments)


# -- report output --------------------------------------------------------------


def write_report(path, entries: dict):
    """Flat key=value report file."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def write_sweep_csv(path, thresholds, precision, recall, f1):
    write_table(path, ["threshold", "precision", "recall", "f1"],
                [thresholds, precision, recall, f1])

import math

import numpy as np
import pytest

from alorat import metrics
from alorat.data import DataError, LocalizationTruth
from alorat.metrics import EventSegment


def sweep_oracle(scores, labels):
    """Exhaustive per-threshold evaluation; ties resolve to the smallest
    threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    best = None
    for thr in sorted(set(scores.tolist())):
        pred = scores >= thr
        tp = np.sum(pred & labels)
        precision = tp / pred.sum() if pred.sum() else 0.0
        recall = tp / labels.sum()
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        if best is None or f1 > best[0] + 1e-15:
            best = (f1, precision, recall, thr)
    return best


class TestBestF1Sweep:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8, 0.15])
        labels = np.array([0, 0, 1, 1, 0])
        f1, precision, recall, thr = metrics.best_f1_sweep(scores, labels)
        assert f1 == 1.0 and precision == 1.0 and recall == 1.0
        assert thr == 0.8

    def test_degenerate_equal_scores(self):
        scores = np.ones(10)
        labels = np.array([1, 0] * 5)
        f1, precision, recall, thr = metrics.best_f1_sweep(scores, labels)
        assert precision == 0.5  # the positive rate at the single threshold
        assert recall == 1.0
        assert thr == 1.0

    def test_against_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(10, 60))
            scores = np.round(rng.normal(size=n), 2)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            got = metrics.best_f1_sweep(scores, labels)
            exp = sweep_oracle(scores, labels)
            assert got[0] == pytest.approx(exp[0], abs=1e-12)
            assert got[3] == pytest.approx(exp[3], abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[3] = 1
        f1_a, p_a, r_a, _ = metrics.best_f1_sweep(scores, labels)
        f1_b, p_b, r_b, _ = metrics.best_f1_sweep(np.exp(5 * scores), labels)
        assert (f1_a, p_a, r_a) == pytest.approx((f1_b, p_b, r_b), abs=1e-12)

    def test_requires_positives(self):
        with pytest.raises(ValueError):
            metrics.best_f1_sweep(np.ones(5), np.zeros(5))


class TestAffiliation:
    def test_exact_match(self):
        events = [EventSegment(5, 10), EventSegment(20, 25)]
        res = metrics.affiliation_pr(events, events, horizon=10)
        assert res.precision == 1.0 and res.recall == 1.0 and res.f1 == 1.0

    def test_far_prediction_scores_zero_precision(self):
        pred = [EventSegment(100, 103)]
        truth = [EventSegment(0, 5)]
        res = metrics.affiliation_pr(pred, truth, horizon=10)
        assert res.precision == 0.0

    def test_shift_by_one(self):
        pred = [EventSegment(11, 21)]
        truth = [EventSegment(10, 20)]
        res = metrics.affiliation_pr(pred, truth, horizon=10)
        assert res.precision == pytest.approx(0.9)
        assert res.recall == pytest.approx(0.9)

    def test_empty_predictions_flagged(self):
        res = metrics.affiliation_pr([], [EventSegment(0, 3)], horizon=10)
        assert res.precision == 0.0 and res.f1 == 0.0
        assert res.empty_predictions

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.affiliation_pr([EventSegment(0, 1)], [], horizon=10)
        with pytest.raises(ValueError):
            metrics.affiliation_pr([EventSegment(0, 1)], [EventSegment(0, 1)], horizon=0)


class TestEventsFromLabels:
    def test_runs(self):
        labels = [0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        events = metrics.events_from_labels(labels)
        assert events == [EventSegment(1, 3), EventSegment(5, 6), EventSegment(7, 10)]

    def test_empty_and_full(self):
        assert metrics.events_from_labels(np.zeros(5)) == []
        assert metrics.events_from_labels(np.ones(5)) == [EventSegment(0, 5)]


class TestHitRate:
    def test_top_k_count_rule(self):
        # |G| = 3 at P = 150 inspects the top 5 ranks
        ranked = [9, 8, 7, 1, 2, 0]
        g = {0, 1, 2}
        assert metrics.hit_rate(ranked, g, 150) == pytest.approx(2 / 3)
        # at P = 100 only the top 3 count, none of which hit
        assert metrics.hit_rate(ranked, g, 100) == 0.0

    def test_both_of_two_found(self):
        assert metrics.hit_rate([4, 2, 0], {2, 4}, 100) == 1.0

    def test_one_of_two_found(self):
        assert metrics.hit_rate([4, 1, 0], {4, 7}, 100) == 0.5

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            metrics.hit_rate([0, 1], set(), 100)


class TestNdcg:
    def test_perfect_prefix(self):
        assert metrics.ndcg([3, 1, 0, 2], {3, 1}, 100) == pytest.approx(1.0)

    def test_no_hits(self):
        assert metrics.ndcg([5, 6, 7], {0, 1}, 100) == 0.0

    def test_single_truth_found_second(self):
        value = metrics.ndcg([9, 4, 7], {4}, 200)
        assert value == pytest.approx(1.0 / math.log2(3.0))

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ranked = rng.permutation(8)
            g = set(rng.choice(8, size=3, replace=False).tolist())
            for p in (100, 150):
                assert 0.0 <= metrics.ndcg(ranked, g, p) <= 1.0
                assert 0.0 <= metrics.hit_rate(ranked, g, p) <= 1.0

    def test_perfect_iff_truth_occupies_top_ranks(self):
        g = {0, 1, 2}
        assert metrics.ndcg([2, 0, 1, 5], g, 100) == pytest.approx(1.0)
        assert metrics.ndcg([2, 0, 5, 1], g, 100) < 1.0


class TestIps:
    def test_exact_prediction(self):
        las = np.zeros((10, 4))
        las[2:5, 1] = 3.0
        las[2:5, 3] = 2.0
        segs = [EventSegment(2, 5)]
        assert metrics.ips(las, segs, [{1, 3}]) == 1.0

    def test_disjoint_prediction(self):
        las = np.zeros((10, 4))
        las[2:5, 0] = 5.0
        assert metrics.ips(las, [EventSegment(2, 5)], [{1}]) == 0.0

    def test_equal_segment_weighting(self):
        las = np.zeros((20, 4))
        las[0:3, 0] = 9.0  # segment 1 predicts {0}, truth {0} -> 1.0
        las[10:12, 1] = 9.0  # segment 2 predicts {1, ...}, truth {1, 2} -> 0.5
        las[10:12, 0] = 8.0
        score = metrics.ips(las, [EventSegment(0, 3), EventSegment(10, 12)], [{0}, {1, 2}])
        assert score == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.ips(np.zeros((5, 2)), [EventSegment(0, 2)], [])
        with pytest.raises(ValueError):
            metrics.ips(np.zeros((5, 2)), [EventSegment(0, 9)], [{0}])


class TestLocalizationTruth:
    def test_round_trip_and_validation(self):
        truth = LocalizationTruth(by_time={3: {0, 2}, 4: {1}})
        truth.validate_dims(10, 3)
        with pytest.raises(ValueError):
            truth.validate_dims(10, 2)
        with pytest.raises(ValueError):
            truth.validate_dims(4, 3)
        with pytest.raises(ValueError):
            LocalizationTruth(by_time={1: set()})

    def test_negative_index_is_data_error(self):
        with pytest.raises(DataError):
            LocalizationTruth(by_time={3: {-1}}).validate_dims(10, 3)
        with pytest.raises(DataError):
            LocalizationTruth(by_time={-1: {1}}).validate_dims(10, 3)

    def test_segment_set_union(self):
        truth = LocalizationTruth(by_time={3: {0}, 4: {1}, 9: {2}})
        assert truth.segment_set(EventSegment(3, 6)) == {0, 1}


class TestReportOutput:
    def test_write_report(self, tmp_path):
        path = tmp_path / "report.txt"
        metrics.write_report(path, {"f1": 0.5, "note": "ok"})
        assert path.read_text() == "f1=0.5\nnote=ok\n"

    def test_write_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        metrics.write_sweep_csv(path, [1.0], [0.5], [0.25], [0.33])
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall,f1"
        assert len(lines) == 2

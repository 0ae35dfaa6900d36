import warnings

import numpy as np
import pytest

from alorat import data
from alorat.data import DataError, LocalizationTruth, TimeSeriesFrame


class TestCsv:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.5,6.5\n")
        frame = data.load_csv(path)
        assert frame.n == 3 and frame.d == 2
        assert frame.names == ("a", "b")
        assert frame.labels is None

    def test_label_column(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,label,b\n1.0,0,2.0\n3.0,0,4.0\n")
        frame = data.load_csv(path)
        assert frame.names == ("a", "b")
        np.testing.assert_array_equal(frame.labels, [0, 0])
        np.testing.assert_array_equal(frame.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = TimeSeriesFrame(
            values=rng.normal(size=(20, 3)) * 1e-7,
            names=("x", "y", "z"),
            labels=rng.integers(0, 2, size=20),
        )
        path = tmp_path / "rt.csv"
        data.save_csv(frame, path)
        loaded = data.load_csv(path)
        assert loaded.values.tobytes() == frame.values.tobytes()
        np.testing.assert_array_equal(loaded.labels, frame.labels)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match=":3"):
            data.load_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match=":3"):
            data.load_csv(path)

    @pytest.mark.parametrize(
        "text", ["a,b\n1.0,2.0\n3.0,nan\n", "a,b\n1.0,2.0\n-inf,4.0\n", "a,label\n1.0,0\n2.0,nan\n"]
    )
    def test_non_finite_reports_line(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=":3: non-finite"):
            data.load_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [("1.0,0\n2.0,300", 3), ("1.0,0\n2.0,0.5", 3), ("1.0,0\n2.0,-1", 3),
         ("1.0,0\n2.0,2", 3), ('"1\n",0\n2.0,3', 4)],
        ids=["300", "0.5", "-1", "2", "after_quoted_newline"],
    )
    def test_label_not_binary_reports_line(self, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,label\n{rows}\n")
        with pytest.raises(DataError, match=f":{line}: label .* is not 0 or 1"):
            data.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            data.load_csv(path)

    def test_names_needing_quotes_round_trip(self, tmp_path):
        frame = TimeSeriesFrame(values=np.ones((3, 2)), names=('pump, main', 'x"y'))
        path = tmp_path / "quoted.csv"
        data.save_csv(frame, path)
        loaded = data.load_csv(path)
        assert loaded.names == frame.names
        assert loaded.values.tobytes() == frame.values.tobytes()

    @pytest.mark.parametrize("values", [[0.5, 2.0], [0.0, 1.0]], ids=["real", "binary"])
    def test_value_series_named_label_rejected(self, tmp_path, values):
        """It would load back as the labels: an error for real values, and
        silently a label column for 0/1 values."""
        frame = TimeSeriesFrame(values=np.array([values, values[::-1]]), names=("label", "x"))
        with pytest.raises(DataError, match="named 'label'"):
            data.save_csv(frame, tmp_path / "f.csv")
        assert not (tmp_path / "f.csv").exists()

    def test_loc_truth_round_trip(self, tmp_path):
        truth = LocalizationTruth(by_time={5: {0, 2}, 9: {1}})
        path = tmp_path / "truth.csv"
        data.save_loc_truth(truth, path)
        loaded = data.load_loc_truth(path)
        assert loaded.by_time == truth.by_time


class TestFrameBoundary:
    """Every frame, however it is built, holds finite values and 0/1 labels."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.zeros((4, 2))
        values[2, 1] = bad
        with pytest.raises(DataError, match="finite"):
            TimeSeriesFrame(values=values, names=("a", "b"))

    @pytest.mark.parametrize("label", [300, 2, -1, 0.5, np.nan])
    def test_label_not_binary_rejected(self, label):
        labels = np.array([0, 1, label, 0], dtype=np.float64)
        with pytest.raises(DataError, match="0 or 1"):
            TimeSeriesFrame(values=np.zeros((4, 2)), names=("a", "b"), labels=labels)

    def test_binary_labels_of_any_dtype_kept(self):
        frame = TimeSeriesFrame(values=np.zeros((3, 1)), names=("a",),
                                labels=np.array([True, False, True]))
        assert frame.labels.dtype == np.int8
        assert frame.labels.tolist() == [1, 0, 1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_normalizing_into_overflow_rejected(self):
        # the mean of two finite values overflows to inf
        frame = TimeSeriesFrame(values=np.array([[1.7e308], [1.7e308]]), names=("a",))
        with pytest.raises(DataError, match="finite"):
            data.normalize(frame)


class TestNormalize:
    def test_fit_gives_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        frame = TimeSeriesFrame(values=rng.normal(3.0, 2.5, size=(100, 3)), names=("a", "b", "c"))
        normed, stats = data.normalize(frame)
        np.testing.assert_allclose(normed.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(normed.values.std(axis=0), 1.0, atol=1e-12)
        assert not (stats.std == 0).any()

    def test_constant_series_centered_and_flagged(self):
        values = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        frame = TimeSeriesFrame(values=values, names=("const", "ramp"))
        normed, stats = data.normalize(frame)
        np.testing.assert_array_equal(normed.values[:, 0], np.zeros(10))
        assert (stats.std == 0).tolist() == [True, False]

    def test_std_overflow_names_the_series(self):
        """Finite values whose std overflows: before, std was inf and the
        series silently became zeros without being flagged constant."""
        values = np.random.default_rng(3).normal(size=(120, 2))
        values[:, 1] *= 1e307
        frame = TimeSeriesFrame(values=values, names=("small", "big"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^series big: fitted mean or std is not finite"):
                data.normalize(frame)

    def test_apply_train_stats_matches_hand_computation(self):
        rng = np.random.default_rng(2)
        train = TimeSeriesFrame(values=rng.normal(size=(50, 2)), names=("a", "b"))
        test = TimeSeriesFrame(values=rng.normal(size=(30, 2)), names=("a", "b"))
        _, stats = data.normalize(train)
        normed, _ = data.normalize(test, stats)
        expected = (test.values - train.values.mean(axis=0)) / train.values.std(axis=0)
        np.testing.assert_allclose(normed.values, expected, atol=1e-15)

    def test_stats_invert_normalization(self):
        rng = np.random.default_rng(3)
        frame = TimeSeriesFrame(values=rng.normal(5.0, 3.0, size=(40, 3)), names=("a", "b", "c"))
        normed, stats = data.normalize(frame)
        back = normed.values * stats.std + stats.mean
        np.testing.assert_allclose(back, frame.values, atol=1e-12)

    def test_stats_dimension_check(self):
        frame = TimeSeriesFrame(values=np.zeros((5, 2)), names=("a", "b"))
        bad = data.NormStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DataError):
            data.normalize(frame, bad)


class TestDownsample:
    def test_factor_one_is_identity(self):
        frame = TimeSeriesFrame(values=np.arange(6.0).reshape(3, 2), names=("a", "b"))
        assert data.downsample_mean(frame, 1) is frame

    def test_block_means(self):
        frame = TimeSeriesFrame(values=np.array([[0.0], [2.0], [4.0], [6.0]]), names=("a",))
        out = data.downsample_mean(frame, 2)
        np.testing.assert_array_equal(out.values[:, 0], [1.0, 5.0])

    def test_trailing_partial_block(self):
        frame = TimeSeriesFrame(values=np.array([[0.0], [2.0], [10.0]]), names=("a",))
        out = data.downsample_mean(frame, 2)
        np.testing.assert_array_equal(out.values[:, 0], [1.0, 10.0])

    def test_labels_any_positive(self):
        frame = TimeSeriesFrame(
            values=np.zeros((4, 1)), names=("a",), labels=np.array([0, 1, 0, 0])
        )
        out = data.downsample_mean(frame, 2)
        np.testing.assert_array_equal(out.labels, [1, 0])

    def test_truth_unions_per_block(self):
        frame = TimeSeriesFrame(
            values=np.zeros((4, 2)),
            names=("a", "b"),
            labels=np.array([1, 1, 0, 0]),
            loc_truth=LocalizationTruth(by_time={0: {0}, 1: {1}}),
        )
        out = data.downsample_mean(frame, 2)
        assert out.loc_truth.by_time == {0: frozenset({0, 1})}


class TestWindows:
    def test_counts(self):
        values = np.arange(10.0).reshape(5, 2)
        assert data.windows(values, 2).shape == (4, 2, 2)
        assert data.windows(values, 5).shape == (1, 5, 2)

    def test_too_short(self):
        with pytest.raises(DataError):
            data.windows(np.zeros((3, 2)), 4)

    def test_last_rows_reconstruct_series(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(30, 3))
        win = data.windows(values, 7)
        np.testing.assert_array_equal(win[:, -1, :], values[6:])

    def test_window_contents(self):
        values = np.arange(8.0).reshape(4, 2)
        win = data.windows(values, 2)
        np.testing.assert_array_equal(win[1], values[1:3])

    def test_read_only_view_of_input(self):
        values = np.arange(20.0).reshape(10, 2)
        win = data.windows(values, 4)
        assert not win.flags.writeable
        assert np.shares_memory(win, values)
        with pytest.raises(ValueError):
            win[0, 0, 0] = 1.0


class TestSimulate:
    def test_default_shape_and_labels(self):
        frame = data.simulate_mean_shift(seed=0)
        assert frame.n == 500 and frame.d == 2
        assert frame.labels[:200].sum() == 0
        assert frame.labels[200:300].sum() == 100
        assert frame.labels[300:].sum() == 0
        assert frame.loc_truth.by_time[250] == frozenset({0})

    def test_seed_determinism(self):
        a = data.simulate_mean_shift(seed=42)
        b = data.simulate_mean_shift(seed=42)
        assert a.values.tobytes() == b.values.tobytes()
        c = data.simulate_mean_shift(seed=43)
        assert a.values.tobytes() != c.values.tobytes()

    def test_no_shift_when_delta_zero(self):
        frame = data.simulate_mean_shift(delta=0.0, seed=1)
        inside = frame.values[200:300, 0].mean()
        outside = np.concatenate([frame.values[:200, 0], frame.values[300:, 0]]).mean()
        assert abs(inside - outside) <= 4.0 / np.sqrt(100)

    def test_shift_statistics(self):
        frame = data.simulate_mean_shift(delta=3.0, mu=(1.0, 0.0), sigma=(1.0, 1.0), seed=2)
        inside = frame.values[200:300, 0].mean()
        assert abs(inside - 4.0) <= 4.0 / np.sqrt(100)

    def test_bounds_validation(self):
        with pytest.raises(DataError):
            data.simulate_mean_shift(n=100, t1=50, t2=40)


class TestInject:
    def _base(self, seed=5):
        rng = np.random.default_rng(seed)
        return TimeSeriesFrame(values=rng.normal(size=(300, 3)), names=("a", "b", "c"))

    def test_zero_magnitude_keeps_values(self):
        frame = self._base()
        out = data.inject_anomaly(frame, "level_shift", 1, (50, 80), 0.0)
        assert out.values.tobytes() == frame.values.tobytes()
        assert out.labels[50:80].all()
        assert out.loc_truth.by_time[60] == frozenset({1})

    def test_spike_becomes_series_max(self):
        frame = self._base()
        out = data.inject_anomaly(frame, "spike", 0, (100, 101), 10.0)
        assert np.argmax(out.values[:, 0]) == 100

    def test_variance_burst_scales_std(self):
        frame = self._base()
        out = data.inject_anomaly(frame, "variance_burst", 2, (100, 150), 3.0, seed=7)
        baseline = frame.values[:, 2].std()
        segment_std = out.values[100:150, 2].std()
        assert 2.0 * baseline <= segment_std <= 4.0 * baseline

    def test_trend_ramps(self):
        frame = self._base()
        out = data.inject_anomaly(frame, "trend", 0, (10, 60), 4.0)
        delta = out.values[:, 0] - frame.values[:, 0]
        assert delta[10] == 0.0
        assert delta[59] == pytest.approx(4.0 * frame.values[:, 0].std())
        assert np.all(np.diff(delta[10:60]) > 0)

    def test_overlapping_injection_rejected(self):
        frame = self._base()
        once = data.inject_anomaly(frame, "level_shift", 0, (10, 30), 2.0)
        with pytest.raises(DataError):
            data.inject_anomaly(once, "spike", 0, (25, 26), 5.0)
        # a different series in the same span is fine
        data.inject_anomaly(once, "spike", 1, (25, 26), 5.0)

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            data.inject_anomaly(self._base(), "wobble", 0, (0, 5), 1.0)

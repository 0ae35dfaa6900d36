"""The one CSV table format: golden bytes of every writer, the shared
reader's checks, and a guard that only `data` touches the csv module."""

import ast
import csv
import io
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from alorat import data, harness, localize, metrics
from alorat import model as model_mod
from alorat.data import DataError, LocalizationTruth
from alorat.embedding import PairSelection

NAMES = ("plain", "a,b", 'q"x')
VALUES = np.array([[1.5, -0.0, 1e-300], [0.1, 2.0, -3.25e7]])


def _frame():
    return data.TimeSeriesFrame(values=VALUES, names=NAMES, labels=np.array([0, 1]))


def _write_config(path, section, entries):
    path.write_text(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))


def write_save_csv(tmp_path):
    data.save_csv(_frame(), tmp_path / "frame.csv")
    return tmp_path / "frame.csv"


def write_loc_truth(tmp_path):
    truth = LocalizationTruth(by_time={7: {2, 0}, 3: {1}})
    data.save_loc_truth(truth, tmp_path / "truth.csv")
    return tmp_path / "truth.csv"


def write_las(tmp_path):
    localize.save_las_csv(tmp_path / "las.csv", VALUES, NAMES)
    return tmp_path / "las.csv"


def write_c_matrix(tmp_path):
    matrix = np.array([[1.0, -0.0, 1e-300], [2.5, 0.1, 3.0], [-1.0, 7.0, 1e20]])
    localize.save_matrix_csv(tmp_path / "c_matrix.csv", matrix, NAMES, NAMES)
    return tmp_path / "c_matrix.csv"


def write_sweep(tmp_path):
    metrics.write_sweep_csv(tmp_path / "sweep.csv", np.array([3.0, 1e-300, -0.0]),
                            np.array([1.0, 0.5, 1 / 3]), np.array([0.25, 0.5, 1.0]),
                            np.array([0.4, 0.5, 0.5]))
    return tmp_path / "sweep.csv"


def _write_scores(tmp_path, monkeypatch, h2):
    frame = _frame()
    series = model_mod.ScoreSeries(
        anomaly_score=np.array([3.0, -0.0]),
        alora_score=np.array([2, 0]),
        residual_sq=np.array([1.5, 1e-300]),
        residual_sq_per_series=np.zeros((2, 3)),
    )
    monkeypatch.setattr(harness, "_load_model",
                        lambda resolved: (None, SimpleNamespace(t_window=2), 0.5, frame))
    monkeypatch.setattr(model_mod, "score_frame", lambda *args: series)
    entries = {"checkpoint": "unused", "data": "unused", "out": tmp_path / "scored"}
    if h2 is not None:
        entries["h2"] = h2
    _write_config(tmp_path / "score.ini", "score", entries)
    assert harness.main(["score", "--config", str(tmp_path / "score.ini")]) == 0
    return tmp_path / "scored" / "scores.csv"


def write_scores(tmp_path, monkeypatch):
    return _write_scores(tmp_path, monkeypatch, None)


def write_scores_h2(tmp_path, monkeypatch):
    return _write_scores(tmp_path, monkeypatch, 1.0)


def _train(tmp_path, monkeypatch):
    history = [model_mod.EpochStats(0, 2.5, 2.0, 0.5, 1e-300),
               model_mod.EpochStats(1, 0.1, -0.0, 0.1, 3.0)]
    result = model_mod.TrainResult(
        params=None, thresholds=model_mod.Thresholds(h1=0.5), history=history,
        selection=PairSelection(pairs=((0, 2), (1, 2)), scores=np.array([0.75, 1e-300])),
    )
    monkeypatch.setattr(model_mod, "train", lambda frame, cfg: result)
    monkeypatch.setattr(model_mod, "save_checkpoint", lambda *args, **kwargs: None)
    data.save_csv(_frame(), tmp_path / "train.csv")
    _write_config(tmp_path / "train.ini", "train",
                  {"data": tmp_path / "train.csv", "out": tmp_path / "run"})
    assert harness.main(["train", "--config", str(tmp_path / "train.ini")]) == 0
    return tmp_path / "run"


def write_loss_history(tmp_path, monkeypatch):
    return _train(tmp_path, monkeypatch) / "loss_history.csv"


def write_pairs(tmp_path, monkeypatch):
    return _train(tmp_path, monkeypatch) / "pairs.txt"


GOLDEN = {
    write_save_csv: 'plain,"a,b","q""x",label\n1.5,-0.0,1e-300,0\n0.1,2.0,-32500000.0,1\n',
    write_loc_truth: "timestep,series_index\n3,1\n7,0\n7,2\n",
    write_las: 'plain,"a,b","q""x"\n1.5,-0.0,1e-300\n0.1,2.0,-32500000.0\n',
    write_c_matrix: ',plain,"a,b","q""x"\nplain,1.0,-0.0,1e-300\n"a,b",2.5,0.1,3.0\n'
                    '"q""x",-1.0,7.0,1e+20\n',
    write_sweep: "threshold,precision,recall,f1\n3.0,1.0,0.25,0.4\n1e-300,0.5,0.5,0.5\n"
                 "-0.0,0.3333333333333333,1.0,0.5\n",
    write_scores: "timestamp,anomaly_score,alora_t_score,residual_sq\n0,3.0,2,1.5\n"
                  "1,-0.0,0,1e-300\n",
    write_scores_h2: "timestamp,anomaly_score,alora_t_score,residual_sq,label\n0,3.0,2,1.5,1\n"
                     "1,-0.0,0,1e-300,0\n",
    write_loss_history: "epoch,train_total,train_recon,train_reg,val_total\n"
                        "0,2.5,2.0,0.5,1e-300\n1,0.1,-0.0,0.1,3.0\n",
    write_pairs: "i,j,score\n0,2,0.75\n1,2,1e-300\n",
}


@pytest.mark.parametrize("writer", GOLDEN, ids=[w.__name__ for w in GOLDEN])
def test_writer_golden_bytes(writer, tmp_path, monkeypatch):
    args = (tmp_path, monkeypatch)[: writer.__code__.co_argcount]
    path = writer(*args)
    assert path.read_bytes() == GOLDEN[writer].encode("utf-8")


class TestReadTable:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-300, 300, size=(20, 3))
        data.write_table(tmp_path / "t.csv", NAMES, list(values.T))
        header, table = data.read_table(tmp_path / "t.csv")
        assert header == list(NAMES)
        assert table.dtype == np.float64
        assert table.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "body, where",
        [("a,b\n1,2\n3\n", "t.csv:3: expected 2 cells, got 1"),
         ("a,b\n1,2\n3,4,5\n", "t.csv:3: expected 2 cells, got 3"),
         ("a,b\n1,2\n\n", "t.csv:3: expected 2 cells, got 0"),
         ("a,b\n1,x\n", "t.csv:2: non-numeric cell"),
         ("a,b\n1,2\n3,\n", "t.csv:3: non-numeric cell"),
         ("a,b\n0x1p3,2\n", "t.csv:2: non-numeric cell"),
         ("a,b\n1,2\n3,nan\n", "t.csv:3: non-finite cell"),
         ("a,b\n-Infinity,2\n", "t.csv:2: non-finite cell"),
         ("a,b\n1,2\n1e999,2\n", "t.csv:3: non-finite cell"),
         ('a,b\n"1\n",2\n3,x\n', "t.csv:4: non-numeric cell"),
         ('a,b\n"1\n",2\n3,nan\n', "t.csv:4: non-finite cell"),
         ("a,b\n", "t.csv: no rows"),
         ("", "t.csv: empty file")],
        ids=["short_row", "long_row", "blank_line", "non_numeric", "empty_cell", "hex",
             "nan", "inf", "overflow", "after_quoted_newline", "non_finite_after_quoted_newline",
             "header_only", "empty_file"],
    )
    def test_errors_name_the_line(self, tmp_path, body, where):
        (tmp_path / "t.csv").write_text(body)
        with pytest.raises(DataError, match=where.replace(".", r"\.")):
            data.read_table(tmp_path / "t.csv")

    def test_chunk_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "TABLE_CHUNK_ROWS", 2)
        values = np.arange(14.0).reshape(7, 2) / 3
        data.write_table(tmp_path / "t.csv", ["a", "b"], [values[:, 0], values[:, 1]])
        assert data.read_table(tmp_path / "t.csv")[1].tobytes() == values.tobytes()
        with open(tmp_path / "t.csv", "a") as fh:
            fh.write("1,2\n1,inf\n")
        with pytest.raises(DataError, match=r"t\.csv:10: non-finite cell"):
            data.read_table(tmp_path / "t.csv")

    def test_accepts_what_float_accepts(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b,c\n 1.5,1_000,-1E3\n")
        assert data.read_table(tmp_path / "t.csv")[1].tolist() == [[1.5, 1000.0, -1000.0]]

    def test_utf8_bom_is_skipped(self, tmp_path):
        (tmp_path / "t.csv").write_bytes("\ufefflabel,a,b\n0,1.5,2\n1,3,4\n".encode("utf-8"))
        frame = data.load_csv(tmp_path / "t.csv")
        assert frame.names == ("a", "b")
        assert frame.labels.tolist() == [0, 1]
        assert frame.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_string_cells_quoted_as_csv_writer_quotes_them(self, tmp_path):
        labels = ["plain", "a,b", 'q"x', "two\nlines", "", " pad ", "\u00e9"]
        data.write_table(tmp_path / "t.csv", ["", "v"], [labels, np.arange(7.0)])
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [["", "v"], *zip(labels, np.arange(7.0).tolist())])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == expected.getvalue()


# Cells of the differential corpus: numbers loadtxt and float both parse,
# spellings only float parses, and cells that both reject.
_CELLS = ["1", "-2.5", "1e-300", "-0.0", " 1.5", "1.5 ", ".5", "+1e3", '"3"', '"1,5"',
          "1_000", "\u0661\u0662", "nan", "-inf", "Infinity", "1e999", '"1"5', '1"5"', '""',
          "", "x", "0x1p3", "1 2"]


def _corpus():
    """A seeded corpus of small table files, (name, bytes)."""
    rng = np.random.default_rng(16)
    files = [("empty", b""), ("header_only", b"a,b\n"), ("header_no_newline", b"a,b"),
             ("blank_only", b"a,b\n\n"), ("blank_first", b"a,b\n\n1,2\n"),
             ("blank_last", b"a,b\n1,2\n\n"),
             ("bom", b"\xef\xbb\xbfa,b\n1,2\n"), ("latin1_row", b"a,b\n1,2\n\xe9,2\n"),
             ("quoted_newline", b'a,b\n"1\n",2\n'), ("quoted_header", b'"a,b",c\n1,2\n')]
    for k in range(300):
        width = int(rng.integers(1, 4))
        rows = []
        for _ in range(int(rng.integers(0, 8))):
            cells = width if rng.random() < 0.85 else int(rng.integers(0, 5))
            if rng.random() < 0.6:
                rows.append(",".join(repr(float(x)) for x in rng.normal(size=cells) * 1e3))
            else:
                rows.append(",".join(_CELLS[int(i)] for i in rng.integers(0, len(_CELLS), cells)))
        end = ["\n", "\r\n", "\r"][int(rng.integers(0, 3))]
        text = end.join(["a,b,c"[: 2 * width - 1], *rows]) + (end if rng.random() < 0.8 else "")
        files.append((f"seeded_{k}", text.encode("utf-8")))
    return files


def test_reader_matches_the_checked_walk(tmp_path, monkeypatch):
    """read_table returns what the row walk alone returns: the same header
    and bytes, or the same DataError text, and warns of nothing.  The
    corpus holds tables taken from loadtxt, tables only the walk reads and
    rejected files; the small chunk puts chunk boundaries inside most
    files."""
    monkeypatch.setattr(data, "TABLE_CHUNK_ROWS", 2)
    read_blocks, walked = data._read_blocks, []
    monkeypatch.setattr(data, "_read_blocks", lambda path: walked.append(path) or read_blocks(path))

    def outcome(path):
        try:
            header, table = data.read_table(path)
        except DataError as exc:
            return str(exc)
        return header, table.dtype, table.shape, table.tobytes()

    kinds = set()
    for name, body in _corpus():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(body)
        with monkeypatch.context() as m:
            m.setattr(data, "_parse_rows", lambda lines: None)
            expected = outcome(path)
        walked.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert outcome(path) == expected, name
        assert caught == [], name
        kinds.add((isinstance(expected, tuple), bool(walked)))
    assert kinds >= {(True, False), (True, True), (False, True)}


class TestLocTruthReader:
    def test_requires_header(self, tmp_path):
        (tmp_path / "t.csv").write_text("3,1\n7,0\n")
        with pytest.raises(DataError, match="timestep,series_index"):
            data.load_loc_truth(tmp_path / "t.csv")

    @pytest.mark.parametrize("row", ["3,1.5", "-1,0", "3,-2", "1e300,0", "3,1e19"])
    def test_cells_are_non_negative_integers(self, tmp_path, row):
        (tmp_path / "t.csv").write_text(f"timestep,series_index\n0,0\n{row}\n")
        with pytest.raises(DataError, match=r"t\.csv:3:"):
            data.load_loc_truth(tmp_path / "t.csv")

    def test_integral_floats_accepted(self, tmp_path):
        (tmp_path / "t.csv").write_text("timestep,series_index\n3.0,1\n3,2.0\n")
        assert data.load_loc_truth(tmp_path / "t.csv").by_time == {3: frozenset({1, 2})}

    def test_utf8_bom_is_skipped(self, tmp_path):
        (tmp_path / "t.csv").write_bytes("\ufefftimestep,series_index\n3,1\n".encode("utf-8"))
        assert data.load_loc_truth(tmp_path / "t.csv").by_time == {3: frozenset({1})}


def test_only_data_imports_csv():
    src = Path(data.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module] if node.level == 0 else []
            else:
                continue
            if "csv" in modules:
                importers.add(path.name)
    assert importers == {"data.py"}

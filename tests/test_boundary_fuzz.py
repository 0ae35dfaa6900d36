"""A fixed-seed fuzz of the CLI boundary, drawn from the config table.

Each case sets 1-3 keys of one command's config to a small token or a path
to the wrong kind of file, or hands ``train`` an odd CSV.  Every run exits
0, 2, 3 or 4; a failure prints one stderr line and no traceback; and a value
that parses but fails its key's limit prints exactly the table's
``config error: <key> must be <requirement>``.  Training stays tiny
(T 8, d_model 4, one layer, one epoch, 30 rows): no token draws a large
size or epoch count.
"""

import random

import numpy as np
import pytest

from alorat import data, model
from alorat.harness import _SCHEMAS, main

TOKENS = ["-1", "0", "1", "2", "3", "nan", "inf", "", "abc"]
PATH_KEYS = {"data", "out", "checkpoint", "scores", "las", "loc_truth"}
# Paths to the wrong kind of input, named by placeholder; {dir} is an empty
# directory of the run's own.
PATH_TOKENS = ["{dir}", "{csv}", "{checkpoint}", "{empty}", "abc", ""]
CASES_PER_COMMAND = 25

# A config of each command that runs: {name} is a file of the shared inputs.
BASE = {
    "train": {"data": "{csv}", "out": "{out}", "t_window": "8", "d_model": "4", "heads": "2",
              "layers": "1", "max_epochs": "1", "k_pairs": "2"},
    "score": {"checkpoint": "{checkpoint}", "data": "{csv}", "out": "{out}"},
    "localize": {"checkpoint": "{checkpoint}", "data": "{csv}", "out": "{out}"},
    "eval": {"scores": "{scores}", "data": "{csv}", "out": "{out}", "las": "{las}",
             "loc_truth": "{loc_truth}", "t_window": "8"},
    "simulate": {"out": "{out}", "n": "60", "t1": "20", "t2": "40"},
    "star-check": {"out": "{out}", "configs": "1"},
}


def _draw(rng):
    cases = {}
    for command, schema in _SCHEMAS.items():
        for i in range(CASES_PER_COMMAND):
            keys = rng.sample(sorted(schema), rng.randint(1, 3))
            cases[f"{command}-{i}"] = (command, {
                key: rng.choice(PATH_TOKENS if key in PATH_KEYS else TOKENS) for key in keys})
    return cases


CASES = _draw(random.Random(2024))


def _expected_error(command, settings):
    """The config error that ``settings`` must raise first, as (exact line
    or None, start of the line), or None when each value parses and passes
    its limit.  Keys are checked in table order."""
    for key, (kind, _, limit) in _SCHEMAS[command].items():
        if key not in settings:
            continue
        try:
            value = model.parse_value(kind, settings[key], key)
        except ValueError:
            return None, f"config error: {key}: expected "
        if limit is not None and not limit[1](value):
            return f"config error: {key} must be {limit[0]}\n", None
    return None


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A labeled 30-row, 3-series CSV, a tiny checkpoint trained on it, its
    scores and LAS, and a localization truth file."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    values = np.random.default_rng(0).normal(size=(30, 3))
    labels = np.zeros(30)
    labels[20:25] = 1.0
    data.save_csv(data.TimeSeriesFrame(values=values, names=("a", "b", "c"), labels=labels),
                  root / "data.csv")
    (root / "truth.csv").write_text("timestep,series_index\n21,0\n", encoding="utf-8")
    (root / "empty").write_text("")
    files = {"csv": root / "data.csv", "checkpoint": root / "run" / "model.alora",
             "scores": root / "scored" / "scores.csv", "las": root / "loc" / "las.csv",
             "loc_truth": root / "truth.csv", "empty": root / "empty"}
    for command, out in (("train", "run"), ("score", "scored"), ("localize", "loc")):
        assert _run(root, command, dict(BASE[command], out=str(root / out)), files) == 0
    return files


def _run(tmp_path, command, settings, files):
    """``main`` on a config of ``settings`` whose placeholders name ``files``."""
    ini = tmp_path / "fuzz.ini"
    text = "".join(f"{key} = {value}\n" for key, value in settings.items())
    ini.write_text(f"[{command}]\n" + text.format(**files), encoding="utf-8")
    return main([command, "--config", str(ini)])


def _check(capsys, code, expected=None):
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if expected is not None:
        line, start = expected
        assert code == 2, err
        assert err == line if line is not None else err.startswith(start), err


@pytest.mark.parametrize("case", list(CASES))
def test_fuzzed_config(inputs, tmp_path, monkeypatch, capsys, case):
    command, fuzzed = CASES[case]
    monkeypatch.chdir(tmp_path)  # relative tokens such as out = abc land here
    (tmp_path / "dir").mkdir()
    files = {**inputs, "dir": tmp_path / "dir", "out": tmp_path / "out"}
    capsys.readouterr()
    code = _run(tmp_path, command, {**BASE[command], **fuzzed}, files)
    _check(capsys, code, _expected_error(command, fuzzed))


# id: (CSV text given to train, exit code).
_VALUES = np.random.default_rng(1).normal(size=(30, 2))


def _csv(header, values, cell="{!r}"):
    return header + "\n" + "".join(",".join(cell.format(x) for x in row) + "\n"
                                   for row in values.tolist())


DATA_CASES = {
    "byte_order_mark": ("\ufeff" + _csv("a,b", _VALUES), 0),
    "crlf": (_csv("a,b", _VALUES).replace("\n", "\r\n"), 0),
    "blank_line": (_csv("a,b", _VALUES).replace("\n", "\n\n", 2), 3),
    "quoted_cells": (_csv('"a","b"', _VALUES, '"{!r}"'), 0),
    "duplicate_names": (_csv("a,a", _VALUES), 3),
    "label_first": (_csv("label,a,b", np.column_stack([np.arange(30) % 2, _VALUES])), 0),
    "magnitude_1e307": (_csv("a,b", _VALUES * 1e307), 3),
    "magnitude_1e-310": (_csv("a,b", _VALUES * 1e-310), 0),
    "single_row": (_csv("a,b", _VALUES[:1]), 3),
    "header_cell_140k": (_csv("a," + "b" * 140_000, _VALUES), 3),
}


@pytest.mark.parametrize("case", list(DATA_CASES))
def test_fuzzed_training_data(tmp_path, capsys, case):
    text, code = DATA_CASES[case]
    (tmp_path / "data.csv").write_bytes(text.encode("utf-8"))
    files = {"csv": tmp_path / "data.csv", "out": tmp_path / "out"}
    capsys.readouterr()
    assert _run(tmp_path, "train", BASE["train"], files) == code
    _check(capsys, code)


# Every integer key of every command at 10**400, past a float's range, on
# the command's base config; max_epochs and configs are skipped because
# they count work.
HUGE_CASES = [(command, key) for command, schema in _SCHEMAS.items()
              for key, (kind, _, _) in schema.items()
              if kind == "int" and key not in ("max_epochs", "configs")]


@pytest.mark.parametrize("command,key", HUGE_CASES, ids=[f"{c}-{k}" for c, k in HUGE_CASES])
def test_integer_key_at_10_pow_400(inputs, tmp_path, capsys, command, key):
    files = {**inputs, "out": tmp_path / "out"}
    settings = {**BASE[command], key: str(10**400)}
    capsys.readouterr()
    code = _run(tmp_path, command, settings, files)
    err = capsys.readouterr().err
    assert err.count("\n") <= 1, err
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    expected = _expected_error(command, {key: settings[key]})
    if expected is not None:
        assert code == 2 and err == expected[0], err

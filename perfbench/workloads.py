"""The three workloads: inputs made from a seed, the timed operation, and
the untimed output check that also yields the detection-quality figures.

Every workload sends one operation at a time from one caller (a closed
loop with one client). Inputs come from a fixed pool of seeded input
sets picked by the run's seed, so each output can be compared with the
values `record_reference.py` stored for that set at a stated tolerance.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from alorat import data, harness, localize, metrics, model

# Tolerances of the output checks. Loss history, h1 and residuals are
# float64 results of a fixed computation, so they agree to the last digits
# unless the arithmetic changes; 1e-6 relative admits a reordered sum. A
# rank count may flip where a singular value sits within rounding of h1,
# so at most COUNT_TOL of the windows may change their count.
RTOL = 1e-6
COUNT_TOL = 1e-4

# Pool sizes. A run's operations start at its seed's offset and cycle
# through the pool, so a 30-second run visits every `fit` and `cli` set;
# `score` scores one set per run.
FIT_POOL = 8
SCORE_POOL = 8
CLI_POOL = 4

# Anomalies are level shifts of MAGNITUDE and spikes of twice that, in
# training standard deviations: large enough that the seed code detects
# them well above chance, so a change that degrades detection shows.
MAGNITUDE = 8.0

# `fit` is acceptance criterion 4's training run. `score` and `cli` train
# short models at a higher learning rate so their detectors are usable.
SIZES = {
    "full": {
        "fit": dict(n=2000, d=4, shifts=1, spikes=0, seg=200,
                    cfg=dict(t_window=16, d_model=8, heads=2, layers=2, max_epochs=8,
                             patience=8, k_pairs=6, batch_size=128, learning_rate=1e-3)),
        "score": dict(n_train=1000, n=25_000, d=20, shifts=20, spikes=10, seg=100,
                      cfg=dict(t_window=20, d_model=16, heads=4, layers=2, max_epochs=1,
                               patience=1, k_pairs=16, batch_size=128, learning_rate=1e-2)),
        "cli": dict(n_train=2000, n=5000, d=64, shifts=4, spikes=2, seg=100,
                    cfg=dict(t_window=16, d_model=8, heads=2, layers=2, max_epochs=4,
                             patience=4, k_pairs=8, batch_size=128, learning_rate=1e-2)),
    },
    "tiny": {
        "fit": dict(n=300, d=4, shifts=1, spikes=0, seg=30,
                    cfg=dict(t_window=8, d_model=4, heads=1, layers=2, max_epochs=2,
                             patience=2, k_pairs=6, batch_size=64, learning_rate=1e-3)),
        "score": dict(n_train=300, n=2000, d=8, shifts=4, spikes=2, seg=20,
                      cfg=dict(t_window=8, d_model=8, heads=2, layers=2, max_epochs=1,
                               patience=1, k_pairs=8, batch_size=64, learning_rate=1e-2)),
        "cli": dict(n_train=300, n=1000, d=16, shifts=2, spikes=1, seg=20,
                    cfg=dict(t_window=8, d_model=4, heads=1, layers=2, max_epochs=1,
                             patience=1, k_pairs=4, batch_size=64, learning_rate=1e-2)),
    },
}


class CheckFailed(Exception):
    """An operation's output disagrees with what it should be."""


# -- inputs -------------------------------------------------------------------------


def smooth_process(n_train, n_test, d, rng, coupled=0):
    """Correlated sinusoid mixture plus noise, split in time into a train
    and a test frame. The first ``coupled`` series form strongly correlated
    pairs (2m, 2m+1), which the correlation-ranked pair embedding picks
    first; on a wide frame only those series feed the encoder."""
    t = np.arange(n_train + n_test)
    periods = rng.uniform(20, 90, d)
    phases = rng.uniform(0, 2 * np.pi, d)
    base = np.sin(2 * np.pi * t[:, None] / periods + phases)
    mix = rng.normal(size=(d, d)) * 0.4 + np.eye(d)
    values = base @ mix + 0.3 * rng.normal(size=(t.size, d))
    for m in range(0, coupled, 2):
        values[:, m + 1] = values[:, m] + 0.5 * rng.normal(size=t.size)
    names = tuple(f"s{i}" for i in range(d))
    return (data.TimeSeriesFrame(values=values[:n_train], names=names),
            data.TimeSeriesFrame(values=values[n_train:], names=names))


def inject(frame, rng, size, series_pool):
    """``size["shifts"]`` level shifts of ``size["seg"]`` steps and
    ``size["spikes"]`` single-step spikes at evenly spread, non-overlapping
    positions, each in a series drawn from ``series_pool``."""
    shifts, spikes, seg_len = size["shifts"], size["spikes"], size["seg"]
    slots = shifts + spikes
    for j in range(slots):
        start = (j + 1) * frame.n // (slots + 1)
        series = int(rng.choice(series_pool))
        if j < shifts:
            frame = data.inject_anomaly(frame, "level_shift", series, (start, start + seg_len),
                                       MAGNITUDE)
        else:
            frame = data.inject_anomaly(frame, "spike", series, (start, start + 1), 2 * MAGNITUDE)
    return frame


def detection_quality(series, las_matrix, frame):
    """Best point-wise F1 of the anomaly score, and the mean hit rate at
    P=100% of the LAS ranking over the truth timesteps, as `alorat eval`
    computes them."""
    f1 = metrics.best_f1_sweep(series.anomaly_score, frame.labels)[0]
    d = las_matrix.shape[1]
    hits = [metrics.hit_rate(localize.rank_series(las_matrix[t], d), g, 100)
            for t, g in frame.loc_truth.by_time.items()]
    return {"best_f1": f1, "hit_rate_at_100": float(np.mean(hits))}


def _train_config(cfg: dict, seed: int) -> model.TrainConfig:
    return model.TrainConfig(**cfg, lambda_reg=10.0, seed=seed)


def _close(name, got, want, rtol=RTOL):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=0.0):
        raise CheckFailed(f"{name} differs from the reference beyond rtol {rtol}")


def _reference(refs, key):
    try:
        return refs[key]
    except KeyError:
        raise CheckFailed(f"no recorded reference for {key}") from None


# -- fit ------------------------------------------------------------------------------


def fit_entry(size: dict, k: int):
    """Pool entry k: normalized training frame, config, and an injected
    held-out frame for the quality check."""
    rng = np.random.default_rng(k)
    train, test = smooth_process(size["n"], size["n"], size["d"], rng)
    train, stats = data.normalize(train)
    test, _ = data.normalize(test, stats)
    test = inject(test, rng, size, np.arange(size["d"]))
    return train, test, _train_config(size["cfg"], seed=k)


def fit_setup(size, seed, work):
    return {"seed": seed, "entries": [fit_entry(size, k) for k in range(FIT_POOL)]}


def fit_key(state, i):
    return (state["seed"] + i) % FIT_POOL


def fit_op(state, i):
    train, _, cfg = state["entries"][fit_key(state, i)]
    return model.train(train, cfg)


def fit_signature(result) -> dict:
    history = [[e.train_total, e.train_recon, e.train_reg, e.val_total] for e in result.history]
    return {"history": history, "h1": result.thresholds.h1}


def fit_check(state, i, result, refs):
    key = fit_key(state, i)
    sig = fit_signature(result)
    if not (np.isfinite(sig["history"]).all() and math.isfinite(sig["h1"])):
        raise CheckFailed("non-finite loss history or h1")
    ref = _reference(refs, f"fit/{key}")
    _close("loss history", sig["history"], ref["history"])
    _close("h1", sig["h1"], ref["h1"])
    _, test, cfg = state["entries"][key]
    series = model.score_frame(test, result.params, cfg, result.thresholds.h1)
    weights = localize.contribution_weights(result.params, cfg.skip, cfg.activation)
    return detection_quality(series, localize.las(weights.c, series.residual_sq_per_series), test)


# -- score ----------------------------------------------------------------------------


def score_setup(size, seed, work):
    """Pool entry seed % SCORE_POOL: one short fit, then a long injected
    test frame normalized with the training statistics."""
    key = seed % SCORE_POOL
    rng = np.random.default_rng(1000 + key)
    train, test = smooth_process(size["n_train"], size["n"], size["d"], rng)
    train, stats = data.normalize(train)
    test, _ = data.normalize(test, stats)
    test = inject(test, rng, size, np.arange(size["d"]))
    cfg = _train_config(size["cfg"], seed=key)
    fitted = model.train(train, cfg)
    return {"key": key, "test": test, "cfg": cfg, "params": fitted.params,
            "h1": fitted.thresholds.h1}


def score_op(state, i):
    params, cfg = state["params"], state["cfg"]
    series = model.score_frame(state["test"], params, cfg, state["h1"])
    weights = localize.contribution_weights(params, cfg.skip, cfg.activation)
    return series, localize.las(weights.c, series.residual_sq_per_series)


SCORE_SAMPLE_ROWS = 32


def score_signature(output) -> dict:
    series, las_matrix = output
    rows = np.random.default_rng(0).choice(series.residual_sq.size, SCORE_SAMPLE_ROWS,
                                           replace=False)
    return {
        "alora_hist": np.bincount(series.alora_score).tolist(),
        "residual_sq_sum": float(series.residual_sq.sum()),
        "residual_sq_rows": series.residual_sq_per_series[np.sort(rows)].tolist(),
        "las_sum": float(las_matrix.sum()),
    }


def score_check(state, i, output, refs):
    series, las_matrix = output
    if not np.array_equal(series.anomaly_score, series.residual_sq * series.alora_score):
        raise CheckFailed("anomaly score is not residual times rank count")
    sig = score_signature(output)
    ref = _reference(refs, f"score/{state['key']}")
    got, want = sig["alora_hist"], ref["alora_hist"]
    width = max(len(got), len(want))
    moved = np.abs(np.pad(got, (0, width - len(got))) - np.pad(want, (0, width - len(want))))
    if moved.sum() > 2 * math.ceil(COUNT_TOL * series.alora_score.size):
        raise CheckFailed(f"rank counts differ on more than {COUNT_TOL:.0e} of windows")
    for name in ("residual_sq_sum", "residual_sq_rows", "las_sum"):
        _close(name, sig[name], ref[name])
    return detection_quality(series, las_matrix, state["test"])


# -- cli ------------------------------------------------------------------------------

CLI_COMMANDS = ("train", "score", "localize", "eval", "star-check")
CLI_OUTPUTS = {
    "train": ("model.alora", "model.alora.manifest.txt", "pairs.txt", "loss_history.csv"),
    "score": ("scores.csv", "scores.meta.txt"),
    "localize": ("las.csv", "c_matrix.csv", "e_matrix.csv"),
    "eval": ("report.txt", "sweep.csv"),
    "star-check": ("star_report.txt",),
}


def cli_entry(size: dict, k: int):
    """Pool entry k: a wide labelled train/test pair whose anomalies sit in
    the coupled series the pair embedding covers."""
    rng = np.random.default_rng(2000 + k)
    coupled = 2 * size["cfg"]["k_pairs"]
    train, test = smooth_process(size["n_train"], size["n"], size["d"], rng, coupled=coupled)
    train = data.TimeSeriesFrame(values=train.values, names=train.names,
                                 labels=np.zeros(train.n, dtype=np.int8))
    return train, inject(test, rng, size, np.arange(coupled))


def cli_setup(size, seed, work):
    return {"size": size, "seed": seed, "work": work,
            "entries": [cli_entry(size, k) for k in range(CLI_POOL)]}


def cli_key(state, i):
    return (state["seed"] + i) % CLI_POOL


def _cli_config(size, seed, run: Path) -> str:
    cfg = dict(size["cfg"], lambda_reg=10.0, seed=seed)
    sections = {
        "train": {"data": run / "train.csv", "out": run / "train", **cfg},
        "score": {"checkpoint": run / "train/model.alora", "data": run / "test.csv",
                  "out": run / "score"},
        "localize": {"checkpoint": run / "train/model.alora", "data": run / "test.csv",
                     "out": run / "localize"},
        "eval": {"scores": run / "score/scores.csv", "data": run / "test.csv",
                 "las": run / "localize/las.csv", "loc_truth": run / "truth.csv",
                 "out": run / "eval", "t_window": cfg["t_window"]},
        "star-check": {"out": run / "star-check"},
    }
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


def cli_op(state, i):
    """Write a wide labelled train/test CSV pair and its localization truth,
    then run train -> score -> localize -> eval -> star-check through the
    command-line entry point in a fresh directory."""
    key = cli_key(state, i)
    train, test = state["entries"][key]
    run = state["dir"] = Path(tempfile.mkdtemp(prefix="cli-", dir=state["work"]))
    data.save_csv(train, run / "train.csv")
    data.save_csv(test, run / "test.csv")
    data.save_loc_truth(test.loc_truth, run / "truth.csv")
    (run / "alorat.ini").write_text(_cli_config(state["size"], key, run), encoding="utf-8")
    outputs = {}
    for cmd in CLI_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = harness.main([cmd, "--config", str(run / "alorat.ini")])
        outputs[cmd] = (code, out.getvalue())
    return outputs


def cli_signature(state, outputs) -> dict:
    """The numeric entries of eval's report, after checking that every
    command exited 0, wrote its files, and that star-check passed."""
    run = state["dir"]
    for cmd, (code, text) in outputs.items():
        if code != 0:
            raise CheckFailed(f"{cmd} exited {code}: {text.strip()[-200:]}")
        for name in CLI_OUTPUTS[cmd]:
            if not (run / cmd / name).is_file():
                raise CheckFailed(f"{cmd} did not write {name}")
    if "aggregate=PASS" not in outputs["star-check"][1]:
        raise CheckFailed("star-check did not print aggregate=PASS")
    report = {}
    for line in (run / "eval" / "report.txt").read_text(encoding="utf-8").splitlines():
        name, sep, value = line.partition("=")
        if not sep:
            raise CheckFailed(f"unparsable report line {line!r}")
        if value not in ("True", "False"):
            report[name] = float(value)
    return report


def cli_check(state, i, outputs, refs):
    try:
        report = cli_signature(state, outputs)
    finally:
        shutil.rmtree(state["dir"])
    ref = _reference(refs, f"cli/{cli_key(state, i)}")
    if report.keys() != ref.keys():
        raise CheckFailed(f"eval report keys {sorted(report)} differ from the reference")
    for name, value in report.items():
        _close(name, value, ref[name])
    return {"best_f1": report["detection_best_f1"], "hit_rate_at_100": report["hit_rate_at_100"]}


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (size, seed, work dir) -> state
    op: Callable  # (state, i) -> output; the timed part
    check: Callable  # (state, i, output, refs) -> quality figures, or CheckFailed
    key: Callable  # (state, i) -> the pooled input set operation i uses


WORKLOADS = {
    "fit": Workload(fit_setup, fit_op, fit_check, fit_key),
    "score": Workload(score_setup, score_op, score_check, lambda state, i: state["key"]),
    "cli": Workload(cli_setup, cli_op, cli_check, cli_key),
}

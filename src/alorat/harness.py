"""Command-line interface: train / score / localize / eval / simulate /
star-check driven by flat key=value config files with sections.

Each run writes a resolved copy of its configuration next to the outputs so
results can be reproduced from the output directory alone.  Exit codes:
0 success, 1 internal error, 2 configuration error (an allocation that
runs out of memory included), 3 data error, 4 numeric failure.  Each
failure prints one stderr line, and each library warning one ``warning:``
line.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import localize as loc_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import star_verify
from .data import DataError
from .model import NumericError, TrainConfig


class ConfigError(ValueError):
    """Bad, missing, or unknown configuration."""


# key -> (type, default, limit); a default None (without a type suffix "!")
# means optional.  A limit is a (requirement, test) pair: see model.check_limit.
_FINITE = ("finite", math.isfinite)
_SCHEMAS = {
    "train": {
        "data": ("str", "!required", None),
        "out": ("str", "!required", None),
        **{f.name: (f.type, f.default, f.metadata["limit"])
           for f in dataclasses.fields(TrainConfig)},
        "label_column": ("str", "label", None),
        "downsample": ("int", 1, model_mod.between(1, model_mod.MAX_SIZE)),
    },
    "score": {
        "checkpoint": ("str", "!required", None),
        "data": ("str", "!required", None),
        "out": ("str", "!required", None),
        "h2": ("float", None, ("a number, not nan", lambda v: not math.isnan(v))),  # inf: no alarm
        "label_column": ("str", "label", None),
    },
    "localize": {
        "checkpoint": ("str", "!required", None),
        "data": ("str", "!required", None),
        "out": ("str", "!required", None),
        "top_k": ("int", None, model_mod.at_least(1)),
        "absolute": ("bool", False, None),
        "label_column": ("str", "label", None),
    },
    "eval": {
        "scores": ("str", "!required", None),
        "data": ("str", "!required", None),
        "out": ("str", "!required", None),
        "las": ("str", None, None),
        "loc_truth": ("str", None, None),
        "t_window": ("int", 20, model_mod.between(1, model_mod.MAX_SIZE)),
        "horizon": ("int", None, model_mod.between(1, model_mod.MAX_SIZE)),
        "p_percents": ("str", "100,150", None),
        "label_column": ("str", "label", None),
    },
    "simulate": {
        "out": ("str", "!required", None),
        "seed": ("int", 0, model_mod.at_least(0)),
        "n": ("int", 500, model_mod.between(1, model_mod.MAX_SIZE)),
        "t1": ("int", 200, None),
        "t2": ("int", 300, None),
        "delta": ("float", 3.0, _FINITE),
        "mu1": ("float", 0.0, _FINITE),
        "mu2": ("float", 0.0, _FINITE),
        "sigma1": ("float", 1.0, model_mod.FINITE_AT_LEAST_0),
        "sigma2": ("float", 1.0, model_mod.FINITE_AT_LEAST_0),
        "inject_kind": ("str", None, None),
        "inject_series": ("int", 1, None),
        "inject_start": ("int", None, None),
        "inject_end": ("int", None, None),
        "inject_magnitude": ("float", 3.0, _FINITE),
    },
    "star-check": {
        "out": ("str", None, None),
        "seed": ("int", 0, model_mod.at_least(0)),
        "configs": ("int", 20, model_mod.at_least(1)),
        "tolerance": ("float", 1e-6, model_mod.FINITE_ABOVE_0),
    },
}


def _load_section(config_path: str | None, command: str, overrides: dict) -> dict:
    schema = _SCHEMAS[command]
    raw: dict[str, str] = {}
    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(config_path)
        except configparser.Error as exc:  # its messages span lines
            raise ConfigError(" ".join(str(exc).split())) from None
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        if parser.has_section(command):
            raw = dict(parser.items(command))
        unknown = set(raw) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in [{command}]: {', '.join(sorted(unknown))}")

    resolved = {}
    for key, (kind, default, limit) in schema.items():
        if key in overrides and overrides[key] is not None:
            resolved[key] = overrides[key]
        elif key in raw:
            resolved[key] = model_mod.parse_value(kind, raw[key], key, ConfigError)
        elif default == "!required":
            raise ConfigError(f"[{command}] is missing required key {key!r}")
        else:
            resolved[key] = default
        model_mod.check_limit(key, resolved[key], limit, ConfigError)
    return resolved


def _prepare_out(resolved: dict, command: str) -> Path:
    out = Path(resolved["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out {str(out)!r} is not a usable directory: {exc.strerror}") from None
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section(command)
    for key, value in resolved.items():
        if value is not None:
            parser.set(command, key, str(value))
    with open(out / "resolved_config.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)
    return out


def _require_file(path: str) -> str:
    try:
        is_dir, is_file = Path(path).is_dir(), Path(path).is_file()
    except OSError as exc:  # a path the OS refuses to look up, such as a name too long
        raise DataError(f"{path}: {exc.strerror}") from None
    if is_dir:
        raise DataError(f"{path} is a directory, not a file")
    if not is_file:
        raise FileNotFoundError(f"missing input file: {path}")
    return path


# -- commands ------------------------------------------------------------------


def cmd_train(resolved: dict) -> int:
    try:
        cfg = TrainConfig(**{f.name: resolved[f.name] for f in dataclasses.fields(TrainConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    frame = data_mod.load_csv(_require_file(resolved["data"]), resolved["label_column"])
    frame = data_mod.downsample_mean(frame, resolved["downsample"])
    frame, stats = data_mod.normalize(frame)
    out = _prepare_out(resolved, "train")  # a diverging run leaves its resolved config
    result = model_mod.train(frame, cfg)

    model_mod.save_checkpoint(
        out / "model.alora", result.params, cfg, h1=result.thresholds.h1, norm_stats=stats
    )
    result.selection.save(out / "pairs.txt")
    fields = [f.name for f in dataclasses.fields(model_mod.EpochStats)]
    data_mod.write_table(out / "loss_history.csv", fields,
                         [[getattr(row, f) for row in result.history] for f in fields])
    print(f"trained {cfg.layers} layer(s) for {len(result.history)} epoch(s); "
          f"h1={result.thresholds.h1!r}")
    print(f"checkpoint: {out / 'model.alora'}")
    return 0


def _load_model(resolved: dict):
    checkpoint, data = _require_file(resolved["checkpoint"]), _require_file(resolved["data"])
    params, cfg, h1, stats = model_mod.load_checkpoint(checkpoint)
    frame = data_mod.load_csv(data, resolved["label_column"])
    if frame.d != params.d_in:
        raise ConfigError(f"data has {frame.d} series, checkpoint expects {params.d_in}")
    return params, cfg, h1, data_mod.normalize(frame, stats)[0]


def cmd_score(resolved: dict) -> int:
    params, cfg, h1, frame = _load_model(resolved)
    series = model_mod.score_frame(frame, params, cfg, h1)
    out = _prepare_out(resolved, "score")
    h2 = resolved["h2"]
    header = ["timestamp", "anomaly_score", "alora_t_score", "residual_sq"]
    columns = [np.arange(frame.n), series.anomaly_score, series.alora_score, series.residual_sq]
    if h2 is not None:
        header.append("label")
        columns.append((series.anomaly_score > h2).astype(np.int8))
    data_mod.write_table(out / "scores.csv", header, columns)
    metrics_mod.write_report(out / "scores.meta.txt", {
        "t_window": cfg.t_window, "h1": h1, "h2": "" if h2 is None else h2,
        "first_full_window_timestep": cfg.t_window - 1,
        "note": "timesteps before first_full_window_timestep are scored from the first window",
    })
    print(f"scored {frame.n} timesteps -> {out / 'scores.csv'}")
    return 0


def cmd_localize(resolved: dict) -> int:
    params, cfg, _, frame = _load_model(resolved)
    series = model_mod.score_frame(frame, params, cfg, None)
    out = _prepare_out(resolved, "localize")
    weights = loc_mod.contribution_weights(params, cfg.skip, cfg.activation)
    las_matrix = loc_mod.las(
        weights.c,
        series.residual_sq_per_series,
        top_k=resolved["top_k"],
        absolute=resolved["absolute"],
    )
    names = list(frame.names)
    loc_mod.save_las_csv(out / "las.csv", las_matrix, names)
    loc_mod.save_matrix_csv(out / "c_matrix.csv", weights.c, names, names)
    channels = [f"ch{k}" for k in range(weights.e.shape[1])]
    loc_mod.save_matrix_csv(out / "e_matrix.csv", weights.e, names, channels)
    print(f"localization weights mode: {weights.mode}")
    print(f"LAS -> {out / 'las.csv'}")
    return 0


def cmd_eval(resolved: dict) -> int:
    if (resolved["las"] is None) != (resolved["loc_truth"] is None):
        missing = "las" if resolved["las"] is None else "loc_truth"
        raise ConfigError(f"[eval] localization needs both las and loc_truth; "
                          f"{missing!r} is missing")
    p_percents = [p.strip() for p in resolved["p_percents"].split(",") if p.strip()]
    if not p_percents:
        raise ConfigError("p_percents has no entries")
    for p in p_percents:
        if not p.isdecimal() or not 1 <= int(p) <= model_mod.MAX_SIZE:
            raise ConfigError(f"p_percents entry {p!r} is not an integer "
                              f"in [1, {model_mod.MAX_SIZE}]")
    header, table = data_mod.read_table(_require_file(resolved["scores"]))
    if "anomaly_score" not in header:
        raise DataError(f"{resolved['scores']}: expected a scores CSV with an anomaly_score column")
    scores = table[:, header.index("anomaly_score")]
    frame = data_mod.load_csv(_require_file(resolved["data"]), resolved["label_column"])
    if frame.labels is None:
        raise DataError(f"{resolved['data']}: no ground-truth label column")
    if len(scores) != frame.n:
        raise DataError(f"{len(scores)} scores for {frame.n} labeled timesteps")
    labels = frame.labels
    if labels.sum() == 0:
        raise DataError(f"{resolved['data']}: no positive labels; F1 undefined")
    if resolved["las"] is not None:
        _, las_matrix = data_mod.read_table(_require_file(resolved["las"]))
        if las_matrix.shape != (frame.n, frame.d):
            raise DataError(f"{resolved['las']}: {las_matrix.shape[0]} x {las_matrix.shape[1]} "
                            f"LAS matrix for {frame.n} x {frame.d} data")
        truth = data_mod.load_loc_truth(_require_file(resolved["loc_truth"]))
        truth.validate_dims(frame.n, frame.d)

    out = _prepare_out(resolved, "eval")
    f1, precision, recall, h2 = metrics_mod.best_f1_sweep(scores, labels)
    thresholds, sp, sr, sf = metrics_mod.f1_sweep_curve(scores, labels)
    metrics_mod.write_sweep_csv(out / "sweep.csv", thresholds, sp, sr, sf)

    horizon = resolved["horizon"] or 2 * resolved["t_window"]  # horizon is None or >= 1
    pred_events = metrics_mod.events_from_labels(scores >= h2)
    true_events = metrics_mod.events_from_labels(labels)
    aff = metrics_mod.affiliation_pr(pred_events, true_events, horizon)

    report = {
        "detection_best_f1": f1,
        "detection_precision": precision,
        "detection_recall": recall,
        "detection_h2": h2,
        "affiliation_precision": aff.precision,
        "affiliation_recall": aff.recall,
        "affiliation_f1": aff.f1,
        "affiliation_horizon": horizon,
        "affiliation_empty_predictions": aff.empty_predictions,
    }

    if resolved["las"] is not None:
        ranked = {t: loc_mod.rank_series(las_matrix[t], frame.d) for t in truth.by_time}
        for p in map(int, p_percents):
            report[f"hit_rate_at_{p}"] = float(np.mean(
                [metrics_mod.hit_rate(ranked[t], g, p) for t, g in truth.by_time.items()]))
            report[f"ndcg_at_{p}"] = float(np.mean(
                [metrics_mod.ndcg(ranked[t], g, p) for t, g in truth.by_time.items()]))
        seg_truth = [truth.segment_set(seg) for seg in true_events]
        usable = [(s, g) for s, g in zip(true_events, seg_truth) if g]
        if usable:
            report["ips"] = metrics_mod.ips(
                las_matrix, [s for s, _ in usable], [g for _, g in usable]
            )

    metrics_mod.write_report(out / "report.txt", report)
    for key, value in report.items():
        print(f"{key}={value}")
    return 0


def cmd_simulate(resolved: dict) -> int:
    try:  # every argument is a setting
        frame = data_mod.simulate_mean_shift(
            n=resolved["n"],
            t1=resolved["t1"],
            t2=resolved["t2"],
            delta=resolved["delta"],
            mu=(resolved["mu1"], resolved["mu2"]),
            sigma=(resolved["sigma1"], resolved["sigma2"]),
            seed=resolved["seed"],
        )
        if resolved["inject_kind"] is not None:
            if resolved["inject_start"] is None or resolved["inject_end"] is None:
                raise ConfigError("inject_kind needs inject_start and inject_end")
            frame = data_mod.inject_anomaly(
                frame,
                resolved["inject_kind"],
                resolved["inject_series"],
                (resolved["inject_start"], resolved["inject_end"]),
                resolved["inject_magnitude"],
                seed=resolved["seed"] + 1,
            )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    out = _prepare_out(resolved, "simulate")
    data_mod.save_csv(frame, out / "sim.csv")
    data_mod.save_loc_truth(frame.loc_truth, out / "sim_loc_truth.csv")
    print(f"wrote {frame.n} x {frame.d} frame -> {out / 'sim.csv'}")
    return 0


def cmd_star_check(resolved: dict) -> int:
    out = None if resolved["out"] is None else _prepare_out(resolved, "star-check")
    results = star_verify.run_grid(
        n=resolved["configs"], base_seed=resolved["seed"], tolerance=resolved["tolerance"]
    )
    lines, all_pass = [], True
    for config, reports in results:
        for mode in ("skip", "no_skip"):
            lines.append(f"{star_verify.describe(config)} {reports[mode].line()}")
            all_pass = all_pass and reports[mode].passed is not False
    lines.append(f"aggregate={'PASS' if all_pass else 'FAIL'} configs={len(results)}")
    print("\n".join(lines))
    if out is not None:
        with open(out / "star_report.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if all_pass else 4


_COMMANDS = {
    "train": (cmd_train, "fit a model on a training CSV and write a checkpoint"),
    "score": (cmd_score, "score a CSV per timestep with a trained checkpoint"),
    "localize": (cmd_localize, "export localization scores and contribution matrices"),
    "eval": (cmd_eval, "evaluate scores (and optionally localization) against labels"),
    "simulate": (cmd_simulate, "generate the bivariate mean-shift synthetic CSV"),
    "star-check": (cmd_star_check, "verify the unrolled forward-pass algebra"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alorat",
        description="Low-rank-attention anomaly diagnosis for multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config", default=None, required=(name != "star-check"),
            help="key=value config file with a [%s] section" % name,
        )
        if "seed" in _SCHEMAS[name]:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    resolved = {}
    try:
        # A diverging run ends in a NumericError or LinAlgError, not numpy
        # warnings; a library warning prints as one line.
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            resolved = _load_section(
                args.config, args.command, {"seed": getattr(args, "seed", None), "out": args.out}
            )
            return _COMMANDS[args.command][0](resolved)
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a size the configuration asks for
        message = " ".join(str(exc).split())
        print(f"config error: not enough memory: {message}", file=sys.stderr)
        return 2
    except Exception as exc:
        out = resolved.get("out")
        if (isinstance(exc, OSError) and out is not None and exc.filename is not None
                and Path(exc.filename).parent == Path(out)):  # every output file lies in out
            print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        message = " ".join(str(exc).split())  # one line, whatever the message holds
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

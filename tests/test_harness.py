import shutil
import warnings

import numpy as np
import pytest

from alorat import data, harness, linalg
from alorat import model as model_mod
from alorat.data import DataError
from alorat.harness import main


def write_config(path, sections: dict):
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines))


@pytest.fixture
def workspace(tmp_path):
    """Simulated training CSV plus a config covering every command."""
    sim_dir = tmp_path / "sim"
    sim_dir.mkdir()
    frame = data.simulate_mean_shift(seed=3)
    data.save_csv(frame, sim_dir / "sim.csv")
    data.save_loc_truth(frame.loc_truth, sim_dir / "truth.csv")

    cfg = tmp_path / "config.ini"
    write_config(
        cfg,
        {
            "train": {
                "data": sim_dir / "sim.csv",
                "out": tmp_path / "run",
                "seed": 5,
                "t_window": 16,
                "d_model": 4,
                "heads": 2,
                "layers": 2,
                "max_epochs": 2,
                "k_pairs": 2,
                "learning_rate": 1e-3,
                "batch_size": 64,
            },
            "score": {
                "checkpoint": tmp_path / "run" / "model.alora",
                "data": sim_dir / "sim.csv",
                "out": tmp_path / "scored",
                "h2": 5.0,
            },
            "localize": {
                "checkpoint": tmp_path / "run" / "model.alora",
                "data": sim_dir / "sim.csv",
                "out": tmp_path / "localized",
            },
            "eval": {
                "scores": tmp_path / "scored" / "scores.csv",
                "data": sim_dir / "sim.csv",
                "las": tmp_path / "localized" / "las.csv",
                "loc_truth": sim_dir / "truth.csv",
                "out": tmp_path / "evaled",
                "t_window": 16,
            },
            "simulate": {"out": tmp_path / "sim_out", "seed": 11},
        },
    )
    return tmp_path, cfg


class TestTrainCommand:
    def test_smoke_run(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "run"
        assert (out_dir / "model.alora").exists()
        assert (out_dir / "model.alora.manifest.txt").exists()
        assert (out_dir / "pairs.txt").exists()
        assert (out_dir / "loss_history.csv").exists()
        assert (out_dir / "resolved_config.ini").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "ghost.ini")]) == 2

    def test_non_binary_label_exits_3(self, workspace, capsys):
        tmp_path, cfg = workspace
        csv_path = tmp_path / "sim" / "sim.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0].endswith(",label")
        lines[4] = lines[4].rsplit(",", 1)[0] + ",300"
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and ":5: label 300 is not 0 or 1" in err

    def test_zero_downsample_is_config_error(self, workspace, capsys):
        tmp_path, _ = workspace
        cfg = tmp_path / "ds.ini"
        write_config(cfg, {"train": {"data": tmp_path / "sim" / "sim.csv",
                                     "out": tmp_path / "o4", "downsample": 0}})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: downsample must be >= 1\n"
        assert not (tmp_path / "o4").exists()

    def test_one_series_exits_3(self, tmp_path, capsys):
        frame = data.TimeSeriesFrame(values=np.random.default_rng(0).normal(size=(40, 1)),
                                     names=("a",))
        data.save_csv(frame, tmp_path / "one.csv")
        cfg = tmp_path / "one.ini"
        write_config(cfg, {"train": {"data": tmp_path / "one.csv", "out": tmp_path / "o",
                                     "t_window": 8, "d_model": 4, "heads": 2}})
        assert main(["train", "--config", str(cfg)]) == 3
        assert "data error: pair selection needs at least 2 series" in capsys.readouterr().err


class TestScoreCommand:
    def test_scores_training_data(self, workspace):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["score", "--config", str(cfg)]) == 0
        scores_csv = (tmp_path / "scored" / "scores.csv").read_text().splitlines()
        assert scores_csv[0] == "timestamp,anomaly_score,alora_t_score,residual_sq,label"
        values = np.array(
            [[float(c) for c in line.split(",")] for line in scores_csv[1:]]
        )
        assert values.shape[0] == 500
        assert np.isfinite(values).all()
        assert (tmp_path / "scored" / "scores.meta.txt").exists()

    def test_checkpoint_without_h1(self, workspace, capsys):
        """A checkpoint whose h1 is nan, as an uncalibrated one was once
        written, is a data error that leaves no output directory."""
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        from alorat import model as model_mod

        params, tc, _, stats = model_mod.load_checkpoint(tmp_path / "run" / "model.alora")
        bare = tmp_path / "bare.alora"
        model_mod.save_checkpoint(bare, params, tc, float("nan"), stats)
        cfg2 = tmp_path / "noh1.ini"
        write_config(
            cfg2,
            {
                "score": {
                    "checkpoint": bare,
                    "data": tmp_path / "sim" / "sim.csv",
                    "out": tmp_path / "scored2",
                }
            },
        )
        capsys.readouterr()
        assert main(["score", "--config", str(cfg2)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {bare}: header has d_in=2, h1=nan, norm_stats=True\n"
        assert not (tmp_path / "scored2").exists()

    @staticmethod
    def _mismatch(command, workspace, capsys):
        """``command`` on a 3-series CSV with the 2-series checkpoint exits 2
        with one line and leaves no output directory."""
        ws_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        other = ws_path / "three.csv"
        rng = np.random.default_rng(0)
        data.save_csv(
            data.TimeSeriesFrame(values=rng.normal(size=(40, 3)), names=("a", "b", "c")), other
        )
        cfg2 = ws_path / "mismatch.ini"
        write_config(
            cfg2,
            {
                command: {
                    "checkpoint": ws_path / "run" / "model.alora",
                    "data": other,
                    "out": ws_path / "scored3",
                }
            },
        )
        capsys.readouterr()
        assert main([command, "--config", str(cfg2)]) == 2
        assert capsys.readouterr().err == "config error: data has 3 series, checkpoint expects 2\n"
        assert not (ws_path / "scored3").exists()

    def test_shape_mismatch_checkpoint(self, workspace, capsys):
        self._mismatch("score", workspace, capsys)

    def test_localize_shape_mismatch_checkpoint(self, workspace, capsys):
        self._mismatch("localize", workspace, capsys)


    def test_linalg_failure_exits_4(self, workspace, capsys, monkeypatch):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        capsys.readouterr()
        assert main(["score", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == "numeric failure: SVD did not converge\n"

    def test_svd_failure_in_worker_thread_exits_4(self, workspace, capsys, monkeypatch):
        """A non-converging SVD in the last slice of a split Geman stack, run
        on the pool's thread, still ends training with exit 4 and one line."""
        tmp_path, cfg = workspace
        geman_batch = linalg.geman_batch

        def last_matrix_nan(s, r, grad=True):
            s = s.copy()
            s[-1] = np.nan
            return geman_batch(s, r, grad)

        monkeypatch.setattr(linalg, "_WORKERS", 2)
        monkeypatch.setattr(linalg, "geman_batch", last_matrix_nan)
        assert main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err == "numeric failure: numerical failure at epoch 0: SVD did not converge\n"

    def test_non_finite_data_cell(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        csv_path = tmp_path / "sim" / "sim.csv"
        lines = csv_path.read_text().splitlines()
        lines[5] = "nan," + lines[5].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["score", "--config", str(cfg)]) == 3
        assert ":6: non-finite cell" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "localize"])
    def test_overflowing_data_exits_4_before_any_spectrum(self, workspace, capsys, monkeypatch,
                                                          command):
        """Data far outside the checkpoint's normalization overflows the
        forward pass.  Each chunk's residuals are checked before its
        spectrum is taken, so the one line names the first bad series and
        timestep, not a failed eigensolver."""
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        csv_path = tmp_path / "sim" / "sim.csv"
        frame = data.load_csv(csv_path)
        data.save_csv(data.TimeSeriesFrame(values=frame.values * [1.0, 1e307], names=frame.names,
                                           labels=frame.labels), csv_path)

        def no_spectrum(*args, **kwargs):
            raise AssertionError("spectrum of a non-finite chunk")

        monkeypatch.setattr(linalg, "spectrum", no_spectrum)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "numeric failure: non-finite reconstruction residual of series x1 at timestep 0\n")
        assert not (tmp_path / {"score": "scored", "localize": "localized"}[command]).exists()


class TestCheckpointDecoding:
    """A damaged checkpoint is a data error, never a crash.  The CRC-32 line
    covers the rest of the header and the body, so every truncation and
    every single-byte change anywhere in the file is rejected."""

    @pytest.fixture
    def trained(self, workspace):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        raw = (tmp_path / "run" / "model.alora").read_bytes()
        return tmp_path, cfg, raw, raw.index(b"\n\n") + 2

    @staticmethod
    def flip(raw, i, mask):
        return raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1 :]

    def test_every_truncation_and_flip(self, trained):
        tmp_path, _, raw, header_len = trained
        path = tmp_path / "damaged.alora"
        rng = np.random.default_rng(0)

        def load(blob):
            path.write_bytes(blob)
            return model_mod.load_checkpoint(path)

        for cut in range(len(raw)):
            with pytest.raises(DataError):
                load(raw[:cut])
        for i in range(len(raw)):
            if i < header_len:
                with pytest.raises(DataError):
                    load(self.flip(raw, i, 0x80 | int(rng.integers(0, 0x80))))
            with pytest.raises(DataError):
                load(self.flip(raw, i, int(rng.integers(1, 0x100))))
        # One bit of a digit in the header: still ASCII, still a valid value.
        seed_digit = raw.index(b"\nseed=") + len(b"\nseed=")
        with pytest.raises(DataError, match="checksum"):
            load(self.flip(raw, seed_digit, 0x01))

    def test_score_exits_3_with_one_line(self, trained, capsys):
        tmp_path, cfg, raw, header_len = trained
        flipped = self.flip(raw, int(np.random.default_rng(1).integers(0, header_len)), 0x80)
        for blob in (raw[: len(raw) // 2], flipped):
            (tmp_path / "run" / "model.alora").write_bytes(blob)
            capsys.readouterr()
            assert main(["score", "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: ")
            assert len(err.splitlines()) == 1


class TestPipelineCommands:
    def test_localize_eval_chain(self, workspace):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["score", "--config", str(cfg)]) == 0
        assert main(["localize", "--config", str(cfg)]) == 0
        loc_dir = tmp_path / "localized"
        assert (loc_dir / "las.csv").exists()
        assert (loc_dir / "c_matrix.csv").exists()
        assert (loc_dir / "e_matrix.csv").exists()
        las_lines = (loc_dir / "las.csv").read_text().splitlines()
        assert las_lines[0] == "x1,x2"
        assert len(las_lines) == 501

        assert main(["eval", "--config", str(cfg)]) == 0
        report = (tmp_path / "evaled" / "report.txt").read_text()
        assert "detection_best_f1=" in report
        assert "hit_rate_at_100=" in report
        assert "ips=" in report
        assert (tmp_path / "evaled" / "sweep.csv").exists()

    def test_eval_without_positives_is_data_error(self, tmp_path):
        frame = data.TimeSeriesFrame(
            values=np.zeros((10, 1)), names=("a",), labels=np.zeros(10, dtype=int)
        )
        data.save_csv(frame, tmp_path / "truth.csv")
        with open(tmp_path / "scores.csv", "w") as fh:
            fh.write("timestamp,anomaly_score\n")
            for t in range(10):
                fh.write(f"{t},0.5\n")
        cfg = tmp_path / "e0.ini"
        write_config(
            cfg,
            {
                "eval": {
                    "scores": tmp_path / "scores.csv",
                    "data": tmp_path / "truth.csv",
                    "out": tmp_path / "out0",
                }
            },
        )
        assert main(["eval", "--config", str(cfg)]) == 3

    def test_eval_perfect_predictions(self, tmp_path):
        frame = data.TimeSeriesFrame(
            values=np.zeros((50, 1)),
            names=("a",),
            labels=np.array([0] * 20 + [1] * 10 + [0] * 20),
        )
        data.save_csv(frame, tmp_path / "truth.csv")
        with open(tmp_path / "scores.csv", "w") as fh:
            fh.write("timestamp,anomaly_score\n")
            for t in range(50):
                fh.write(f"{t},{1.0 if 20 <= t < 30 else 0.0}\n")
        cfg = tmp_path / "e.ini"
        write_config(
            cfg,
            {
                "eval": {
                    "scores": tmp_path / "scores.csv",
                    "data": tmp_path / "truth.csv",
                    "out": tmp_path / "out",
                }
            },
        )
        assert main(["eval", "--config", str(cfg)]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "detection_best_f1=1.0" in report
        assert "affiliation_f1=1.0" in report


    @staticmethod
    def _eval_inputs(tmp_path, las=None, loc_truth="timestep,series_index\n25,0\n"):
        """A 50 x 2 labelled frame, perfect scores, a matching LAS matrix and
        truth; ``las`` and ``loc_truth`` replace the last two files' text."""
        labels = np.array([0] * 20 + [1] * 10 + [0] * 20)
        frame = data.TimeSeriesFrame(values=np.zeros((50, 2)), names=("a", "b"), labels=labels)
        data.save_csv(frame, tmp_path / "truth.csv")
        (tmp_path / "scores.csv").write_text(
            "timestamp,anomaly_score\n" + "".join(f"{t},{labels[t]}.0\n" for t in range(50))
        )
        (tmp_path / "loc_truth.csv").write_text(loc_truth)
        (tmp_path / "las.csv").write_text(las if las is not None else "a,b\n" + "1.0,0.5\n" * 50)
        cfg = tmp_path / "e.ini"
        write_config(
            cfg,
            {
                "eval": {
                    "scores": tmp_path / "scores.csv",
                    "data": tmp_path / "truth.csv",
                    "las": tmp_path / "las.csv",
                    "loc_truth": tmp_path / "loc_truth.csv",
                    "out": tmp_path / "out",
                    "t_window": 10,
                }
            },
        )
        return cfg

    @staticmethod
    def _assert_data_error(cfg, capsys, where):
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and where in err
        assert len(err.splitlines()) == 1

    def test_eval_matching_las_and_truth(self, tmp_path):
        assert main(["eval", "--config", str(self._eval_inputs(tmp_path))]) == 0
        assert "hit_rate_at_100=1.0" in (tmp_path / "out" / "report.txt").read_text()

    @pytest.mark.parametrize(
        "body, where",
        [("a,b\n0.5,x\n", "las.csv:2:"), ("a,b\n0.5,0.1\n0.5\n", "las.csv:3:"),
         ("a,b\n", "las.csv: no rows")],
        ids=["non_numeric", "ragged", "header_only"],
    )
    def test_eval_bad_las_csv_is_data_error(self, tmp_path, capsys, body, where):
        self._assert_data_error(self._eval_inputs(tmp_path, las=body), capsys, where)

    @pytest.mark.parametrize(
        "body", ["a,b\n" + "1.0,0.5\n" * 40, "a\n" + "1.0\n" * 50],
        ids=["short", "narrow"],
    )
    def test_eval_las_shape_must_match_data(self, tmp_path, capsys, body):
        self._assert_data_error(self._eval_inputs(tmp_path, las=body), capsys, "las.csv: ")

    @pytest.mark.parametrize("row", ["-1,1", "50,0", "25,2"],
                             ids=["negative_timestep", "timestep_past_n", "series_past_d"])
    def test_eval_truth_outside_frame_is_data_error(self, tmp_path, capsys, row):
        cfg = self._eval_inputs(tmp_path, loc_truth=f"timestep,series_index\n{row}\n")
        self._assert_data_error(cfg, capsys, "truth")

    @pytest.mark.parametrize("missing", ["las", "loc_truth"])
    def test_eval_localization_needs_both_inputs(self, tmp_path, capsys, missing):
        cfg = self._eval_inputs(tmp_path)
        lines = cfg.read_text().splitlines(keepends=True)
        cfg.write_text("".join(line for line in lines if not line.startswith(f"{missing} =")))
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{missing!r} is missing" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", ["-50", "0", "abc"])
    def test_eval_bad_p_percents_is_config_error(self, tmp_path, capsys, entry):
        cfg = self._eval_inputs(tmp_path)
        cfg.write_text(cfg.read_text() + f"p_percents = 100,{entry}\n")
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: p_percents") and repr(entry) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_eval_p_percents_above_100(self, tmp_path):
        cfg = self._eval_inputs(tmp_path)
        cfg.write_text(cfg.read_text() + "p_percents = 150\n")
        assert main(["eval", "--config", str(cfg)]) == 0
        assert "hit_rate_at_150=" in (tmp_path / "out" / "report.txt").read_text()

    def test_eval_non_finite_score_is_data_error(self, tmp_path, capsys):
        cfg = self._eval_inputs(tmp_path)
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        lines[7] = "6,nan"
        (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
        self._assert_data_error(cfg, capsys, "scores.csv:8:")


class TestDeploymentFlow:
    def test_scores_spike_on_simulated_anomaly(self, tmp_path):
        """Clean-train / shifted-score through the CLI: the anomaly-score
        column rises sharply inside the simulated segment."""
        cfg = tmp_path / "flow.ini"
        write_config(
            cfg,
            {
                "simulate": {"out": tmp_path / "clean", "seed": 77, "delta": 0.0},
                "train": {
                    "data": tmp_path / "clean" / "sim.csv",
                    "out": tmp_path / "run",
                    "seed": 0,
                    "t_window": 16,
                    "d_model": 4,
                    "heads": 1,
                    "layers": 2,
                    "learning_rate": 1e-3,
                    "max_epochs": 10,
                    "patience": 10,
                    "k_pairs": 1,
                    "batch_size": 64,
                },
                "score": {
                    "checkpoint": tmp_path / "run" / "model.alora",
                    "data": tmp_path / "shifted" / "sim.csv",
                    "out": tmp_path / "scored",
                },
            },
        )
        shifted_cfg = tmp_path / "shifted.ini"
        write_config(
            shifted_cfg, {"simulate": {"out": tmp_path / "shifted", "seed": 0, "delta": 6.0}}
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["simulate", "--config", str(shifted_cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["score", "--config", str(cfg)]) == 0

        lines = (tmp_path / "scored" / "scores.csv").read_text().splitlines()[1:]
        scores = np.array([float(line.split(",")[1]) for line in lines])
        inside = np.median(scores[200:300])
        outside = np.percentile(np.concatenate([scores[:200], scores[300:]]), 95)
        assert inside > outside


class TestSimulateCommand:
    def test_default_dimensions(self, workspace):
        tmp_path, cfg = workspace
        assert main(["simulate", "--config", str(cfg)]) == 0
        frame = data.load_csv(tmp_path / "sim_out" / "sim.csv")
        assert frame.n == 500 and frame.d == 2
        assert frame.labels is not None
        assert (tmp_path / "sim_out" / "sim_loc_truth.csv").exists()

    def test_injection(self, tmp_path):
        cfg = tmp_path / "s.ini"
        write_config(
            cfg,
            {
                "simulate": {
                    "out": tmp_path / "o",
                    "delta": 0.0,
                    "inject_kind": "spike",
                    "inject_series": 1,
                    "inject_start": 400,
                    "inject_end": 401,
                    "inject_magnitude": 12.0,
                }
            },
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        frame = data.load_csv(tmp_path / "o" / "sim.csv")
        assert np.argmax(frame.values[:, 1]) == 400


class TestStarCheckCommand:
    def test_default_grid_passes(self, capsys):
        assert main(["star-check"]) == 0
        out = capsys.readouterr().out
        assert "aggregate=PASS" in out
        assert out.count("mode=skip") == 20

    def test_zero_configs_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sc.ini"
        write_config(cfg, {"star-check": {"configs": 0, "out": tmp_path / "sc"}})
        assert main(["star-check", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: configs must be >= 1\n"
        assert not (tmp_path / "sc").exists()

    def test_report_file(self, tmp_path):
        assert main(["star-check", "--out", str(tmp_path / "sc")]) == 0
        assert (tmp_path / "sc" / "star_report.txt").exists()
        assert (tmp_path / "sc" / "resolved_config.ini").exists()


class TestDeterminism:
    def test_identical_runs_byte_identical_scores(self, workspace):
        tmp_path, cfg = workspace
        for tag in ("a", "b"):
            write_config(
                tmp_path / f"{tag}.ini",
                {
                    "train": {
                        "data": tmp_path / "sim" / "sim.csv",
                        "out": tmp_path / f"run_{tag}",
                        "seed": 9,
                        "t_window": 16,
                        "d_model": 4,
                        "heads": 1,
                        "layers": 1,
                        "max_epochs": 2,
                        "k_pairs": 2,
                        "batch_size": 64,
                    },
                    "score": {
                        "checkpoint": tmp_path / f"run_{tag}" / "model.alora",
                        "data": tmp_path / "sim" / "sim.csv",
                        "out": tmp_path / f"scored_{tag}",
                    },
                },
            )
        for tag in ("a", "b"):
            assert main(["train", "--config", str(tmp_path / f"{tag}.ini")]) == 0
            assert main(["score", "--config", str(tmp_path / f"{tag}.ini")]) == 0
        a = (tmp_path / "scored_a" / "scores.csv").read_bytes()
        b = (tmp_path / "scored_b" / "scores.csv").read_bytes()
        assert a == b


    def test_chain_files_independent_of_helper_thread(self, workspace, monkeypatch):
        """train -> score -> localize -> eval writes the same bytes whether
        the chunks' spectra run inline or on the helper thread."""
        tmp_path, _ = workspace
        sim = tmp_path / "sim"
        chain = tmp_path / "chain"
        cfg = tmp_path / "chain.ini"
        write_config(cfg, {
            "train": {"data": sim / "sim.csv", "out": chain / "run", "seed": 4, "t_window": 16,
                      "d_model": 4, "heads": 2, "layers": 2, "max_epochs": 2, "k_pairs": 2,
                      "batch_size": 64},
            "score": {"checkpoint": chain / "run" / "model.alora", "data": sim / "sim.csv",
                      "out": chain / "scored", "h2": 5.0},
            "localize": {"checkpoint": chain / "run" / "model.alora", "data": sim / "sim.csv",
                         "out": chain / "localized"},
            "eval": {"scores": chain / "scored" / "scores.csv", "data": sim / "sim.csv",
                     "las": chain / "localized" / "las.csv", "loc_truth": sim / "truth.csv",
                     "out": chain / "evaled", "t_window": 16},
        })
        files = []
        for workers in (1, 2):
            monkeypatch.setattr(linalg, "_WORKERS", workers)
            monkeypatch.setattr(model_mod, "_chunk_windows", lambda cfg: 64)  # 8 chunks
            for command in ("train", "score", "localize", "eval"):
                assert main([command, "--config", str(cfg)]) == 0
            files.append({p.relative_to(chain): p.read_bytes()
                          for p in sorted(chain.rglob("*")) if p.is_file()})
            shutil.rmtree(chain)
        assert len(files[0]) == 15
        assert files[0] == files[1]


class TestResolvedConfigRoundTrip:
    def test_rerun_from_resolved_config_reproduces_checkpoint(self, workspace):
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        resolved = tmp_path / "run" / "resolved_config.ini"
        assert main(
            ["train", "--config", str(resolved), "--out", str(tmp_path / "rerun")]
        ) == 0
        original = (tmp_path / "run" / "model.alora").read_bytes()
        redone = (tmp_path / "rerun" / "model.alora").read_bytes()
        assert original == redone


class TestConfigParsing:
    def test_flag_overrides(self, workspace):
        tmp_path, cfg = workspace
        out_dir = tmp_path / "override_out"
        assert main(["train", "--config", str(cfg), "--out", str(out_dir), "--seed", "77"]) == 0
        resolved = (out_dir / "resolved_config.ini").read_text()
        assert "seed = 77" in resolved
        assert (out_dir / "model.alora").exists()

    @pytest.mark.parametrize("command", ["score", "localize", "eval"])
    def test_seed_flag_only_where_read(self, workspace, command, capsys):
        _, cfg = workspace
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_bad_type(self, workspace):
        tmp_path, _ = workspace
        cfg = tmp_path / "badtype.ini"
        write_config(
            cfg,
            {
                "train": {
                    "data": tmp_path / "sim" / "sim.csv",
                    "out": tmp_path / "o4",
                    "t_window": "sixteen",
                }
            },
        )
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "norequired.ini"
        write_config(cfg, {"train": {"out": tmp_path / "o"}})
        assert main(["train", "--config", str(cfg)]) == 2


class TestMainBoundary:
    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        """A ValueError no command turns into a config or data error is a
        defect: one "internal error" line and exit 1, not exit 2."""
        def broken(resolved):
            raise ValueError("too many values to unpack (expected 4)")

        monkeypatch.setitem(harness._COMMANDS, "star-check", (broken, "broken"))
        assert main(["star-check", "--out", str(tmp_path / "sc")]) == 1
        assert capsys.readouterr().err == (
            "internal error: ValueError: too many values to unpack (expected 4)\n")

    def test_library_warning_is_one_line(self, workspace, capsys):
        """top_k above the series count warns from alorat.localize; the CLI
        prints it as one warning line and succeeds."""
        tmp_path, cfg = workspace
        assert main(["train", "--config", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace("[localize]\n", "[localize]\ntop_k = 5\n"))
        capsys.readouterr()
        assert main(["localize", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == "warning: top_k=5 exceeds d=2; clamping\n"

    def test_constant_series_warning_is_one_line(self, tmp_path, capsys):
        values = np.random.default_rng(0).normal(size=(40, 3))
        values[:, 2] = 1.5
        data.save_csv(data.TimeSeriesFrame(values=values, names=("a", "b", "c")),
                      tmp_path / "const.csv")
        cfg = tmp_path / "const.ini"
        write_config(cfg, {"train": {"data": tmp_path / "const.csv", "out": tmp_path / "o",
                                     "t_window": 4, "d_model": 4, "heads": 2, "layers": 1,
                                     "max_epochs": 1}})
        assert main(["train", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: constant series c: its pair correlations set to 0\n"
        assert not [line for line in captured.out.splitlines() if line.startswith("warning")]

    def test_memory_error_is_one_config_line(self, workspace, capsys, monkeypatch):
        """An allocation too large for the machine is a config error, not
        an internal one.  The MemoryError is raised by hand: a real one
        would need an allocation that the kernel may grant and then kill."""
        _, cfg = workspace

        def too_large(frame, cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array\nwith shape (1, 2)")

        monkeypatch.setattr(model_mod, "train", too_large)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: not enough memory: Unable to allocate 7.28 TiB for an array "
            "with shape (1, 2)\n")


# id: (command, config text, exit code, start of the one stderr line).
# {data} is a valid CSV, {rows30} a 30-row one, {latin1} one whose header has
# a Latin-1 byte, {huge} a 120-row one whose series b is scaled by 1e307 (its
# std overflows), {long_cell} one with a 140,000-character header cell,
# {file} an existing file; {ini_dir} and {model_dir} are
# output directories whose resolved_config.ini or model.alora is a directory.
_TRAIN = "[train]\ndata = {data}\nout = {out}\n"
_SIM = "[simulate]\nout = {out}\n"
_STAR = "[star-check]\nout = {out}\nconfigs = 1\n"
_EVAL = "[eval]\nscores = {file}\ndata = {data}\nout = {out}\n"
_TINY = "t_window = 4\nd_model = 4\nheads = 2\nlayers = 1\n"
BOUNDARY_CASES = {
    "out_is_a_file": ("train", "[train]\ndata = {data}\nout = {file}\n", 2, "config error: out "),
    "out_below_a_file": ("train", "[train]\ndata = {data}\nout = {file}/sub\n", 2,
                         "config error: out "),
    "section_header_unclosed": ("train", "[train\ndata = {data}\nout = {out}\n", 2,
                                "config error: File contains no section headers."),
    "key_given_twice": ("train", _TRAIN + "seed = 1\nseed = 2\n", 2,
                        "config error: While reading from"),
    "section_given_twice": ("train", _TRAIN + "[train]\n", 2,
                            "config error: While reading from"),
    "line_without_equals": ("train", _TRAIN + "seed\n", 2,
                            "config error: Source contains parsing"),
    "data_not_utf8": ("train", "[train]\ndata = {latin1}\nout = {out}\n", 3,
                      "data error: {latin1}: not UTF-8 text"),
    "data_std_overflows": ("train", "[train]\ndata = {huge}\nout = {out}\n", 3,
                           "data error: series b: fitted mean or std is not finite"),
    "learning_rate_nan": ("train", _TRAIN + "learning_rate = nan\n", 2,
                          "config error: learning_rate"),
    "learning_rate_inf": ("train", _TRAIN + "learning_rate = inf\n", 2,
                          "config error: learning_rate"),
    "learning_rate_zero": ("train", _TRAIN + "learning_rate = 0\n", 2,
                           "config error: learning_rate"),
    "learning_rate_negative": ("train", _TRAIN + "learning_rate = -1e-3\n", 2,
                               "config error: learning_rate"),
    # finite and positive: training diverges at epoch 0
    "learning_rate_huge": ("train", "[train]\ndata = {rows30}\nout = {out}\n" + _TINY
                           + "max_epochs = 2\nlearning_rate = 1e300\n", 4, "numeric failure: "),
    "lambda_reg_nan": ("train", _TRAIN + "lambda_reg = nan\n", 2, "config error: lambda_reg"),
    "lambda_reg_inf": ("train", _TRAIN + "lambda_reg = inf\n", 2, "config error: lambda_reg"),
    "lambda_reg_negative": ("train", _TRAIN + "lambda_reg = -1\n", 2,
                            "config error: lambda_reg"),
    "unknown_key": ("train", _TRAIN + "not_a_key = 7\n", 2, "config error: unknown keys"),
    "missing_data_file": ("train", "[train]\ndata = {out}.csv\nout = {out}\n", 3,
                          "data error: missing input file"),
    "score_data_is_directory": ("score", "[score]\ncheckpoint = {file}\ndata = {dir}\n"
                                "out = {out}\n", 3,
                                "data error: {dir} is a directory, not a file\n"),
    "simulate_sigma1_negative": ("simulate", _SIM + "sigma1 = -1\n", 2,
                                 "config error: sigma1 must be"),
    "simulate_n_negative": ("simulate", _SIM + "n = -5\n", 2, "config error: n must be"),
    "simulate_delta_nan": ("simulate", _SIM + "delta = nan\n", 2,
                           "config error: delta must be"),
    "simulate_t2_beyond_n": ("simulate", _SIM + "n = 250\n", 2,
                             "config error: need 0 <= t1 < t2 <= n"),
    "star_check_seed_negative": ("star-check", _STAR + "seed = -1\n", 2,
                                 "config error: seed must be"),
    "star_check_tolerance_nan": ("star-check", _STAR + "tolerance = nan\n", 2,
                                 "config error: tolerance must be"),
    "star_check_tolerance_zero": ("star-check", _STAR + "tolerance = 0\n", 2,
                                  "config error: tolerance must be"),
    "score_h2_nan": ("score", "[score]\ncheckpoint = {file}\ndata = {data}\nout = {out}\n"
                     "h2 = nan\n", 2, "config error: h2 must be a number, not nan\n"),
    "localize_top_k_zero": ("localize", "[localize]\ncheckpoint = {file}\ndata = {data}\n"
                            "out = {out}\ntop_k = 0\n", 2, "config error: top_k must be >= 1\n"),
    "eval_t_window_zero": ("eval", _EVAL + "t_window = 0\n", 2,
                           "config error: t_window must be >= 1\n"),
    "eval_horizon_zero": ("eval", _EVAL + "horizon = 0\n", 2,
                          "config error: horizon must be >= 1\n"),
    "eval_scores_without_column": ("eval", "[eval]\nscores = {data}\ndata = {data}\n"
                                   "out = {out}\n", 3, "data error: {data}: expected a scores "
                                   "CSV with an anomaly_score column\n"),
    "eval_p_percents_empty": ("eval", _EVAL + "las = {file}\nloc_truth = {file}\n"
                              "p_percents = ,\n", 2, "config error: p_percents has no entries\n"),
    "resolved_config_unwritable": ("train", "[train]\ndata = {data}\nout = {ini_dir}\n", 2,
                                   "config error: cannot write {ini_dir}/resolved_config.ini: "),
    "checkpoint_unwritable": ("train", "[train]\ndata = {rows30}\nout = {model_dir}\n" + _TINY
                              + "max_epochs = 1\n", 2,
                              "config error: cannot write {model_dir}/model.alora: "),
    "header_cell_too_long": ("train", "[train]\ndata = {long_cell}\nout = {out}\n", 3,
                             "data error: {long_cell}: field larger than field limit (131072)\n"),
    **{f"train_{key}_{value}": ("train", _TRAIN + f"{key} = {value}\n", 2,
                                f"config error: {key} must be {requirement}\n")
       for key, value, requirement in [
           ("patience", -1, ">= 0"), ("batch_size", 0, ">= 1"), ("k_pairs", 0, ">= 1"),
           ("max_epochs", 0, ">= 1"), ("heads", 0, ">= 1"), ("d_model", 0, ">= 1"),
           ("kernel_size", 2, "odd and >= 1"), ("activation", "relu", "one of identity, gelu"),
           ("mask", "full", "one of none, causal"),
           ("pair_method", "kendall", "one of spearman, pearson")]},
}


@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_boundary_failure_is_one_line(tmp_path, capsys, case):
    """Each failure at the CLI boundary exits with its documented code
    (2 config, 3 data, 4 numeric) and one stderr line, never a traceback
    and no warning, which would print lines of its own.  A config or data
    error writes no output."""
    command, text, code, start = BOUNDARY_CASES[case]
    paths = {"data": tmp_path / "data.csv", "rows30": tmp_path / "rows30.csv",
             "latin1": tmp_path / "latin1.csv", "huge": tmp_path / "huge.csv",
             "long_cell": tmp_path / "long_cell.csv", "file": tmp_path / "file",
             "out": tmp_path / "out", "ini_dir": tmp_path / "ini_dir",
             "model_dir": tmp_path / "model_dir", "dir": tmp_path / "dir"}
    paths["dir"].mkdir()
    (paths["ini_dir"] / "resolved_config.ini").mkdir(parents=True)
    (paths["model_dir"] / "model.alora").mkdir(parents=True)
    paths["data"].write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    rows = np.random.default_rng(0).normal(size=(30, 2)).tolist()
    paths["rows30"].write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows),
                               encoding="utf-8")
    paths["latin1"].write_bytes("a,b\u00e9\n1,2\n3,4\n".encode("latin-1"))
    huge = np.random.default_rng(1).normal(size=(120, 2)) * [1.0, 1e307]
    paths["huge"].write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in huge.tolist()),
                             encoding="utf-8")
    paths["long_cell"].write_text("a," + "b" * 140_000 + "\n1,2\n3,4\n", encoding="utf-8")
    paths["file"].write_text("")
    ini = tmp_path / "boundary.ini"
    ini.write_text(text.format(**paths), encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(ini)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(start.format(**paths))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.out + captured.err
    assert [str(w.message) for w in caught] == []
    if code in (2, 3):
        assert not paths["out"].exists()

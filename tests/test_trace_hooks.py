"""The benchmark's span tracer (perfbench/spans.py) wraps alorat's layer
boundaries from outside, by attribute.  A refactor that renames one of them,
or that stops calling it through its module, silently empties that layer's
figures; these tests catch both."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from alorat import data, harness, linalg, model  # noqa: E402


def _originals():
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, _, _ in spans.TRACED}


def test_install_and_uninstall_restore_every_boundary():
    before, commands = _originals(), dict(harness._COMMANDS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, _, _ in spans.TRACED:
            assert owner.__dict__[attr] is not before[(id(owner), attr)], attr
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert harness._COMMANDS == commands


def test_layer_calls_go_through_traced_attributes():
    rng = np.random.default_rng(0)
    frame = data.TimeSeriesFrame(values=rng.normal(size=(120, 3)), names=("a", "b", "c"))
    cfg = model.TrainConfig(t_window=8, d_model=4, heads=2, layers=2, max_epochs=1,
                            k_pairs=3, batch_size=32)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = model.train(frame, cfg)
        model.score_frame(frame, result.params, cfg, result.thresholds.h1)
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    for name in ("attention.forward_t", "linalg.softmax_last", "embedding.pair_conv",
                 "linalg.geman_batch", "autograd.backward", "data.windows",
                 "model.batch_forward.validation", "model.batch_forward.calibration",
                 "model.batch_forward.scoring"):
        assert layers[name]["calls"] > 0, name
    # validation decomposes matrices under total_loss and drops their U/V
    geman = layers["linalg.geman_batch"]
    assert 0 < geman["grad_discarded"] < geman["matrices"]


def test_traced_calls_stay_on_the_callers_thread(monkeypatch):
    """The tracer keeps one span stack and assumes one thread makes every
    traced call.  With the chunks' spectra on the helper thread of
    `linalg.overlap`, self-times stay non-negative and every forward of the
    12 calibration and 12 scoring chunks is attributed to its pass."""
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    rng = np.random.default_rng(1)
    frame = data.TimeSeriesFrame(values=rng.normal(size=(3000, 3)), names=("a", "b", "c"))
    cfg = model.TrainConfig(t_window=16, d_model=4, heads=2, layers=2, max_epochs=1,
                            k_pairs=3, batch_size=256)
    assert model._chunk_windows(cfg) == 256
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = model.train(frame, cfg)
        model.score_frame(frame, result.params, cfg, result.thresholds.h1)
    finally:
        tracer.uninstall()
    assert min(tracer.self_times()) >= 0
    layers = tracer.aggregate()
    assert layers["model.batch_forward.calibration"]["calls"] == 12
    assert layers["model.batch_forward.scoring"]["calls"] == 12

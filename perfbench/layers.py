"""The per-layer metrics of the traced run, and the end-to-end metric each
one should move on which workload.

A layer is one alorat module; a metric name is ``<span>.<field>``. Fields:
``calls``; ``self_s`` (span time minus its child spans); ``s`` (span time);
``bytes``, ``matrices``, ``epochs`` (counts computed from array shapes,
file sizes and results, not from timing); ``grad_discarded_frac``. Every
value is per operation (median over the traced operations), except the
fraction, which is taken over all of them. `zero_on` names the workloads
whose operations never enter the layer, where the metric must read 0.
"""

from __future__ import annotations

from dataclasses import dataclass

FIT, SCORE, CLI = "fit", "score", "cli"
UNITS = {"calls": "count", "self_s": "s", "s": "s", "bytes": "B", "matrices": "count",
         "epochs": "count", "grad_discarded_frac": "fraction"}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    moves: str
    zero_on: tuple = ()

    @property
    def span(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def field(self) -> str:
        return self.name.rsplit(".", 1)[1]

    @property
    def unit(self) -> str:
        return UNITS[self.field]


def _group(span, fields, moves, zero_on=()):
    return [LayerMetric(f"{span}.{f}", moves, zero_on) for f in fields]


LAYER_METRICS: list[LayerMetric] = [
    *_group("linalg.geman_batch", ("calls", "self_s", "matrices"),
            "op_s on fit (full-SVD Geman gradient, about half a fit)", (SCORE,)),
    LayerMetric("linalg.geman_batch.grad_discarded_frac",
                "op_s on fit: matrices decomposed under model.total_loss whose U/V are dropped",
                (SCORE,)),
    *_group("linalg.softmax_last", ("calls", "self_s"), "op_s on score and fit"),
    *_group("autograd.backward", ("calls", "self_s"),
            "op_s on fit; op_s on cli through its train step", (SCORE,)),
    *_group("autograd.adam_step", ("calls", "self_s"),
            "op_s on fit; op_s on cli through its train step", (SCORE,)),
    *_group("embedding.pair_conv", ("calls", "self_s"), "op_s on score and fit"),
    LayerMetric("embedding.select_pairs.self_s",
                "op_s on fit; op_s on cli, where d is wide (C(d,2) pairs)", (SCORE,)),
    *_group("attention.forward_t", ("calls", "self_s"), "op_s on score and fit"),
    LayerMetric("model.batch_forward.scoring.self_s",
                "op_s on score: final-layer SVD of the scored windows", (FIT,)),
    LayerMetric("model.batch_forward.validation.self_s",
                "op_s on fit: per-epoch validation pass", (SCORE,)),
    LayerMetric("model.batch_forward.calibration.self_s",
                "op_s on fit: h1 calibration over all training windows", (SCORE,)),
    *_group("model.train", ("self_s", "epochs"), "op_s on fit and cli", (SCORE,)),
    LayerMetric("model.score_frame.self_s", "op_s on score and cli", (FIT,)),
    LayerMetric("model.save_checkpoint.self_s", "op_s on cli", (FIT, SCORE)),
    LayerMetric("model.load_checkpoint.self_s", "op_s on cli", (FIT, SCORE)),
    *_group("data.windows", ("calls", "self_s", "bytes"),
            "peak_rss_mb on score (an N x T x d copy of the series)"),
    *_group("data.load_csv", ("calls", "self_s", "bytes"), "op_s on cli", (FIT, SCORE)),
    *_group("data.save_csv", ("calls", "self_s", "bytes"), "op_s on cli", (FIT, SCORE)),
    LayerMetric("data.normalize.self_s", "op_s on cli", (FIT, SCORE)),
    LayerMetric("localize.las.self_s", "op_s on score", (FIT,)),
    LayerMetric("localize.contribution_weights.self_s", "op_s on score", (FIT,)),
    *_group("localize.save_las_csv", ("self_s", "bytes"), "op_s on cli", (FIT, SCORE)),
    LayerMetric("localize.save_matrix_csv.self_s", "op_s on cli", (FIT, SCORE)),
    *[LayerMetric(f"metrics.{fn}.self_s", "op_s on cli", (FIT, SCORE))
      for fn in ("best_f1_sweep", "f1_sweep_curve", "affiliation_pr", "ips", "write_sweep_csv")],
    *[m for cmd in ("train", "score", "localize", "eval", "star-check")
      for m in _group(f"harness.{cmd}", ("s", "self_s"),
                      "op_s on cli (self time: the command's own row formatting and reading)",
                      (FIT, SCORE))],
    LayerMetric("star_verify.run_grid.self_s", "op_s on cli", (FIT, SCORE)),
]

# Reported by the traced run next to the layer metrics: traced minus
# untraced median operation time, alternating the two within one run.
OVERHEAD_METRICS = [("trace.overhead_s", "s"), ("trace.overhead_frac", "fraction")]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run prints, in order."""
    return [(m.name, m.unit) for m in LAYER_METRICS] + OVERHEAD_METRICS

"""Span tracing of alorat's layers from outside the package.

`Tracer.install()` replaces each traced public function at the attribute
its callers look it up through, and `uninstall()` puts the originals back.
`alorat` itself is never edited. A span records its name, start, end and
parent; counts computed from arguments, results and file sizes ride on the
span that did the work.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from alorat import (attention, autograd, data, embedding, harness, linalg, localize, metrics,
                    model, star_verify)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


# Count hooks: (tracer, span, args, result) -> None.


def _count_geman(tracer, span, args, result):
    span.counts["matrices"] = int(np.prod(args[0].shape[:-2]))
    if tracer.has_ancestor(span, "model.total_loss"):
        span.counts["grad_discarded"] = span.counts["matrices"]


def _count_windows(tracer, span, args, result):
    span.counts["bytes"] = int(result.nbytes)


def _count_file_arg(index):
    def hook(tracer, span, args, result):
        span.counts["bytes"] = os.path.getsize(args[index])

    return hook


def _count_epochs(tracer, span, args, result):
    span.counts["epochs"] = len(result.history)


# (owner, attribute, span name, count hook) for every traced layer boundary.
# `model` holds its own reference to `windows`, so that is wrapped where
# `model` looks it up as well as where it is defined.
TRACED = [
    (linalg, "geman_batch", "linalg.geman_batch", _count_geman),
    (linalg, "softmax_last", "linalg.softmax_last", None),
    (autograd.Tensor, "backward", "autograd.backward", None),
    (autograd.Adam, "step", "autograd.adam_step", None),
    (embedding, "pair_conv", "embedding.pair_conv", None),
    (embedding, "select_pairs", "embedding.select_pairs", None),
    (attention, "forward_t", "attention.forward_t", None),
    (model, "batch_forward", "model.batch_forward", None),
    (model, "total_loss", "model.total_loss", None),
    (model, "train", "model.train", _count_epochs),
    (model, "score_frame", "model.score_frame", None),
    (model, "save_checkpoint", "model.save_checkpoint", None),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (model, "windows", "data.windows", _count_windows),
    (data, "windows", "data.windows", _count_windows),
    (data, "load_csv", "data.load_csv", _count_file_arg(0)),
    (data, "save_csv", "data.save_csv", _count_file_arg(1)),
    (data, "normalize", "data.normalize", None),
    (localize, "las", "localize.las", None),
    (localize, "contribution_weights", "localize.contribution_weights", None),
    (localize, "save_las_csv", "localize.save_las_csv", _count_file_arg(0)),
    (localize, "save_matrix_csv", "localize.save_matrix_csv", None),
    (star_verify, "run_grid", "star_verify.run_grid", None),
]
TRACED += [(metrics, name, f"metrics.{name}", None)
           for name in ("best_f1_sweep", "f1_sweep_curve", "affiliation_pr", "ips",
                        "write_sweep_csv")]


_BATCH_FORWARD_ROLES = {"model.total_loss": "validation", "model.train": "calibration",
                        "model.score_frame": "scoring"}


class Tracer:
    """In-memory span recorder; install around the calls to be traced."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def has_ancestor(self, span: Span, name: str) -> bool:
        idx = span.parent
        while idx >= 0:
            if self.spans[idx].name == name:
                return True
            idx = self.spans[idx].parent
        return False

    def call(self, name, fn, hook, args, kwargs):
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, span, args, result)
        return result

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span the benchmark names itself."""
        return self.call(name, fn, None, args, kwargs)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, hook, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------------

    def install(self):
        for owner, attr, name, hook in TRACED:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, hook))
            self._undo.append((owner, attr, original))
        # `main` dispatches through the references stored in _COMMANDS.
        commands = harness._COMMANDS
        original_commands = dict(commands)
        for cmd, (fn, help_text) in original_commands.items():
            commands[cmd] = (self._wrap(f"harness.{cmd}", fn, None), help_text)
        self._undo.append((commands, None, original_commands))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def self_times(self, first: int = 0) -> list[float]:
        """Span duration minus the time its direct children cover, for
        spans[first:]; spans nest because one thread makes every call."""
        child = [0.0] * (len(self.spans) - first)
        for span in self.spans[first:]:
            if span.parent >= first:
                child[span.parent - first] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans[first:], child)]

    def aggregate(self, first: int = 0) -> dict:
        """Per span name over spans[first:]: calls, self_s, s, and summed
        counts. `model.batch_forward` is also split by its parent into
        validation, calibration and scoring."""
        out = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(self.spans[first:], self.self_times(first)):
            keys = [span.name]
            if span.name == "model.batch_forward" and span.parent >= 0:
                role = _BATCH_FORWARD_ROLES.get(self.spans[span.parent].name)
                if role is not None:
                    keys.append(f"{span.name}.{role}")
            for key in keys:
                agg = out[key]
                agg["calls"] += 1
                agg["self_s"] += self_s
                agg["s"] += span.end - span.start
                for name, value in span.counts.items():
                    agg[name] += value
        return out

    def dump(self, path):
        """One JSON line per span: name, start, end, parent index, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, **span.counts}) + "\n")

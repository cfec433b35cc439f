"""In-memory spans and counts around the calls into each densop layer.

`Tracer.install` replaces the public functions of each layer module with
timing wrappers at every place a caller looks them up: the module that
defines the function and every densop module that imported it by name.
Methods are wrapped on their class. Each call records a span (name, start,
end, parent span id) and, for a few functions, a count of the work it was
given. `restore` puts the originals back. Spans stay in memory until the
run ends; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "basis", "embedding", "learn", "target", "oracles",
          "discrete")
# `config` is not wrapped: its work is counted in the cli span's self time.
MODULES = LAYERS + ("config",)

# Inclusive times of single functions, as per-layer metric names.
SPAN_METRICS = {
    "learn.exact_s": "learn.embedded_density_exact",
    "learn.map_s": "learn.embedded_density_map",
    "learn.map_coefficients_s": "learn.map_coefficients",
    "learn.ratio_s": "learn.normalized_ratio",
    "target.sample_s": "target.BetaTarget.sample",
    "target.load_samples_s": "target.load_samples",
    "oracles.discrete_s": "oracles.suite_discrete",
    "oracles.basis_s": "oracles.suite_basis",
    "oracles.embedding_s": "oracles.suite_embedding",
    "oracles.learn_s": "oracles.suite_learn",
}
COUNT_METRICS = ("embedding.kernel_matrix.calls", "embedding.kernel_entries",
                 "basis.eval_father.calls", "basis.points_evaluated",
                 "basis.max_matrix_mb", "target.samples_drawn")
# Methods are wrapped on their class. The discrete states validate
# themselves on construction, which is most of that layer's work.
_METHODS = {
    "target": {"BetaTarget": ("sample", "density", "quantile", "cdf")},
    "discrete": {cls: ("__post_init__",) for cls in (
        "WaveFunction", "DensityMatrix", "DiscreteDistribution",
        "UnitaryBasis")},
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _count_kernel_matrix(counts, args):
    s, t = args[1], args[2]
    counts["embedding.kernel_matrix.calls"] += 1
    counts["embedding.kernel_entries"] += _size(s) * _size(t)


def _count_eval_father(counts, args):
    counts["basis.eval_father.calls"] += 1
    counts["basis.points_evaluated"] += _size(args[2])


def _count_basis_matrix(counts, args):
    mb = args[0].size * _size(args[1]) * 8 / 1e6
    counts["basis.max_matrix_mb"] = max(counts["basis.max_matrix_mb"], mb)


def _count_sample(counts, args):
    counts["target.samples_drawn"] += int(args[1])


_COUNTERS = {
    "embedding.kernel_matrix": _count_kernel_matrix,
    "basis.eval_father": _count_eval_father,
    "basis.basis_matrix": _count_basis_matrix,
    "target.BetaTarget.sample": _count_sample,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent id]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if counter is not None:
                counter(counts, args)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {m: importlib.import_module(f"densop.{m}") for m in MODULES}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for site in modules.values():
                    for site_attr, value in vars(site).copy().items():
                        if value is fn:
                            self._set(site, site_attr, wrapped)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    self._set(cls, attr, self._wrap(
                        f"{layer}.{cls_name}.{attr}", getattr(cls, attr)))
        return self

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c
                for (_, start, end, _), c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({metric: 0.0 for metric in SPAN_METRICS})
        out.update({metric: 0.0 for metric in COUNT_METRICS})
        by_span = {span: metric for metric, span in SPAN_METRICS.items()}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            out[name.split(".", 1)[0] + ".self_s"] += own
            if name in by_span:
                out[by_span[name]] += end - start
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

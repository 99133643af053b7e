"""Spans and counters around relscore's public functions, installed from outside.

Each traced function is wrapped once, and the wrapper replaces every
binding of the original in every loaded `relscore.*` namespace.  Calls
made through `from .graphs import build_tsne_graph` aliases in metrics,
optimizer and cli are therefore caught as well as calls through the
home module.  A function that no relscore module binds any more is
reported as dropped, together with the metrics that depended on it;
the run goes on without them.

Spans stay in memory: name, request (the index of the CLI command that
caused it), parent span, start, end, and the time covered by direct
children, from which self time follows.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_graph(counts, args, kwargs, graph):
    counts["graphs.edges"] += graph.n_edges
    counts["graphs.non_converged"] += int(graph.provenance.options.get("non_converged", 0))


def _count_knn(counts, args, kwargs, result):
    n = result.n
    counts["knn.pairs"] += n * (n - 1)


def _count_save(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["graphs.save_graph.bytes"] += os.path.getsize(path)


def _count_estimate(counts, args, kwargs, result):
    trials = result[1].trials
    counts["optimizer.trials"] += len(trials)
    counts["optimizer.failed_trials"] += sum(t.error is not None for t in trials)


@dataclass(frozen=True)
class Target:
    """A public function to wrap, the span it records, and what it counts."""

    module: str
    function: str
    span: str | Callable[[tuple], str]
    count: Callable | None = None
    metrics: tuple[str, ...] = ()


TARGETS = (
    Target("datasets", "load_dataset", "datasets.load_dataset",
           metrics=("datasets.load_dataset.s",)),
    Target("knn", "exact_knn", "knn.exact_knn", _count_knn,
           ("knn.exact_knn.s", "knn.exact_knn.calls", "knn.pairs", "knn.useful_ratio")),
    Target("graphs", "build_tsne_graph", "graphs.build", _count_graph,
           ("graphs.build.s", "graphs.build.self_s", "graphs.edges",
            "graphs.non_converged")),
    Target("graphs", "build_umap_graph", "graphs.build", _count_graph,
           ("graphs.build.s", "graphs.build.self_s", "graphs.edges",
            "graphs.non_converged")),
    Target("graphs", "save_graph", "graphs.save_graph", _count_save,
           ("graphs.save_graph.s", "graphs.save_graph.bytes")),
    Target("graphs", "load_graph", "graphs.load_graph",
           metrics=("graphs.load_graph.s",)),
    Target("metrics", "report", "metrics.report",
           metrics=("metrics.report.s", "metrics.report.self_s")),
    Target("metrics", "intra_label_components", "metrics.intra_label_components",
           metrics=("metrics.intra_label_components.s",)),
    Target("metrics", "write_vertex_csv", "metrics.write_vertex_csv",
           metrics=("metrics.write_vertex_csv.s",)),
    Target("metrics", "sweep", "metrics.sweep", metrics=("metrics.sweep.self_s",)),
    Target("optimizer", "estimate", "optimizer.estimate", _count_estimate,
           ("optimizer.estimate.self_s", "optimizer.trials", "optimizer.failed_trials")),
    Target("optimizer", "fit_surrogate", "optimizer.fit_surrogate",
           metrics=("optimizer.fit_surrogate.s",)),
    Target("cli", "main", lambda args: f"cli.{args[0][0]}"),
)


def _relscore_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "relscore" or name.startswith("relscore."))]


def _locate(target: Target):
    """The function object, from its home module or, after a move, any relscore module."""
    home = sys.modules.get(f"relscore.{target.module}")
    fn = getattr(home, target.function, None)
    if callable(fn):
        return fn
    for module in _relscore_modules():
        fn = getattr(module, target.function, None)
        if callable(fn) and getattr(fn, "__module__", "").startswith("relscore"):
            return fn
    return None


class Tracer:
    """Wraps the targets while installed; accumulates spans and counts."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = 0
        self.dropped: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _relscore_modules()
        for target in self.targets:
            fn = _locate(target)
            if fn is None:
                for metric in target.metrics:
                    self.dropped[metric] = (f"relscore.{target.module}.{target.function} "
                                            "is no longer bound in any relscore module")
                continue
            wrapper = self._wrap(target, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, target: Target, fn):
        name_of = target.span if callable(target.span) else (lambda args, n=target.span: n)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args)
            index = len(spans)
            spans.append(Span(name, self.request, stack[-1] if stack else None,
                              time.perf_counter()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = spans[index]
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            counts[f"{name}.calls"] += 1
            if target.count is not None:
                target.count(counts, args, kwargs, result)
            return result

        return traced

    def busy(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span in self.spans:
            inclusive[span.name] += span.duration
            own[span.name] += span.duration - span.child_s
        return inclusive, own

"""Spans, counts and self time around the library's public functions.

The traced run replaces selected public functions with timing wrappers, in
every namespace a caller resolves them from (``crossfuse.trainer`` imports
``recommend_all`` by name, so both ``crossfuse.evaluate.recommend_all`` and
``crossfuse.trainer.recommend_all`` are replaced).  Nothing inside ``src/`` is
changed: the wrappers live only here and are installed only by a traced run.

A span is (id, parent id, name, start, end).  A name's self time is the sum of
its spans' durations minus the parts covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path

_PAGE_MB = resource.getpagesize() / 2 ** 20


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 1
        self.enabled = True

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def leave(self) -> None:
        span_id, name, start, child = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((span_id, parent, name, start, end))
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrapping --------------------------------------------------------

    def wrap(self, func, name, before=None, after=None):
        """A wrapper that records one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``before``/``after`` hooks see the arguments (and the result)."""
        tracer = self

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            state = before(*args, **kwargs) if before else None
            tracer.enter(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.leave()
            if after:
                after(state, result, *args, **kwargs)
            return result

        return wrapped

    def patch(self, owners, attr: str, name, before=None, after=None) -> None:
        """Replace ``attr`` on every owner (module or class) with one wrapper
        around the first owner's original."""
        original = getattr(owners[0], attr)
        wrapped = self.wrap(original, name, before, after)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function the others hold")
            setattr(owner, attr, wrapped)

    def write_spans(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions the trainer, the CLI and the benchmark call."""
    from crossfuse import auxnet, backbone, cli, data, evaluate, fusion, graph, optim, trainer

    t = tracer
    t.patch([auxnet.AuxEncoder], "forward", "auxnet.AuxEncoder.forward")
    t.patch([auxnet.AuxEncoder], "backward", "auxnet.AuxEncoder.backward")
    t.patch([auxnet.AuxGcnStack], "forward", "auxnet.AuxGcnStack.forward")
    t.patch([auxnet.AuxGcnStack], "backward", "auxnet.AuxGcnStack.backward")
    t.patch([auxnet], "squared_score_loss", "auxnet.squared_score_loss")

    def propagation_flops(state, result, model, *args, **kwargs):
        # Each layer is one sparse-dense product: 2 * nnz(adj) * dim operations.
        dim = result.values.shape[1] if hasattr(result, "values") else result.shape[1]
        t.count("backbone.propagation.flops", 2.0 * model.adj.nnz * dim * model.cfg.num_layers)

    t.patch([backbone.LightGCN], "forward", "backbone.LightGCN.forward", after=propagation_flops)
    t.patch([backbone.LightGCN], "backward", "backbone.LightGCN.backward", after=propagation_flops)
    t.patch([backbone, fusion], "bpr_loss_and_feature_grad", "backbone.bpr_loss_and_feature_grad")

    for fn in ("fused_objective_grad", "cross_fusion_loss", "concat_fusion_loss",
               "weighted_sum_fusion_loss"):
        t.patch([fusion], fn, f"fusion.{fn}")
    t.patch([optim.Adam], "step", "optim.Adam.step")

    t.patch([trainer], "train_stage1", "trainer.train_stage1")
    t.patch([trainer], "train_stage2", "trainer.train_stage2")

    t.patch([evaluate, trainer], "recommend_all", "evaluate.recommend_all")
    t.patch([evaluate, trainer], "ranking_metrics", "evaluate.ranking_metrics")
    t.patch([evaluate], "category_kl", "evaluate.category_kl")

    t.patch([data, cli], "load_interactions", "data.load_interactions")
    t.patch([data, cli], "split_dataset", "data.split_dataset")
    t.patch([data, cli], "encode_auxiliary", "data.encode_auxiliary")

    def sim_name(R, axis="rows", *args, **kwargs):
        return f"graph.build_similarity_graph.{axis}"

    def sim_before(*args, **kwargs):
        return current_rss_mb(), peak_rss_mb()

    def sim_after(state, result, *args, **kwargs):
        # Memory the call added at its peak is known only when the call raised
        # the process's high-water mark; otherwise it adds nothing here.
        rss_before, peak_before = state
        peak_after = peak_rss_mb()
        delta = peak_after - rss_before if peak_after > peak_before else 0.0
        key = "graph.build_similarity_graph.rss_delta_mb"
        t.counters[key] = max(t.counters.get(key, 0.0), delta)

    t.patch([graph, cli], "build_similarity_graph", sim_name, before=sim_before, after=sim_after)
    t.patch([graph, cli], "normalize_bipartite", "graph.normalize_bipartite")
    t.patch([graph, cli], "save_graph", "graph.save_graph")
    t.patch([graph, cli], "load_graph", "graph.load_graph")

"""Span tracing around the calls into rpspectral, kept in memory.

The package itself carries no tracing. ``instrument`` swaps each traced
public function (and the harness stage context manager) for a wrapper that
records a span, in every rpspectral module that binds the name, and puts the
originals back on exit. A span holds its name, its parent's index, and its
start and end on ``time.perf_counter``; a span's self time is its duration
minus the durations of its direct children, which nest strictly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

STAGE_PREFIX = "harness.stage."

# Public functions timed at their module boundary: (module, attribute).
# ``leaf_size_stats`` and the pair counts are read afterwards from the
# results these calls return, so they add nothing to any span.
TRACED_FUNCTIONS = (
    ("rptree", "build_tree"),
    ("rptree", "split_node"),
    ("pairing", "rptree_pairs"),
    ("pairing", "knn_pairs"),
    ("siamese", "siamese_distances"),
    ("siamese", "select_bandwidth"),
    ("siamese", "pairwise_distances"),
    ("siamese", "heat_kernel"),
    ("spectralnet", "orthogonalize"),
    ("spectralnet", "ortho_residual"),
    ("spectralnet", "spectral_loss"),
    ("clustering", "kmeans"),
    ("clustering", "ari"),
)
TRACED_METHODS = (
    ("mlp", "Mlp", "forward"),
    ("mlp", "Mlp", "backward"),
    ("mlp", "Adam", "step"),
)
# Spans whose return value is kept for counting after the run.
KEEP_RESULT = frozenset({"rptree.build_tree", "pairing.rptree_pairs", "pairing.knn_pairs"})


class Span:
    __slots__ = ("name", "parent", "start", "end", "result")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.result = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans = []
        self._open = []

    def open(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(index)
        return index

    def close(self, index, result=None):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        if span.name in KEEP_RESULT:
            span.result = result

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, result)

        return traced


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "rpspectral" or name.startswith("rpspectral."))
    ]


@contextmanager
def instrument(tracer):
    """Trace the listed rpspectral calls while the block runs."""
    import rpspectral.harness as harness
    import rpspectral.mlp as mlp

    modules = _package_modules()
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for module_name, attr in TRACED_FUNCTIONS:
        original = getattr(sys.modules[f"rpspectral.{module_name}"], attr)
        traced = tracer.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            if getattr(module, attr, None) is original:
                patch(module, attr, traced)
    for module_name, cls_name, attr in TRACED_METHODS:
        cls = getattr(mlp, cls_name)
        patch(cls, attr, tracer.wrap(f"{module_name}.{cls_name}.{attr}", getattr(cls, attr)))

    original_stage = harness._stage

    @contextmanager
    def traced_stage(name, durations):
        # The span opens before and closes after the harness's own timer, so
        # it bounds record["durations"][name] from above by a few microseconds.
        with tracer.span(STAGE_PREFIX + name), original_stage(name, durations):
            yield

    patch(harness, "_stage", traced_stage)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class SpanTable:
    """Per-stage totals over a list of spans.

    Each span is attributed to its nearest enclosing stage span (or to no
    stage). ``total`` sums durations and ``self_time`` sums self times, both
    keyed by (stage, span name); ``count`` counts spans the same way.
    ``name_total`` and ``name_count`` do the same across all stages.
    """

    def __init__(self, spans):
        n = len(spans)
        children = [0.0] * n
        for span in spans:
            if span.parent >= 0:
                children[span.parent] += span.duration
        self.self_times = [span.duration - children[i] for i, span in enumerate(spans)]
        stage = [None] * n
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = Counter()
        self.name_total = defaultdict(float)
        self.name_count = Counter()
        for i, span in enumerate(spans):
            if span.name.startswith(STAGE_PREFIX):
                stage[i] = span.name[len(STAGE_PREFIX):]
                key = (None, span.name)
            else:
                stage[i] = stage[span.parent] if span.parent >= 0 else None
                key = (stage[i], span.name)
            self.total[key] += span.duration
            self.self_time[key] += self.self_times[i]
            self.count[key] += 1
            self.name_total[span.name] += span.duration
            self.name_count[span.name] += 1

    def stage_total(self, stage):
        return self.total[(None, STAGE_PREFIX + stage)]

    def stage_self(self, stage):
        return self.self_time[(None, STAGE_PREFIX + stage)]

"""Measure one workload: set-up, a closed loop of operations, output checks.

``measure`` runs a single process's closed loop: the next operation starts
only when the previous one has finished and been checked, and no new one
starts once it would be predicted to end past the time budget (at least one
always runs). With tracing off it reports the end-to-end metrics. With
tracing on it repeats the same operations under span tracing, reports the
per-layer metrics, and requires both passes to agree bit for bit.

The host this was tuned on switches between two speeds about 1.5x apart,
for stretches of a second to a few minutes. A run's mean operation time
moves in proportion to the share of the run spent slow, while its median or
fastest operation jumps by the whole 1.5x as that share crosses a threshold,
so the gated operation-time metric is the throughput, and the median and
fastest operation are only printed. For the same reason set-up is repeated
between operations rather than back to back, so that the median set-up time
samples the whole run.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rpspectral as rp
from rpspectral.errors import RpSpectralError
from rpspectral.rptree import leaf_size_stats

from spans import SpanTable, Tracer, instrument
from workloads import PipelineWorkload

SETUP_REPEATS = 7
# Run in a fresh interpreter, so every set-up pays the import again.
IMPORT_PROBE = "import time; t = time.perf_counter(); import rpspectral; print(time.perf_counter() - t)"
ORTHO_TOLERANCE = 1e-6  # per batch row, as in spectralnet's whitening check

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "rptree_pairs_stored": "pairs",
}

STAGES = ("pairs", "siamese", "bandwidth", "spectral", "embed", "kmeans", "score")
PER_LAYER_UNITS = {
    **{f"harness.stage.{stage}_s": "s" for stage in STAGES},
    "harness.overhead_s": "s",
    **{f"siamese.{op}_s": "s" for op in ("forward", "backward", "adam", "self")},
    "siamese.adam_steps": "count",
    "siamese.step_ms": "ms",
    "siamese.pairs_per_s": "1/s",
    **{
        f"spectral.{op}_s": "s"
        for op in (
            "forward",
            "backward",
            "adam",
            "orthogonalize",
            "ortho_residual",
            "loss",
            "affinity",
            "self",
        )
    },
    "spectral.affinity_calls": "count",
    "spectral.grad_steps": "count",
    "spectral.step_ms": "ms",
    "spectral.max_ortho_residual": "1",
    "rptree.build_tree_s": "s",
    "rptree.split_calls": "count",
    "rptree.leaves": "count",
    "rptree.leaf_size_max": "count",
    "rptree.degenerate_leaves": "count",
    "pairing.rptree_pairs_s": "s",
    "pairing.positives": "pairs",
    "pairing.negatives": "pairs",
    "pairing.pairs_per_s": "1/s",
    "pairing.knn_pairs_s": "s",
    "pairing.knn_pairs_stored": "pairs",
    "clustering.kmeans_s": "s",
    "clustering.ari_s": "s",
    "clustering.ari_mean": "1",
    "datasets.generate_s": "s",
    "trace.overhead_frac": "1",
}


@dataclass
class Pass:
    """One closed loop: the operations run, keyed by operation index."""

    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)  # index -> failed checks
    roots: dict = field(default_factory=dict)  # index -> root span (traced)
    peak_rss_mb: float = 0.0  # through set-up and the first operation

    @property
    def seconds(self):
        return sum(r.seconds for r in self.results.values())


@dataclass
class Measurement:
    metrics: dict  # name -> {"value", "unit"}
    attempted: int
    failures: dict  # operation key -> list of messages
    detail: dict
    traced: Pass | None = None
    tracer: Tracer | None = None

    @property
    def correct(self):
        return not self.failures


def ratio(a, b):
    return a / b if b else 0.0


def closed_loop(workload, inputs, budget_s, indices=None, tracer=None, between=None):
    """Run and check operations until the budget is spent, or exactly ``indices``.

    The checks, and ``between()`` if given, run after each operation, untimed
    but inside the budget, so a run's wall time does not grow with them.
    """
    loop = Pass()
    root = "harness.run_pipeline" if isinstance(workload, PipelineWorkload) else "pairs.mine_both"
    start = time.perf_counter()
    index = 0
    while True:
        if indices is not None:
            if index >= len(indices):
                break
            op_index = indices[index]
        else:
            elapsed = time.perf_counter() - start
            done = len(loop.results) + len(loop.errors)
            if done and elapsed + elapsed / done > budget_s:
                break
            op_index = index
        index += 1
        try:
            if tracer is None:
                result = workload.op(inputs, op_index)
            else:
                loop.roots[op_index] = len(tracer.spans)
                with tracer.span(root):
                    result = workload.op(inputs, op_index)
        except RpSpectralError as exc:
            loop.errors[op_index] = f"{type(exc).__name__}: {exc}"
            continue
        if not loop.results:
            # Read before the checks and later operations' outputs add to
            # it, so the figure does not depend on how many operations fit.
            loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.results[op_index] = result
        loop.problems[op_index] = check_op(result)
        if between is not None:
            between()
    return loop


def check_pairs(pairs, label):
    try:
        pairs.validate()
    except ValueError as exc:
        return [f"{label}: PairSet.validate: {exc}"]
    return []


def check_op(result):
    """Output checks for one operation; returns the failed ones."""
    problems = check_pairs(result.pairs, "rptree pairs")
    if result.knn_pairs is not None:
        problems += check_pairs(result.knn_pairs, "knn pairs")
    if result.run is None:
        return problems
    record = result.run.record
    pairs = result.pairs
    counts = record["pair_counts"]
    if (counts["positive"], counts["negative"]) != (len(pairs.positives), len(pairs.negatives)):
        problems.append(f"recorded pair counts {counts} differ from the mined pair set")
    batch = result.run.model.config.batch_size
    if not record["max_ortho_residual"] <= ORTHO_TOLERANCE * batch:
        problems.append(f"max_ortho_residual {record['max_ortho_residual']:.3e} exceeds {ORTHO_TOLERANCE:g} * {batch}")
    if record["ari"] is None or not np.isfinite(record["ari"]):
        problems.append(f"ARI is undefined: {record['ari']}")
    if not np.isfinite(result.run.embedding).all():
        problems.append("embedding has non-finite entries")
    return problems


def fingerprint(result):
    """What must not change between the untraced and traced pass."""
    if result.run is not None:
        record = result.run.record
        return (
            record["ari"],
            record["pair_counts"],
            record["final_twin_loss"],
            record["final_spectral_loss"],
        )
    return tuple(
        (pairs.positives.tobytes(), pairs.negatives.tobytes())
        for pairs in (result.pairs, result.knn_pairs)
    )


def fresh_import_seconds():
    """Time ``import rpspectral`` (numpy included) in a new interpreter."""
    src = Path(rp.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


@dataclass
class Setups:
    """Repeated set-ups of one workload: import, make the inputs, warm up."""

    workload: object
    seed: int
    totals: list = field(default_factory=list)
    generates: list = field(default_factory=list)

    def run_once(self):
        import_s = fresh_import_seconds()
        start = time.perf_counter()
        inputs = self.workload.setup(self.seed)
        generated = time.perf_counter()
        warm = self.workload.shrunk()
        warm.op(warm.setup(self.seed), 0)
        self.totals.append(import_s + time.perf_counter() - start)
        self.generates.append(generated - start)
        return inputs

    def again(self):
        if len(self.totals) < SETUP_REPEATS:
            self.run_once()


def environment(seed, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "seed": seed,
    }


def measure(workload, seed, seconds, trace, blas_threads=None):
    """Set up, run the closed loop for ``seconds``, check, and summarize.

    The first set-up makes the inputs the operations use; the others run
    one after each of the first operations, and after the loop if it ended
    before all had run. ``blas_threads`` is only recorded.
    """
    setups = Setups(workload, seed)
    inputs = setups.run_once()
    budget = seconds / 2 if trace else seconds
    untraced = closed_loop(workload, inputs, budget, between=setups.again)
    while len(setups.totals) < SETUP_REPEATS:
        setups.again()
    generate_s = statistics.median(setups.generates)

    traced = tracer = None
    if trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = closed_loop(workload, inputs, None, indices=sorted(untraced.results), tracer=tracer)

    failures = {}
    for name, loop in (("untraced", untraced), ("traced", traced)):
        if loop is None:
            continue
        for index, message in loop.errors.items():
            failures[f"{name}:{index}"] = [message]
        for index, result in loop.results.items():
            problems = list(loop.problems[index])
            if name == "traced":
                reference = untraced.results[index]
                if fingerprint(result) != fingerprint(reference):
                    problems.append("traced pass differs from the untraced pass")
            if problems:
                failures[f"{name}:{index}"] = problems
    attempted = (
        len(untraced.results) + len(untraced.errors)
        + (len(traced.results) + len(traced.errors) if traced else 0)
    )

    runs = [r.run for r in untraced.results.values() if r.run is not None]
    aris = [run.record["ari"] for run in runs]
    scored = [a for a in aris if a is not None]
    op_seconds = [r.seconds for r in untraced.results.values()]
    detail = {
        "workload": workload.name,
        "trace": int(trace),
        "env": environment(seed, blas_threads),
        "samples": {
            "setup_repeats": SETUP_REPEATS,
            "ops": len(untraced.results),
            "traced_ops": len(traced.results) if traced else 0,
        },
        "op_seconds": [round(s, 6) for s in op_seconds],
        "run_s_p50": statistics.median(op_seconds) if op_seconds else None,
        "run_s_min": min(op_seconds, default=None),
        "setup_seconds": [round(s, 6) for s in setups.totals],
        "ari": aris,
        "ari_mean": statistics.fmean(scored) if scored else None,
        "fail_frac": ratio(len(failures), attempted),
        "failures": failures,
    }

    if trace:
        metrics = layer_metrics(workload, traced, untraced, tracer, generate_s)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups.totals),
            "runs_per_s": ratio(len(op_seconds), sum(op_seconds)),
            "peak_rss_mb": untraced.peak_rss_mb,
            "rptree_pairs_stored": (
                statistics.fmean(
                    len(r.pairs.positives) + len(r.pairs.negatives)
                    for r in untraced.results.values()
                )
                if untraced.results
                else 0
            ),
        }
        units = END_TO_END_UNITS
    return Measurement(
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        attempted=attempted,
        failures=failures,
        detail=detail,
        traced=traced,
        tracer=tracer,
    )


def layer_metrics(workload, traced, untraced, tracer, generate_s):
    """Per-operation means of the traced pass, split by stage and op."""
    table = SpanTable(tracer.spans)
    ops = len(traced.results)
    per = ratio(1.0, ops)

    def total(stage, name):
        return table.total[(stage, name)]

    def count(stage, name):
        return table.count[(stage, name)]

    metrics = {f"harness.stage.{s}_s": table.stage_total(s) * per for s in STAGES}
    metrics["harness.overhead_s"] = table.self_time[(None, "harness.run_pipeline")] * per

    for stage in ("siamese", "spectral"):
        metrics[f"{stage}.forward_s"] = total(stage, "mlp.Mlp.forward") * per
        metrics[f"{stage}.backward_s"] = total(stage, "mlp.Mlp.backward") * per
        metrics[f"{stage}.adam_s"] = total(stage, "mlp.Adam.step") * per
        metrics[f"{stage}.self_s"] = table.stage_self(stage) * per

    siamese_s = table.stage_total("siamese")
    adam_steps = count("siamese", "mlp.Adam.step")
    consumed = 0
    for result in traced.results.values():
        if result.run is not None:
            counts = result.run.record["pair_counts"]
            consumed += 2 * workload.siamese.epochs * max(counts["positive"], counts["negative"])
    metrics["siamese.adam_steps"] = adam_steps * per
    metrics["siamese.step_ms"] = 1000.0 * ratio(siamese_s, adam_steps)
    metrics["siamese.pairs_per_s"] = ratio(consumed, siamese_s)

    spectral_s = table.stage_total("spectral")
    grad_steps = count("spectral", "spectralnet.spectral_loss")
    metrics["spectral.orthogonalize_s"] = table.self_time[("spectral", "spectralnet.orthogonalize")] * per
    metrics["spectral.ortho_residual_s"] = total("spectral", "spectralnet.ortho_residual") * per
    metrics["spectral.loss_s"] = total("spectral", "spectralnet.spectral_loss") * per
    metrics["spectral.affinity_s"] = (
        total("spectral", "siamese.pairwise_distances") + total("spectral", "siamese.heat_kernel")
    ) * per
    metrics["spectral.affinity_calls"] = count("spectral", "siamese.heat_kernel") * per
    metrics["spectral.grad_steps"] = grad_steps * per
    metrics["spectral.step_ms"] = 1000.0 * ratio(spectral_s, grad_steps)
    residuals = [r.run.record["max_ortho_residual"] for r in traced.results.values() if r.run is not None]
    metrics["spectral.max_ortho_residual"] = max(residuals, default=0.0)

    trees, rptree_sets, knn_sets = [], [], []
    for span in tracer.spans:
        if span.name == "rptree.build_tree":
            trees.append(leaf_size_stats(span.result))
        elif span.name == "pairing.rptree_pairs":
            rptree_sets.append(span.result)
        elif span.name == "pairing.knn_pairs":
            knn_sets.append(span.result)
    rptree_pairs_s = table.name_total["pairing.rptree_pairs"]
    positives = sum(len(p.positives) for p in rptree_sets)
    negatives = sum(len(p.negatives) for p in rptree_sets)
    metrics["rptree.build_tree_s"] = table.name_total["rptree.build_tree"] * per
    metrics["rptree.split_calls"] = table.name_count["rptree.split_node"] * per
    metrics["rptree.leaves"] = sum(s.count for s in trees) * per
    metrics["rptree.leaf_size_max"] = max((s.max_size for s in trees), default=0)
    metrics["rptree.degenerate_leaves"] = sum(s.degenerate_count for s in trees) * per
    metrics["pairing.rptree_pairs_s"] = rptree_pairs_s * per
    metrics["pairing.positives"] = positives * per
    metrics["pairing.negatives"] = negatives * per
    metrics["pairing.pairs_per_s"] = ratio(positives + negatives, rptree_pairs_s)
    metrics["pairing.knn_pairs_s"] = table.name_total["pairing.knn_pairs"] * per
    metrics["pairing.knn_pairs_stored"] = sum(len(p.positives) + len(p.negatives) for p in knn_sets) * per

    runs = [r.run for r in traced.results.values() if r.run is not None]
    aris = [run.record["ari"] for run in runs if run.record["ari"] is not None]
    metrics["clustering.kmeans_s"] = table.name_total["clustering.kmeans"] * per
    metrics["clustering.ari_s"] = table.name_total["clustering.ari"] * per
    metrics["clustering.ari_mean"] = statistics.fmean(aris) if aris else 0.0
    metrics["datasets.generate_s"] = generate_s
    metrics["trace.overhead_frac"] = ratio(traced.seconds, untraced.seconds) - 1.0
    return metrics

"""Every name the benchmark uses still exists in the package.

``perfbench/spans.py`` patches package functions, ``Mlp``/``Adam`` methods
and ``harness._stage`` by name, and ``perfbench/workloads.py`` builds its
configs from the public API, so renaming or removing one breaks only the
benchmark, which tier-1 does not run. The benchmark's modules are compiled
from their source and only read here. A name can also stay while the calls
stop reaching it, which zeroes a per-layer counter silently; the last two
tests run shrunk pipeline operations under ``spans.instrument`` and count
the spectral stage's affinity and loss spans and both training stages'
forward, backward and Adam step spans.
"""

import ast
import functools
import importlib
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rpspectral
from rpspectral.rptree import TreeConfig, build_tree, leaf_size_stats

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
# Set by the import system on every module, so absent from ``__all__``.
MODULE_ATTRIBUTES = {"__file__", "__cached__", "__builtins__"}


def _load(path):
    # Compiled from its text, so no bytecode is written next to it. The
    # module is registered while it runs because @dataclass looks it up.
    module = types.ModuleType(f"perfbench_{path.stem}")
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


spans = _load(SPANS)
workloads = _load(PERFBENCH / "workloads.py")


@pytest.mark.parametrize(
    "module_name, attr", spans.TRACED_FUNCTIONS, ids=lambda v: str(v)
)
def test_traced_function_exists(module_name, attr):
    module = importlib.import_module(f"rpspectral.{module_name}")
    assert callable(getattr(module, attr, None)), f"rpspectral.{module_name}.{attr}"


@pytest.mark.parametrize(
    "module_name, cls_name, attr", spans.TRACED_METHODS, ids=lambda v: str(v)
)
def test_traced_method_exists(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(f"rpspectral.{module_name}"), cls_name, None)
    assert cls is not None, f"rpspectral.{module_name}.{cls_name}"
    assert callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"


def test_harness_stage_takes_name_and_durations():
    harness = importlib.import_module("rpspectral.harness")
    stage = getattr(harness, "_stage", None)
    assert callable(stage)
    assert list(inspect.signature(stage).parameters) == ["name", "durations"]


def test_leaf_size_stats_has_the_fields_the_benchmark_reads():
    # bench.py reads these from leaf_size_stats of each traced build_tree result.
    bench = (SPANS.parent / "bench.py").read_text()
    X = np.random.default_rng(0).normal(size=(50, 2))
    stats = leaf_size_stats(build_tree(X, TreeConfig(leaf_size=5), np.random.default_rng(1)))
    for field in ("count", "max_size", "degenerate_count"):
        assert f"s.{field} for s in trees" in bench, field
        assert isinstance(getattr(stats, field, None), int), field


def _package_names_used(path):
    """``rp.<name>`` attributes and ``from rpspectral... import`` names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "rp"
            and node.attr not in MODULE_ATTRIBUTES
        ):
            used.add(("rpspectral", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "rpspectral"
        ):
            used.update((node.module, alias.name) for alias in node.names)
    return used


BENCH_SOURCES = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("path", BENCH_SOURCES, ids=lambda p: p.name)
def test_benchmark_uses_only_names_the_package_has(path):
    missing = []
    for module_name, name in sorted(_package_names_used(path)):
        if module_name == "rpspectral":
            if name not in rpspectral.__all__:
                missing.append(f"rp.{name}")
        elif not hasattr(importlib.import_module(module_name), name):
            missing.append(f"{module_name}.{name}")
    assert missing == []


def test_the_scan_sees_the_workloads_api():
    # An AST walk that matched nothing would pass the test above.
    used = _package_names_used(PERFBENCH / "workloads.py")
    assert {("rpspectral", "SpectralConfig"), ("rpspectral", "run_pipeline")} <= used


PIPELINE_WORKLOADS = [
    w for w in workloads.WORKLOADS.values() if isinstance(w, workloads.PipelineWorkload)
]


@pytest.mark.parametrize("workload", PIPELINE_WORKLOADS, ids=lambda w: w.name)
def test_pipeline_workload_configs_validate(workload):
    workload.config(0).validate()
    workload.shrunk().config(0).validate()  # the smoke test's size


def test_the_trace_sees_both_spectral_batch_kinds():
    shrunk = [w.shrunk() for w in PIPELINE_WORKLOADS]
    full = {w.config(0).spectral_config.batch_size == w.dataset.n for w in shrunk}
    assert full == {True, False}


@functools.cache
def traced_op(name):
    """Op 0 of the shrunk workload, traced: (inputs, result, span table)."""
    shrunk = workloads.WORKLOADS[name].shrunk()
    inputs = shrunk.setup(3)
    with spans.instrument(spans.Tracer()) as tracer:
        result = shrunk.op(inputs, 0)
    assert result.run is not None
    return inputs, result, spans.SpanTable(tracer.spans)


@pytest.mark.parametrize("workload", PIPELINE_WORKLOADS, ids=lambda w: w.name)
def test_the_spectral_stage_traces_each_affinity_and_loss(workload):
    # One affinity for the whole run when the batch is the dataset, one per
    # update when it is drawn, one loss per update, and one whitening per
    # update plus each restart's final refit: the calls behind
    # spectral.affinity_s, spectral.affinity_calls, spectral.grad_steps and
    # spectral.orthogonalize_s.
    inputs, _, table = traced_op(workload.name)
    spectral = inputs["config"].spectral_config
    updates = spectral.restarts * spectral.total_steps // 2
    affinities = 1 if spectral.batch_size == len(inputs["X"]) else updates
    for name in ("siamese.pairwise_distances", "siamese.heat_kernel"):
        assert table.count[("spectral", name)] == affinities, name
    assert table.count[("spectral", "spectralnet.spectral_loss")] == updates
    whitenings = spectral.restarts * (spectral.total_steps // 2 + 1)
    assert table.count[("spectral", "spectralnet.orthogonalize")] == whitenings


@pytest.mark.parametrize("workload", PIPELINE_WORKLOADS, ids=lambda w: w.name)
def test_each_training_update_traces_one_forward_backward_and_step(workload):
    # The calls behind {siamese,spectral}.{forward,backward,adam}_s,
    # siamese.adam_steps and the per-update step_ms: a training step that
    # bypassed them would zero that per-op breakdown.
    inputs, result, table = traced_op(workload.name)
    config = inputs["config"]
    spectral = config.spectral_config
    major = max(len(result.pairs.positives), len(result.pairs.negatives))
    half = config.siamese.batch_size // 2
    updates = {
        "siamese": config.siamese.epochs * -(-major // half),
        "spectral": spectral.restarts * spectral.total_steps // 2,
    }
    for stage, count in updates.items():
        for name in ("mlp.Mlp.forward", "mlp.Mlp.backward", "mlp.Adam.step"):
            assert table.count[(stage, name)] == count, (stage, name)

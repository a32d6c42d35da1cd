"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/spans.py`` patches package functions, ``Mlp``/``Adam`` methods
and ``harness._stage`` by name, so renaming one breaks only the traced
benchmark pass. The module is compiled from its source and only read here.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from rpspectral.rptree import TreeConfig, build_tree, leaf_size_stats

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # Compiled from its text, so no bytecode is written next to it.
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()


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

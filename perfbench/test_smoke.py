"""Smoke test of the benchmark itself, on every workload shrunk to seconds.

    python -m pytest perfbench/test_smoke.py -q

It checks that each pass emits exactly the metrics BENCHMARK.json names,
with their units, that traced spans nest consistently, and that the traced
stage spans agree with the harness's own stage timings.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from spans import STAGE_PREFIX, SpanTable  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# A stage span opens before and closes after the harness's own stage timer.
STAGE_SLACK_S = 2e-3


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return bench.measure(WORKLOADS[request.param].shrunk(), seed=3, seconds=0.5, trace=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_pass_emits_every_end_to_end_metric(name):
    result = bench.measure(WORKLOADS[name].shrunk(), seed=3, seconds=0.5, trace=False)
    assert result.correct, result.failures
    assert result.attempted >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == expected
    for name, metric in result.metrics.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


def test_traced_pass_emits_every_per_layer_metric(traced):
    assert traced.correct, traced.failures
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced.metrics.items()} == expected
    for name, metric in traced.metrics.items():
        assert math.isfinite(metric["value"]), name


def test_descendant_self_times_fit_inside_their_stage(traced):
    spans = traced.tracer.spans
    table = SpanTable(spans)
    inside = {}  # stage span index -> summed self time of its descendants
    for i, span in enumerate(spans):
        assert table.self_times[i] >= -1e-9, span.name
        assert span.end >= span.start
        parent = span.parent
        while parent >= 0 and not spans[parent].name.startswith(STAGE_PREFIX):
            parent = spans[parent].parent
        if parent >= 0:
            inside[parent] = inside.get(parent, 0.0) + table.self_times[i]
    for index, summed in inside.items():
        assert summed <= spans[index].duration + 1e-9, spans[index].name


def test_stage_spans_agree_with_recorded_durations(traced):
    spans = traced.tracer.spans
    for index, result in traced.traced.results.items():
        if result.run is None:
            continue
        root = traced.traced.roots[index]
        stages = {
            span.name[len(STAGE_PREFIX):]: span.duration
            for span in spans
            if span.parent == root and span.name.startswith(STAGE_PREFIX)
        }
        durations = dict(result.run.record["durations"])
        durations.pop("total")
        assert stages.keys() == durations.keys()
        for stage, seconds in durations.items():
            assert 0.0 <= stages[stage] - seconds <= STAGE_SLACK_S, stage


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", "blobs-default", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command + args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""End-to-end experiment harness.

A pipeline run goes: mine pairs (neighbor graph or tree leaves) -> train the
twin network -> embed the dataset with it once and pick a heat-kernel
bandwidth from positive-pair distances -> train the spectral embedding
network on the heat kernel of twin distances -> embed everything -> k-means
-> score against the reference labels.

Seeding is stage-isolated: run r uses seed ``base_seed + r``, and every stage
inside the run draws from its own generator derived via
``SeedSequence(entropy=run_seed, spawn_key=(stage,))``. Changing how many
random numbers one stage consumes therefore never shifts another stage's
stream, and runs are reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clustering import ari, kmeans
from .datasets import SyntheticSpec, generate_synthetic, load_csv, standardize
from .errors import ConfigError, NumericalError, RpSpectralError, StageError
from .pairing import knn_pairs, rptree_pairs
from .rptree import TreeConfig, build_tree
from .serialize import section_from_dict, write_csv, write_json
from .siamese import (
    SiameseConfig,
    heat_kernel,
    pairwise_distances,
    select_bandwidth,
    siamese_distances,
    train_siamese,
)
from .spectralnet import Laplacian, SpectralConfig, SpectralModel, embed, train_spectralnet

# Stage ids feed the per-stage SeedSequence spawn keys. Reordering or
# renumbering them changes every result, so they are frozen here.
_STAGE_PAIRS = 0
_STAGE_SIAMESE = 1
_STAGE_SPECTRAL = 2
_STAGE_KMEANS = 3


@dataclass(frozen=True)
class CsvSource:
    """Labeled CSV on disk; features get standardized at load time."""

    path: str
    label_column: str | int = "label"
    delimiter: str = ","
    header: bool = True


@dataclass(frozen=True)
class MethodConfig:
    """Which pair-mining route to use and its knobs.

    kind "knn" uses exact k nearest neighbors; kind "rptree" mines pairs from
    random-projection tree leaves, with ``leaf_size`` and ``strategy`` as
    the ``TreeConfig`` that checks them. Every field is checked whatever
    the kind, since the config echo records them all.
    """

    kind: str = "rptree"
    k: int = 2
    leaf_size: int = 20
    strategy: str = "random"

    def validate(self):
        if self.kind not in ("knn", "rptree"):
            raise ConfigError(f"kind: unknown pairing method {self.kind!r}")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.leaf_size < 2:
            raise ConfigError("leaf_size must be at least 2")
        TreeConfig(self.leaf_size, self.strategy)

    @property
    def label(self) -> str:
        if self.kind == "knn":
            return f"knn:k={self.k}"
        return f"rptree:leaf={self.leaf_size}:{self.strategy}"


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticSpec | CsvSource
    method: MethodConfig = field(default_factory=MethodConfig)
    n_clusters: int = 2
    runs: int = 10
    base_seed: int = 0
    siamese: SiameseConfig = field(default_factory=SiameseConfig)
    spectral: SpectralConfig | None = None  # defaults derived from n_clusters

    @property
    def spectral_config(self) -> SpectralConfig:
        return (
            self.spectral
            if self.spectral is not None
            else SpectralConfig(n_clusters=self.n_clusters)
        )

    def validate(self):
        if self.n_clusters < 2:
            raise ConfigError("n_clusters must be at least 2")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be nonnegative")
        if self.spectral_config.n_clusters != self.n_clusters:
            raise ConfigError("spectral config disagrees on n_clusters")
        for prefix, section in (
            ("method.", self.method),
            ("dataset: ", self.dataset),
            ("siamese.", self.siamese),
            ("spectral.", self.spectral_config),
        ):
            if isinstance(section, CsvSource):
                continue  # a CSV file is checked as it is read
            try:
                section.validate()
            except ConfigError as exc:
                raise ConfigError(f"{prefix}{exc}") from exc


def _stage_rng(run_seed, stage):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=run_seed, spawn_key=(stage,))
    )


def load_dataset(source):
    """Materialize (features, labels) from a dataset source.

    Synthetic generators control their own scale and are used as-is; CSV
    features arrive in arbitrary units and are standardized.
    """
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    X, y = load_csv(
        source.path,
        source.label_column,
        delimiter=source.delimiter,
        header=source.header,
    )
    return standardize(X), y


@contextmanager
def _stage(name, durations):
    start = time.perf_counter()
    try:
        yield
    except RpSpectralError as exc:
        raise StageError(name, exc) from exc
    durations[name] = time.perf_counter() - start


def mine_pairs(X, method: MethodConfig, rng):
    """Mine a pair set with whichever route the method config names."""
    if method.kind == "knn":
        return knn_pairs(X, method.k, rng)
    tree = build_tree(X, TreeConfig(method.leaf_size, method.strategy), rng)
    return rptree_pairs(tree, rng)


@dataclass
class PipelineRun:
    """One trained pipeline: the JSON-ready record plus live artifacts."""

    record: dict
    labels: np.ndarray
    embedding: np.ndarray
    model: SpectralModel


def _run_seed(config: ExperimentConfig, run_index):
    """The seed of run ``run_index``, ``base_seed + run_index``.

    A negative seed is refused with ConfigError before any stage runs.
    """
    run_seed = config.base_seed + run_index
    if run_seed < 0:
        raise ConfigError(
            f"run seed base_seed + run_index = {config.base_seed} + "
            f"{run_index} is negative"
        )
    return run_seed


def mine_run_pairs(X, config: ExperimentConfig, run_index):
    """The pair set that run ``run_index`` of ``config`` trains on."""
    run_seed = _run_seed(config, run_index)
    return mine_pairs(X, config.method, _stage_rng(run_seed, _STAGE_PAIRS))


def run_pipeline(X, y, config: ExperimentConfig, run_index=0) -> PipelineRun:
    """Train and score one pipeline run; domain failures become StageError.

    The config is validated first, so a bad setting is a ConfigError naming
    it before any stage runs.
    """
    config.validate()
    run_seed = _run_seed(config, run_index)
    durations = {}
    t_start = time.perf_counter()

    with _stage("pairs", durations):
        pairs = mine_run_pairs(X, config, run_index)
    with _stage("siamese", durations):
        twin, twin_history = train_siamese(
            X, pairs, config.siamese, rng=_stage_rng(run_seed, _STAGE_SIAMESE)
        )
    with _stage("bandwidth", durations):
        # One twin pass: the bandwidth, the affinity and twin features read it.
        Z = twin.predict(X)
        if not np.isfinite(Z).all():
            raise NumericalError("the twin embedding holds NaN or infinite values")
        bandwidth = select_bandwidth(siamese_distances(Z, pairs.positives))
    features = Z if config.spectral_config.features == "twin" else X
    with _stage("spectral", durations):
        model = train_spectralnet(
            features,
            lambda rows: Laplacian(heat_kernel(pairwise_distances(Z[rows]), bandwidth)),
            config.spectral_config,
            rng=_stage_rng(run_seed, _STAGE_SPECTRAL),
        )
    with _stage("embed", durations):
        Y = embed(model, features)
    with _stage("kmeans", durations):
        clusters = kmeans(
            Y, config.n_clusters, rng=_stage_rng(run_seed, _STAGE_KMEANS)
        )
    with _stage("score", durations):
        score = ari(y, clusters.labels) if y is not None else None
    durations["total"] = time.perf_counter() - t_start

    record = {
        "run_index": run_index,
        "seed": run_seed,
        "ari": score,
        "bandwidth": float(bandwidth),
        "pair_source": config.method.label,
        "pair_counts": {
            "positive": int(len(pairs.positives)),
            "negative": int(len(pairs.negatives)),
            "raw_positive": int(pairs.raw_positive_count),
        },
        "final_twin_loss": float(twin_history[-1]),
        "final_spectral_loss": float(model.loss_history[-1]),
        "max_ortho_residual": float(max(model.ortho_residuals)),
        "kmeans_inertia": float(clusters.inertia),
        "warning": pairs.warning,
        "durations": durations,
    }
    return PipelineRun(
        record=record,
        labels=clusters.labels,
        embedding=Y,
        model=model,
    )


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured number of pipeline repetitions on one dataset.

    Individual run failures are recorded, not raised, so one bad seed cannot
    discard the rest of the experiment.
    """
    config.validate()
    X, y = load_dataset(config.dataset)
    runs = []
    for run_index in range(config.runs):
        try:
            runs.append(run_pipeline(X, y, config, run_index).record)
        except StageError as exc:
            runs.append(
                {
                    "run_index": run_index,
                    "seed": config.base_seed + run_index,
                    "error": {"stage": exc.stage, "message": str(exc.cause)},
                }
            )
    return {
        "config": config_to_dict(config),
        "runs": runs,
        "summary": _summarize(runs),
    }


def _summarize(runs):
    """Summary of a run list; its keys, in order, are ``_SUMMARY_FIELDS``."""
    scored = [
        r["ari"] for r in runs if "error" not in r and r["ari"] is not None
    ]
    counted = [
        r["pair_counts"]["positive"] for r in runs if "error" not in r
    ]
    return {
        "runs_total": len(runs),
        "runs_failed": sum(1 for r in runs if "error" in r),
        "runs_undefined_score": sum(
            1 for r in runs if "error" not in r and r["ari"] is None
        ),
        "mean_ari": float(np.mean(scored)) if scored else None,
        "std_ari": float(np.std(scored)) if scored else None,
        "min_ari": float(np.min(scored)) if scored else None,
        "max_ari": float(np.max(scored)) if scored else None,
        "mean_positive_pairs": float(np.mean(counted)) if counted else None,
    }


# The summary.csv columns. Records read back from results.json have sorted
# keys, so the column order comes from here rather than from the record.
_SUMMARY_FIELDS = tuple(_summarize([]))


def sweep(base: ExperimentConfig, grid: dict) -> dict:
    """Run the base experiment once per point of a parameter grid.

    Grid keys name either a top-level field ("n_clusters", "runs",
    "base_seed") or a section field like "method.leaf_size" or "dataset.n";
    spectral.n_clusters follows n_clusters. Every cell's config
    is built and checked before the first cell runs.
    Cells share the base seed so runs pair up across cells.
    """
    if not grid:
        raise ConfigError("grid has no keys")
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"grid key {key!r} has no values")
    keys = sorted(grid)
    combos = [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    configs = [_cell_config(base, values) for values in combos]
    return {
        "base_config": config_to_dict(base),
        "grid": {k: list(grid[k]) for k in keys},
        "cells": [
            {"values": values, "experiment": run_experiment(cfg)}
            for values, cfg in zip(combos, configs)
        ],
    }


def _cell_config(base: ExperimentConfig, values) -> ExperimentConfig:
    """The config of one grid cell: ``base`` with ``values`` set in its JSON."""
    doc = config_to_dict(base)
    # It follows the top-level n_clusters, which a grid may change.
    del doc["spectral"]["n_clusters"]
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        target = doc.get(section) if section else doc
        if not isinstance(target, dict) or name not in target:
            raise ConfigError(f"unknown grid key {key!r}")
        target[name] = value
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"grid cell {values}: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as JSON, spectral resolved to its defaults."""
    doc = dataclasses.asdict(replace(config, spectral=config.spectral_config))
    synthetic = isinstance(config.dataset, SyntheticSpec)
    doc["dataset"] = {"type": "synthetic" if synthetic else "csv", **doc["dataset"]}
    for section in ("siamese", "spectral"):  # JSON arrays read back as lists
        doc[section]["hidden_sizes"] = list(doc[section]["hidden_sizes"])
    return doc


# The config sections besides dataset, each with the dataclass it is read into.
_SECTIONS = {
    "method": MethodConfig,
    "siamese": SiameseConfig,
    "spectral": SpectralConfig,
}


def _dataset_from_dict(data) -> SyntheticSpec | CsvSource:
    if not isinstance(data, dict):
        raise ConfigError("'dataset' must be a JSON object")
    data = dict(data)
    declared = data.pop("type", None)
    is_csv = "path" in data if declared is None else declared == "csv"
    if declared not in (None, "csv", "synthetic"):
        raise ConfigError(f"unknown dataset type {declared!r}")
    if is_csv:
        return section_from_dict(CsvSource, "dataset", data)
    return section_from_dict(SyntheticSpec, "dataset", data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "dataset" not in data:
        raise ConfigError("config needs a 'dataset' section")
    config = section_from_dict(
        ExperimentConfig,
        "",
        {k: v for k, v in data.items() if k != "dataset" and k not in _SECTIONS},
        dataset=_dataset_from_dict(data["dataset"]),
    )
    fixed = {"spectral": {"n_clusters": config.n_clusters}}
    config = replace(
        config,
        **{
            name: section_from_dict(cls, name, data[name], **fixed.get(name, {}))
            for name, cls in _SECTIONS.items()
            if name in data
        },
    )
    config.validate()
    return config


def _dataset_label(config_dict) -> str:
    ds = config_dict["dataset"]
    if ds.get("type") == "csv" or "path" in ds:
        return Path(ds["path"]).name
    return f"{ds['kind']}:n={ds['n']}"


_RUN_METRICS = (
    "ari",
    "bandwidth",
    "final_twin_loss",
    "final_spectral_loss",
    "max_ortho_residual",
    "kmeans_inertia",
)


def _summary_row(record):
    cfg = record["config"]
    summary = record["summary"]
    method = section_from_dict(MethodConfig, "method", cfg["method"])
    row = [_dataset_label(cfg), method.label]
    row.extend(summary[k] for k in _SUMMARY_FIELDS)
    return row


def _run_metric_rows(record):
    rows = []
    for run in record["runs"]:
        if "error" in run:
            rows.append((run["run_index"], "error", run["error"]["stage"]))
            continue
        for metric in _RUN_METRICS:
            rows.append((run["run_index"], metric, run[metric]))
        for kind in ("positive", "negative", "raw_positive"):
            rows.append(
                (run["run_index"], f"{kind}_pairs", run["pair_counts"][kind])
            )
    return rows


def _split_timings(record):
    """(record without run durations, those durations in the same layout).

    Durations differ on every rerun; kept apart, they leave results.json
    byte-stable for a fixed config. A run without durations (a failed run,
    or a record read back from results.json) has no timings entry.
    """
    if "cells" in record:
        split = [_split_timings(cell["experiment"]) for cell in record["cells"]]
        cells = [
            {**cell, "experiment": results}
            for cell, (results, _) in zip(record["cells"], split)
        ]
        timed = [
            {"values": cell["values"], **timings}
            for cell, (_, timings) in zip(record["cells"], split)
        ]
        return {**record, "cells": cells}, {"cells": timed}
    runs, timed = [], []
    for run in record["runs"]:
        run = dict(run)
        durations = run.pop("durations", None)
        runs.append(run)
        if durations is not None:
            timed.append({"run_index": run["run_index"], "durations": durations})
    return {**record, "runs": runs}, {"runs": timed}


def _report_tables(record):
    """(results, timings, summary table, plot table) of a results record.

    A table is (header, rows). Only reads the record; a record of the wrong
    shape raises KeyError, TypeError or AttributeError here.
    """
    results, timings = _split_timings(record)
    if "cells" not in record:
        return (
            results,
            timings,
            (("dataset", "method", *_SUMMARY_FIELDS), [_summary_row(record)]),
            (("run_index", "metric", "value"), _run_metric_rows(record)),
        )
    names = [
        ",".join(f"{k}={v}" for k, v in cell["values"].items())
        for cell in record["cells"]
    ]
    summary_rows, plot_rows = [], []
    for name, cell in zip(names, record["cells"]):
        summary_rows.append([name, *_summary_row(cell["experiment"])])
        plot_rows.extend((name, *row) for row in _run_metric_rows(cell["experiment"]))
    return (
        results,
        timings,
        (("cell", "dataset", "method", *_SUMMARY_FIELDS), summary_rows),
        (("cell", "run_index", "metric", "value"), plot_rows),
    )


def _write_results(record, outdir):
    """Write results.json, summary.csv and plotdata.csv of a record.

    Returns the paths written and the record's run durations, which are
    left out of results.json. The record is read in full before any file is
    written; one of the wrong shape raises ConfigError.
    """
    if not isinstance(record, dict):
        raise ConfigError("a results record must be a JSON object")
    try:
        results, timings, summary, plot = _report_tables(record)
    except KeyError as exc:
        raise ConfigError(f"results record lacks the entry {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"results record has the wrong shape: {exc}") from exc
    outdir = Path(outdir)
    paths = {
        "results": str(outdir / "results.json"),
        "summary": str(outdir / "summary.csv"),
        "plotdata": str(outdir / "plotdata.csv"),
    }
    write_json(paths["results"], results)
    write_csv(paths["summary"], *summary)
    write_csv(paths["plotdata"], *plot)
    return paths, timings


def report(record: dict, outdir) -> dict:
    """Write results.json, timings.json, summary.csv and plotdata.csv.

    Accepts either a single experiment record or a sweep record (detected by
    its "cells" key). Run durations go to timings.json, everything else to
    results.json. The record is read in full before any file is written; one
    of the wrong shape raises ConfigError. Returns the paths written.
    """
    paths, timings = _write_results(record, outdir)
    paths["timings"] = str(Path(outdir) / "timings.json")
    write_json(paths["timings"], timings)
    return paths

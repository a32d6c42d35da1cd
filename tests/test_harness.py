import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from rpspectral import harness
from rpspectral.clustering import kmeans
from rpspectral.datasets import SyntheticSpec
from rpspectral.errors import (
    BadGrid,
    ConfigError,
    NonFiniteInput,
    SingularGram,
    StageError,
)
from rpspectral.mlp import Mlp
from rpspectral.pairing import knn_pairs, rptree_pairs
from rpspectral.rptree import TreeConfig, build_tree
from rpspectral.harness import (
    CsvSource,
    ExperimentConfig,
    MethodConfig,
    _stage_rng,
    config_from_dict,
    config_to_dict,
    load_dataset,
    mine_pairs,
    mine_run_pairs,
    report,
    run_experiment,
    run_pipeline,
    sweep,
)
from rpspectral.siamese import SiameseConfig
from rpspectral.spectralnet import SpectralConfig


def quick_config(**overrides):
    """Small-but-real pipeline config that runs in well under a second."""
    base = dict(
        dataset=SyntheticSpec(kind="blobs", n=60, noise=0.05, centers=2, seed=0),
        method=MethodConfig(kind="rptree", leaf_size=10, strategy="random"),
        n_clusters=2,
        runs=2,
        siamese=SiameseConfig(
            epochs=2, batch_size=16, hidden_sizes=(8,), embedding_dim=4
        ),
        spectral=SpectralConfig(
            n_clusters=2, batch_size=24, total_steps=20, hidden_sizes=(8,)
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config plumbing ---


def test_config_dict_round_trip():
    config = quick_config()
    doc = config_to_dict(config)
    rebuilt = config_from_dict(doc)
    assert config_to_dict(rebuilt) == doc
    assert rebuilt.method == config.method
    assert rebuilt.siamese == config.siamese
    assert rebuilt.spectral_config == config.spectral_config


def test_config_dict_is_json_serializable():
    text = json.dumps(config_to_dict(quick_config()))
    assert "rptree" in text


def test_config_from_dict_minimal():
    config = config_from_dict({"dataset": {"kind": "blobs", "n": 50}})
    assert config.n_clusters == 2
    assert config.runs == 10
    assert config.spectral is None
    assert config.spectral_config.n_clusters == 2


def test_config_from_dict_csv_detection():
    config = config_from_dict(
        {"dataset": {"path": "points.csv", "label_column": "y"}}
    )
    assert isinstance(config.dataset, CsvSource)
    assert config.dataset.label_column == "y"


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"kind": "blobs", "n": 50}, "foo": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"kind": "blobs", "n": 50, "bogus": 2}})
    with pytest.raises(ConfigError):
        config_from_dict(
            {"dataset": {"kind": "blobs", "n": 50}, "siamese": {"lr": 0.1}}
        )


@pytest.mark.parametrize("section", ["method", "siamese", "spectral"])
def test_config_from_dict_rejects_section_seed(section):
    # Each stage draws from the run's per-stage generator; a section seed
    # would be a setting that changes nothing.
    with pytest.raises(ConfigError, match=f"unknown {section} option.*seed"):
        config_from_dict(
            {"dataset": {"kind": "blobs", "n": 50}, section: {"seed": 1}}
        )


def test_config_from_dict_rejects_scalar_hidden_sizes():
    with pytest.raises(ConfigError, match="bad siamese config"):
        config_from_dict(
            {"dataset": {"kind": "blobs", "n": 50}, "siamese": {"hidden_sizes": 8}}
        )


def test_config_from_dict_requires_dataset():
    with pytest.raises(ConfigError):
        config_from_dict({"runs": 3})


def test_config_from_dict_cluster_count_conflict():
    with pytest.raises(ConfigError):
        config_from_dict(
            {
                "dataset": {"kind": "blobs", "n": 50},
                "n_clusters": 3,
                "spectral": {"n_clusters": 2},
            }
        )


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        quick_config(n_clusters=1).validate()
    with pytest.raises(ConfigError):
        quick_config(runs=0).validate()
    with pytest.raises(ConfigError):
        quick_config(method=MethodConfig(kind="dbscan")).validate()
    with pytest.raises(ConfigError):
        quick_config(method=MethodConfig(kind="rptree", leaf_size=1)).validate()
    with pytest.raises(ConfigError):
        quick_config(
            method=MethodConfig(kind="rptree", strategy="bestof:x")
        ).validate()
    with pytest.raises(ConfigError):
        quick_config(spectral=SpectralConfig(n_clusters=3)).validate()
    quick_config().validate()


@pytest.mark.parametrize(
    "method, message",
    [
        (MethodConfig(kind="x"), r"^method\.kind: unknown pairing method 'x'$"),
        (MethodConfig(kind="knn", k=0), r"^method\.k must be at least 1$"),
        (MethodConfig(kind="rptree", k=0), r"^method\.k must be at least 1$"),
        (MethodConfig(kind="knn", leaf_size=0), r"^method\.leaf_size must be at least 2$"),
        (MethodConfig(kind="knn", strategy="PCA"), r"^method\.strategy must be"),
    ],
    ids=["kind", "knn-k", "rptree-k", "knn-leaf_size", "knn-strategy"],
)
def test_method_validation_checks_every_field_and_names_its_section(method, message):
    with pytest.raises(ConfigError, match=message):
        method.validate()


def test_method_labels():
    assert MethodConfig(kind="knn", k=3).label == "knn:k=3"
    assert (
        MethodConfig(kind="rptree", leaf_size=40, strategy="pca").label
        == "rptree:leaf=40:pca"
    )


# --- seeding and data ---


def test_stage_rngs_are_isolated_and_reproducible():
    a = _stage_rng(7, 0).random(4)
    b = _stage_rng(7, 0).random(4)
    assert np.array_equal(a, b)  # same stage, same stream
    c = _stage_rng(7, 1).random(4)
    assert not np.array_equal(a, c)  # stages never share a stream
    d = _stage_rng(8, 0).random(4)
    assert not np.array_equal(a, d)  # runs never share a stream


def test_load_dataset_synthetic_keeps_generator_scale():
    X, y = load_dataset(SyntheticSpec(kind="blobs", n=80, centers=3, seed=0))
    assert len(X) == len(y) == 80
    # blob centers sit away from the origin; no silent standardization
    assert np.abs(X.mean(axis=0)).max() > 0.05


def test_load_dataset_csv_standardizes(tmp_path):
    path = tmp_path / "points.csv"
    rows = ["a,b,label"] + [f"{100 + i},{3 * i},{i % 2}" for i in range(20)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    X, y = load_dataset(CsvSource(path=str(path)))
    assert np.abs(X.mean(axis=0)).max() < 1e-10
    assert np.abs(X.std(axis=0) - 1.0).max() < 1e-10
    assert set(y.tolist()) == {0, 1}


def test_mine_pairs_routes():
    X = np.random.default_rng(0).normal(size=(50, 2))
    knn = mine_pairs(X, MethodConfig(kind="knn", k=2), np.random.default_rng(1))
    assert knn.raw_positive_count == 100
    want = knn_pairs(X, 2, np.random.default_rng(1))
    assert np.array_equal(knn.positives, want.positives)
    assert np.array_equal(knn.negatives, want.negatives)
    tree = mine_pairs(
        X,
        MethodConfig(kind="rptree", leaf_size=10, strategy="pca"),
        np.random.default_rng(1),
    )
    rng = np.random.default_rng(1)
    want = rptree_pairs(build_tree(X, TreeConfig(10, "pca"), rng), rng)
    assert np.array_equal(tree.positives, want.positives)
    assert np.array_equal(tree.negatives, want.negatives)
    assert len(tree.positives) > 0 and len(tree.negatives) > 0


# --- pipeline ---


def test_run_pipeline_record_contract():
    config = quick_config()
    X, y = load_dataset(config.dataset)
    result = run_pipeline(X, y, config, run_index=1)
    record = result.record

    assert record["run_index"] == 1
    assert record["seed"] == config.base_seed + 1
    assert -0.5 <= record["ari"] <= 1.0
    assert record["bandwidth"] > 0
    assert record["pair_source"] == "rptree:leaf=10:random"
    counts = record["pair_counts"]
    assert counts["positive"] > 0
    assert counts["raw_positive"] >= counts["positive"]
    assert record["max_ortho_residual"] <= 1e-6 * 24
    for stage in ("pairs", "siamese", "bandwidth", "spectral", "embed",
                  "kmeans", "score", "total"):
        assert record["durations"][stage] >= 0
    assert result.labels.shape == (60,)
    assert result.embedding.shape == (60, 2)


def test_run_pipeline_is_deterministic_apart_from_durations():
    config = quick_config()
    X, y = load_dataset(config.dataset)
    first = run_pipeline(X, y, config, run_index=0).record
    second = run_pipeline(X, y, config, run_index=0).record
    first.pop("durations")
    second.pop("durations")
    assert first == second


def test_negative_run_seed_is_refused_before_any_stage(monkeypatch):
    def no_stage(name, durations):
        raise AssertionError(f"stage {name} ran")

    monkeypatch.setattr(harness, "_stage", no_stage)
    config = quick_config()
    X, y = load_dataset(config.dataset)
    with pytest.raises(ConfigError, match=r"0 \+ -1 is negative"):
        run_pipeline(X, y, config, run_index=-1)
    with pytest.raises(ConfigError, match=r"0 \+ -1 is negative"):
        mine_run_pairs(X, config, run_index=-1)
    # A base seed that covers the negative index is a valid run.
    shifted = replace(config, base_seed=1)
    assert len(mine_run_pairs(X, shifted, -1).positives) > 0


@pytest.mark.parametrize(
    "override, message",
    [
        ({"spectral": SpectralConfig(n_clusters=2, total_steps=3)}, "spectral.total_steps"),
        ({"siamese": SiameseConfig(epochs=0)}, "siamese.epochs"),
        ({"method": MethodConfig(leaf_size=1)}, "method.leaf_size must be at least 2"),
        ({"method": MethodConfig(strategy="bestof:0")}, "method.strategy must be"),
        # Built in Python, a NaN setting fails its range check too.
        ({"siamese": SiameseConfig(learning_rate=float("nan"))}, "siamese.learning_rate"),
        ({"spectral": SpectralConfig(n_clusters=2, learning_rate=float("nan"))}, "spectral.learning_rate"),
        ({"dataset": SyntheticSpec(kind="moons", n=60, noise=float("nan"))}, "noise must be nonnegative"),
    ],
)
def test_run_pipeline_refuses_a_bad_config_before_any_stage(monkeypatch, override, message):
    X, y = load_dataset(quick_config().dataset)
    config = quick_config(**override)
    mined = []
    monkeypatch.setattr(harness, "mine_pairs", lambda *args: mined.append(args))
    with pytest.raises(ConfigError, match=message):
        run_pipeline(X, y, config)
    assert not mined


def test_run_index_changes_results():
    config = quick_config()
    X, y = load_dataset(config.dataset)
    a = run_pipeline(X, y, config, run_index=0).record
    b = run_pipeline(X, y, config, run_index=1).record
    assert a["bandwidth"] != b["bandwidth"]


def test_run_experiment_summary():
    record = run_experiment(quick_config())
    assert len(record["runs"]) == 2
    summary = record["summary"]
    assert summary["runs_total"] == 2
    assert summary["runs_failed"] == 0
    scored = [r["ari"] for r in record["runs"]]
    assert summary["mean_ari"] == pytest.approx(np.mean(scored))
    assert summary["min_ari"] == min(scored)
    assert record["config"] == config_to_dict(quick_config())


def test_run_experiment_collects_stage_failures():
    # knn with k >= n points fails in the pairs stage; the experiment must
    # record the failure and carry on.
    config = quick_config(
        dataset=SyntheticSpec(kind="blobs", n=60, noise=0.05, centers=2, seed=0),
        method=MethodConfig(kind="knn", k=60),
        runs=2,
    )
    record = run_experiment(config)
    assert record["summary"]["runs_failed"] == 2
    assert record["summary"]["mean_ari"] is None
    for run in record["runs"]:
        assert run["error"]["stage"] == "pairs"
        assert "k=60" in run["error"]["message"] or "60" in run["error"]["message"]


ROUTES = {
    "rptree": MethodConfig(kind="rptree", leaf_size=10, strategy="random"),
    "knn": MethodConfig(kind="knn", k=3),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_run_pipeline_names_non_finite_input_in_the_pairs_stage(route):
    config = quick_config(method=ROUTES[route])
    X, y = load_dataset(config.dataset)
    X[3, 0] = np.nan
    with pytest.raises(StageError) as caught:
        run_pipeline(X, y, config)
    assert caught.value.stage == "pairs"
    assert isinstance(caught.value.cause, NonFiniteInput)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_pipeline_names_a_diverged_twin_in_the_siamese_stage():
    # At this rate the default twin's loss and weights overflow to NaN in
    # its first epoch; the run must not fail later, at the bandwidth.
    config = quick_config(siamese=SiameseConfig(epochs=3, learning_rate=1e6))
    X, y = load_dataset(config.dataset)
    with pytest.raises(StageError) as caught:
        run_pipeline(X, y, config)
    assert caught.value.stage == "siamese"
    assert isinstance(caught.value.cause, NonFiniteInput)
    assert "epoch 1 of 3" in str(caught.value.cause)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("learning_rate", [1e4, 1e6])
def test_run_pipeline_fails_a_diverging_twin_at_its_step(learning_rate):
    # At 1e4 Adam's float32 second moment overflows to inf, which turns those
    # updates into 0; unchecked, the run finishes with a twin loss of ~2e27.
    # The overflow fails the step it happens in, and no numpy warning is
    # printed on the way (warnings are errors here).
    config = quick_config(
        siamese=SiameseConfig(epochs=3, learning_rate=learning_rate)
    )
    X, y = load_dataset(config.dataset)
    with pytest.raises(StageError) as caught:
        run_pipeline(X, y, config)
    assert caught.value.stage == "siamese"
    assert isinstance(caught.value.cause, NonFiniteInput)
    assert "at step 2 of epoch 1 of 3" in str(caught.value.cause)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize("batch_size", [24, 60], ids=["sampled", "full"])
def test_run_pipeline_fails_a_diverging_spectral_net_at_its_step(batch_size, restarts):
    # At this rate the net's first update overflows its float32 weights.
    # The overflow fails the step it happens in, not a later whitening, and
    # no numpy warning is printed on the way (warnings are errors here).
    config = quick_config(
        spectral=SpectralConfig(
            n_clusters=2, batch_size=batch_size, total_steps=20, hidden_sizes=(8,),
            learning_rate=1e30, restarts=restarts,
        )
    )
    X, y = load_dataset(config.dataset)
    with pytest.raises(StageError) as caught:
        run_pipeline(X, y, config)
    assert caught.value.stage == "spectral"
    assert isinstance(caught.value.cause, SingularGram)
    where = "at step 2 of 10" + (" of restart 1 of 2" if restarts > 1 else ":")
    assert where in str(caught.value.cause)


def nan_twin(monkeypatch):
    """Make the siamese stage hand back a twin whose embedding is NaN."""
    train = harness.train_siamese

    def train_nan(*args, **kwargs):
        twin, history = train(*args, **kwargs)
        twin.layers[-1].biases[0] = np.nan
        return twin, history

    monkeypatch.setattr(harness, "train_siamese", train_nan)


@pytest.mark.parametrize("features", ["raw", "twin"])
def test_run_pipeline_names_a_non_finite_twin_embedding_in_the_bandwidth_stage(
    features, monkeypatch
):
    # Finite input, but the twin that builds the affinity maps it to NaN.
    nan_twin(monkeypatch)
    config = quick_config(
        spectral=SpectralConfig(
            n_clusters=2, batch_size=24, total_steps=20, hidden_sizes=(8,),
            features=features,
        )
    )
    X, y = load_dataset(config.dataset)
    with pytest.raises(StageError) as caught:
        run_pipeline(X, y, config)
    assert caught.value.stage == "bandwidth"
    assert isinstance(caught.value.cause, NonFiniteInput)
    assert "twin embedding" in str(caught.value.cause)


@pytest.mark.parametrize("features", ["raw", "twin"])
@pytest.mark.parametrize("batch_size", [24, 60], ids=["sampled", "full"])
def test_run_pipeline_embeds_with_the_twin_once(features, batch_size, monkeypatch):
    twins = []
    train = harness.train_siamese

    def keep_twin(*args, **kwargs):
        twin, history = train(*args, **kwargs)
        twins.append(twin)
        return twin, history

    predict = Mlp.predict
    twin_passes = []

    def spy_predict(net, batch):
        if net is twins[0]:
            twin_passes.append(len(batch))
        return predict(net, batch)

    monkeypatch.setattr(harness, "train_siamese", keep_twin)
    monkeypatch.setattr(Mlp, "predict", spy_predict)
    config = quick_config(
        spectral=SpectralConfig(
            n_clusters=2, batch_size=batch_size, total_steps=20,
            hidden_sizes=(8,), features=features,
        )
    )
    X, y = load_dataset(config.dataset)
    run_pipeline(X, y, config)
    assert twin_passes == [len(X)]


@pytest.mark.parametrize("bad", [np.inf, 1e39])
def test_run_pipeline_with_twin_features_checks_the_input(bad):
    # With twin features the spectral net never sees X, so X is refused
    # before the twin embeds it.
    config = quick_config(
        spectral=SpectralConfig(
            n_clusters=2, batch_size=24, total_steps=20, hidden_sizes=(8,),
            features="twin",
        )
    )
    X, y = load_dataset(config.dataset)
    X[3, 0] = bad
    with pytest.raises(StageError) as caught:
        run_pipeline(X, y, config)
    assert caught.value.stage == ("pairs" if bad == np.inf else "siamese")
    assert isinstance(caught.value.cause, NonFiniteInput)
    assert "1 input value" in str(caught.value.cause)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_run_experiment_records_non_finite_input_as_a_pairs_failure(route, monkeypatch):
    X, y = load_dataset(quick_config().dataset)
    X[3, 0] = np.inf
    monkeypatch.setattr(harness, "load_dataset", lambda source: (X, y))
    record = run_experiment(quick_config(method=ROUTES[route]))
    assert record["summary"]["runs_failed"] == 2
    for run in record["runs"]:
        assert run["error"]["stage"] == "pairs"
        assert "1 input value" in run["error"]["message"]


# --- sweep ---


def test_sweep_grid_cells():
    record = sweep(quick_config(runs=1), {"method.leaf_size": [8, 16]})
    assert [c["values"] for c in record["cells"]] == [
        {"method.leaf_size": 8},
        {"method.leaf_size": 16},
    ]
    for cell in record["cells"]:
        assert cell["experiment"]["summary"]["runs_total"] == 1
    assert record["grid"] == {"method.leaf_size": [8, 16]}


def test_sweep_cross_product_order():
    record = sweep(
        quick_config(runs=1),
        {"runs": [1], "method.strategy": ["random", "pca"]},
    )
    names = [c["values"]["method.strategy"] for c in record["cells"]]
    assert names == ["random", "pca"]


def test_sweep_bad_grids():
    config = quick_config()
    with pytest.raises(BadGrid):
        sweep(config, {})
    with pytest.raises(BadGrid):
        sweep(config, {"method.leaf_size": []})
    with pytest.raises(BadGrid):
        sweep(config, {"nonsense": [1]})
    with pytest.raises(BadGrid):
        sweep(config, {"method.nonsense": [1]})
    with pytest.raises(BadGrid):
        sweep(config, {"turbo.mode": [1]})
    # Settings of earlier versions, now constants.
    for key in ("kmeans.restarts", "method.max_split_retries", "spectral.jitter"):
        with pytest.raises(BadGrid, match=f"unknown grid key '{key}'"):
            sweep(config, {key: [1]})


@pytest.mark.parametrize(
    "grid",
    [
        {"method.leaf_size": [8, "20"]},
        {"siamese.epochs": [2, 1.5]},
        {"runs": [1, 2.5]},
    ],
)
def test_sweep_refuses_a_wrong_typed_value_before_any_cell_runs(monkeypatch, grid):
    def no_run(config):
        raise AssertionError("a cell ran before the grid was checked")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    (key,) = grid
    with pytest.raises(BadGrid, match=f"{key} must be"):
        sweep(quick_config(runs=1), grid)


def test_sweep_over_n_clusters_carries_spectral_and_kmeans(monkeypatch):
    # The base sets its spectral section explicitly, for n_clusters=2.
    clusters = []

    def counting_kmeans(points, n_clusters, rng):
        clusters.append(n_clusters)
        return kmeans(points, n_clusters, rng)

    monkeypatch.setattr(harness, "kmeans", counting_kmeans)
    record = sweep(quick_config(runs=1), {"n_clusters": [2, 3]})
    for cell, n in zip(record["cells"], (2, 3)):
        config = cell["experiment"]["config"]
        assert config["n_clusters"] == n
        assert config["spectral"]["n_clusters"] == n
        assert config["spectral"]["total_steps"] == 20
    assert clusters == [2, 3]
    assert record["base_config"] == config_to_dict(quick_config(runs=1))


# --- report ---


def test_report_writes_three_files(tmp_path):
    record = run_experiment(quick_config(runs=1))
    paths = report(record, tmp_path / "out")
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    timings = json.loads((tmp_path / "out" / "timings.json").read_text())
    run = dict(record["runs"][0])
    durations = run.pop("durations")
    assert results == {**record, "runs": [run]}
    assert timings == {"runs": [{"run_index": 0, "durations": durations}]}
    summary_text = (tmp_path / "out" / "summary.csv").read_text()
    assert summary_text.startswith("dataset,method,")
    assert "blobs:n=60" in summary_text
    plot_text = (tmp_path / "out" / "plotdata.csv").read_text()
    assert "run_index,metric,value" in plot_text.splitlines()[0]
    assert "ari" in plot_text
    assert set(paths) == {"results", "timings", "summary", "plotdata"}


def test_report_is_byte_stable(tmp_path):
    record = run_experiment(quick_config(runs=1))
    report(record, tmp_path / "a")
    report(record, tmp_path / "b")
    for name in ("results.json", "summary.csv", "plotdata.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_report_sweep_record(tmp_path):
    record = sweep(quick_config(runs=1), {"method.leaf_size": [8, 16]})
    report(record, tmp_path)
    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_lines[0].startswith("cell,")
    assert len(summary_lines) == 3
    assert "method.leaf_size=8" in summary_lines[1]
    results = json.loads((tmp_path / "results.json").read_text())
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert len(timings["cells"]) == len(results["cells"]) == 2
    for cell, timed in zip(results["cells"], timings["cells"]):
        assert timed["values"] == cell["values"]
        assert "durations" not in cell["experiment"]["runs"][0]
        assert timed["runs"][0]["durations"]["total"] > 0


def test_report_method_column_is_method_label(tmp_path):
    config = quick_config(runs=1)
    record = sweep(config, {"method.kind": ["knn", "rptree"]})
    report(record, tmp_path)
    with open(tmp_path / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == [
        replace(config.method, kind="knn").label,
        replace(config.method, kind="rptree").label,
    ]


def test_report_failed_runs_marked_in_plotdata(tmp_path):
    config = quick_config(method=MethodConfig(kind="knn", k=60), runs=1)
    record = run_experiment(config)
    report(record, tmp_path)
    plot_text = (tmp_path / "plotdata.csv").read_text()
    assert "error,pairs" in plot_text

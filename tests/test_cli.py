import csv
import io
import json

import numpy as np
import pytest

from rpspectral import harness
from rpspectral.cli import main
from rpspectral.datasets import SyntheticSpec, generate_synthetic
from rpspectral.errors import ConfigError
from rpspectral.harness import config_from_dict, load_dataset, mine_pairs, run_pipeline
from rpspectral.serialize import read_json


def quick_config_doc():
    return {
        "dataset": {"kind": "blobs", "n": 60, "noise": 0.05, "centers": 2, "seed": 0},
        "method": {"kind": "rptree", "leaf_size": 10, "strategy": "random"},
        "n_clusters": 2,
        "runs": 2,
        "siamese": {
            "epochs": 2,
            "batch_size": 16,
            "hidden_sizes": [8],
            "embedding_dim": 4,
        },
        "spectral": {"batch_size": 24, "total_steps": 20, "hidden_sizes": [8]},
    }


def write_config(tmp_path, doc=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc or quick_config_doc()), encoding="utf-8")
    return str(path)


def dataset_config(tmp_path, dataset, **sections):
    """A config file holding ``dataset`` and the given top-level entries."""
    return write_config(tmp_path, {"dataset": dataset, **sections})


def test_generate_writes_labeled_csv(tmp_path, capsys):
    out = tmp_path / "data" / "blobs.csv"
    config = dataset_config(
        tmp_path, {"kind": "blobs", "n": 40, "noise": 0.05, "seed": 1}
    )
    code = main(["generate", "--config", config, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "f0,f1,label"
    assert len(lines) == 41
    assert "wrote 40 points" in capsys.readouterr().out


def test_generate_writes_the_bytes_of_a_per_row_writer(tmp_path):
    out = tmp_path / "moons.csv"
    spec = {"kind": "moons", "n": 50, "noise": 0.07, "seed": 3}
    config = dataset_config(tmp_path, spec)
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    X, y = generate_synthetic(SyntheticSpec(**spec))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["f0", "f1", "label"])
    for row, label in zip(X, y):
        writer.writerow([str(float(v)) for v in row] + [int(label)])
    assert out.read_bytes() == want.getvalue().encode()


def test_generate_rejects_bad_spec(tmp_path, capsys):
    config = dataset_config(tmp_path, {"kind": "blobs", "n": 0})
    code = main(["generate", "--config", config, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_refuses_a_csv_dataset_config(tmp_path, capsys):
    config = dataset_config(tmp_path, {"path": "points.csv"})
    out = tmp_path / "x.csv"
    assert main(["generate", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "synthetic dataset" in err and "points.csv" in err
    assert not out.exists()


def test_pairs_verb(tmp_path, capsys):
    config = dataset_config(
        tmp_path,
        {"kind": "moons", "n": 80, "noise": 0.05},
        method={"kind": "rptree", "leaf_size": 10},
    )
    outdir = tmp_path / "pairs"
    code = main(["pairs", "--config", config, "--outdir", str(outdir)])
    assert code == 0
    meta = read_json(outdir / "pairs.json")
    assert meta["source"] == "rptree:leaf=10:random"
    assert meta["positive"] > 0 and meta["negative"] > 0
    positives = np.loadtxt(
        outdir / "positives.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2
    )
    assert positives.shape[0] == meta["positive"]
    assert "positive" in capsys.readouterr().out


def test_pairs_knn_route(tmp_path):
    config = dataset_config(
        tmp_path,
        {"kind": "blobs", "n": 50, "noise": 0.05},
        method={"kind": "knn", "k": 3},
    )
    outdir = tmp_path / "knn"
    code = main(["pairs", "--config", config, "--outdir", str(outdir)])
    assert code == 0
    assert read_json(outdir / "pairs.json")["raw_positive"] == 150


@pytest.mark.parametrize("kind", ["rptree", "knn"])
def test_pairs_writes_the_pair_set_of_the_run(tmp_path, monkeypatch, kind):
    doc = quick_config_doc()
    if kind == "knn":
        doc["method"] = {"kind": "knn", "k": 3}
    config = write_config(tmp_path, doc)
    outdir = tmp_path / "pairs"
    assert main(["pairs", "--config", config, "--run-index", "3",
                 "--outdir", str(outdir)]) == 0

    caught = []

    def catching(*args):
        caught.append(mine_pairs(*args))
        return caught[-1]

    monkeypatch.setattr(harness, "mine_pairs", catching)
    parsed = config_from_dict(doc)
    X, y = load_dataset(parsed.dataset)
    record = run_pipeline(X, y, parsed, run_index=3).record
    (pairs,) = caught
    for name, want in (("positives", pairs.positives), ("negatives", pairs.negatives)):
        got = np.loadtxt(
            outdir / f"{name}.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2
        )
        assert np.array_equal(got, want)
    meta = read_json(outdir / "pairs.json")
    assert [meta[k] for k in ("positive", "negative", "raw_positive")] == [
        record["pair_counts"][k] for k in ("positive", "negative", "raw_positive")
    ]


def test_pairs_missing_file_is_config_error(tmp_path, capsys):
    config = dataset_config(tmp_path, {"path": str(tmp_path / "nope.csv")})
    code = main(["pairs", "--config", config, "--outdir", str(tmp_path / "p")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("verb", ["run", "pairs"])
def test_negative_run_seed_exits_2(tmp_path, capsys, verb):
    outdir = tmp_path / "out"
    code = main([verb, "--config", write_config(tmp_path), "--run-index", "-1",
                 "--outdir", str(outdir)])
    assert code == 2
    assert "base_seed + run_index = 0 + -1 is negative" in capsys.readouterr().err
    assert not outdir.exists()


def test_run_verb_happy_path(tmp_path, capsys):
    outdir = tmp_path / "run0"
    config = write_config(tmp_path)
    code = main(["run", "--config", config, "--outdir", str(outdir)])
    assert code == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "labels.csv", "run.json", "timings.json"
    ]
    record = read_json(outdir / "run.json")
    assert record["run_index"] == 0
    assert -0.5 <= record["ari"] <= 1.0
    labels = (outdir / "labels.csv").read_text().splitlines()
    assert labels[0] == "index,label"
    assert len(labels) == 61
    assert "ari=" in capsys.readouterr().out
    # models are not saved; the flag that saved them is gone
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config, "--save-models", "--outdir", str(outdir)])
    assert exc.value.code == 2


def test_run_results_are_byte_stable(tmp_path):
    config = write_config(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", config, "--outdir", str(first)]) == 0
    assert main(["run", "--config", config, "--outdir", str(second)]) == 0
    assert (first / "run.json").read_bytes() == (second / "run.json").read_bytes()
    assert "durations" not in read_json(first / "run.json")
    timings = read_json(first / "timings.json")
    assert [run["run_index"] for run in timings["runs"]] == [0]
    assert timings["runs"][0]["durations"]["total"] > 0


def test_run_verb_bad_config_exits_2(tmp_path, capsys):
    doc = quick_config_doc()
    doc["method"]["kind"] = "dbscan"
    code = main(
        ["run", "--config", write_config(tmp_path, doc), "--outdir", str(tmp_path)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_verb_stage_failure_exits_1(tmp_path, capsys):
    doc = quick_config_doc()
    doc["method"] = {"kind": "knn", "k": 60}  # as many neighbors as points
    code = main(
        ["run", "--config", write_config(tmp_path, doc), "--outdir", str(tmp_path)]
    )
    assert code == 1
    assert "run failed" in capsys.readouterr().err


def test_experiment_verb(tmp_path, capsys):
    outdir = tmp_path / "exp"
    code = main(
        ["experiment", "--config", write_config(tmp_path), "--outdir", str(outdir)]
    )
    assert code == 0
    record = read_json(outdir / "results.json")
    assert record["summary"]["runs_total"] == 2
    assert (outdir / "summary.csv").exists()
    assert (outdir / "plotdata.csv").exists()
    assert "mean ari" in capsys.readouterr().out


def test_experiment_results_are_byte_stable(tmp_path):
    config = write_config(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["experiment", "--config", config, "--outdir", str(first)]) == 0
    assert main(["experiment", "--config", config, "--outdir", str(second)]) == 0
    assert (first / "results.json").read_bytes() == (
        second / "results.json"
    ).read_bytes()
    timings = read_json(first / "timings.json")
    assert [run["run_index"] for run in timings["runs"]] == [0, 1]
    assert all(run["durations"]["total"] > 0 for run in timings["runs"])


@pytest.mark.parametrize("flag", ["--runs", "--base-seed"])
def test_experiment_flags_that_copied_config_keys_exit_2(tmp_path, flag):
    # runs and base_seed are set in the config only.
    outdir = tmp_path / "exp1"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", write_config(tmp_path), flag, "2",
              "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert not outdir.exists()


def test_experiment_partial_failure_exits_1(tmp_path):
    doc = quick_config_doc()
    doc["method"] = {"kind": "knn", "k": 60}
    outdir = tmp_path / "expfail"
    code = main(
        ["experiment", "--config", write_config(tmp_path, doc),
         "--outdir", str(outdir)]
    )
    assert code == 1
    # Every run failed, and the report is still complete.
    assert sorted(p.name for p in outdir.iterdir()) == [
        "plotdata.csv", "results.json", "summary.csv", "timings.json"
    ]


def test_sweep_verb(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(
        json.dumps({"method.leaf_size": [8, 16], "runs": [1]}), encoding="utf-8"
    )
    outdir = tmp_path / "sweep"
    code = main(
        ["sweep", "--config", write_config(tmp_path), "--grid", str(grid_path),
         "--outdir", str(outdir)]
    )
    assert code == 0
    record = read_json(outdir / "results.json")
    assert len(record["cells"]) == 2
    assert "2 grid cells" in capsys.readouterr().out


def test_sweep_bad_grid_exits_2(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"bogus.key": [1]}), encoding="utf-8")
    code = main(
        ["sweep", "--config", write_config(tmp_path), "--grid", str(grid_path),
         "--outdir", str(tmp_path / "s")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_report_verb_round_trip(tmp_path):
    exp_dir = tmp_path / "exp"
    main(["experiment", "--config", write_config(tmp_path), "--outdir", str(exp_dir)])
    re_dir = tmp_path / "re"
    code = main(
        ["report", "--results", str(exp_dir / "results.json"),
         "--outdir", str(re_dir)]
    )
    assert code == 0
    assert (re_dir / "summary.csv").read_bytes() == (
        exp_dir / "summary.csv"
    ).read_bytes()


def test_report_verb_keeps_the_experiment_timings(tmp_path):
    exp_dir = tmp_path / "exp"
    assert main(["experiment", "--config", write_config(tmp_path),
                 "--outdir", str(exp_dir)]) == 0
    timings = (exp_dir / "timings.json").read_bytes()
    assert len(read_json(exp_dir / "timings.json")["runs"]) == 2
    for outdir in (exp_dir, tmp_path / "re"):
        assert main(["report", "--results", str(exp_dir / "results.json"),
                     "--outdir", str(outdir)]) == 0
    assert (exp_dir / "timings.json").read_bytes() == timings
    assert sorted(p.name for p in (tmp_path / "re").iterdir()) == [
        "plotdata.csv", "results.json", "summary.csv"
    ]


def test_malformed_config_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["run", "--config", str(path), "--outdir", str(tmp_path / "o")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


WRONG_TYPES = [
    ("method", {"leaf_size": "20"}, "method.leaf_size"),
    ("dataset", {"noise": "0.1"}, "dataset.noise"),
    ("dataset", {"n": True}, "dataset.n"),
    ("dataset", {"path": "points.csv", "header": 1}, "dataset.header"),
    ("siamese", {"hidden_sizes": [8.5]}, "siamese.hidden_sizes"),
    ("spectral", {"learning_rate": "0.01"}, "spectral.learning_rate"),
    ("method", {"k": 2.5}, "method.k"),
    (None, {"runs": 2.7}, "runs"),
]

# Well-typed values that validate() refuses before any run starts.
OUT_OF_RANGE = [
    ("siamese", {"learning_rate": -1e-3}, "siamese.learning_rate"),
    ("siamese", {"learning_rate": 0}, "siamese.learning_rate"),
    ("siamese", {"embedding_dim": 0}, "siamese.embedding_dim"),
    ("siamese", {"hidden_sizes": [8, 0]}, "siamese.hidden_sizes"),
    ("spectral", {"hidden_sizes": [0]}, "spectral.hidden_sizes"),
    ("spectral", {"learning_rate": 0}, "spectral.learning_rate"),
]

# json.loads reads the literals NaN, Infinity and -Infinity as floats.
NON_FINITE = [
    ("dataset", {"noise": float("nan")}, "dataset.noise"),
    ("siamese", {"learning_rate": float("inf")}, "siamese.learning_rate"),
    ("spectral", {"learning_rate": -float("inf")}, "spectral.learning_rate"),
]


@pytest.mark.parametrize("section, values, field", WRONG_TYPES + OUT_OF_RANGE + NON_FINITE)
def test_wrong_json_type_is_refused_naming_the_field(
    tmp_path, capsys, section, values, field
):
    doc = quick_config_doc()
    if section is None:
        doc.update(values)
    elif section == "dataset" and "path" in values:
        doc["dataset"] = values
    else:
        doc.setdefault(section, {}).update(values)
    with pytest.raises(ConfigError, match=f"{field} must be"):
        config_from_dict(doc)
    code = main(
        ["experiment", "--config", write_config(tmp_path, doc),
         "--outdir", str(tmp_path / "out")]
    )
    assert code == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_overrides_on_non_object_config_exit_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code = main(
        ["experiment", "--config", str(path), "--outdir", str(tmp_path / "out")]
    )
    assert code == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    # A path under a regular file can be neither created nor written.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    config = write_config(tmp_path)
    for argv in (
        ["generate", "--config", config, "--out", str(blocker / "blobs.csv")],
        ["pairs", "--config", config, "--outdir", str(blocker / "pairs")],
    ):
        assert main(argv) == 2
        assert str(blocker) in capsys.readouterr().err


REMOVED_SETTINGS = [
    ("kmeans", {"restarts": 10}, "unknown top-level option(s): kmeans"),
    ("method", {"max_split_retries": 0}, "unknown method option(s): max_split_retries"),
    ("spectral", {"jitter": 1e-6}, "unknown spectral option(s): jitter"),
    ("siamese", {"margin": 1.0}, "unknown siamese option(s): margin"),
    ("siamese", {"activation": "relu"}, "unknown siamese option(s): activation"),
    # The strategy spellings are exact; no case or whitespace is forgiven.
    ("method", {"strategy": "PCA"}, "method.strategy must be 'random', 'pca' or 'bestof:N'"),
    ("method", {"strategy": " pca "}, "got ' pca '"),
]


@pytest.mark.parametrize("section, values, message", REMOVED_SETTINGS)
def test_removed_settings_are_refused_naming_the_key(
    tmp_path, capsys, section, values, message
):
    doc = quick_config_doc()
    doc.setdefault(section, {}).update(values)
    code = main(
        ["experiment", "--config", write_config(tmp_path, doc),
         "--outdir", str(tmp_path / "out")]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"runs": [{"run_index": 0}]}', "lacks the entry 'config'"),
        ("[1]", "must be a JSON object"),
        ('{"runs": [1]}', "wrong shape"),
    ],
)
def test_report_on_a_malformed_record_exits_2_writing_nothing(
    tmp_path, capsys, text, message
):
    path = tmp_path / "results.json"
    path.write_text(text, encoding="utf-8")
    outdir = tmp_path / "out"
    code = main(["report", "--results", str(path), "--outdir", str(outdir)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()

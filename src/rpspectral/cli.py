"""Command-line interface.

Verbs:
  generate    write a config's synthetic dataset to a labeled CSV
  pairs       mine the training pairs of one run of a config
  run         train and score a single pipeline run
  experiment  repeated runs on one dataset, with report files
  sweep       a grid of experiments, with a combined report
  report      regenerate CSV summaries from an existing results.json

Exit codes: 0 success, 1 some pipeline runs failed, 2 bad configuration or
unusable input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .datasets import SyntheticSpec, generate_synthetic
from .errors import ConfigError, RpSpectralError, StageError
from .harness import (
    _split_timings,
    _write_results,
    config_from_dict,
    load_dataset,
    mine_run_pairs,
    report,
    run_experiment,
    run_pipeline,
    sweep,
)
from .pairing import save_pairs_csv
from .serialize import read_json, write_csv, write_json


def _cmd_generate(args):
    config = config_from_dict(read_json(args.config))
    spec = config.dataset
    if not isinstance(spec, SyntheticSpec):
        raise ConfigError(
            f"{args.config}: generate needs a synthetic dataset, not the CSV "
            f"file {spec.path}"
        )
    X, y = generate_synthetic(spec)
    write_csv(
        args.out,
        [f"f{i}" for i in range(X.shape[1])] + ["label"],
        ([*row, label] for row, label in zip(X.tolist(), y.tolist())),
    )
    print(f"wrote {len(X)} points ({spec.kind}) to {args.out}")
    return 0


def _cmd_pairs(args):
    config = config_from_dict(read_json(args.config))
    X, _ = load_dataset(config.dataset)
    pairs = mine_run_pairs(X, config, args.run_index)

    outdir = Path(args.outdir)
    save_pairs_csv(pairs, outdir / "positives.csv", outdir / "negatives.csv")
    write_json(
        outdir / "pairs.json",
        {
            "source": config.method.label,
            "positive": int(len(pairs.positives)),
            "negative": int(len(pairs.negatives)),
            "raw_positive": int(pairs.raw_positive_count),
            "warning": pairs.warning,
        },
    )
    print(
        f"{config.method.label}: {len(pairs.positives)} positive / "
        f"{len(pairs.negatives)} negative pairs -> {outdir}"
    )
    if pairs.warning:
        print(f"warning: {pairs.warning}", file=sys.stderr)
    return 0


def _cmd_run(args):
    config = config_from_dict(read_json(args.config))
    X, y = load_dataset(config.dataset)
    outdir = Path(args.outdir)
    try:
        result = run_pipeline(X, y, config, run_index=args.run_index)
    except StageError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    # Durations differ on every rerun; keep them out of run.json.
    results, timings = _split_timings({"runs": [result.record]})
    write_json(outdir / "run.json", results["runs"][0])
    write_json(outdir / "timings.json", timings)
    write_csv(
        outdir / "labels.csv",
        ("index", "label"),
        np.column_stack((np.arange(len(result.labels)), result.labels)),
    )
    score = result.record["ari"]
    shown = "undefined" if score is None else f"{score:.4f}"
    print(f"run {args.run_index}: ari={shown} -> {outdir}")
    return 0


def _cmd_experiment(args):
    record = run_experiment(config_from_dict(read_json(args.config)))
    report(record, args.outdir)
    summary = record["summary"]
    mean = summary["mean_ari"]
    shown = "undefined" if mean is None else f"{mean:.4f}"
    print(
        f"{summary['runs_total']} runs, {summary['runs_failed']} failed, "
        f"mean ari {shown} -> {args.outdir}"
    )
    return 1 if summary["runs_failed"] else 0


def _cmd_sweep(args):
    config = config_from_dict(read_json(args.config))
    grid = read_json(args.grid)
    if not isinstance(grid, dict):
        raise ConfigError("grid file must be a JSON object of key -> values")
    record = sweep(config, grid)
    report(record, args.outdir)
    failed = sum(
        cell["experiment"]["summary"]["runs_failed"] for cell in record["cells"]
    )
    print(
        f"{len(record['cells'])} grid cells, {failed} failed runs "
        f"-> {args.outdir}"
    )
    return 1 if failed else 0


def _cmd_report(args):
    # A record read back from results.json holds no durations; the
    # outdir's timings.json, if any, is left as it was.
    paths, _ = _write_results(read_json(args.results), args.outdir)
    print(f"wrote {paths['summary']} and {paths['plotdata']}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rpspectral",
        description="Tree-pair spectral clustering pipelines.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a config's synthetic dataset CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("pairs", help="mine the training pairs of one run")
    p.add_argument("--config", required=True)
    p.add_argument("--run-index", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("run", help="train and score one pipeline run")
    p.add_argument("--config", required=True)
    p.add_argument("--run-index", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="repeated runs with a report")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="grid of experiments with a report")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="JSON object of key -> values")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="regenerate CSVs from results.json")
    p.add_argument("--results", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RpSpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

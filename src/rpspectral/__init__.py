"""Spectral clustering with tree-mined training pairs.

The pipeline replaces the usual nearest-neighbor pair mining for deep
spectral embeddings with random-projection tree leaves: points sharing a
leaf become positive pairs, points from a randomly chosen partner leaf
become negatives. A twin network learns a metric from those pairs, a heat
kernel on twin distances drives a spectral embedding network, and k-means
reads the clusters off the embedding.
"""

from .clustering import (
    KmeansResult,
    ari,
    kmeans,
    spectral_oracle,
)
from .datasets import (
    SYNTHETIC_KINDS,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    standardize,
)
from .harness import (
    CsvSource,
    ExperimentConfig,
    MethodConfig,
    PipelineRun,
    config_from_dict,
    config_to_dict,
    load_dataset,
    mine_pairs,
    report,
    run_experiment,
    run_pipeline,
    sweep,
)
from .mlp import Adam, Mlp
from .pairing import PairSet, knn_pairs, rptree_pairs
from .rptree import Tree, TreeConfig, build_tree, leaf_size_stats
from .siamese import (
    SiameseConfig,
    heat_kernel,
    pairwise_distances,
    select_bandwidth,
    siamese_distances,
    train_siamese,
)
from .spectralnet import (
    SpectralConfig,
    SpectralModel,
    embed,
    orthogonalize,
    spectral_loss,
    train_spectralnet,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CsvSource",
    "ExperimentConfig",
    "KmeansResult",
    "MethodConfig",
    "Mlp",
    "PairSet",
    "PipelineRun",
    "SiameseConfig",
    "SpectralConfig",
    "SpectralModel",
    "SYNTHETIC_KINDS",
    "SyntheticSpec",
    "Tree",
    "TreeConfig",
    "ari",
    "build_tree",
    "config_from_dict",
    "config_to_dict",
    "embed",
    "generate_synthetic",
    "heat_kernel",
    "kmeans",
    "knn_pairs",
    "leaf_size_stats",
    "load_csv",
    "load_dataset",
    "mine_pairs",
    "orthogonalize",
    "pairwise_distances",
    "report",
    "rptree_pairs",
    "run_experiment",
    "run_pipeline",
    "select_bandwidth",
    "siamese_distances",
    "spectral_loss",
    "spectral_oracle",
    "standardize",
    "sweep",
    "train_siamese",
    "train_spectralnet",
    "__version__",
]

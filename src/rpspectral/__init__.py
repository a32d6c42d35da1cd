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
    PairConfusion,
    ari,
    kmeans,
    pair_confusion,
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
from .mlp import Adam, Mlp, gradient_check
from .pairing import PairSet, knn_pairs, rptree_pairs
from .rptree import (
    DirectionStrategy,
    Tree,
    TreeConfig,
    build_tree,
    leaf_size_stats,
    leaves,
)
from .siamese import (
    SiameseConfig,
    contrastive_loss,
    heat_kernel,
    load_twin_checkpoint,
    pairwise_distances,
    save_twin_checkpoint,
    select_bandwidth,
    siamese_distances,
    train_siamese,
)
from .spectralnet import (
    OrthoMap,
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
    "DirectionStrategy",
    "ExperimentConfig",
    "KmeansResult",
    "MethodConfig",
    "Mlp",
    "OrthoMap",
    "PairConfusion",
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
    "contrastive_loss",
    "embed",
    "generate_synthetic",
    "gradient_check",
    "heat_kernel",
    "kmeans",
    "knn_pairs",
    "leaf_size_stats",
    "leaves",
    "load_csv",
    "load_dataset",
    "load_twin_checkpoint",
    "mine_pairs",
    "orthogonalize",
    "pair_confusion",
    "pairwise_distances",
    "report",
    "rptree_pairs",
    "run_experiment",
    "run_pipeline",
    "save_twin_checkpoint",
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

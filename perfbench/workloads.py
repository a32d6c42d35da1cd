"""The benchmark's workloads, built from the public rpspectral API.

Every workload makes its inputs from one seed: the dataset seed is the seed
itself and operation ``i`` uses run seed ``seed * 1000 + i``, so a seed fixes
every input and every operation. A pipeline workload's operation is one
``run_pipeline`` call; the pairs workload's operation mines pairs on both
routes, as the ``rpspectral pairs`` verb would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

import rpspectral as rp


def run_seed(seed, index):
    return seed * 1000 + index


@dataclass
class OpResult:
    seconds: float
    pairs: rp.PairSet  # the rptree pair set the operation mined
    run: rp.PipelineRun | None = None  # pipeline workloads
    knn_pairs: rp.PairSet | None = None  # pairs workload


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    why: str
    dataset: rp.SyntheticSpec
    n_clusters: int
    method: rp.MethodConfig = field(default_factory=rp.MethodConfig)
    siamese: rp.SiameseConfig = field(default_factory=rp.SiameseConfig)
    spectral: rp.SpectralConfig | None = None

    def config(self, seed):
        return rp.ExperimentConfig(
            dataset=replace(self.dataset, seed=seed),
            method=self.method,
            n_clusters=self.n_clusters,
            runs=1,
            base_seed=run_seed(seed, 0),
            siamese=self.siamese,
            spectral=self.spectral,
        )

    def setup(self, seed):
        config = self.config(seed)
        config.validate()
        X, y = rp.generate_synthetic(config.dataset)
        return {"config": config, "X": X, "y": y}

    def op(self, inputs, index):
        # The pair set is caught on its way out of mine_pairs so the checks
        # can validate it; the extra call costs nothing measurable.
        import rpspectral.harness as harness

        caught = []
        original = harness.mine_pairs

        def catching(*args, **kwargs):
            caught.append(original(*args, **kwargs))
            return caught[-1]

        harness.mine_pairs = catching
        try:
            start = time.perf_counter()
            run = rp.run_pipeline(inputs["X"], inputs["y"], inputs["config"], index)
            seconds = time.perf_counter() - start
        finally:
            harness.mine_pairs = original
        return OpResult(seconds=seconds, pairs=caught[0], run=run)

    def shrunk(self):
        """The same workload on 240 points with a few training steps."""
        n = 240
        spectral = self.config(0).spectral_config
        return replace(
            self,
            dataset=replace(self.dataset, n=n),
            siamese=replace(self.siamese, epochs=1),
            spectral=replace(
                spectral,
                total_steps=4,
                restarts=1,
                batch_size=min(spectral.batch_size, n),
            ),
        )


@dataclass(frozen=True)
class PairsWorkload:
    name: str
    why: str
    rptree_n: int = 40_000
    knn_n: int = 5_000
    centers: int = 5
    noise: float = 0.05
    leaf_size: int = 20
    k: int = 2

    def setup(self, seed):
        def blobs(n):
            return rp.generate_synthetic(
                rp.SyntheticSpec(kind="blobs", n=n, noise=self.noise, centers=self.centers, seed=seed)
            )[0]

        return {"seed": seed, "X_tree": blobs(self.rptree_n), "X_knn": blobs(self.knn_n)}

    def op(self, inputs, index):
        seed = run_seed(inputs["seed"], index)
        tree_rng = np.random.default_rng(seed)
        knn_rng = np.random.default_rng([seed, 1])
        start = time.perf_counter()
        tree = rp.build_tree(inputs["X_tree"], rp.TreeConfig(leaf_size=self.leaf_size), rng=tree_rng)
        pairs = rp.rptree_pairs(tree, tree_rng)
        knn = rp.knn_pairs(inputs["X_knn"], self.k, knn_rng)
        return OpResult(seconds=time.perf_counter() - start, pairs=pairs, knn_pairs=knn)

    def shrunk(self):
        """The same workload on a few thousand points."""
        return replace(self, rptree_n=2000, knn_n=300)


MOONS_TUNED_SIAMESE = rp.SiameseConfig(
    epochs=1, batch_size=128, hidden_sizes=(64, 64), embedding_dim=16, learning_rate=5e-4
)
# The tuned config trains 4 restarts; one is kept here so that a run holds
# several ~5 s operations instead of one ~21 s operation, whose time alone
# spread by 27% between runs on a shared 2-core host.
MOONS_TUNED_SPECTRAL = rp.SpectralConfig(
    n_clusters=2,
    batch_size=300,
    total_steps=8192,
    hidden_sizes=(32, 32),
    activation="tanh",
    learning_rate=5e-4,
    learning_rate_schedule="cosine",
    restarts=1,
    features="twin",
)

WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            name="blobs-default",
            why="README quick-start; the twin MLP does most of the work and this is the path a new user runs first",
            dataset=rp.SyntheticSpec(kind="blobs", n=300, noise=0.05, centers=3),
            n_clusters=3,
        ),
        PipelineWorkload(
            name="moons-tuned",
            why="tuned moons config; the spectral net is ~99% of the run and gathers each batch from the cached n x n affinity",
            dataset=rp.SyntheticSpec(kind="moons", n=300, noise=0.06),
            n_clusters=2,
            siamese=MOONS_TUNED_SIAMESE,
            spectral=MOONS_TUNED_SPECTRAL,
        ),
        PipelineWorkload(
            name="blobs-10k",
            why="n above the affinity-cache cutoff, so the spectral net builds affinities per batch; ~190k pairs make mining and memory visible",
            dataset=rp.SyntheticSpec(kind="blobs", n=10_000, noise=0.05, centers=5),
            n_clusters=5,
            siamese=rp.SiameseConfig(epochs=1),
        ),
        PairsWorkload(
            name="pairs-scale",
            why="pair mining alone: rptree at n=40k and the knn baseline at n=5k, the only place the knn route runs",
        ),
    )
}

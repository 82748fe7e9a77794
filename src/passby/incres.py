"""Clustering by incremental reseeding on a similarity graph.

Each round plants a few seeds per cluster on that cluster's current members,
grows the seed mass by random-walk diffusion until every vertex holds some,
and harvests new labels by majority mass.  The seed budget ramps up linearly
with the round number, so early rounds explore and late rounds consolidate.

A round that leaves some connected component without a seed can never reach
full support by stepping.  It takes the walk's stationary limit instead: each
component's planted mass spread over the component in proportion to degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.typing as npt
from scipy import sparse

from .graph import SimilarityGraph
from .spectral import Partition

SeedMatrix = npt.NDArray[np.float64]  # (n, k); column c = mass planted for cluster c


@dataclass(frozen=True)
class IncresConfig:
    iterations: int = 200
    seed_rate: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.seed_rate <= 0.0:
            raise ValueError("seed_rate must be positive")
        if not math.isfinite(self.seed_rate):
            raise ValueError("seed_rate must be finite")


@dataclass(frozen=True)
class IncresResult:
    partition: Partition
    seed_mass: SeedMatrix  # final diffused mass, one column per cluster
    grow_steps: tuple[int, ...]  # diffusion steps taken in each round
    # rounds that stepping could not finish within the cap: the limit rounds
    # (stepping never reaches an unseeded component) and rounds the cap cut short
    cap_exhausted: tuple[bool, ...]
    limit_rounds: tuple[bool, ...]  # rounds that took the stationary limit (no stepping)


def transition_matrix(graph: SimilarityGraph) -> sparse.csr_array:
    """Column-stochastic random-walk operator: column j spreads j's mass to its neighbors."""
    P = graph.weights.copy()
    P.data /= graph.degrees[P.indices]
    return P


def seeds_for_round(seed_rate: float, round_index: int) -> int:
    """Per-cluster seed budget for a 1-based round: max(1, floor(rate * round))."""
    return max(1, int(np.floor(seed_rate * round_index)))


def plant(
    partition: Partition, seeds_per_cluster: int, rng: np.random.Generator
) -> SeedMatrix:
    """Drop seeds on each cluster's members, uniformly with replacement.

    A cluster that currently owns no vertices draws from all vertices instead.
    """
    if seeds_per_cluster < 1:
        raise ValueError("seeds_per_cluster must be positive")
    n = partition.labels.size
    mass = np.zeros((n, partition.k))
    everyone = np.arange(n)
    for c in range(partition.k):
        pool = np.flatnonzero(partition.labels == c)
        if pool.size == 0:
            pool = everyone
        picks = pool[rng.integers(0, pool.size, size=seeds_per_cluster)]
        np.add.at(mass, (picks, c), 1.0)
    return mass


def grow(
    seed_mass: SeedMatrix, transition: npt.NDArray[np.float64], cap: int
) -> tuple[SeedMatrix, int, bool]:
    """Diffuse mass until every vertex holds some, or the step cap is hit.

    Returns (mass, steps taken, cap_exhausted).  Mass already supported
    everywhere comes back unchanged with zero steps.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    mass = seed_mass
    steps = 0
    while not (mass > 0.0).any(axis=1).all():
        if steps >= cap:
            return mass, steps, True
        mass = transition @ mass
        steps += 1
    return mass, steps, False


def stationary_limit(
    seed_mass: SeedMatrix,
    component: npt.NDArray[np.int64],
    degrees: npt.NDArray[np.float64],
) -> SeedMatrix:
    """Where repeated diffusion converges on aperiodic components.

    Each component's planted mass, per column, spread over the component in
    proportion to degree; components without mass stay empty.
    """
    n_components = int(component.max()) + 1
    totals = np.zeros((n_components, seed_mass.shape[1]))
    np.add.at(totals, component, seed_mass)
    volume = np.bincount(component, weights=degrees, minlength=n_components)
    return totals[component] * (degrees / volume[component])[:, None]


def harvest(seed_mass: SeedMatrix, previous_labels: npt.ArrayLike) -> npt.NDArray[np.int64]:
    """Label each vertex by the cluster holding the most mass there.

    Ties resolve toward the smaller cluster index; a vertex the diffusion
    never reached keeps its previous label.
    """
    prev = np.asarray(previous_labels, dtype=np.int64)
    labels = np.argmax(seed_mass, axis=1).astype(np.int64)
    unreached = ~(seed_mass > 0.0).any(axis=1)
    labels[unreached] = prev[unreached]
    return labels


def incres_cluster(graph: SimilarityGraph, k: int, cfg: IncresConfig = IncresConfig()) -> IncresResult:
    """Run the full plant/grow/harvest loop for k clusters from a uniformly random start.

    A round whose seeds miss some component skips `grow` and harvests the
    stationary limit of the walk; its unseeded components hold no mass, so
    their vertices keep their previous labels.  Such a round records zero
    steps and counts as cap-exhausted, since stepping would run to the cap.
    """
    n = graph.n_vertices
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    P = transition_matrix(graph)
    cap = 10 * n
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed))
    labels = rng.integers(0, k, size=n).astype(np.int64)
    rounds: list[tuple[int, bool, bool]] = []  # (steps, cap_exhausted, limit) per round
    for round_index in range(1, cfg.iterations + 1):
        budget = seeds_for_round(cfg.seed_rate, round_index)
        mass = plant(Partition(labels=labels, k=k), budget, rng)
        # stepping never reaches a component that holds no seed
        seeded = np.bincount(graph.component, weights=mass.sum(axis=1))
        limit = not (seeded > 0.0).all()
        if limit:
            mass = stationary_limit(mass, graph.component, graph.degrees)
            steps, exhausted = 0, True
        else:
            mass, steps, exhausted = grow(mass, P, cap)
        labels = harvest(mass, labels)
        rounds.append((steps, exhausted, limit))
    steps_taken, capped, limits = zip(*rounds)
    return IncresResult(Partition(labels=labels, k=k), mass, steps_taken, capped, limits)


def _canonical_levels(partition: Partition) -> npt.NDArray[np.float64]:
    """Evenly spaced levels in [+1, -1], largest cluster first (ties: smaller id)."""
    k = partition.k
    sizes = partition.sizes()
    order = np.lexsort((np.arange(k), -sizes))
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return 1.0 - 2.0 * rank / (k - 1)


def _margins(result: IncresResult) -> npt.NDArray[np.float64]:
    """Final-harvest confidence per vertex: own-cluster share of its total mass."""
    mass = result.seed_mass
    labels = result.partition.labels
    totals = mass.sum(axis=1)
    own = mass[np.arange(labels.size), labels]
    # a vertex diffusion never reached kept its old label; treat it as certain
    return np.divide(own, totals, out=np.ones_like(totals), where=totals > 0.0)


def embedding_column(result: IncresResult) -> npt.NDArray[np.float64]:
    """One real coordinate per vertex summarizing a j-cluster run.

    j=2: the pure signed indicator (+1 for the canonically first cluster,
    -1 for the other).  j>2: each cluster sits at its canonical level scaled
    by the cluster's mean harvest margin, so coordinates stay constant within
    clusters and distinct across them.
    """
    labels = result.partition.labels
    k = result.partition.k
    levels = _canonical_levels(result.partition)
    if k == 2:
        return levels[labels]
    margins = _margins(result)
    mean_margin = np.array(
        [margins[labels == c].mean() if np.any(labels == c) else 0.0 for c in range(k)]
    )
    return (levels * mean_margin)[labels]


def incres_embedding(
    graph: SimilarityGraph, k: int, cfg: IncresConfig = IncresConfig()
) -> tuple[npt.NDArray[np.float64], list[IncresResult]]:
    """Stack one embedding column per sub-clustering j = 2..k.

    Column j-2 comes from a full reseeding run with j clusters; sub-run RNG
    streams derive deterministically from cfg.rng_seed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(k - 1)
    columns = []
    results = []
    for j in range(2, k + 1):
        sub = replace(cfg, rng_seed=int(streams[j - 2].generate_state(1)[0]))
        result = incres_cluster(graph, j, sub)
        columns.append(embedding_column(result))
        results.append(result)
    return np.column_stack(columns), results

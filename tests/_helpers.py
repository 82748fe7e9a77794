"""Helpers shared by the test modules."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
import pytest

from passby import threads
from passby.graph import SimilarityGraph
from passby.plots import HEIGHT, MARGIN, WIDTH, _axes, _scale, _svg


def as_sets(labels: npt.ArrayLike) -> frozenset[frozenset[int]]:
    """A labelling as the set of its clusters, for comparisons up to relabeling."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(int(c), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def blas_threads() -> list[int]:
    """The thread count of each OpenBLAS this process has loaded."""
    return [get() for get, _ in threads._openblas().values()]


@contextmanager
def caller_blas_threads(count: int) -> Iterator[None]:
    """Every loaded OpenBLAS at `count` threads inside the block, as a caller may set it.

    Skips the test where no OpenBLAS is loaded or the count does not take.
    """
    libs = list(threads._openblas().values())
    before = blas_threads()
    if not libs:
        pytest.skip("no OpenBLAS is loaded")
    try:
        for _, set_count in libs:
            set_count(count)
        if blas_threads() != [count] * len(libs):
            pytest.skip(f"OpenBLAS does not run {count} threads here")
        yield
    finally:
        for (_, set_count), old in zip(libs, before):
            set_count(old)


def distance_matrix(tiles, n: int) -> npt.NDArray[np.float64]:
    """The full n x n matrix of upper-triangle distance tiles and their transposes."""
    D = np.zeros((n, n))
    for row0, col0, tile in tiles:
        h, w = tile.shape
        D[row0 : row0 + h, col0 : col0 + w] = tile
        D[col0 : col0 + w, row0 : row0 + h] = tile.T
    return D


def waveform_by_loop(samples, sample_rate, columns=600):
    """Envelope polygon with each column's extremes taken by a slice loop (reference)."""
    x = np.asarray(samples, dtype=np.float64)
    edges = np.linspace(0, x.size, columns + 1).astype(int)
    highs = np.array([x[a:b].max() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])])
    lows = np.array([x[a:b].min() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])])
    peak = float(max(abs(highs).max(), abs(lows).max(), 1e-12))
    xs = _scale(np.arange(columns, dtype=float), 0.0, float(columns - 1), MARGIN, WIDTH - MARGIN)
    mid = HEIGHT / 2
    half = (HEIGHT - 2 * MARGIN) / 2
    upper = mid - highs / peak * half
    lower = mid - lows / peak * half
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs, upper))
    pts += " " + " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs[::-1], lower[::-1]))
    body = _axes("time", "amplitude") + f'<polygon points="{pts}" fill="#4477aa" stroke="none"/>\n'
    return _svg(body)


@dataclass(frozen=True)
class BlockSpec:
    """A planted-partition similarity matrix with a two-level hierarchy.

    `hierarchy` groups fine-block indices into coarse blocks.  Entries are
    `in_block` within a fine block, the midpoint of the two levels between
    sibling fine blocks of one coarse block, and `cross_block` elsewhere.
    `noise_fraction` of the off-diagonal pairs are snapped (symmetrically) to
    one of the two extreme levels at random.
    """

    block_sizes: tuple[int, ...] = (40, 30, 30)
    hierarchy: tuple[tuple[int, ...], ...] = ((0,), (1, 2))
    in_block: float = 0.9
    cross_block: float = 0.05
    noise_fraction: float = 0.05
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.block_sizes or any(s < 1 for s in self.block_sizes):
            raise ValueError("block_sizes must be positive")
        listed = sorted(b for group in self.hierarchy for b in group)
        if listed != list(range(len(self.block_sizes))):
            raise ValueError("hierarchy must partition the block indices")
        if not 0.0 < self.in_block <= 1.0:
            raise ValueError("in_block must lie in (0, 1]")
        if not 0.0 <= self.cross_block < self.in_block:
            raise ValueError("cross_block must lie in [0, in_block)")
        if not 0.0 <= self.noise_fraction < 0.5:
            raise ValueError("noise_fraction must lie in [0, 0.5)")

    @property
    def n_points(self) -> int:
        return sum(self.block_sizes)


def gen_block_similarity(
    spec: BlockSpec = BlockSpec(),
) -> tuple[SimilarityGraph, npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Noisy hierarchical block matrix as a graph, plus fine and coarse truths."""
    sizes = spec.block_sizes
    n = spec.n_points
    fine = np.repeat(np.arange(len(sizes)), sizes)
    group_of = {b: g for g, group in enumerate(spec.hierarchy) for b in group}
    coarse = np.array([group_of[int(b)] for b in fine], dtype=np.int64)
    sibling_level = 0.5 * (spec.in_block + spec.cross_block)
    S = np.full((n, n), spec.cross_block)
    S[coarse[:, None] == coarse[None, :]] = sibling_level
    S[fine[:, None] == fine[None, :]] = spec.in_block
    rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed))
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < spec.noise_fraction
    snapped = np.where(rng.random(iu.size) < 0.5, spec.in_block, spec.cross_block)
    upper = np.where(hit, snapped, S[iu, ju])
    S[iu, ju] = upper
    S[ju, iu] = upper
    np.fill_diagonal(S, 0.0)
    graph = SimilarityGraph(weights=S, scales=np.ones(n), neighbors=n - 1)
    return graph, fine, coarse

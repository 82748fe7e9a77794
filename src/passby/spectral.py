"""Spectral embeddings of graph Laplacians, eigengap model selection, and k-means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy import sparse

from .graph import Laplacian

RESIDUAL_TOL = 1e-8
# A component takes Lanczos from this many vertices on, and only while the p
# pairs it needs are at most 1/16 of its spectrum; otherwise dense eigh is
# faster.  Measured on kNN graphs of vehicle windows (2-vCPU host): at p = 20,
# 3.3 ms dense against 4.9 ms Lanczos at 160 vertices, 21 against 10 ms at
# 400, 141 against 20 ms at 960; at 960 vertices, 123 ms dense against 52 ms
# for 60 pairs and 198 ms for 120.
LANCZOS_MIN_BLOCK = 256
LANCZOS_PAIRS_RATIO = 16
KMEANS_MAX_ITER = 300  # Lloyd iterations per restart, at most
KMEANS_TOL = 1e-9  # Lloyd stops once WCSS falls by less than this fraction


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge or left residuals above tolerance."""


@dataclass(frozen=True)
class SpectralEmbedding:
    """The p smallest eigenpairs of a Laplacian, eigenvalues ascending."""

    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=np.float64))
        vals, vecs = self.eigenvalues, self.eigenvectors
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.size:
            raise ValueError("need one eigenvector column per eigenvalue")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")

    @property
    def p(self) -> int:
        return self.eigenvalues.size


def _block_pairs(
    L: sparse.csr_array, degrees: npt.NDArray[np.float64], p: int
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Ascending eigenpairs of one connected block, first pair pinned to (0, D^{1/2} 1).

    Small blocks, or blocks that need a large share of their spectrum, take
    dense `eigh` and return every pair.  The others take Lanczos on
    A = I - L for its p largest eigenvalues mu, with lambda = 1 - mu, from a
    fixed start vector so that runs repeat bit for bit.
    """
    m = L.shape[0]
    if m < max(LANCZOS_MIN_BLOCK, LANCZOS_PAIRS_RATIO * p):
        try:
            vals, vecs = np.linalg.eigh(L.toarray())
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"dense symmetric solver failed: {exc}") from exc
    else:
        from scipy.sparse.linalg import ArpackError, eigsh

        A = sparse.eye_array(m, format="csr") - L
        try:
            mu, vecs = eigsh(A, k=p, which="LA", v0=1.0 + np.arange(m) / m)
        except ArpackError as exc:
            raise EigensolverError(f"Lanczos solver failed: {exc}") from exc
        vals, vecs = 1.0 - mu[::-1], vecs[:, ::-1]
    null = np.sqrt(degrees)
    vals[0] = 0.0
    vecs[:, 0] = null / np.linalg.norm(null)
    return vals, vecs


def eigendecompose(lap: Laplacian, p: int) -> SpectralEmbedding:
    """The p smallest eigenpairs, orthonormal, with a deterministic sign convention.

    L is block-diagonal over the connected components of its graph, so
    each component is solved on its own and its vectors are zero outside
    it: by dense `eigh` when it is small, by Lanczos when it is large and p
    is a small share of it.  Each component's zero eigenspace is pinned to
    the exact pair (0, D^{1/2} 1 / ||D^{1/2} 1||) on that component, so a graph
    with c components yields a reproducible basis of the c-fold nullspace.
    Pairs merge by (eigenvalue, smallest vertex of the component, position
    within it).  Each eigenvector is flipped so its largest-magnitude entry
    is positive (first such entry on ties).  Residuals ||L v - t v|| above
    1e-8 fail.
    """
    L = lap.matrix
    n = lap.graph.n_vertices
    if not 1 <= p <= n:
        raise ValueError(f"p must lie in [1, {n}], got {p}")
    component, degrees = lap.graph.component, lap.graph.degrees
    sizes = np.bincount(component)
    # vertices of each component, ascending; components ordered by smallest vertex
    members = np.split(np.argsort(component, kind="stable"), np.cumsum(sizes)[:-1])
    blocks = [_block_pairs(L[idx][:, idx], degrees[idx], p) for idx in members]
    pairs = sorted(
        (value, c, i)
        for c, (vals, _) in enumerate(blocks)
        for i, value in enumerate(vals.tolist())
    )[:p]
    vals = np.array([value for value, _, _ in pairs])
    vecs = np.zeros((n, p))
    for j, (_, c, i) in enumerate(pairs):
        col = blocks[c][1][:, i]
        lead = int(np.argmax(np.abs(col)))
        # flipped on the component's own rows: the zeros outside it stay +0.0
        vecs[members[c], j] = -col if col[lead] < 0.0 else col
    residuals = np.linalg.norm(L @ vecs - vecs * vals, axis=0)
    bad = np.flatnonzero(residuals >= RESIDUAL_TOL)
    if bad.size:
        raise EigensolverError(
            f"eigenpair {int(bad[0])} residual {residuals[bad[0]]:.3e} exceeds {RESIDUAL_TOL}"
        )
    return SpectralEmbedding(eigenvalues=vals, eigenvectors=vecs)


def estimate_k(eigenvalues: npt.ArrayLike, k_max: int) -> int:
    """Cluster count with the largest eigenvalue gap right after it.

    Scans k in [2, k_max]; the winner maximizes eigenvalue[k+1] - eigenvalue[k]
    (1-based positions), ties resolving toward the smaller k.
    """
    vals = np.asarray(eigenvalues, dtype=np.float64)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if vals.size < k_max + 1:
        raise ValueError(f"need at least {k_max + 1} eigenvalues, got {vals.size}")
    gaps = vals[2 : k_max + 1] - vals[1:k_max]
    return int(np.argmax(gaps)) + 2


@dataclass(frozen=True)
class Partition:
    """Cluster labels in [0, k) for n points."""

    labels: npt.NDArray[np.int64]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")

    @property
    def n_points(self) -> int:
        return self.labels.size

    def sizes(self) -> npt.NDArray[np.int64]:
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class KmeansConfig:
    restarts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class KmeansResult:
    partition: Partition
    wcss: float
    restart_index: int


def _plus_plus_seeds(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn with probability ~ squared distance."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[int(rng.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all remaining points sit on chosen centers
        centroids[j] = X[idx]
        np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1), out=d2)
    return centroids


def _repair_empty(labels: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    """Hand each empty cluster the point farthest from its own centroid."""
    for c in range(k):
        if not np.any(labels == c):
            own = d2[np.arange(labels.size), labels].copy()
            sizes = np.bincount(labels, minlength=k)
            own[sizes[labels] <= 1] = -np.inf  # singletons must stay put
            labels = labels.copy()
            labels[int(np.argmax(own))] = c
    return labels


def _lloyd(
    X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int, tol: float
) -> tuple[np.ndarray, float]:
    """Lloyd iterations from k-means++ seeds: the final labels and their WCSS."""
    centroids = _plus_plus_seeds(X, k, rng)
    prev = np.inf
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = _repair_empty(np.argmin(d2, axis=1), d2, k)
        centroids = np.stack([X[labels == c].mean(axis=0) for c in range(k)])
        wcss = float(((X - centroids[labels]) ** 2).sum())
        if np.isfinite(prev) and (prev == 0.0 or (prev - wcss) / prev < tol):
            break
        prev = wcss
    return labels, wcss


def kmeans(points: npt.ArrayLike, k: int, cfg: KmeansConfig = KmeansConfig()) -> KmeansResult:
    """Restarted Lloyd iterations; the restart with the least WCSS wins.

    Restart sub-streams derive deterministically from cfg.seed, so the result
    does not depend on execution order; WCSS ties keep the earliest restart.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    best: tuple[float, int, np.ndarray] | None = None
    for r, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)):
        labels, wcss = _lloyd(X, k, np.random.default_rng(stream), KMEANS_MAX_ITER, KMEANS_TOL)
        if best is None or wcss < best[0]:
            best = (wcss, r, labels)
    assert best is not None
    wcss, r, labels = best
    return KmeansResult(partition=Partition(labels=labels, k=k), wcss=wcss, restart_index=r)


def spectral_cluster(
    embedding: SpectralEmbedding,
    k: int,
    cfg: KmeansConfig = KmeansConfig(),
) -> KmeansResult:
    """k-means over embedding coordinates.

    Clusters on columns 1..k-1 (0-based), i.e. the eigenvectors of the 2nd
    through k-th smallest eigenvalues, without row normalization.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > embedding.p:
        raise ValueError(f"k={k} needs columns 1..{k - 1}; the embedding has 0..{embedding.p - 1}")
    return kmeans(embedding.eigenvectors[:, list(range(1, k))], k, cfg)

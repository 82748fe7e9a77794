"""Cosine-similarity neighborhood graphs with per-vertex scaling, and their Laplacians."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt
from scipy import sparse

SCALE_FLOOR = 1e-12


class ZeroNormError(ValueError):
    """A feature vector has zero norm, so its cosine distances are undefined."""


class IsolatedVertexError(ValueError):
    """A vertex holds no positive-weight edge."""


class ScaleError(ValueError):
    """No positive local scale exists for some vertex."""


def pairwise_cosine_distances(features: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Exactly symmetric matrix of cosine distances between feature rows."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array (rows = points)")
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ZeroNormError(f"zero-norm feature rows: {bad.tolist()}")
    unit = X / norms[:, None]
    d = 1.0 - unit @ unit.T
    np.clip(d, 0.0, 2.0, out=d)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected weighted graph on n vertices; weights[i, j] == 0 means no edge.

    `scales` holds the per-vertex local scale the weights were built with and
    `neighbors` the neighbor count of the construction.
    """

    weights: npt.NDArray[np.float64]
    scales: npt.NDArray[np.float64]
    neighbors: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.float64))
        W = self.weights
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weights must be a square matrix")
        if not np.array_equal(W, W.T):
            raise ValueError("weights must be exactly symmetric")
        if np.any(np.diagonal(W) != 0.0):
            raise ValueError("self-loops are not allowed")
        if np.any(W < 0.0) or not np.all(np.isfinite(W)):
            raise ValueError("weights must be finite and nonnegative")
        if self.scales.shape != (W.shape[0],):
            raise ValueError("scales must hold one entry per vertex")
        lonely = np.flatnonzero(W.sum(axis=1) == 0.0)
        if lonely.size:
            raise IsolatedVertexError(f"vertices with no edges: {lonely.tolist()}")

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> npt.NDArray[np.float64]:
        return self.weights.sum(axis=1)

    def neighbor_counts(self) -> npt.NDArray[np.int64]:
        return (self.weights > 0.0).sum(axis=1)

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) triplets with i < j."""
        iu, ju = np.nonzero(np.triu(self.weights, k=1))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(iu, ju)]


def knn_graph(features: npt.ArrayLike, neighbors: int = 15) -> SimilarityGraph:
    """Mutual-OR nearest-neighbor graph with locally scaled Gaussian weights.

    Distances are cosine.  Edge (i, j) exists iff j is among i's `neighbors`
    nearest or i among j's.
    """
    return knn_graph_from_distances(pairwise_cosine_distances(features), neighbors)


def knn_graph_from_distances(
    distances: npt.ArrayLike, neighbors: int = 15
) -> SimilarityGraph:
    """Build the neighborhood graph from a precomputed symmetric distance matrix.

    The local scale of vertex i is its distance to its `neighbors`-th nearest
    neighbor (ties broken toward the smaller index).  A scale below 1e-12 is
    replaced by the smallest distance from i at or above that floor; if none
    exists the construction fails.  Edge weight: exp(-d_ij^2 / (s_i * s_j)).
    """
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    if d.ndim != 2 or d.shape != (n, n):
        raise ValueError("distances must be a square matrix")
    if not 1 <= neighbors <= n - 1:
        raise ValueError(f"neighbors must lie in [1, {n - 1}], got {neighbors}")
    offdiag = d.copy()
    np.fill_diagonal(offdiag, np.inf)
    # copied out, so the partitioned n x n array is not kept alive by the graph
    scales = np.partition(offdiag, neighbors - 1, axis=1)[:, neighbors - 1].copy()
    # the nearest set: every distance below the neighbors-th, then as many of
    # the distances equal to it as fit, smaller column index first
    mask = offdiag < scales[:, None]
    ties = offdiag == scales[:, None]
    room = neighbors - mask.sum(axis=1)
    mask |= ties & (np.cumsum(ties, axis=1) <= room[:, None])
    low = np.flatnonzero(scales < SCALE_FLOOR)
    for i in low:
        # distances below the floor are rounding noise from coincident
        # points, not usable scales
        positive = offdiag[i][(offdiag[i] >= SCALE_FLOOR) & np.isfinite(offdiag[i])]
        if positive.size == 0:
            raise ScaleError(
                f"vertex {i}: every other point coincides with it; no positive scale exists"
            )
        scales[i] = positive.min()
    mask |= mask.T
    weights = np.where(mask, np.exp(-(d**2) / np.outer(scales, scales)), 0.0)
    np.fill_diagonal(weights, 0.0)
    return SimilarityGraph(weights=weights, scales=scales, neighbors=neighbors)


@dataclass(frozen=True)
class Laplacian:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} of a graph."""

    matrix: npt.NDArray[np.float64]
    degrees: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.float64))
        object.__setattr__(self, "degrees", np.asarray(self.degrees, dtype=np.float64))
        L = self.matrix
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("matrix must be square")
        if not np.array_equal(L, L.T):
            raise ValueError("matrix must be exactly symmetric")
        if self.degrees.shape != (L.shape[0],):
            raise ValueError("degrees must hold one entry per vertex")

    @property
    def n_vertices(self) -> int:
        return self.matrix.shape[0]


def laplacian(graph: SimilarityGraph) -> Laplacian:
    """Normalized Laplacian; exact symmetry by averaging the two off-diagonal forms."""
    deg = graph.degrees()
    isolated = np.flatnonzero(deg == 0.0)
    if isolated.size:
        raise IsolatedVertexError(f"vertices with zero degree: {isolated.tolist()}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    A = graph.weights * np.outer(inv_sqrt, inv_sqrt)
    A = 0.5 * (A + A.T)
    L = np.eye(len(deg)) - A
    return Laplacian(matrix=L, degrees=deg)


def component_labels(adjacency: sparse.csr_array) -> npt.NDArray[np.int64]:
    """Connected components of a symmetric sparsity pattern, numbered by smallest vertex.

    Min-label propagation over the rows with pointer jumping: each vertex
    holds a vertex of its own component no larger than itself, until every
    vertex holds its component's smallest.
    """
    n = adjacency.shape[0]
    indptr, indices = adjacency.indptr, adjacency.indices
    rows = np.flatnonzero(np.diff(indptr))  # isolated vertices have no row entries
    root = np.arange(n)
    while True:
        new = root.copy()
        if rows.size:
            new[rows] = np.minimum(root[rows], np.minimum.reduceat(root[indices], indptr[rows]))
        new = new[new]
        if np.array_equal(new, root):
            return np.unique(root, return_inverse=True)[1].astype(np.int64)
        root = new


def write_graph_csv(
    graph: SimilarityGraph, csv_path: str | Path, meta_path: str | Path
) -> None:
    """Edge triplets i,j,weight (i < j) plus a JSON sidecar with n, neighbors, scales."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "weight"])
        for i, j, w in graph.edge_list():
            writer.writerow([i, j, repr(w)])
    meta = {
        "n": graph.n_vertices,
        "neighbors": graph.neighbors,
        "scales": [float(s) for s in graph.scales],
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")

"""Cosine-similarity neighborhood graphs with per-vertex scaling, and their Laplacians."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy import sparse

SCALE_FLOOR = 1e-12
BLOCK_ROWS = 512  # rows per block of the distance pass


class ZeroNormError(ValueError):
    """A feature vector has zero norm, so its cosine distances are undefined."""


class IsolatedVertexError(ValueError):
    """A vertex holds no positive-weight edge."""


class ScaleError(ValueError):
    """No positive local scale exists for some vertex."""


def pairwise_cosine_distances(features: npt.ArrayLike) -> Iterator[npt.NDArray[np.float64]]:
    """Cosine distances between feature rows, one block of consecutive rows at a time.

    Each block holds the distances from up to `BLOCK_ROWS` rows to every
    row, clipped to [0, 2], with each row's distance to itself 0.  The rows
    are normalized once, at the call, so a zero-norm row fails there.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array (rows = points)")
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ZeroNormError(f"zero-norm feature rows: {bad.tolist()}")
    unit = X / norms[:, None]

    def blocks() -> Iterator[npt.NDArray[np.float64]]:
        for start in range(0, unit.shape[0], BLOCK_ROWS):
            d = 1.0 - unit[start : start + BLOCK_ROWS] @ unit.T
            np.clip(d, 0.0, 2.0, out=d)
            rows = np.arange(d.shape[0])
            d[rows, start + rows] = 0.0
            yield d

    return blocks()


def _canonical_csr(matrix: npt.ArrayLike | sparse.sparray, name: str) -> sparse.csr_array:
    """A square float64 CSR array with sorted indices, no duplicates and no stored zeros."""
    M = sparse.csr_array(matrix, dtype=np.float64)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    M.sum_duplicates()
    M.eliminate_zeros()
    return M


def _exactly_symmetric(M: sparse.csr_array) -> bool:
    return (M != M.T).nnz == 0


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected weighted graph on n vertices, held as an n x n CSR array.

    A stored entry is an edge; a dense matrix is converted once, and its
    zeros are not edges.  `scales` holds the per-vertex local scale the
    weights were built with and `neighbors` the neighbor count of the
    construction.
    """

    weights: sparse.csr_array
    scales: npt.NDArray[np.float64]
    neighbors: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _canonical_csr(self.weights, "weights"))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.float64))
        W = self.weights
        if not _exactly_symmetric(W):
            raise ValueError("weights must be exactly symmetric")
        if np.any(W.diagonal() != 0.0):
            raise ValueError("self-loops are not allowed")
        if np.any(W.data < 0.0) or not np.all(np.isfinite(W.data)):
            raise ValueError("weights must be finite and nonnegative")
        if self.scales.shape != (W.shape[0],):
            raise ValueError("scales must hold one entry per vertex")
        lonely = np.flatnonzero(self.degrees() == 0.0)
        if lonely.size:
            raise IsolatedVertexError(f"vertices with no edges: {lonely.tolist()}")

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> npt.NDArray[np.float64]:
        return self.weights.sum(axis=1)

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) triplets with i < j, in row-major order."""
        upper = sparse.triu(self.weights, k=1, format="csr").tocoo()
        return list(zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist()))


def knn_graph(features: npt.ArrayLike, neighbors: int = 15) -> SimilarityGraph:
    """Mutual-OR nearest-neighbor graph with locally scaled Gaussian weights.

    Distances are cosine.  Edge (i, j) exists iff j is among i's `neighbors`
    nearest or i among j's.  The distances are formed one block of rows at
    a time, so no n x n array is ever held.
    """
    return knn_graph_from_distances(pairwise_cosine_distances(features), neighbors)


def knn_graph_from_distances(
    distances: Iterable[npt.ArrayLike], neighbors: int = 15
) -> SimilarityGraph:
    """Build the neighborhood graph from the rows of a symmetric distance matrix.

    `distances` yields the rows in order, in blocks of any height: a full
    matrix passes as `[d]`, or as `d` itself, whose rows are blocks of
    height one.  Each block is cut down to its rows' nearest sets before the
    next one is read, and each edge keeps the distance its block gave it.

    The local scale of vertex i is its distance to its `neighbors`-th
    nearest neighbor (ties broken toward the smaller index).  A scale below
    1e-12 is replaced by the smallest distance from i at or above that
    floor; if none exists the construction fails.  Edge weight:
    exp(-d_ij^2 / (s_i * s_j)).
    """
    rows, cols, dists, scales = [], [], [], []
    n = first = 0
    for block in distances:
        d = np.atleast_2d(np.asarray(block, dtype=np.float64))
        b, n = d.shape
        if not 1 <= neighbors <= n - 1:
            raise ValueError(f"neighbors must lie in [1, {n - 1}], got {neighbors}")
        local = np.arange(b)
        own = (local, first + local)  # each row's entry for itself, never a neighbor
        part = d.copy()
        part[own] = np.inf
        part.partition(neighbors - 1, axis=1)
        scale = part[:, neighbors - 1].copy()  # a copy, so the block can go now
        del part
        # the nearest set: every distance below the neighbors-th, then as
        # many of the distances equal to it as fit, smaller column index first
        mask = d < scale[:, None]
        ties = d == scale[:, None]
        mask[own] = ties[own] = False
        room = neighbors - mask.sum(axis=1)
        crowded = ties.sum(axis=1) > room
        if crowded.any():
            ties[crowded] &= np.cumsum(ties[crowded], axis=1) <= room[crowded, None]
        mask |= ties
        for i in np.flatnonzero(scale < SCALE_FLOOR):
            # distances below the floor are rounding noise from coincident
            # points, not usable scales
            row = np.delete(d[i], first + i)
            positive = row[(row >= SCALE_FLOOR) & np.isfinite(row)]
            if positive.size == 0:
                raise ScaleError(
                    f"vertex {first + i}: every other point coincides with it; "
                    "no positive scale exists"
                )
            scale[i] = positive.min()
        r, c = np.nonzero(mask)
        rows.append(first + r)
        cols.append(c)
        dists.append(d[r, c])
        scales.append(scale)
        first += b
    if first != n:
        raise ValueError(f"distances must be square: {first} rows of {n} columns")
    i, j, d = np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)
    s = np.concatenate(scales)
    chosen = sparse.csr_array((np.exp(-(d**2) / (s[i] * s[j])), (i, j)), shape=(n, n))
    # the union of both directions; an edge chosen from both ends has one weight
    weights = chosen.maximum(chosen.T)
    return SimilarityGraph(weights=weights, scales=s, neighbors=neighbors)


@dataclass(frozen=True)
class Laplacian:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} of a graph, as CSR.

    A dense matrix is converted once.
    """

    matrix: sparse.csr_array
    degrees: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _canonical_csr(self.matrix, "matrix"))
        object.__setattr__(self, "degrees", np.asarray(self.degrees, dtype=np.float64))
        if not _exactly_symmetric(self.matrix):
            raise ValueError("matrix must be exactly symmetric")
        if self.degrees.shape != (self.matrix.shape[0],):
            raise ValueError("degrees must hold one entry per vertex")

    @property
    def n_vertices(self) -> int:
        return self.matrix.shape[0]


def laplacian(graph: SimilarityGraph) -> Laplacian:
    """Normalized Laplacian, built entry by entry on the graph's edges.

    Entry (i, j) is -w_ij * (d_i^{-1/2} d_j^{-1/2}); the product of the two
    scale factors commutes, so the matrix is exactly symmetric.
    """
    W = graph.weights
    deg = graph.degrees()  # positive: a SimilarityGraph has no isolated vertex
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    A = sparse.csr_array(
        (W.data * (inv_sqrt[rows] * inv_sqrt[W.indices]), W.indices, W.indptr), shape=W.shape
    )
    L = sparse.eye_array(W.shape[0], format="csr") - A
    return Laplacian(matrix=L, degrees=deg)


def component_labels(adjacency: sparse.csr_array) -> npt.NDArray[np.int64]:
    """Connected components of a symmetric sparsity pattern, numbered by smallest vertex.

    Hand-rolled: `scipy.sparse.csgraph` imports `scipy.sparse.linalg`, ~0.1 s a run.
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


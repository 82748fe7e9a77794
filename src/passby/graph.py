"""Cosine-similarity neighborhood graphs with per-vertex scaling, and their Laplacians."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt
from scipy import sparse

from . import threads

SCALE_FLOOR = 1e-12
BLOCK_ROWS = 512  # rows and columns per tile of the distance pass
NORM_ROWS = 32  # rows per row-norm call, so its squares are a small block, not an n x m array


class ZeroNormError(ValueError):
    """A feature vector has zero norm, so its cosine distances are undefined."""


class IsolatedVertexError(ValueError):
    """A vertex holds no positive-weight edge."""


class ScaleError(ValueError):
    """No positive local scale exists for some vertex."""


def pairwise_cosine_distances(
    features: npt.ArrayLike, *, overwrite_features: bool = False
) -> Iterator[tuple[int, int, npt.NDArray[np.float64]]]:
    """Cosine distances between feature rows, as the upper-triangle tiles of their matrix.

    Yields `(row0, col0, tile)`: the distances from the rows `row0...` to the
    columns `col0...`, up to `BLOCK_ROWS` of each, clipped to [0, 2], with
    `col0 >= row0`.  The diagonal tiles come first, so that each row's
    first tile holds its own block's distances; a diagonal tile holds each
    row's distance to itself as 0.  The norms are taken at the call, so a
    zero-norm row fails there; the rows are divided by them once, when the
    first tile is asked for.  With `overwrite_features`, a writable float64
    array is divided in place, the same division, instead of into a copy:
    the caller's matrix then holds the unit rows.

    Tiles are made one at a time, a diagonal one as one product and an
    off-diagonal one as two, one per half of its rows, on every host.  Where
    `threads.one_blas_thread` holds the OpenBLAS (on Linux), the halves run
    at once, each on one BLAS thread, so the tiles depend on neither the CPU
    count nor the caller's BLAS threads; elsewhere they run one after the
    other, on BLAS's threads as the caller set them.  The pool and the pin
    end with the iterator: when it is exhausted or closed.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array (rows = points)")
    # Row blocks give the bits of one whole call: each row is summed on its own,
    # in the order numpy picks from the layout, which a block of several rows
    # shares.  A lone row is summed pairwise whatever the layout, so a lone
    # last row joins the block before it.
    n = X.shape[0]
    starts = range(0, max(n - 1, 1), NORM_ROWS)
    norms = np.empty(n)
    for start, stop in zip(starts, [*starts[1:], n]):
        norms[start:stop] = np.linalg.norm(X[start:stop], axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ZeroNormError(f"zero-norm feature rows: {bad.tolist()}")

    def tiles() -> Iterator[tuple[int, int, npt.NDArray[np.float64]]]:
        if overwrite_features and X.flags.writeable:
            unit = X
            unit /= norms[:, None]
        else:
            unit = X / norms[:, None]
        starts = range(0, unit.shape[0], BLOCK_ROWS)
        with threads.one_blas_thread() as pinned:
            # unpinned, each half may already run on many BLAS threads
            with ThreadPoolExecutor(max_workers=2 if pinned else 1) as pool:
                for row0, col0 in [(r, r) for r in starts] + [(r, c) for r in starts for c in starts if c > r]:
                    rows = unit[row0 : row0 + BLOCK_ROWS]
                    cols = unit[col0 : col0 + BLOCK_ROWS]
                    if row0 == col0:
                        # one call, for which numpy calls syrk: row slices would
                        # turn it into gemm, whose last bits differ
                        d = rows @ rows.T
                        _to_distances(d)
                        np.fill_diagonal(d, 0.0)
                    else:
                        # gemm's bits follow its row count: the same two halves on every host
                        d = np.empty((rows.shape[0], cols.shape[0]))

                        def fill(a: int, b: int) -> None:
                            _to_distances(np.matmul(rows[a:b], cols.T, out=d[a:b]))

                        half = BLOCK_ROWS // 2
                        list(pool.map(fill, (0, half), (half, BLOCK_ROWS)))
                    yield row0, col0, d

    return tiles()


def _to_distances(products: npt.NDArray[np.float64]) -> None:
    """`1 - products`, clipped to [0, 2], in place."""
    np.subtract(1.0, products, out=products)
    np.clip(products, 0.0, 2.0, out=products)


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected weighted graph on n vertices, held as an n x n CSR array.

    A stored entry is an edge; a dense matrix is converted once, and its
    zeros are not edges.  `scales` holds the per-vertex local scale the
    weights were built with and `neighbors` the neighbor count of the
    construction.  The facts the Laplacian, the eigensolver and the random
    walk share are derived once, here: `degrees` (the row sums of the
    weights, all positive) and `component` (each vertex's connected
    component, numbered by smallest vertex).
    """

    weights: sparse.csr_array
    scales: npt.NDArray[np.float64]
    neighbors: int
    degrees: npt.NDArray[np.float64] = field(init=False, repr=False, compare=False)
    component: npt.NDArray[np.int64] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # float64 CSR with sorted indices, no duplicates and no stored zeros
        W = sparse.csr_array(self.weights, dtype=np.float64, copy=True)  # the caller's stays
        if W.shape[0] != W.shape[1]:
            raise ValueError("weights must be a square matrix")
        W.sum_duplicates()
        W.eliminate_zeros()
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.float64))
        # first: a NaN fails the symmetry test too (NaN != NaN), which would misname it
        if np.any(W.data < 0.0) or not np.all(np.isfinite(W.data)):
            raise ValueError("weights must be finite and nonnegative")
        if (W != W.T).nnz:
            raise ValueError("weights must be exactly symmetric")
        if np.any(W.diagonal() != 0.0):
            raise ValueError("self-loops are not allowed")
        if self.scales.shape != (W.shape[0],):
            raise ValueError("scales must hold one entry per vertex")
        degrees = W.sum(axis=1)
        lonely = np.flatnonzero(degrees == 0.0)
        if lonely.size:
            raise IsolatedVertexError(f"vertices with no edges: {lonely.tolist()}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "component", component_labels(W))

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]


def knn_graph(
    features: npt.ArrayLike, neighbors: int = 15, *, overwrite_features: bool = False
) -> SimilarityGraph:
    """Mutual-OR nearest-neighbor graph with locally scaled Gaussian weights.

    Distances are cosine.  Edge (i, j) exists iff j is among i's `neighbors`
    nearest or i among j's.  Only the upper-triangle tiles of the distance
    matrix are formed, one at a time and split alike at any CPU count, so
    each distance is computed once, with the same bits on every host, and
    no n x n array, nor any block of whole rows, is ever held.

    The rows are normalized into a copy, so `features` is left as it was.
    With `overwrite_features=True` (as scipy's `overwrite_a`), a writable
    float64 array is normalized in place instead, which saves that copy; the
    graph holds the same bits either way.
    """
    tiles = pairwise_cosine_distances(features, overwrite_features=overwrite_features)
    with closing(tiles):  # its pool ends here
        return knn_graph_from_distances(tiles, len(features), neighbors)


_NO_COLUMN = np.iinfo(np.intp).max  # an empty slot of a nearest list sorts last


def knn_graph_from_distances(
    tiles: Iterable[tuple[int, int, npt.ArrayLike]], n: int, neighbors: int = 15
) -> SimilarityGraph:
    """Build the neighborhood graph on n vertices from the tiles of a symmetric distance matrix.

    `tiles` yields `(row0, col0, tile)` triples, in any order, that together
    cover the upper triangle once: a tile with `col0 > row0` stands for
    itself and its transpose, and one with `col0 == row0` is a square block
    on the diagonal, whose self entries are ignored.  A full matrix `d`
    passes as `[(0, 0, d)]`.  Each tile is folded into every row's running
    list of its `neighbors` nearest before the next one is read, so each
    edge keeps the one distance its tile gave it.

    The local scale of vertex i is its distance to its `neighbors`-th
    nearest neighbor (ties broken toward the smaller index).  A scale below
    1e-12 is replaced by the smallest distance from i at or above that
    floor; if none exists the construction fails.  Edge weight:
    exp(-d_ij^2 / (s_i * s_j)).
    """
    if not 1 <= neighbors <= n - 1:
        raise ValueError(f"neighbors must lie in [1, {n - 1}], got {neighbors}")
    # each row's nearest (distance, column) pairs, sorted by distance, then column
    near_d = np.full((n, neighbors), np.inf)
    near_c = np.full((n, neighbors), _NO_COLUMN)
    above = np.full(n, np.inf)  # each row's smallest distance at or above the floor
    covered = np.zeros(n, dtype=np.int64)  # columns each row has seen
    for row0, col0, tile in tiles:
        d = np.asarray(tile, dtype=np.float64)
        _fold(d, row0, col0, near_d, near_c, above)
        covered[row0 : row0 + d.shape[0]] += d.shape[1]
        if col0 != row0:
            _fold(d.T, col0, row0, near_d, near_c, above)
            covered[col0 : col0 + d.shape[1]] += d.shape[0]
    tile = d = None  # the last tile goes before the graph is built
    if np.any(covered != n):
        raise ValueError(f"the tiles must cover the upper triangle of an {n} x {n} matrix once")
    scales = near_d[:, -1].copy()
    # distances below the floor are rounding noise from coincident points,
    # not usable scales
    low = np.flatnonzero(scales < SCALE_FLOOR)
    lonely = low[np.isinf(above[low])]
    if lonely.size:
        raise ScaleError(
            f"vertex {lonely[0]}: every other point coincides with it; no positive scale exists"
        )
    scales[low] = above[low]
    i, j, d = np.repeat(np.arange(n), neighbors), near_c.ravel(), near_d.ravel()
    chosen = sparse.csr_array((np.exp(-(d**2) / (scales[i] * scales[j])), (i, j)), shape=(n, n))
    # the union of both directions; an edge chosen from both ends has one weight
    weights = chosen.maximum(chosen.T)
    return SimilarityGraph(weights=weights, scales=scales, neighbors=neighbors)


def _fold(
    d: npt.NDArray[np.float64],
    row0: int,
    col0: int,
    near_d: npt.NDArray[np.float64],
    near_c: npt.NDArray[np.intp],
    above: npt.NDArray[np.float64],
) -> None:
    """Fold the distances d from rows row0... to columns col0... into those rows' lists.

    `d` may be a transposed view; numpy then compares it in its own memory
    order.  On a diagonal tile (`row0 == col0`) each row's own entry is skipped.
    """
    k = near_d.shape[1]
    diagonal = row0 == col0
    rows = slice(row0, row0 + d.shape[0])
    # an entry can change a row's state only up to its k-th distance so far
    # or, while that lies under the floor, up to its smallest distance at or
    # above the floor; ties pass, and the sort below keeps the smaller column
    limit = np.maximum(near_d[rows, -1], above[rows])
    fresh = np.flatnonzero(np.isinf(limit))
    offered = d.shape[1] - diagonal  # columns a row can take from this tile
    if fresh.size and offered > k:
        # a row that has no k entries yet takes at most this tile's k nearest
        part = d[fresh]
        if diagonal:
            part[np.arange(fresh.size), fresh] = np.inf
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1].copy()  # a copy, so the partitioned rows can go now
        del part
        limit[fresh] = np.where(kth < SCALE_FLOOR, np.inf, kth)
    mask = d <= limit[:, None]
    if diagonal:
        np.fill_diagonal(mask, False)
    # row by row, columns ascending; np.nonzero on 2-D is ~10x slower
    r, c = np.divmod(np.flatnonzero(mask), d.shape[1])
    if r.size == 0:
        return
    touched, start, count = np.unique(r, return_index=True, return_counts=True)
    # each touched row's list, then its new entries, merged by (distance, column)
    slots = (np.repeat(np.arange(touched.size), count), k + np.arange(r.size) - np.repeat(start, count))
    pad_d = np.full((touched.size, k + count.max()), np.inf)
    pad_c = np.full(pad_d.shape, _NO_COLUMN)
    g = row0 + touched
    pad_d[:, :k], pad_c[:, :k] = near_d[g], near_c[g]
    pad_d[slots], pad_c[slots] = d[r, c], col0 + c
    order = np.lexsort((pad_c, pad_d), axis=1)[:, :k]
    near_d[g] = np.take_along_axis(pad_d, order, axis=1)
    near_c[g] = np.take_along_axis(pad_c, order, axis=1)
    above[g] = np.minimum(above[g], np.where(pad_d >= SCALE_FLOOR, pad_d, np.inf).min(axis=1))


@dataclass(frozen=True)
class Laplacian:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} of `graph`, as CSR.

    Made by `laplacian(graph)`, which builds it exactly symmetric from a
    validated graph, so it is not checked again; its degrees and components
    are the graph's.
    """

    matrix: sparse.csr_array
    graph: SimilarityGraph


def laplacian(graph: SimilarityGraph) -> Laplacian:
    """Normalized Laplacian, built entry by entry on the graph's edges.

    Entry (i, j) is -w_ij * (d_i^{-1/2} d_j^{-1/2}); the product of the two
    scale factors commutes, so the matrix is exactly symmetric.
    """
    W = graph.weights
    inv_sqrt = 1.0 / np.sqrt(graph.degrees)  # positive: a SimilarityGraph has no isolated vertex
    rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    A = sparse.csr_array(
        (W.data * (inv_sqrt[rows] * inv_sqrt[W.indices]), W.indices, W.indptr), shape=W.shape
    )
    return Laplacian(matrix=sparse.eye_array(W.shape[0], format="csr") - A, graph=graph)


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


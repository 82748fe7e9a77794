"""Similarity-graph construction and normalized-Laplacian contracts."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from _helpers import distance_matrix

import passby.graph as graph_module
from passby.graph import (
    SCALE_FLOOR,
    IsolatedVertexError,
    ScaleError,
    SimilarityGraph,
    ZeroNormError,
    knn_graph,
    knn_graph_from_distances,
    laplacian,
    pairwise_cosine_distances,
)
from passby.spectral import RESIDUAL_TOL, eigendecompose


def _random_features(rng, n, d):
    return rng.normal(size=(n, d)) + 2.0  # offset keeps rows far from zero


# ----------------------------------------------------------- cosine distance


def cosine_distance(x, y):
    """1 - cos(angle between x and y), one pair at a time (test oracle only)."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    nx = np.linalg.norm(xv)
    ny = np.linalg.norm(yv)
    if nx == 0.0 or ny == 0.0:
        raise ZeroNormError("cosine distance undefined for a zero vector")
    return float(1.0 - (xv @ yv) / (nx * ny))


def test_cosine_distance_hand_values():
    # dot((1,0),(1,1)) = 1, norms 1 and sqrt(2)  ->  1 - 1/sqrt(2)
    d = cosine_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert d == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(1.0)
    assert cosine_distance(np.array([2.0, 1.0]), np.array([4.0, 2.0])) == pytest.approx(0.0, abs=1e-15)
    assert cosine_distance(np.array([1.0, 0.0]), np.array([-5.0, 0.0])) == pytest.approx(2.0)


def test_cosine_distance_zero_vector_rejected():
    with pytest.raises(ZeroNormError):
        cosine_distance(np.zeros(3), np.ones(3))


def test_pairwise_matches_scalar_routine():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 5))
    D = distance_matrix(pairwise_cosine_distances(X), 12)
    for i in range(12):
        for j in range(12):
            assert D[i, j] == pytest.approx(cosine_distance(X[i], X[j]), abs=1e-12)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert D.min() >= 0.0 and D.max() <= 2.0


def test_pairwise_zero_row_rejected():
    X = np.ones((4, 3))
    X[2] = 0.0
    with pytest.raises(ZeroNormError):
        pairwise_cosine_distances(X)


def test_pairwise_scale_invariance():
    rng = np.random.default_rng(1)
    X = _random_features(rng, 20, 8)
    scales = rng.uniform(0.5, 50.0, size=(20, 1))
    base = distance_matrix(pairwise_cosine_distances(X), 20)
    scaled = distance_matrix(pairwise_cosine_distances(X * scales), 20)
    assert np.max(np.abs(base - scaled)) < 1e-12


# --------------------------------------------------------------- knn graph


def test_knn_three_point_line():
    # distances 0-1: 1, 1-2: 2, 0-2: 3, with one neighbor per vertex.
    # local scales are the first-neighbor distances (1, 1, 2); the kept
    # edges are (0,1) and (1,2) with weights exp(-1^2/(1*1)) and
    # exp(-2^2/(1*2)).
    D = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    g = knn_graph_from_distances([(0, 0, D)], 3, neighbors=1)
    assert np.array_equal(g.scales, np.array([1.0, 1.0, 2.0]))
    assert g.weights[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert g.weights[1, 2] == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert g.weights[0, 2] == 0.0
    assert [(i, j) for i, j, _ in g.edge_list()] == [(0, 1), (1, 2)]


def test_knn_union_rule_keeps_one_sided_choices():
    # vertex 3 is far from everyone; only it picks vertex 0, yet the edge
    # must appear for both endpoints.
    D = np.array(
        [
            [0.0, 1.0, 1.0, 2.0],
            [1.0, 0.0, 2.0, 2.0],
            [1.0, 2.0, 0.0, 2.0],
            [2.0, 2.0, 2.0, 0.0],
        ]
    )
    g = knn_graph_from_distances([(0, 0, D)], 4, neighbors=1)
    assert g.weights[0, 3] > 0.0
    assert g.weights[3, 0] == g.weights[0, 3]
    # equidistant candidates resolve toward the smaller index, so vertex 0
    # picks vertex 1 and vertex 3 picks vertex 0
    assert g.weights[0, 1] > 0.0
    assert g.weights[1, 2] == 0.0 and g.weights[2, 3] == 0.0 and g.weights[1, 3] == 0.0


def test_knn_neighbor_counts_at_least_m():
    rng = np.random.default_rng(2)
    for trial in range(10):
        X = _random_features(rng, 30, 6)
        m = int(rng.integers(1, 10))
        g = knn_graph(X, neighbors=m)
        assert np.all(np.diff(g.weights.indptr) >= m)
        assert g.neighbors == m


def test_knn_permutation_equivariance():
    # weights match up to last-bit rounding (matrix products accumulate in a
    # layout-dependent order), and the edge set matches exactly
    rng = np.random.default_rng(3)
    X = _random_features(rng, 25, 7)
    g = knn_graph(X, neighbors=4)
    perm = rng.permutation(25)
    gp = knn_graph(X[perm], neighbors=4)
    expected = g.weights.toarray()[np.ix_(perm, perm)]
    assert np.allclose(gp.weights.toarray(), expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(gp.weights.toarray() > 0.0, expected > 0.0)
    assert np.allclose(gp.scales, g.scales[perm], rtol=0.0, atol=1e-12)


def test_knn_weights_in_unit_interval_and_symmetric():
    rng = np.random.default_rng(4)
    X = _random_features(rng, 40, 5)
    W = knn_graph(X, neighbors=6).weights.toarray()
    assert np.array_equal(W, W.T)
    assert np.all(np.diag(W) == 0.0)
    assert W.max() <= 1.0 and W.min() >= 0.0


def test_knn_neighbor_range_errors():
    X = np.random.default_rng(5).normal(size=(6, 3)) + 2.0
    with pytest.raises(ValueError):
        knn_graph(X, neighbors=0)
    with pytest.raises(ValueError):
        knn_graph(X, neighbors=6)  # only 5 other vertices exist


def test_knn_duplicate_rows_use_positive_scale_floor():
    # rows 0 and 1 coincide, so the raw first-neighbor distance is 0; the
    # scale must fall back to the smallest positive distance in that row.
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = knn_graph(X, neighbors=1)
    assert np.all(g.scales >= SCALE_FLOOR)
    d01 = next(pairwise_cosine_distances(X))[2][0]
    positives = d01[d01 > SCALE_FLOOR]
    assert g.scales[0] == pytest.approx(positives.min())


def _knn_by_stable_argsort(d, neighbors):
    """(weights, scales) with the nearest set taken from a full stable sort (reference)."""
    n = d.shape[0]
    offdiag = d.copy()
    np.fill_diagonal(offdiag, np.inf)
    nearest = np.argsort(offdiag, axis=1, kind="stable")[:, :neighbors]
    rows = np.arange(n)
    scales = offdiag[rows, nearest[:, neighbors - 1]]
    for i in np.flatnonzero(scales < SCALE_FLOOR):
        positive = offdiag[i][(offdiag[i] >= SCALE_FLOOR) & np.isfinite(offdiag[i])]
        if positive.size == 0:
            return None
        scales[i] = positive.min()
    mask = np.zeros((n, n), dtype=bool)
    mask[rows[:, None], nearest] = True
    mask |= mask.T
    weights = np.where(mask, np.exp(-(d**2) / np.outer(scales, scales)), 0.0)
    np.fill_diagonal(weights, 0.0)
    return weights, scales


def _upper_tiles(d, height):
    """The upper-triangle tiles of d, `height` rows and columns each, as knn_graph feeds them."""
    starts = range(0, d.shape[0], height)
    return [(r, c, d[r : r + height, c : c + height]) for r in starts for c in starts if c >= r]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_knn_selection_matches_stable_argsort(data):
    # small integer distances make ties at the neighbor boundary common
    n = data.draw(st.integers(2, 12))
    neighbors = data.draw(st.integers(1, n - 1))
    upper = data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    d = np.triu(np.array(upper, dtype=np.float64).reshape(n, n), k=1)
    d = d + d.T
    # the matrix arrives as upper tiles of a drawn height, in a drawn order,
    # so that the ties at a row's boundary fall in different tiles
    tiles = data.draw(st.permutations(_upper_tiles(d, data.draw(st.integers(1, n)))))
    expected = _knn_by_stable_argsort(d, neighbors)
    if expected is None:
        with pytest.raises(ScaleError):
            knn_graph_from_distances(tiles, n, neighbors)
        return
    g = knn_graph_from_distances(tiles, n, neighbors)
    assert np.array_equal(g.weights.toarray(), expected[0])
    assert np.array_equal(g.scales, expected[1])


@pytest.mark.parametrize("neighbors", [1, 15, 600])
def test_knn_graph_across_tiles_matches_stable_argsort(neighbors):
    # 1100 rows: two full tiles and a partial one.  Rows 0, 700 and 1099 point
    # the same way (so do 3 and 1050), so that k-th-distance ties and the
    # coincident rows that hit the scale floor (neighbors=1) cross tiles;
    # 600 nearest fill each list over several tiles.
    rng = np.random.default_rng(11)
    X = _random_features(rng, 1100, 6)
    X[700], X[1099] = X[0], 2.0 * X[0]
    X[1050] = X[3]
    D = distance_matrix(pairwise_cosine_distances(X), 1100)
    g = knn_graph(X, neighbors)
    weights, scales = _knn_by_stable_argsort(D, neighbors)
    assert np.array_equal(g.weights.toarray(), weights)
    assert np.array_equal(g.scales, scales)
    if neighbors == 1:
        assert D[0, 700] < SCALE_FLOOR and g.scales[0] >= SCALE_FLOOR


def test_knn_graph_holds_no_block_of_whole_rows():
    rng = np.random.default_rng(12)
    X = _random_features(rng, 1500, 8)
    tracemalloc.start()
    try:
        knn_graph(X, neighbors=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < graph_module.BLOCK_ROWS * 1500 * 8


def test_knn_tiles_must_cover_the_upper_triangle_once():
    d = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    tiles = _upper_tiles(d, 2)
    with pytest.raises(ValueError):
        knn_graph_from_distances(tiles[:-1], 6, neighbors=2)
    with pytest.raises(ValueError):
        knn_graph_from_distances(tiles + tiles[-1:], 6, neighbors=2)
    with pytest.raises(ValueError):
        knn_graph_from_distances(tiles, 6, neighbors=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_graph_csr_is_symmetric_loopless_and_covers_every_vertex(data):
    # small integer coordinates make duplicate rows and distance ties common
    n = data.draw(st.integers(2, 30))
    dim = data.draw(st.integers(1, 5))
    X = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim)), dtype=float
    ).reshape(n, dim)
    X[X.sum(axis=1) == 0.0, 0] = 1.0  # no zero rows
    neighbors = data.draw(st.integers(1, n - 1))
    # small distance blocks, so that most examples cross block boundaries
    with mock.patch.object(graph_module, "BLOCK_ROWS", data.draw(st.integers(1, n))):
        try:
            W = knn_graph(X, neighbors).weights
        except ScaleError:
            # only when every row points the same way
            unit = X / np.linalg.norm(X, axis=1, keepdims=True)
            assert np.abs(unit - unit[0]).max() < 1e-6
            return
    assert (W != W.T).nnz == 0
    assert np.all(W.diagonal() == 0.0)
    assert np.all(np.diff(W.indptr) >= neighbors)


def test_knn_all_duplicate_rows_rejected():
    X = np.tile(np.array([1.0, 2.0]), (5, 1))
    with pytest.raises(ScaleError):
        knn_graph(X, neighbors=2)


def test_similarity_graph_rejects_asymmetry_and_isolation():
    w = np.array([[0.0, 0.5], [0.4, 0.0]])
    with pytest.raises(ValueError):
        SimilarityGraph(weights=w, scales=np.ones(2), neighbors=1)
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 0.7
    with pytest.raises(IsolatedVertexError):
        SimilarityGraph(weights=w, scales=np.ones(3), neighbors=1)


def test_similarity_graph_leaves_the_callers_csr_alone():
    # two stored zeros: the graph drops them from its own copy only
    w = sparse.csr_array(
        (
            np.array([0.5, 0.0, 0.5, 0.7, 0.0, 0.7]),
            np.array([1, 2, 0, 2, 0, 1]),
            np.array([0, 2, 4, 6]),
        ),
        shape=(3, 3),
    )
    graph = SimilarityGraph(weights=w, scales=np.ones(3), neighbors=1)
    assert graph.weights.nnz == 4
    assert w.nnz == 6
    assert w.indptr.tolist() == [0, 2, 4, 6]
    assert w.indices.tolist() == [1, 2, 0, 2, 0, 1]
    assert w.data.tolist() == [0.5, 0.0, 0.5, 0.7, 0.0, 0.7]


# ---------------------------------------------------------------- laplacian


def _graph_from_weights(w):
    return SimilarityGraph(weights=w, scales=np.ones(w.shape[0]), neighbors=1)


def test_laplacian_two_vertices():
    # one edge of any weight normalizes to [[1,-1],[-1,1]] with spectrum {0,2}
    for w in (0.3, 1.0, 2.5):
        g = _graph_from_weights(np.array([[0.0, w], [w, 0.0]]))
        L = laplacian(g).matrix.toarray()
        assert np.allclose(L, np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-15)
        vals = np.linalg.eigvalsh(L)
        assert vals == pytest.approx([0.0, 2.0], abs=1e-12)


def test_laplacian_triangle_spectrum():
    # equal-weight triangle: normalized spectrum is {0, 3/2, 3/2}
    w = np.full((3, 3), 0.8)
    np.fill_diagonal(w, 0.0)
    L = laplacian(_graph_from_weights(w)).matrix.toarray()
    vals = np.linalg.eigvalsh(L)
    assert vals == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)


def test_laplacian_exact_symmetry_random():
    rng = np.random.default_rng(7)
    for trial in range(20):
        g = knn_graph(_random_features(rng, 25, 6), neighbors=int(rng.integers(2, 8)))
        L = laplacian(g).matrix.toarray()
        assert np.array_equal(L, L.T)


def test_laplacian_null_vector_is_sqrt_degrees():
    rng = np.random.default_rng(8)
    g = knn_graph(_random_features(rng, 30, 5), neighbors=5)
    lap = laplacian(g)
    assert lap.graph is g
    v = np.sqrt(g.degrees)
    assert np.max(np.abs(lap.matrix @ v)) < 1e-12


def test_laplacian_spectrum_bounds():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        g = knn_graph(_random_features(rng, n, 4), neighbors=int(rng.integers(1, 6)))
        vals = np.linalg.eigvalsh(laplacian(g).matrix.toarray())
        assert vals.min() > -1e-10
        assert vals.max() < 2.0 + 1e-10
        assert abs(vals[0]) < 1e-10  # constant-in-degree-scaled null direction


def test_laplacian_zero_multiplicity_counts_components():
    # two disjoint triangles: eigenvalue 0 appears once per component
    w = np.zeros((6, 6))
    for block in (range(0, 3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    w[i, j] = 0.9
    vals = np.linalg.eigvalsh(laplacian(_graph_from_weights(w)).matrix.toarray())
    assert abs(vals[0]) < 1e-12 and abs(vals[1]) < 1e-12
    assert vals[2] > 0.1


@st.composite
def weighted_graphs(draw, max_n=24):
    """Symmetric weights on a few levels; a vertex left without an edge gets one to its successor."""
    n = draw(st.integers(2, max_n))
    levels = st.sampled_from([0.0, 0.0, 1e-6, 0.25, 0.5, 1.0, 3.0])
    pairs = n * (n - 1) // 2
    W = np.zeros((n, n))
    W[np.triu_indices(n, k=1)] = draw(st.lists(levels, min_size=pairs, max_size=pairs))
    W = W + W.T
    for i in np.flatnonzero(W.sum(axis=1) == 0.0):
        j = (i + 1) % n
        W[i, j] = W[j, i] = 1.0
    return _graph_from_weights(W)


@settings(max_examples=150, deadline=None)
@given(weighted_graphs(), st.data())
def test_laplacian_is_psd_with_bounded_residuals(graph, data):
    lap = laplacian(graph)
    L = lap.matrix.toarray()
    n = L.shape[0]
    # x'Lx is half the weighted sum of squared differences of x / sqrt(degree)
    W = graph.weights.toarray()
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    y = x / np.sqrt(graph.degrees)
    form = 0.5 * np.sum(W * (y[:, None] - y[None, :]) ** 2)
    assert x @ L @ x == pytest.approx(form, rel=1e-9, abs=1e-12)
    vals = np.linalg.eigvalsh(L)
    assert vals.min() > -1e-10 and vals.max() < 2.0 + 1e-10
    p = data.draw(st.integers(1, n))
    emb = eigendecompose(lap, p)
    assert np.all(emb.eigenvalues > -1e-10) and np.all(emb.eigenvalues < 2.0 + 1e-10)
    assert emb.eigenvalues == pytest.approx(vals[:p], abs=1e-9)
    residuals = np.linalg.norm(L @ emb.eigenvectors - emb.eigenvectors * emb.eigenvalues, axis=0)
    assert residuals.max() < RESIDUAL_TOL
    assert np.allclose(emb.eigenvectors.T @ emb.eigenvectors, np.eye(p), atol=1e-9)

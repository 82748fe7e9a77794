"""Eigendecomposition, cluster-count estimate, and k-means contracts.

The eigensolver is cross-checked against a self-contained cyclic Jacobi
rotation routine written here, so the two routes share no code.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import sparse

from _helpers import as_sets, caller_blas_threads
from passby.graph import SimilarityGraph, knn_graph, laplacian
from passby.spectral import (
    EigensolverError,
    KmeansConfig,
    SpectralEmbedding,
    eigendecompose,
    estimate_k,
    kmeans,
    spectral_cluster,
    _repair_empty,
)


def jacobi_eigh(a, sweeps=30, tol=1e-14):
    """Cyclic Jacobi eigensolver for symmetric matrices (test oracle only)."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], v[:, order]


def _random_laplacian(rng, n, m=None):
    X = rng.normal(size=(n, 5)) + 2.0
    g = knn_graph(X, neighbors=m or max(2, n // 5))
    return laplacian(g)


def _two_block_graph(sizes=(5, 7), weight=0.8):
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        w[block, block] = weight
        start += size
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(weights=w, scales=np.ones(n), neighbors=1)


# ------------------------------------------------------------ eigensolver


def test_jacobi_oracle_on_known_matrix():
    # sanity-check the oracle itself before trusting it elsewhere
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    vals, vecs = jacobi_eigh(a)
    assert vals == pytest.approx([1.0, 3.0], abs=1e-12)
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-12)


def test_eigendecompose_two_vertex_closed_form():
    lap = laplacian(_two_block_graph(sizes=(2,), weight=0.6))
    emb = eigendecompose(lap, p=2)
    assert emb.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert emb.eigenvectors[:, 0] == pytest.approx([r, r], abs=1e-12)
    # sign rule: the largest-magnitude entry comes out positive
    assert emb.eigenvectors[:, 1] == pytest.approx([r, -r], abs=1e-12)


def test_eigendecompose_matches_jacobi_oracle():
    rng = np.random.default_rng(0)
    for trial in range(8):
        lap = _random_laplacian(rng, int(rng.integers(6, 16)))
        n = lap.matrix.shape[0]
        emb = eigendecompose(lap, p=n)
        ref_vals, ref_vecs = jacobi_eigh(lap.matrix.toarray())
        assert np.allclose(emb.eigenvalues, ref_vals, atol=1e-10)
        # compare eigenspaces pairwise where the spectrum is simple
        gaps_ok = np.diff(ref_vals) > 1e-6
        for j in range(n):
            simple = (j == 0 or gaps_ok[j - 1]) and (j == n - 1 or gaps_ok[j])
            if simple:
                assert abs(np.dot(emb.eigenvectors[:, j], ref_vecs[:, j])) == pytest.approx(
                    1.0, abs=1e-8
                )


def test_eigendecompose_ascending_orthonormal_residuals():
    rng = np.random.default_rng(1)
    for trial in range(10):
        lap = _random_laplacian(rng, int(rng.integers(10, 40)))
        p = int(rng.integers(2, lap.matrix.shape[0] + 1))
        emb = eigendecompose(lap, p=p)
        assert emb.p == p
        assert np.all(np.diff(emb.eigenvalues) >= -1e-12)
        gram = emb.eigenvectors.T @ emb.eigenvectors
        assert np.allclose(gram, np.eye(p), atol=1e-10)
        resid = lap.matrix @ emb.eigenvectors - emb.eigenvectors * emb.eigenvalues
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8


def test_eigendecompose_sign_convention():
    rng = np.random.default_rng(2)
    for trial in range(10):
        lap = _random_laplacian(rng, 20)
        emb = eigendecompose(lap, p=20)
        for j in range(emb.p):
            col = emb.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0


def test_eigendecompose_disconnected_zero_multiplicity():
    lap = laplacian(_two_block_graph(sizes=(4, 6)))
    emb = eigendecompose(lap, p=4)
    assert abs(emb.eigenvalues[0]) < 1e-10
    assert abs(emb.eigenvalues[1]) < 1e-10
    assert emb.eigenvalues[2] > 0.1


def _disconnected_graph(rng, sizes):
    """Random connected blocks (spanning tree plus extra edges), vertices shuffled."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        for i in range(1, size):
            j = int(rng.integers(i))
            w[start + i, start + j] = rng.uniform(0.1, 1.0)
        extra = np.triu(rng.random((size, size)) < 0.3, k=1)
        block = w[start : start + size, start : start + size]
        block[extra.T] = rng.uniform(0.1, 1.0, size=int(extra.sum()))
        start += size
    w = np.tril(w, k=-1)
    w = w + w.T
    perm = rng.permutation(n)
    return SimilarityGraph(weights=w[np.ix_(perm, perm)], scales=np.ones(n), neighbors=1)


def test_eigendecompose_per_component_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for trial in range(30):
        c = int(rng.integers(1, 5))
        g = _disconnected_graph(rng, [int(s) for s in rng.integers(2, 12, size=c)])
        lap = laplacian(g)
        n = g.n_vertices
        p = int(rng.integers(c, n + 1))
        emb = eigendecompose(lap, p=p)
        assert np.allclose(emb.eigenvalues, np.linalg.eigvalsh(lap.matrix.toarray())[:p], rtol=0.0, atol=1e-12)
        gram = emb.eigenvectors.T @ emb.eigenvectors
        assert np.allclose(gram, np.eye(p), rtol=0.0, atol=1e-12)
        resid = lap.matrix @ emb.eigenvectors - emb.eigenvectors * emb.eigenvalues
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8
        # the nullspace basis is pinned: one normalized sqrt(degree) vector per
        # component, zero elsewhere, in order of each component's smallest vertex
        assert np.all(emb.eigenvalues[:c] == 0.0)
        reach = (g.weights.toarray() > 0.0).astype(float) + np.eye(n)
        reach = np.linalg.matrix_power(reach, n) > 0.0
        firsts = sorted({int(np.flatnonzero(row)[0]) for row in reach})
        assert len(firsts) == c
        for j, first in enumerate(firsts):
            idx = np.flatnonzero(reach[first])
            expected = np.zeros(n)
            expected[idx] = np.sqrt(g.degrees[idx]) / np.linalg.norm(np.sqrt(g.degrees[idx]))
            assert np.array_equal(emb.eigenvectors[:, j], expected)
        # every other column also lives on a single component
        for j in range(c, p):
            support = np.flatnonzero(emb.eigenvectors[:, j])
            assert np.all(reach[support[0], support])


def test_eigendecompose_orders_ties_by_component_then_position():
    # two interleaved copies each of a 4-clique and a weighted path: every
    # eigenvalue of a copy ties with its twin's, the copy holding the smaller
    # smallest vertex comes first, and within a copy its own order holds
    clique = np.ones((4, 4)) - np.eye(4)
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.4], [0.0, 0.4, 0.0]])
    copies = [(clique, [1, 4, 6, 9]), (path, [2, 5, 10]), (clique, [0, 3, 7, 13]), (path, [8, 11, 12])]
    w = np.zeros((14, 14))
    for block, rows in copies:
        w[np.ix_(rows, rows)] = block
    emb = eigendecompose(laplacian(_graph_of(w)), p=14)
    expected = []
    for block, rows in copies:
        own = eigendecompose(laplacian(_graph_of(block)), p=len(rows))
        for i in range(len(rows)):
            col = np.zeros(14)
            col[rows] = own.eigenvectors[:, i]
            expected.append((own.eigenvalues[i], rows[0], i, col))
    expected.sort(key=lambda pair: pair[:3])
    assert emb.eigenvalues.tolist() == [value for value, _, _, _ in expected]
    assert [first for _, first, _, _ in expected][:4] == [0, 1, 2, 8]
    for j, (_, _, _, col) in enumerate(expected):
        assert np.array_equal(emb.eigenvectors[:, j], col)


def _cycle_weights(m):
    i = np.arange(m)
    W = sparse.coo_array((np.ones(m), (i, (i + 1) % m)), shape=(m, m))
    return (W + W.T).tocsr()


def _random_connected_weights(rng, m):
    """A weighted cycle through a random vertex order plus random chords."""
    order = rng.permutation(m)
    rows = np.concatenate([order, rng.integers(0, m, size=2 * m)])
    cols = np.concatenate([np.roll(order, 1), rng.integers(0, m, size=2 * m)])
    keep = rows != cols
    W = sparse.coo_array(
        (rng.uniform(0.1, 1.0, size=keep.sum()), (rows[keep], cols[keep])), shape=(m, m)
    ).tocsr()
    W = W + W.T  # a chord drawn twice just gets heavier
    return W


def _graph_of(W, rng=None):
    if rng is not None:
        perm = rng.permutation(W.shape[0])
        W = W[perm][:, perm]
    return SimilarityGraph(weights=W, scales=np.ones(W.shape[0]), neighbors=1)


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Count the Lanczos solves that eigendecompose starts."""
    calls = []
    real = scipy.sparse.linalg.eigsh

    def counting(A, **kwargs):
        calls.append(A.shape[0])
        return real(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    return calls


def test_eigendecompose_lanczos_finds_repeated_eigenvalues(eigsh_calls):
    # the residual check cannot see a missed eigenvalue, so compare the
    # spectrum with a dense solve where eigenvalues repeat: a cycle (every
    # nonzero eigenvalue double) and three shuffled copies of one graph
    rng = np.random.default_rng(12)
    one = _random_connected_weights(rng, 400)
    for g, blocks in (
        (_graph_of(_cycle_weights(400)), [400]),
        (_graph_of(sparse.block_diag([one] * 3, format="csr"), rng), [400] * 3),
    ):
        eigsh_calls.clear()
        lap = laplacian(g)
        emb = eigendecompose(lap, p=20)
        assert eigsh_calls == blocks
        dense = np.linalg.eigvalsh(lap.matrix.toarray())[:20]
        assert np.allclose(emb.eigenvalues, dense, rtol=0.0, atol=1e-10)
        assert np.allclose(emb.eigenvectors.T @ emb.eigenvectors, np.eye(20), rtol=0.0, atol=1e-10)


def test_eigendecompose_small_components_stay_dense(eigsh_calls):
    # the default run's ~48-vertex and the 480-window run's ~160-vertex
    # components are solved by dense eigh
    rng = np.random.default_rng(13)
    for size in (48, 160):
        one = _random_connected_weights(rng, size)
        lap = laplacian(_graph_of(sparse.block_diag([one] * 3, format="csr"), rng))
        emb = eigendecompose(lap, p=20)
        dense = np.linalg.eigvalsh(lap.matrix.toarray())[:20]
        assert np.allclose(emb.eigenvalues, dense, rtol=0.0, atol=1e-12)
    assert eigsh_calls == []


def test_eigendecompose_lanczos_is_deterministic(eigsh_calls):
    rng = np.random.default_rng(14)
    lap = laplacian(_graph_of(_random_connected_weights(rng, 600), rng))
    first = eigendecompose(lap, p=20)
    second = eigendecompose(lap, p=20)
    assert eigsh_calls == [600, 600]
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


@pytest.mark.parametrize(("n", "lanczos"), [(300, []), (400, [400])], ids=["dense", "lanczos"])
def test_eigendecompose_bytes_do_not_depend_on_the_callers_blas_threads(eigsh_calls, n, lanczos):
    # one component: below 16p = 320 vertices dense eigh solves it, from there Lanczos
    X = np.abs(np.random.default_rng(0).standard_normal((n, 400))) + 0.1
    lap = laplacian(knn_graph(X, 15))
    assert np.unique(lap.graph.component).tolist() == [0]
    solved = {}
    for count in (2, 1):
        with caller_blas_threads(count):
            emb = eigendecompose(lap, 20)
        solved[count] = (emb.eigenvalues.tobytes(), emb.eigenvectors.tobytes())
    assert eigsh_calls == lanczos * 2
    assert solved[1] == solved[2]


def test_eigendecompose_p_out_of_range():
    lap = laplacian(_two_block_graph(sizes=(3,)))
    with pytest.raises(ValueError):
        eigendecompose(lap, p=4)
    with pytest.raises(ValueError):
        eigendecompose(lap, p=0)


def test_embedding_rejects_descending_values():
    with pytest.raises(ValueError):
        SpectralEmbedding(eigenvalues=np.array([1.0, 0.5]), eigenvectors=np.eye(2))


def test_embedding_needs_one_vector_per_value():
    with pytest.raises(ValueError, match="one eigenvector column per eigenvalue"):
        SpectralEmbedding(eigenvalues=np.array([0.0, 1.0]), eigenvectors=np.zeros((4, 3)))


def _fail_dense(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _fail_lanczos(A, **kwargs):
    raise scipy.sparse.linalg.ArpackError(-9999)


def _wrong_pairs(a):
    return np.arange(a.shape[0], dtype=float), np.eye(a.shape[0])


@pytest.mark.parametrize(
    "n, module, name, fake, match",
    [
        (8, np.linalg, "eigh", _fail_dense, "dense symmetric solver failed"),
        (300, scipy.sparse.linalg, "eigsh", _fail_lanczos, "Lanczos solver failed"),
        (8, np.linalg, "eigh", _wrong_pairs, "residual"),
    ],
    ids=["dense", "lanczos", "residual"],
)
def test_eigendecompose_reports_a_failed_solve_as_an_eigensolver_error(
    monkeypatch, n, module, name, fake, match
):
    lap = laplacian(_graph_of(_random_connected_weights(np.random.default_rng(n), n)))
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(EigensolverError, match=match):
        eigendecompose(lap, p=2)


# ------------------------------------------------------------- estimate_k


def test_estimate_k_examples():
    vals = np.array([0.0, 0.01, 0.02, 0.5, 0.51])
    # candidate gaps: k=2 -> 0.01, k=3 -> 0.48, k=4 -> 0.01
    assert estimate_k(vals, k_max=4) == 3
    assert estimate_k(np.array([0.0, 1.0, 1.0, 1.0, 1.0]), k_max=4) == 2


def test_estimate_k_tie_prefers_smaller():
    # quarter steps are exactly representable, so every gap ties at 0.25
    vals = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert estimate_k(vals, k_max=4) == 2


def test_estimate_k_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(200):
        k_max = int(rng.integers(2, 7))
        vals = np.sort(np.round(rng.uniform(0.0, 2.0, size=k_max + 1), 1))
        best_k, best_gap = None, -1.0
        for k in range(2, k_max + 1):
            gap = vals[k] - vals[k - 1]
            if gap > best_gap:  # strict: ties keep the earlier k
                best_k, best_gap = k, gap
        assert estimate_k(vals, k_max=k_max) == best_k


def test_estimate_k_needs_enough_values():
    with pytest.raises(ValueError):
        estimate_k(np.array([0.0, 0.5]), k_max=2)  # needs k_max + 1 values
    with pytest.raises(ValueError):
        estimate_k(np.array([0.0, 0.5, 1.0]), k_max=1)


# ---------------------------------------------------------------- k-means


def exhaustive_two_means(points):
    """Globally optimal 2-cluster WCSS by enumerating all splits (oracle)."""
    n = points.shape[0]
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):  # fix point 0 in cluster 0
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        wcss = 0.0
        for side in (mask, ~mask):
            group = points[side]
            wcss += ((group - group.mean(axis=0)) ** 2).sum()
        best = min(best, wcss)
    return best


def test_kmeans_two_separated_pairs():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    res = kmeans(pts, k=2, cfg=KmeansConfig(seed=0))
    assert as_sets(res.partition.labels) == {frozenset({0, 1}), frozenset({2, 3})}
    assert res.wcss == pytest.approx(0.01)
    means = [pts[res.partition.labels == c].mean() for c in range(2)]
    assert sorted(means) == pytest.approx([0.05, 10.05])


def test_kmeans_k_equals_n_zero_wcss():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    res = kmeans(pts, k=3, cfg=KmeansConfig(seed=1))
    assert res.wcss == pytest.approx(0.0, abs=1e-15)
    assert res.partition.sizes().tolist() == [1, 1, 1]


def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(20, 3))
    res = kmeans(pts, k=1, cfg=KmeansConfig(seed=2))
    assert res.partition.labels.tolist() == [0] * 20
    assert res.wcss == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())


def test_kmeans_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    hits = 0
    for trial in range(40):
        n = int(rng.integers(4, 9))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        res = kmeans(pts, k=2, cfg=KmeansConfig(seed=int(rng.integers(10_000))))
        best = exhaustive_two_means(pts)
        assert res.wcss >= best - 1e-12  # can never beat the global optimum
        if res.wcss <= best + 1e-9:
            hits += 1
    assert hits >= 38  # 20 restarts make misses rare


def test_kmeans_wcss_history_non_increasing(monkeypatch):
    # one restart capped at t iterations stops at the WCSS of iteration t of
    # the uncapped run, or at its final WCSS once that run has converged
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 4))
    res = kmeans(pts, k=4, cfg=KmeansConfig(restarts=1, seed=3))

    def capped(t):  # kmeans's one restart, with Lloyd cut at t iterations
        monkeypatch.setattr("passby.spectral.KMEANS_MAX_ITER", t)
        return kmeans(pts, k=4, cfg=KmeansConfig(restarts=1, seed=3)).wcss

    hist = np.array([capped(t) for t in range(1, 21)])
    assert np.all(np.diff(hist) <= 1e-12)
    assert np.sum(np.diff(hist) < 0) >= 2  # the iterations did lower it
    assert hist[-1] == res.wcss  # converged within 20 iterations


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3))
    a = kmeans(pts, k=3, cfg=KmeansConfig(seed=11))
    b = kmeans(pts, k=3, cfg=KmeansConfig(seed=11))
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert a.wcss == b.wcss and a.restart_index == b.restart_index
    c = kmeans(pts, k=3, cfg=KmeansConfig(seed=12))
    assert isinstance(c.restart_index, int)  # other seeds still run fine


def test_kmeans_no_empty_clusters():
    rng = np.random.default_rng(8)
    for trial in range(20):
        pts = rng.normal(size=(int(rng.integers(6, 30)), 2))
        k = int(rng.integers(2, 6))
        res = kmeans(pts, k=k, cfg=KmeansConfig(seed=trial))
        assert res.partition.k == k
        assert np.all(res.partition.sizes() > 0)


def test_empty_cluster_repair_never_takes_a_singleton():
    # points 0, 0.1 and 10 against centroids 0, 0 and 5: cluster 1 is empty, and
    # the farthest point from its centroid, 10, is cluster 2's only member
    points, centroids = np.array([0.0, 0.1, 10.0]), np.array([0.0, 0.0, 5.0])
    d2 = (points[:, None] - centroids[None, :]) ** 2
    labels = np.argmin(d2, axis=1)
    assert labels.tolist() == [0, 0, 2]
    repaired = _repair_empty(labels, d2)
    assert repaired.tolist() == [0, 1, 2]  # 0.1, the farthest of cluster 0's two, moves
    assert np.all(np.bincount(repaired, minlength=3) > 0)
    assert labels.tolist() == [0, 0, 2]  # the caller's labels stay as they were


def test_kmeans_on_identical_points():
    pts = np.ones((5, 2))
    res = kmeans(pts, k=2, cfg=KmeansConfig(seed=9))
    assert res.wcss == pytest.approx(0.0, abs=1e-15)
    assert np.all(res.partition.sizes() > 0)


def test_kmeans_k_out_of_range():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(pts, k=0)
    with pytest.raises(ValueError):
        kmeans(pts, k=4)
    with pytest.raises(ValueError):
        kmeans(np.zeros(3), k=2)  # points are rows of a 2-D array


# -------------------------------------------------------- spectral_cluster


def _embed(g, p):
    return eigendecompose(laplacian(g), p=p)


def test_spectral_cluster_two_components_exact():
    emb = _embed(_two_block_graph(sizes=(6, 9)), p=4)
    res = spectral_cluster(emb, k=2, cfg=KmeansConfig(seed=0))
    assert as_sets(res.partition.labels) == {frozenset(range(6)), frozenset(range(6, 15))}


def test_spectral_cluster_three_components_exact():
    emb = _embed(_two_block_graph(sizes=(5, 6, 7)), p=5)
    res = spectral_cluster(emb, k=3, cfg=KmeansConfig(seed=1))
    assert as_sets(res.partition.labels) == {
        frozenset(range(5)),
        frozenset(range(5, 11)),
        frozenset(range(11, 18)),
    }


def test_spectral_cluster_recovers_three_components():
    # three blobs along different axes: cosine kNN keeps every edge inside a
    # blob.  With an arbitrary basis of the nullspace, columns 1..k-1 can lose
    # a direction that separates two blobs (seeds 6, 10 and 19 did).
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(10, 30, size=3)
        X = np.concatenate(
            [np.eye(8)[c] + 0.05 * rng.random((size, 8)) for c, size in enumerate(sizes)]
        )
        perm = rng.permutation(X.shape[0])
        g = knn_graph(X[perm], neighbors=5)
        blob = np.repeat(np.arange(3), sizes)[perm]
        res = spectral_cluster(_embed(g, p=8), k=3, cfg=KmeansConfig(seed=seed))
        assert as_sets(res.partition.labels) == {
            frozenset(np.flatnonzero(blob == c).tolist()) for c in range(3)
        }


def test_spectral_cluster_single_column_variant():
    emb = _embed(_two_block_graph(sizes=(6, 9)), p=4)
    res = spectral_cluster(emb, k=2, cfg=KmeansConfig(seed=2))  # column 1 alone
    assert as_sets(res.partition.labels) == {frozenset(range(6)), frozenset(range(6, 15))}


def test_spectral_cluster_column_out_of_range():
    emb = _embed(_two_block_graph(sizes=(4, 4)), p=3)
    with pytest.raises(ValueError):
        spectral_cluster(emb, k=4)  # needs columns 1..3 of 0..2
    with pytest.raises(ValueError, match="k must be at least 2"):
        spectral_cluster(emb, k=1)  # no column at all


def test_partition_rejects_bad_labels():
    from passby.spectral import Partition

    with pytest.raises(ValueError):
        Partition(labels=np.array([0, 1, 3]), k=3)  # label outside [0, k)
    with pytest.raises(ValueError, match="one-dimensional"):
        Partition(labels=np.zeros((2, 2)), k=2)
    with pytest.raises(ValueError, match="k must be positive"):
        Partition(labels=np.zeros(3), k=0)

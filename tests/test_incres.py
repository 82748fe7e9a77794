"""Reseeding cluster refinement: plant/grow/harvest mechanics and end-to-end runs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats
from scipy.sparse.csgraph import connected_components

from _helpers import BlockSpec, as_sets, gen_block_similarity
from passby import incres
from passby.evaluate import rand_index
from passby.graph import SimilarityGraph, component_labels, knn_graph
from passby.incres import (
    IncresConfig,
    embedding_column,
    grow,
    harvest,
    incres_cluster,
    incres_embedding,
    plant,
    seeds_for_round,
    stationary_limit,
    transition_matrix,
)
from passby.pipeline import PipelineConfig, run_pipeline
from passby.signal import WindowingConfig, stft_features
from passby.spectral import Partition
from passby.synth import default_vehicle_bank, gen_vehicle_audio


def _path_graph(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return SimilarityGraph(weights=w, scales=np.ones(n), neighbors=1)


def _two_triangles():
    w = np.zeros((6, 6))
    for block in (range(0, 3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    w[i, j] = 1.0
    return SimilarityGraph(weights=w, scales=np.ones(6), neighbors=1)


def _bfs_eccentricity(weights, sources):
    """Longest hop count from the source set (oracle for grow step counts)."""
    n = weights.shape[0]
    dist = np.full(n, -1)
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(weights[u] > 0.0):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return int(dist.max())


# ------------------------------------------------------------- primitives


def test_transition_columns_stochastic():
    rng = np.random.default_rng(0)
    g = knn_graph(rng.normal(size=(20, 4)) + 2.0, neighbors=4)
    P = transition_matrix(g)
    assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)
    assert P.min() >= 0.0


def test_transition_path_values():
    P = transition_matrix(_path_graph(3))
    # middle vertex splits its unit mass in half; ends forward everything
    expected = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
    assert np.array_equal(P.toarray(), expected)


def test_transition_matches_dense_division_bitwise():
    g = knn_graph(np.random.default_rng(4).normal(size=(30, 5)) + 2.0, neighbors=4)
    dense = g.weights.toarray() / g.degrees[None, :]
    assert np.array_equal(transition_matrix(g).toarray(), dense)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_component_labels_match_csgraph(data):
    n = data.draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    adjacency = np.zeros((n, n))
    for i, j in edges:
        if i != j:
            adjacency[i, j] = adjacency[j, i] = 1.0
    csr = sparse.csr_array(adjacency)
    count, expected = connected_components(csr, directed=False)
    labels = component_labels(csr)
    assert labels.max() + 1 == count
    assert np.array_equal(labels, expected)


def test_seeds_for_round_schedule():
    assert seeds_for_round(0.1, 1) == 1
    assert seeds_for_round(0.1, 10) == 1
    assert seeds_for_round(0.1, 100) == 10
    assert seeds_for_round(0.1, 200) == 20
    budgets = [seeds_for_round(0.1, t) for t in range(1, 301)]
    assert all(b >= 1 for b in budgets)
    assert all(b2 >= b1 for b1, b2 in zip(budgets, budgets[1:]))


def test_plant_counts_and_support():
    rng = np.random.default_rng(1)
    labels = np.array([0, 0, 0, 1, 1, 1, 1])
    mass = plant(Partition(labels=labels, k=2), 5, rng)
    assert mass.shape == (7, 2)
    assert mass.sum(axis=0).tolist() == [5.0, 5.0]
    assert np.all(mass[labels == 1, 0] == 0.0)  # seeds stay inside their cluster
    assert np.all(mass[labels == 0, 1] == 0.0)


def test_plant_empty_cluster_draws_from_everyone():
    rng = np.random.default_rng(2)
    labels = np.zeros(10, dtype=np.int64)  # cluster 1 owns nothing
    counts = np.zeros(10)
    mass = plant(Partition(labels=labels, k=2), 1000, rng)
    counts = mass[:, 1]
    assert counts.sum() == 1000.0
    # fallback draws should look uniform over all ten vertices
    assert stats.chisquare(counts).pvalue > 0.01


def test_plant_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        plant(Partition(labels=np.zeros(3, dtype=np.int64), k=1), 0, np.random.default_rng(0))


def test_grow_full_support_is_identity():
    g = _path_graph(4)
    mass = np.ones((4, 2))
    out, steps, exhausted = grow(mass, transition_matrix(g), cap=40)
    assert steps == 0 and not exhausted
    assert np.array_equal(out, mass)


def test_grow_rejects_a_cap_below_one_step():
    mass = np.array([[1.0], [0.0], [0.0], [0.0]])  # stepping would have work to do
    with pytest.raises(ValueError, match="cap must be positive"):
        grow(mass, transition_matrix(_path_graph(4)), cap=0)


def test_grow_single_hop():
    # triangle seeded at two vertices: one step reaches the third
    w = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    g = SimilarityGraph(weights=w, scales=np.ones(3), neighbors=1)
    mass = np.array([[1.0], [1.0], [0.0]])
    out, steps, exhausted = grow(mass, transition_matrix(g), cap=20)
    assert steps == 1 and not exhausted
    assert np.all((out > 0.0).any(axis=1))


def test_grow_steps_match_bfs_oracle_on_paths():
    # two adjacent seeds cover both walk parities, so support spreads one
    # hop per step and fills at the seeds' joint eccentricity
    for n in (4, 6, 11):
        g = _path_graph(n)
        mass = np.zeros((n, 1))
        mass[0, 0] = 1.0
        mass[1, 0] = 1.0
        out, steps, exhausted = grow(mass, transition_matrix(g), cap=10 * n)
        assert not exhausted
        assert steps == n - 2 == _bfs_eccentricity(g.weights.toarray(), [0, 1])


def test_grow_oscillates_on_bipartite_single_seed():
    # a lone seed on a two-vertex path swaps sides every step and support
    # never completes, so the cap must cut the loop and report it
    g = _path_graph(2)
    mass = np.array([[1.0], [0.0]])
    out, steps, exhausted = grow(mass, transition_matrix(g), cap=7)
    assert exhausted and steps == 7
    # odd step count leaves the mass on the far vertex
    assert out[0, 0] == 0.0 and out[1, 0] == 1.0
    labels = harvest(out, np.array([1, 0]))
    assert labels.tolist() == [1, 0]  # unreached vertex 0 keeps its old label


def test_grow_conserves_column_mass():
    rng = np.random.default_rng(3)
    g = knn_graph(rng.normal(size=(25, 4)) + 2.0, neighbors=3)
    P = transition_matrix(g)
    mass = np.zeros((25, 3))
    mass[0, 0] = 4.0
    mass[5, 1] = 2.0
    mass[9, 2] = 1.0
    before = mass.sum(axis=0)
    for _ in range(50):
        mass = P @ mass
        drift = np.abs(mass.sum(axis=0) - before) / before
        assert drift.max() < 1e-9


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grow_and_limit_conserve_planted_mass(data):
    # a column-stochastic walk moves mass but never makes or loses it
    n = data.draw(st.integers(2, 20))
    vertex = st.integers(0, n - 1)
    W = np.zeros((n, n))
    edge = st.tuples(vertex, vertex, st.sampled_from([0.1, 0.5, 1.0]))
    for i, j, w in data.draw(st.lists(edge, max_size=3 * n)):
        if i != j:
            W[i, j] = W[j, i] = w
    for i in np.flatnonzero(W.sum(axis=1) == 0.0):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
    graph = SimilarityGraph(weights=W, scales=np.ones(n), neighbors=1)
    k = data.draw(st.integers(2, 4))
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    planted = plant(Partition(labels=labels, k=k), data.draw(st.integers(1, 3)), rng)
    before = planted.sum(axis=0)
    mass, steps, capped = grow(planted, transition_matrix(graph), data.draw(st.integers(1, 3 * n)))
    assert np.all(mass >= 0.0)
    assert mass.sum(axis=0) == pytest.approx(before, rel=1e-12)
    assert capped or (mass > 0.0).any(axis=1).all()
    component = graph.component
    limit = stationary_limit(planted, component, graph.degrees)
    for c in range(component.max() + 1):
        on = component == c
        assert limit[on].sum(axis=0) == pytest.approx(planted[on].sum(axis=0), rel=1e-12)


def test_grow_cap_cuts_disconnected_diffusion():
    g = _two_triangles()
    mass = np.zeros((6, 1))
    mass[0, 0] = 1.0  # the other triangle is unreachable
    out, steps, exhausted = grow(mass, transition_matrix(g), cap=30)
    assert exhausted and steps == 30
    assert np.all(out[3:, 0] == 0.0)


def _weighted_components(sizes=(6, 9, 12)):
    """Disjoint complete graphs with random weights, so degrees differ."""
    rng = np.random.default_rng(8)
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = np.triu(rng.uniform(0.1, 1.0, size=(size, size)), k=1)
        w[start : start + size, start : start + size] = block + block.T
        start += size
    return SimilarityGraph(weights=w, scales=np.ones(n), neighbors=1)


def test_stationary_limit_matches_long_dense_diffusion():
    # seeds miss the last component: the old loop runs the dense walk to its
    # cap, and the closed form is where that walk converges
    g = _weighted_components()
    mass = np.zeros((g.n_vertices, 2))
    mass[0, 0] = 2.0
    mass[3, 1] = 1.0
    mass[7, 1] = 3.0
    mass[10, 0] = 1.0
    dense = g.weights.toarray() / g.degrees[None, :]
    walked, steps, exhausted = grow(mass, dense, cap=2000)
    assert exhausted and steps == 2000
    assert g.component.tolist() == [0] * 6 + [1] * 9 + [2] * 12
    limit = stationary_limit(mass, g.component, g.degrees)
    assert np.abs(limit - walked).max() < 1e-12
    assert np.all(limit[15:] == 0.0)
    assert np.allclose(limit.sum(axis=0), mass.sum(axis=0), rtol=1e-12)
    prev = np.arange(g.n_vertices) % 2
    assert np.array_equal(harvest(limit, prev), harvest(walked, prev))


def test_harvest_argmax_tie_and_fallback():
    mass = np.array([[0.2, 0.7], [0.5, 0.5], [0.0, 0.0]])
    prev = np.array([0, 1, 1])
    labels = harvest(mass, prev)
    assert labels.tolist() == [1, 0, 1]  # tie -> smaller cluster; empty row -> previous


def test_two_triangle_propagation_by_hand():
    # seed each triangle once: one step reaches the seeds' neighbors, the
    # second step returns mass to the seeds, so support completes at step 2
    g = _two_triangles()
    P = transition_matrix(g)
    mass = np.zeros((6, 2))
    mass[0, 0] = 1.0
    mass[3, 1] = 1.0
    out, steps, exhausted = grow(mass, P, cap=60)
    assert steps == 2 and not exhausted
    labels = harvest(out, np.zeros(6, dtype=np.int64))
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]


# ------------------------------------------------------------- full runs


def test_incres_recovers_two_components():
    spec = BlockSpec(
        block_sizes=(10, 12),
        hierarchy=((0,), (1,)),
        cross_block=0.0,
        noise_fraction=0.0,
    )
    graph, fine, _ = gen_block_similarity(spec)
    res = incres_cluster(graph, 2, IncresConfig(iterations=60, rng_seed=5))
    assert as_sets(res.partition.labels) == as_sets(fine)


def test_incres_block_matrix_fine_and_coarse():
    graph, fine, coarse = gen_block_similarity(BlockSpec(rng_seed=7))
    res3 = incres_cluster(graph, 3, IncresConfig(rng_seed=11))
    assert as_sets(res3.partition.labels) == as_sets(fine)
    res2 = incres_cluster(graph, 2, IncresConfig(rng_seed=12))
    assert as_sets(res2.partition.labels) == as_sets(coarse)


def test_incres_deterministic():
    graph, _, _ = gen_block_similarity(BlockSpec(rng_seed=0))
    a = incres_cluster(graph, 3, IncresConfig(rng_seed=21))
    b = incres_cluster(graph, 3, IncresConfig(rng_seed=21))
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert a.grow_steps == b.grow_steps
    assert a.cap_exhausted == b.cap_exhausted


def test_incres_result_bookkeeping():
    graph, _, _ = gen_block_similarity(BlockSpec(rng_seed=1))
    cfg = IncresConfig(iterations=40, rng_seed=2)
    res = incres_cluster(graph, 3, cfg)
    assert len(res.grow_steps) == 40
    assert len(res.cap_exhausted) == 40
    assert len(res.limit_rounds) == 40
    assert res.seed_mass.shape == (graph.n_vertices, 3)
    # the block graph is connected
    assert not any(res.cap_exhausted) and not any(res.limit_rounds)


def test_incres_unseeded_components_take_the_limit_not_the_cap():
    # one component per vehicle, so some rounds leave one without a seed
    graph = _vehicle_graph()
    res = incres_cluster(graph, 3, IncresConfig(rng_seed=1))
    assert max(res.grow_steps) < graph.n_vertices
    assert sum(res.limit_rounds) > 0
    # a limit round counts as cap-exhausted; no other round reaches the cap
    assert res.cap_exhausted == res.limit_rounds
    for steps, limit in zip(res.grow_steps, res.limit_rounds):
        assert not limit or steps == 0


def test_incres_solves_the_limit_on_limit_rounds_only(monkeypatch):
    graph = _vehicle_graph()
    calls = []
    real = incres.stationary_limit

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(incres, "stationary_limit", counting)
    res = incres_cluster(graph, 3, IncresConfig(rng_seed=1))
    assert 0 < len(calls) == sum(res.limit_rounds) < len(res.limit_rounds)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_seed_count_per_component_decides_where_the_limit_holds_mass(data):
    # disjoint weighted cliques, shuffled; few seeds may miss some of them
    sizes = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    weight = st.floats(0.01, 10.0)
    for size in sizes:
        drawn = data.draw(st.lists(weight, min_size=size**2, max_size=size**2))
        upper = np.triu(np.reshape(drawn, (size, size)), 1)
        W[start : start + size, start : start + size] = upper + upper.T
        start += size
    order = np.array(data.draw(st.permutations(range(n))))
    graph = SimilarityGraph(weights=W[np.ix_(order, order)], scales=np.ones(n), neighbors=1)
    k = data.draw(st.integers(2, 3))
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mass = plant(Partition(labels=labels, k=k), data.draw(st.integers(1, 2)), rng)
    seeded = np.bincount(graph.component, weights=mass.sum(axis=1)) > 0.0
    held = (stationary_limit(mass, graph.component, graph.degrees) > 0.0).any(axis=1)
    assert seeded.all() == held.all()
    assert np.array_equal(held, seeded[graph.component])


@pytest.mark.parametrize("seed", [1, 4, 8, 17])
def test_incres_pure_where_reachable_support_rule_was_not(tmp_path, seed):
    # stopping at full support over the seeded components alone loses
    # purity on these seeds; the stationary limit must not
    report = run_pipeline(PipelineConfig(out_dir=str(tmp_path), method="incres", seed=seed))
    assert report["methods"]["incres"]["purity"] == 1.0


def test_incres_k_larger_than_graph():
    graph, _, _ = gen_block_similarity(BlockSpec(block_sizes=(3, 3, 3)))
    with pytest.raises(ValueError):
        incres_cluster(graph, 10)


def test_incres_config_validation():
    graph, _, _ = gen_block_similarity(BlockSpec(block_sizes=(3, 3, 3)))
    with pytest.raises(ValueError):
        incres_cluster(graph, 1)
    with pytest.raises(ValueError, match="k must be at least 2"):
        incres_embedding(graph, 1)
    with pytest.raises(ValueError):
        IncresConfig(iterations=0)
    with pytest.raises(ValueError):
        IncresConfig(seed_rate=0.0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_incres_config_rejects_a_non_finite_seed_rate(rate):
    # both used to pass, and incres_cluster then failed in round 1 converting
    # floor(rate * round) to an int
    with pytest.raises(ValueError, match="seed_rate must be finite"):
        IncresConfig(seed_rate=rate)


def _vehicle_graph():
    signal, _ = gen_vehicle_audio(default_vehicle_bank(), rng_seed=0)
    features = stft_features(signal, WindowingConfig())
    return knn_graph(features.values, neighbors=15)


def test_incres_stable_across_seeds_on_vehicle_windows():
    graph = _vehicle_graph()
    partitions = [
        incres_cluster(graph, 3, IncresConfig(rng_seed=seed)).partition.labels
        for seed in range(20)
    ]
    worst = min(
        rand_index(partitions[i], partitions[j])
        for i in range(20)
        for j in range(i + 1, 20)
    )
    assert worst >= 0.95


# ------------------------------------------------------------- embedding


def test_embedding_two_cluster_column_is_signed_indicator():
    graph, _, _ = gen_block_similarity(BlockSpec(rng_seed=3))
    E, results = incres_embedding(graph, k=2, cfg=IncresConfig(rng_seed=4))
    assert E.shape == (graph.n_vertices, 1)
    assert set(np.unique(E[:, 0])) == {-1.0, 1.0}
    assert as_sets(E[:, 0] < 0) == as_sets(results[0].partition.labels)


def test_embedding_columns_constant_within_clusters():
    graph, fine, _ = gen_block_similarity(BlockSpec(rng_seed=5))
    E, results = incres_embedding(graph, k=3, cfg=IncresConfig(rng_seed=6))
    assert E.shape == (graph.n_vertices, 2)
    final = results[-1].partition.labels
    for c in np.unique(final):
        col = E[final == c, 1]
        assert np.ptp(col) < 1e-12
    # the three-cluster column separates its clusters
    assert len(np.unique(np.round(E[:, 1], 9))) == 3


def test_embedding_column_levels_ordered_by_size():
    labels = np.array([0, 0, 0, 1, 1, 2])
    mass = np.zeros((6, 3))
    mass[np.arange(6), labels] = 1.0
    from passby.incres import IncresResult

    res = IncresResult(
        partition=Partition(labels=labels, k=3),
        seed_mass=mass,
        grow_steps=(0,),
        cap_exhausted=(False,),
        limit_rounds=(False,),
    )
    col = embedding_column(res)
    # margins are all 1, so levels surface directly: sizes 3,2,1 -> +1, 0, -1
    assert col.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, -1.0]


def test_embedding_deterministic():
    graph, _, _ = gen_block_similarity(BlockSpec(rng_seed=8))
    a, _ = incres_embedding(graph, k=3, cfg=IncresConfig(rng_seed=9))
    b, _ = incres_embedding(graph, k=3, cfg=IncresConfig(rng_seed=9))
    assert np.array_equal(a, b)

"""Acceptance gate: eight release criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
each criterion is also a separate test, so plain `pytest -v` reports the same
verdicts through test outcomes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _helpers import as_sets
from passby.evaluate import (
    ConfusionMatrix,
    align_labels,
    confusion,
    purity,
    rand_index,
)
from passby.graph import knn_graph, laplacian
from passby.incres import IncresConfig, incres_cluster, transition_matrix
from passby.pipeline import PipelineConfig, run_pipeline
from passby.signal import WindowingConfig, stft_features
from passby.spectral import (
    KmeansConfig,
    Partition,
    eigendecompose,
    estimate_k,
    kmeans,
    spectral_cluster,
)
from passby.synth import BlockSpec, default_vehicle_bank, gen_block_similarity, gen_vehicle_audio


@contextmanager
def criterion(num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL ({time.perf_counter() - start:.1f}s) - {text}")
        raise
    print(f"criterion {num} PASS ({time.perf_counter() - start:.1f}s) - {text}")


@pytest.fixture(scope="module")
def vehicle_dataset():
    start = time.perf_counter()
    signal, spans = gen_vehicle_audio(default_vehicle_bank(), rng_seed=0)
    features = stft_features(signal, WindowingConfig())
    return signal, spans, features, time.perf_counter() - start


def _aligned_errors(truth: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    cm = confusion(truth, Partition(labels=labels, k=k))
    assignment = align_labels(cm)
    mapped = np.array([assignment[c] for c in labels])
    return np.flatnonzero(mapped != truth)


def test_criterion_1_reference_purity_tables():
    with criterion(1, "purity reproduces both reference confusion tables"):
        first = ConfusionMatrix(
            counts=np.array([[64, 0, 0], [5, 24, 3], [8, 2, 38]]),
            true_names=("truck", "sedan", "van"),
        )
        assert first.total == 144
        assert purity(first) == 126 / 144
        assert purity(first) == 0.875
        second = ConfusionMatrix(
            counts=np.array([[64, 0, 0], [1, 29, 2], [6, 3, 39]]),
            true_names=("truck", "sedan", "van"),
        )
        assert second.total == 144
        assert abs(purity(second) - 132 / 144) < 1e-12


def test_criterion_2_block_matrix_mirror():
    with criterion(2, "20-seed block-matrix runs recover both hierarchy levels"):
        start = time.perf_counter()
        fine_exact = coarse_exact = fine_agree = coarse_agree = 0
        for seed in range(20):
            graph, fine, coarse = gen_block_similarity(BlockSpec(rng_seed=seed))
            emb = eigendecompose(laplacian(graph), p=4)

            inc3 = incres_cluster(graph, 3, IncresConfig(rng_seed=1000 + seed)).partition
            if as_sets(inc3.labels) == as_sets(fine):
                fine_exact += 1
            inc2 = incres_cluster(graph, 2, IncresConfig(rng_seed=2000 + seed)).partition
            if as_sets(inc2.labels) == as_sets(coarse):
                coarse_exact += 1

            sp3 = spectral_cluster(emb, 3, KmeansConfig(seed=300 + seed)).partition
            if rand_index(sp3.labels, inc3.labels) >= 0.98:
                fine_agree += 1
            sp2 = spectral_cluster(emb, 2, KmeansConfig(seed=400 + seed)).partition
            if rand_index(sp2.labels, inc2.labels) >= 0.98:
                coarse_agree += 1
        elapsed = time.perf_counter() - start
        assert fine_exact >= 19, f"incres k=3 exact on {fine_exact}/20 seeds"
        assert coarse_exact >= 19, f"incres k=2 exact on {coarse_exact}/20 seeds"
        assert fine_agree >= 19, f"methods agree at k=3 on {fine_agree}/20 seeds"
        assert coarse_agree >= 19, f"methods agree at k=2 on {coarse_agree}/20 seeds"
        assert elapsed < 10.0, f"block mirror took {elapsed:.1f}s"


def test_criterion_3_vehicle_audio_mirror(vehicle_dataset):
    with criterion(3, "default audio run: k=3 auto, both methods accurate, boundary-heavy errors"):
        start = time.perf_counter()
        _, _, features, build_elapsed = vehicle_dataset
        graph = knn_graph(features.values, neighbors=15)
        emb = eigendecompose(laplacian(graph), p=20)
        assert estimate_k(emb.eigenvalues, k_max=8) == 3

        truth = np.tile(np.repeat(np.arange(3), 16), 3)
        spectral_labels = spectral_cluster(emb, 3, KmeansConfig(seed=0)).partition.labels
        incres_labels = incres_cluster(graph, 3, IncresConfig(rng_seed=0)).partition.labels

        p_spectral = purity(confusion(truth, Partition(labels=spectral_labels, k=3)))
        p_incres = purity(confusion(truth, Partition(labels=incres_labels, k=3)))
        assert p_spectral >= 0.85, f"spectral purity {p_spectral:.4f}"
        assert p_incres >= 0.90, f"incres purity {p_incres:.4f}"
        assert p_incres >= p_spectral - 0.02

        per_clip = 16
        for labels in (spectral_labels, incres_labels):
            errors = _aligned_errors(truth, labels, k=3)
            if errors.size:
                position = errors % per_clip
                boundary = (position < 3) | (position >= per_clip - 3)
                assert boundary.mean() >= 0.8, "errors not concentrated at clip edges"
        elapsed = build_elapsed + (time.perf_counter() - start)
        assert elapsed < 30.0, f"vehicle mirror took {elapsed:.1f}s"


def test_criterion_4_laplacian_suite():
    with criterion(4, "100 random Laplacians: symmetric, spectrum in [0,2], tiny residuals"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(8, 61))
            m = int(rng.integers(1, min(9, n)))
            X = rng.normal(size=(n, int(rng.integers(3, 8)))) + 2.0
            lap = laplacian(knn_graph(X, neighbors=m))
            L = lap.matrix.toarray()
            assert np.array_equal(L, L.T)
            vals = np.linalg.eigvalsh(L)
            assert vals.min() > -1e-10
            assert vals.max() < 2.0 + 1e-10
            assert vals[0] < 1e-8
            emb = eigendecompose(lap, p=n)
            resid = L @ emb.eigenvectors - emb.eigenvectors * emb.eigenvalues
            assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"laplacian suite took {elapsed:.1f}s"


def test_criterion_5_kmeans_against_exhaustive_optimum():
    with criterion(5, "k-means matches the exhaustive 2-cluster optimum on 100 instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        exact = 0
        for trial in range(100):
            n = int(rng.integers(4, 9))
            pts = rng.normal(size=(n, int(rng.integers(1, 4))))
            best = np.inf
            for bits in range(1, 2 ** (n - 1)):
                mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
                wcss = 0.0
                for side in (mask, ~mask):
                    group = pts[side]
                    wcss += ((group - group.mean(axis=0)) ** 2).sum()
                best = min(best, wcss)
            res = kmeans(pts, k=2, cfg=KmeansConfig(seed=trial))
            assert res.wcss >= best - 1e-12, "k-means undercut the global optimum"
            if res.wcss <= best + 1e-9:
                exact += 1
        elapsed = time.perf_counter() - start
        assert exact >= 95, f"optimum reached on only {exact}/100 instances"
        assert elapsed < 5.0, f"k-means suite took {elapsed:.1f}s"


def test_criterion_6_window_feature_identities(vehicle_dataset):
    with criterion(6, "window features: energy identity, on-bin concentration, 144x1500 geometry"):
        rng = np.random.default_rng(11)
        rate, w = 48000, 6000
        from passby.signal import AudioSignal

        sig = AudioSignal(rng.normal(size=rate), rate)
        fm = stft_features(sig, WindowingConfig(m=w // 2))
        for i in range(fm.n_windows):
            window = sig.samples[i * w : (i + 1) * w]
            dc = abs(window.sum())
            total = dc**2 + 2.0 * (fm.values[i, :-1] ** 2).sum() + fm.values[i, -1] ** 2
            expected = w * (window**2).sum()
            assert abs(total - expected) / expected < 1e-9

        hz = 400.0  # exactly bin 50 at 8 Hz spacing
        t = np.arange(w) / rate
        tone = AudioSignal(0.6 * np.sin(2 * np.pi * hz * t), rate)
        row = stft_features(tone, WindowingConfig(m=w // 2)).values[0] ** 2
        assert row[49] / row.sum() > 0.999999

        _, _, features, _ = vehicle_dataset
        assert features.values.shape == (144, 1500)


def test_criterion_7_reseeding_mechanics(tmp_path):
    with criterion(7, "reseeding: mass conservation, deterministic reruns, exact 2-component recovery"):
        graph, _, _ = gen_block_similarity(BlockSpec(rng_seed=0))
        P = transition_matrix(graph)
        rng = np.random.default_rng(3)
        mass = np.zeros((graph.n_vertices, 3))
        mass[rng.integers(0, graph.n_vertices, size=12), rng.integers(0, 3, size=12)] = 1.0
        before = mass.sum(axis=0)
        for step in range(100):
            mass = P @ mass
            drift = np.abs(mass.sum(axis=0) - before) / before
            assert drift.max() < 1e-9, f"mass drifted at step {step}"

        cfg_a = PipelineConfig(out_dir=str(tmp_path / "a"), method="incres")
        cfg_b = PipelineConfig(out_dir=str(tmp_path / "b"), method="incres")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        labels_a = (tmp_path / "a" / "labels.csv").read_bytes()
        labels_b = (tmp_path / "b" / "labels.csv").read_bytes()
        assert labels_a == labels_b

        two = BlockSpec(
            block_sizes=(12, 13),
            hierarchy=((0,), (1,)),
            cross_block=0.0,
            noise_fraction=0.0,
        )
        graph2, fine2, _ = gen_block_similarity(two)
        res = incres_cluster(graph2, 2, IncresConfig(rng_seed=1))
        assert as_sets(res.partition.labels) == as_sets(fine2)


def test_criterion_8_report_reproducibility(tmp_path):
    with criterion(8, "re-running one configuration reproduces report.json minus timings"):
        out = tmp_path / "repeat"
        run_pipeline(PipelineConfig(out_dir=str(out)))
        first = (out / "report.json").read_bytes()
        first_labels = (out / "labels.csv").read_bytes()
        run_pipeline(PipelineConfig(out_dir=str(out)))
        second = (out / "report.json").read_bytes()

        a = json.loads(first)
        b = json.loads(second)
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert (out / "labels.csv").read_bytes() == first_labels

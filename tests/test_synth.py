"""Synthetic generators: hierarchical block matrices and pass-by audio."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from _helpers import BlockSpec, distance_matrix, gen_block_similarity

from passby import threads
from passby.evaluate import confusion, purity
from passby.graph import knn_graph, laplacian, pairwise_cosine_distances
from passby.signal import WindowingConfig, stft_features
from passby.spectral import KmeansConfig, Partition, eigendecompose, spectral_cluster
from passby.synth import (
    CLIP_S,
    PASSES,
    SAMPLE_RATE,
    SYNTH_BLOCK_SAMPLES,
    VehicleSpec,
    default_vehicle_bank,
    gen_vehicle_audio,
)

# ------------------------------------------------------------ block matrix


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec(block_sizes=())
    with pytest.raises(ValueError):
        BlockSpec(hierarchy=((0,), (1,)))  # misses block 2
    with pytest.raises(ValueError):
        BlockSpec(in_block=0.0)
    with pytest.raises(ValueError):
        BlockSpec(cross_block=0.95)  # above in_block
    with pytest.raises(ValueError):
        BlockSpec(noise_fraction=0.5)


def test_block_matrix_noiseless_levels():
    spec = BlockSpec(noise_fraction=0.0)
    graph, fine, coarse = gen_block_similarity(spec)
    S = graph.weights.toarray()
    assert S.shape == (100, 100)
    assert np.array_equal(S, S.T)
    assert np.all(np.diag(S) == 0.0)
    n = S.shape[0]
    for i in range(0, n, 7):
        for j in range(0, n, 11):
            if i == j:
                continue
            if fine[i] == fine[j]:
                assert S[i, j] == 0.9
            elif coarse[i] == coarse[j]:
                assert S[i, j] == 0.5 * (0.9 + 0.05)  # midpoint of the two levels
            else:
                assert S[i, j] == 0.05


def test_block_matrix_truth_vectors():
    graph, fine, coarse = gen_block_similarity(BlockSpec(noise_fraction=0.0))
    assert fine.tolist() == [0] * 40 + [1] * 30 + [2] * 30
    assert coarse.tolist() == [0] * 40 + [1] * 60
    assert graph.neighbors == 99
    assert np.all(graph.scales == 1.0)


def test_block_matrix_noise_stays_on_levels():
    graph, _, _ = gen_block_similarity(BlockSpec(noise_fraction=0.2, rng_seed=5))
    S = graph.weights.toarray()
    off = S[~np.eye(S.shape[0], dtype=bool)]
    assert set(np.unique(off)) <= {0.05, 0.5 * (0.9 + 0.05), 0.9}
    # noise snaps sibling-level entries to the extremes, so some must move
    base = gen_block_similarity(BlockSpec(noise_fraction=0.0))[0].weights.toarray()
    changed = np.count_nonzero(S != base) / 2
    pairs = S.shape[0] * (S.shape[0] - 1) / 2
    assert 0.02 < changed / pairs < 0.25


def test_block_matrix_deterministic():
    a = gen_block_similarity(BlockSpec(rng_seed=9))[0].weights.toarray()
    b = gen_block_similarity(BlockSpec(rng_seed=9))[0].weights.toarray()
    c = gen_block_similarity(BlockSpec(rng_seed=10))[0].weights.toarray()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_block_matrix_second_eigenvector_splits_coarse_groups():
    graph, _, coarse = gen_block_similarity(BlockSpec(noise_fraction=0.0))
    emb = eigendecompose(laplacian(graph), p=3)
    v2 = emb.eigenvectors[:, 1]
    for g in (0, 1):
        assert np.ptp(v2[coarse == g]) < 1e-8  # constant within each group
    assert abs(v2[0] - v2[-1]) > 1e-3


def test_block_matrix_spectral_recovery():
    for seed in range(5):
        graph, fine, _ = gen_block_similarity(BlockSpec(rng_seed=seed))
        emb = eigendecompose(laplacian(graph), p=4)
        res = spectral_cluster(emb, k=3, cfg=KmeansConfig(seed=seed))
        cm = confusion(fine, res.partition)
        assert purity(cm) >= 0.98


# ------------------------------------------------------------ audio clips


def test_vehicle_audio_shape_and_spans():
    signal, spans = gen_vehicle_audio(default_vehicle_bank(), rng_seed=0)
    assert signal.sample_rate == 48000
    assert signal.samples.size == 864000  # nine clips of two seconds
    assert len(spans) == 9
    assert [s.label for s in spans[:3]] == ["truck", "sedan", "van"]
    assert spans[3].label == "truck"
    assert spans[-1].end_s == pytest.approx(18.0)
    assert np.all(np.isfinite(signal.samples))


def test_vehicle_audio_deterministic():
    bank = default_vehicle_bank()
    a, _ = gen_vehicle_audio(bank, rng_seed=1)
    b, _ = gen_vehicle_audio(bank, rng_seed=1)
    c, _ = gen_vehicle_audio(bank, rng_seed=2)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_vehicle_audio_custom_passages():
    bank = default_vehicle_bank()
    signal, spans = gen_vehicle_audio(bank, passages=(2, 0, 2), rng_seed=0)
    assert [s.label for s in spans] == ["van", "truck", "van"]
    assert signal.samples.size == 3 * 96000


def test_vehicle_audio_close_fundamentals_rejected():
    a = VehicleSpec(name="a", fundamental_hz=30.0, harmonic_amps=(1.0,))
    b = VehicleSpec(name="b", fundamental_hz=33.0, harmonic_amps=(1.0,))  # only 10% apart
    with pytest.raises(ValueError):
        gen_vehicle_audio((a, b))


def test_vehicle_audio_input_checks():
    with pytest.raises(ValueError):
        gen_vehicle_audio(())
    bank = default_vehicle_bank()
    with pytest.raises(ValueError):
        gen_vehicle_audio(bank, passages=())
    with pytest.raises(ValueError):
        gen_vehicle_audio(bank, passages=(0, 7))


def test_vehicle_spec_validation():
    with pytest.raises(ValueError):
        VehicleSpec(name="x", fundamental_hz=0.0, harmonic_amps=(1.0,))
    with pytest.raises(ValueError):
        VehicleSpec(name="x", fundamental_hz=30.0, harmonic_amps=())
    with pytest.raises(ValueError):
        VehicleSpec(name="x", fundamental_hz=30.0, harmonic_amps=(0.0, 0.0))
    with pytest.raises(ValueError):
        VehicleSpec(name="x", fundamental_hz=30.0, harmonic_amps=(1.0,), edge_level=1.5)
    with pytest.raises(ValueError, match="broadband_level and amp_jitter must be nonnegative"):
        VehicleSpec(name="x", fundamental_hz=30.0, harmonic_amps=(1.0,), broadband_level=-0.1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("fundamental_hz", float("nan")),
        ("fundamental_hz", float("inf")),
        ("harmonic_amps", (1.0, float("nan"))),
        ("harmonic_amps", (float("inf"),)),
        ("broadband_level", float("nan")),
        ("broadband_level", float("inf")),
        ("amp_jitter", float("nan")),
        ("amp_jitter", float("inf")),
        ("edge_level", float("nan")),
    ],
    ids=lambda v: v if isinstance(v, str) else repr(v),
)
def test_vehicle_spec_rejects_non_finite_numbers(field, value):
    # each of these used to pass (edge_level NaN aside) and gave non-finite clips
    kwargs = {"name": "x", "fundamental_hz": 30.0, "harmonic_amps": (1.0,), field: value}
    with pytest.raises(ValueError, match="must be finite"):
        VehicleSpec(**kwargs)


def _serial_vehicle_audio(specs, passages=None, rng_seed=0):
    """Reference: the clips built one after another with whole-clip temporaries."""
    if passages is None:
        passages = tuple(range(len(specs))) * PASSES
    n = int(round(CLIP_S * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    samples = np.zeros(n * len(passages))
    for idx, v in enumerate(passages):
        spec = specs[v]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(rng_seed, 0, idx)))
        x = samples[idx * n : (idx + 1) * n]
        for h, amp in enumerate(spec.harmonic_amps, start=1):
            wobble = 1.0 + spec.amp_jitter * rng.standard_normal()
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += amp * wobble * np.sin(2.0 * np.pi * spec.fundamental_hz * h * t + phase)
        x *= spec.edge_level + (1.0 - spec.edge_level) * np.sin(np.pi * t / CLIP_S) ** 2
        x += spec.broadband_level * rng.standard_normal(n)
    return samples


@pytest.mark.parametrize(
    "passages, seeds",
    [
        (None, (0, 1, 2, 3)),
        ((0, 1, 2) * 10, (5,)),
        ((1,), (2,)),
        ((2, 0, 1, 1, 0), (7,)),  # five clips: not a multiple of two or four workers
    ],
    ids=["default", "thirty", "one", "five"],
)
def test_vehicle_audio_matches_the_serial_build(passages, seeds):
    bank = default_vehicle_bank()
    for seed in seeds:
        signal, _ = gen_vehicle_audio(bank, passages, rng_seed=seed)
        reference = _serial_vehicle_audio(bank, passages, rng_seed=seed)
        assert signal.samples.tobytes() == reference.tobytes()  # signed zeros included


def test_vehicle_audio_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    bank = default_vehicle_bank()
    passages = (0, 1, 2, 0, 2)
    built = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as the interpreter can
    try:
        for cpus in (1, 3, 16):  # one worker, a few, and more than there are clips
            monkeypatch.setattr(threads, "available_cpus", lambda: cpus)
            built[cpus] = gen_vehicle_audio(bank, passages, rng_seed=4)[0].samples.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert built[1] == built[3] == built[16]


@pytest.mark.parametrize(
    "passages, seeds",
    [(None, (0, 1, 2, 3)), ((1,), (6,)), ((0, 1, 2) * 10, (5,))],
    ids=["default", "one", "thirty"],
)
@pytest.mark.parametrize("cpus", [1, 3])
def test_float32_vehicle_audio_is_the_rounded_float64_build(monkeypatch, passages, seeds, cpus):
    bank = default_vehicle_bank()
    monkeypatch.setattr(threads, "available_cpus", lambda: cpus)
    for seed in seeds:
        single, _ = gen_vehicle_audio(bank, passages, rng_seed=seed, dtype=np.float32)
        double, _ = gen_vehicle_audio(bank, passages, rng_seed=seed)
        assert single.samples.dtype == np.float32
        assert single.samples.tobytes() == double.samples.astype(np.float32).tobytes()


def test_vehicle_audio_rejects_other_sample_types():
    with pytest.raises(ValueError, match="float64 or float32"):
        gen_vehicle_audio(default_vehicle_bank(), (0,), dtype=np.float16)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_vehicle_audio_holds_its_samples_and_block_scratch_only(monkeypatch, dtype):
    # no whole-recording temporary: beyond the samples, the clip's time axis
    # and two float64 blocks per worker (each block is summed apart)
    cpus = 3
    monkeypatch.setattr(threads, "available_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        signal, _ = gen_vehicle_audio(default_vehicle_bank(), rng_seed=0, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    clip_time_axis = round(CLIP_S * SAMPLE_RATE) * 8
    assert peak - signal.samples.nbytes < clip_time_axis + cpus * 2 * SYNTH_BLOCK_SAMPLES * 8 + 2**18


def test_vehicle_audio_leaves_no_thread_running():
    before = threading.active_count()
    gen_vehicle_audio(default_vehicle_bank(), rng_seed=0)
    assert threading.active_count() == before


def _clean_spec(name, hz):
    # deterministic spectra: no jitter, no noise, no envelope variation
    return VehicleSpec(
        name=name,
        fundamental_hz=hz,
        harmonic_amps=(1.0, 0.5, 0.25),
        broadband_level=0.0,
        amp_jitter=0.0,
        edge_level=1.0,
    )


def test_clean_clips_have_identical_window_features():
    # on-bin fundamentals (multiples of 8 Hz), flat envelope, no noise: all
    # windows of one vehicle must look alike up to rounding
    bank = (_clean_spec("a", 32.0), _clean_spec("b", 64.0))
    signal, _ = gen_vehicle_audio(bank, passages=(0, 1), rng_seed=0)
    fm = stft_features(signal, WindowingConfig())
    D = distance_matrix(pairwise_cosine_distances(fm.values), fm.values.shape[0])
    n = fm.values.shape[0]
    half = n // 2
    within_a = D[:half, :half][np.triu_indices(half, k=1)]
    within_b = D[half:, half:][np.triu_indices(half, k=1)]
    between = D[:half, half:]
    assert within_a.max() < 1e-6
    assert within_b.max() < 1e-6
    assert between.min() > 0.1


def test_default_bank_within_class_tighter_than_between():
    signal, spans = gen_vehicle_audio(default_vehicle_bank(), rng_seed=3)
    cfg = WindowingConfig()
    fm = stft_features(signal, cfg)
    D = distance_matrix(pairwise_cosine_distances(fm.values), fm.values.shape[0])
    mid = fm.start_times + cfg.window_len / (2 * signal.sample_rate)
    truth = np.array([[s.label for s in spans if s.start_s <= t < s.end_s][0] for t in mid])
    same = truth[:, None] == truth[None, :]
    off = ~np.eye(truth.size, dtype=bool)
    assert D[same & off].mean() < D[~same].mean()


def test_default_bank_is_separated_and_normalized():
    bank = default_vehicle_bank()
    assert [s.name for s in bank] == ["truck", "sedan", "van"]
    for s in bank:
        assert sum(s.harmonic_amps) == pytest.approx(0.75)
    fundamentals = [s.fundamental_hz for s in bank]
    for i in range(3):
        for j in range(i + 1, 3):
            lo, hi = sorted((fundamentals[i], fundamentals[j]))
            assert (hi - lo) / lo >= 0.15


def test_end_to_end_knn_graph_has_no_isolated_windows():
    signal, _ = gen_vehicle_audio(default_vehicle_bank(), rng_seed=4)
    fm = stft_features(signal, WindowingConfig())
    g = knn_graph(fm.values, neighbors=15)
    assert g.n_vertices == 144
    assert np.all(np.diff(g.weights.indptr) >= 15)

"""Confusion tabulation, purity, alignment, and pair-agreement scoring."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from passby import evaluate
from passby.evaluate import (
    ConfusionMatrix,
    align_labels,
    confusion,
    densify,
    labels_from_spans,
    purity,
    rand_index,
)
from passby.signal import LabelSpan
from passby.spectral import Partition


def _cm(rows, names=None):
    counts = np.asarray(rows, dtype=np.int64)
    if names is None:
        names = tuple(f"c{i}" for i in range(counts.shape[0]))
    return ConfusionMatrix(counts=counts, true_names=names)


def aligned_matches(cm):
    """Points the best alignment matches: the counts summed over its pairs."""
    return sum(int(cm.counts[t, c]) for c, t in enumerate(align_labels(cm)) if t >= 0)


def _labels_realizing(counts):
    """Expand a confusion table back into (true, predicted) label arrays."""
    true, pred = [], []
    for t, row in enumerate(counts):
        for c, count in enumerate(row):
            true.extend([t] * count)
            pred.extend([c] * count)
    return np.array(true), np.array(pred)


def _brute_rand(a, b):
    agree = 0
    n = len(a)
    for i, j in combinations(range(n), 2):
        agree += (a[i] == a[j]) == (b[i] == b[j])
    return agree / (n * (n - 1) / 2)


# ----------------------------------------------------------- confusion


def test_confusion_small_table():
    true = np.array([0, 0, 1, 1, 1])
    part = Partition(labels=np.array([1, 1, 0, 0, 1]), k=2)
    cm = confusion(true, part, true_names=("a", "b"))
    assert cm.counts.tolist() == [[0, 2], [2, 1]]
    assert cm.total == 5
    assert cm.true_names == ("a", "b")


def test_confusion_shape_mismatch():
    with pytest.raises(ValueError):
        confusion(np.array([0, 1]), Partition(labels=np.array([0, 1, 0]), k=2))


def test_confusion_rejects_negative_ids():
    with pytest.raises(ValueError):
        confusion(np.array([0, -1]), Partition(labels=np.array([0, 1]), k=2))


# -------------------------------------------------------------- purity


def test_purity_on_first_reference_table():
    cm = _cm([[64, 0, 0], [5, 24, 3], [8, 2, 38]])
    # plurality column sums: 64 + 24 + 38 = 126 of 144
    assert cm.total == 144
    assert purity(cm) == 126 / 144
    assert purity(cm) == 0.875


def test_purity_on_second_reference_table():
    cm = _cm([[64, 0, 0], [1, 29, 2], [6, 3, 39]])
    assert cm.total == 144
    assert abs(purity(cm) - 132 / 144) < 1e-12


def test_purity_perfect_and_uniform():
    assert purity(_cm([[10, 0], [0, 7]])) == 1.0
    assert purity(_cm([[5, 5], [5, 5]])) == 0.5


def test_purity_invariant_to_cluster_relabeling():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 3, size=60)
    pred = rng.integers(0, 4, size=60)
    base = purity(confusion(true, Partition(labels=pred, k=4)))
    remap = np.array([2, 3, 0, 1])
    swapped = purity(confusion(true, Partition(labels=remap[pred], k=4)))
    assert swapped == base


# ----------------------------------------------------------- alignment


def test_align_identity_on_dominant_diagonal():
    cm = _cm([[63, 1], [2, 78]])
    assert align_labels(cm) == (0, 1)
    assert aligned_matches(cm) == 141


def test_align_recovers_permutation():
    cm = _cm([[0, 50, 0], [0, 0, 40], [30, 0, 0]])
    assert align_labels(cm) == (2, 0, 1)
    assert aligned_matches(cm) == 120


def test_align_tie_is_lexicographically_first():
    cm = _cm([[1, 1], [1, 1]])
    assert align_labels(cm) == (0, 1)


def test_align_more_clusters_than_classes():
    cm = _cm([[10, 0, 9], [0, 12, 0]])
    assert align_labels(cm) == (0, 1, -1)
    assert aligned_matches(cm) == 22


def test_align_more_classes_than_clusters():
    cm = _cm([[10, 0], [0, 12], [9, 0]])
    assert align_labels(cm) == (0, 1)
    assert aligned_matches(cm) == 22


def _align_by_brute_force(counts):
    """Lexicographically first best alignment over every injective map (oracle)."""
    counts = np.asarray(counts)
    n_true, k = counts.shape
    if k <= n_true:
        maps = permutations(range(n_true), k)
        return min(maps, key=lambda m: (-sum(counts[m[c], c] for c in range(k)), m))
    best = min(
        permutations(range(k), n_true),
        key=lambda m: (-sum(counts[t, m[t]] for t in range(n_true)), m),
    )
    assignment = [-1] * k
    for t, c in enumerate(best):
        assignment[c] = t
    return tuple(assignment)


def test_align_large_tables_by_assignment():
    # the 9 x 9 and 12 x 12 tables have more maps than the exhaustive limit, so
    # the assignment solver aligns them; the 3 x 10, 10 x 3 and 2 x 9 tables
    # have few enough to search, and both routes keep the same ties
    assert align_labels(_cm(np.eye(9, dtype=int).tolist())) == tuple(range(9))
    assert align_labels(_cm(np.ones((9, 9), dtype=int).tolist())) == tuple(range(9))
    perm = np.random.default_rng(5).permutation(12)
    counts = np.zeros((12, 12), dtype=int)
    counts[perm, np.arange(12)] = 7
    assert align_labels(_cm(counts.tolist())) == tuple(perm.tolist())
    rng = np.random.default_rng(6)
    for shape in ((3, 10), (10, 3), (2, 9)):
        counts = rng.integers(0, 3, size=shape)
        assert align_labels(_cm(counts.tolist())) == _align_by_brute_force(counts)


def test_align_small_wide_tables_leave_scipy_optimize_unloaded():
    # a 3 x 9 table has 504 maps and a 3 x 25 table 13,800: both are searched,
    # so aligning them costs no import of the assignment solver
    tables = [np.random.default_rng(8).integers(0, 9, size=(3, k)) for k in (9, 25)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, numpy as np; from passby.evaluate import ConfusionMatrix, align_labels; "
        f"tables = {[t.tolist() for t in tables]}; "
        "cms = [ConfusionMatrix(np.array(t), ('a', 'b', 'c')) for t in tables]; "
        "print([list(align_labels(cm)) for cm in cms]); "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    alignments, loaded = out.stdout.splitlines()
    assert alignments == str([list(_align_by_brute_force(t)) for t in tables])
    assert loaded == "False"


def test_align_forced_assignment_matches_brute_force(monkeypatch):
    # with the exhaustive limit at 0 every table takes the assignment path
    rng = np.random.default_rng(7)
    tables = [rng.integers(0, 3, size=rng.integers(1, 7, size=2)) for _ in range(150)]
    tables += [np.zeros((2, 3), dtype=int), np.ones((4, 4), dtype=int)]
    expected = [_align_by_brute_force(t) for t in tables]
    assert [align_labels(_cm(t.tolist())) for t in tables] == expected
    monkeypatch.setattr(evaluate, "ALIGN_LIMIT", 0)
    assert [align_labels(_cm(t.tolist())) for t in tables] == expected


def test_aligned_matches_total_iff_exact():
    true = np.array([0, 0, 1, 1, 2, 2])
    exact = Partition(labels=np.array([2, 2, 0, 0, 1, 1]), k=3)
    cm = confusion(true, exact)
    assert aligned_matches(cm) == cm.total
    off = Partition(labels=np.array([2, 2, 0, 1, 1, 1]), k=3)
    assert aligned_matches(confusion(true, off)) < 6


# ----------------------------------------------------------- rand index


def test_rand_index_extremes():
    a = np.array([0, 0, 1, 1, 2])
    assert rand_index(a, a) == 1.0
    assert rand_index(a, np.array([4, 4, 7, 7, 0])) == 1.0  # names are irrelevant


def test_rand_index_known_value():
    # pairs: (0,1) together in both; (2,3) split by b; (0,2),(0,3),(1,2),(1,3) apart in both
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 0, 1, 2])
    assert rand_index(a, b) == pytest.approx(5 / 6)


def test_rand_index_matches_pairwise_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(5, 30))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        assert rand_index(a, b) == pytest.approx(_brute_rand(a, b), abs=1e-12)


def test_rand_index_input_checks():
    with pytest.raises(ValueError):
        rand_index(np.array([0]), np.array([0]))
    with pytest.raises(ValueError):
        rand_index(np.array([0, 1]), np.array([0, 1, 2]))


# ------------------------------------------------- span labels / densify


def test_labels_from_spans_midpoints():
    spans = [LabelSpan("a", 0.0, 2.0), LabelSpan("b", 2.0, 4.0)]
    assert labels_from_spans(spans, [0.5, 1.99, 2.0, 3.5]) == ["a", "a", "b", "b"]


def test_labels_from_spans_boundary_is_half_open():
    spans = [LabelSpan("a", 0.0, 1.0), LabelSpan("b", 1.0, 2.0)]
    assert labels_from_spans(spans, [1.0]) == ["b"]
    with pytest.raises(ValueError):
        labels_from_spans(spans, [2.0])


def _labels_by_loop(spans, times):
    """Every time against every span, first cover wins (reference)."""
    out = []
    for t in np.asarray(times, dtype=np.float64):
        for span in spans:
            if span.start_s <= t < span.end_s:
                out.append(span.label)
                break
        else:
            raise ValueError(f"time {t} falls outside every label span")
    return out


def test_labels_from_spans_matches_loop_reference():
    rng = np.random.default_rng(11)
    for trial in range(200):
        count = int(rng.integers(1, 8))
        gaps = rng.uniform(0.0, 1.0, size=count) * (trial % 2)  # odd trials leave gaps
        lengths = rng.uniform(0.1, 2.0, size=count)
        starts, ends = np.empty(count), np.empty(count)
        end = 0.0
        for i in range(count):
            # a gapless span starts exactly where the one before it ends
            starts[i] = end + gaps[i]
            ends[i] = end = starts[i] + lengths[i]
        spans = [
            LabelSpan(f"c{int(rng.integers(3))}", float(a), float(b)) for a, b in zip(starts, ends)
        ]
        shuffled = [spans[i] for i in rng.permutation(count)]
        inside = [rng.uniform(a, b) for a, b in zip(starts, ends)]
        edges = list(starts)  # half-open: a start belongs to its own span
        times = rng.permutation(np.array(inside + edges))
        assert labels_from_spans(shuffled, times) == _labels_by_loop(spans, times)
        outside = [float(starts[0]) - 0.5, float(ends[-1])]
        if trial % 2:
            outside += [float(e) for e in ends[:-1]]  # a gap opens at every end
        for t in outside:
            with pytest.raises(ValueError, match="outside every label span"):
                _labels_by_loop(spans, [t])
            with pytest.raises(ValueError, match="outside every label span"):
                labels_from_spans(shuffled, [0.5 * (starts[0] + ends[0]), t])


def test_densify_first_appearance_order():
    ids, names = densify(["van", "truck", "van", "sedan", "truck"])
    assert ids.tolist() == [0, 1, 0, 2, 1]
    assert names == ("van", "truck", "sedan")


def test_confusion_roundtrip_through_realized_labels():
    counts = [[64, 0, 0], [5, 24, 3], [8, 2, 38]]
    true, pred = _labels_realizing(counts)
    cm = confusion(true, Partition(labels=pred, k=3))
    assert cm.counts.tolist() == counts

"""Clustering quality: confusion counts, purity, label alignment, pair agreement."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb, perm

import numpy as np
import numpy.typing as npt

from .signal import LabelSpan
from .spectral import Partition

ALIGN_LIMIT = 40_320  # 8!: alignment is exhaustive up to this many candidate maps


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t, c] = points of true class t landing in cluster c."""

    counts: npt.NDArray[np.int64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels: npt.ArrayLike, partition: Partition) -> ConfusionMatrix:
    """Cross-tabulate dense true class ids against cluster labels."""
    t = np.asarray(true_labels, dtype=np.int64)
    if t.shape != partition.labels.shape:
        raise ValueError("true_labels and partition must cover the same points")
    if t.size == 0:
        raise ValueError("cannot tabulate an empty labelling")
    if t.min() < 0:
        raise ValueError("true labels must be dense nonnegative integers")
    n_true = int(t.max()) + 1
    counts = np.zeros((n_true, partition.k), dtype=np.int64)
    np.add.at(counts, (t, partition.labels), 1)
    return ConfusionMatrix(counts=counts)


def purity(cm: ConfusionMatrix) -> float:
    """Fraction of points in their cluster's plurality class."""
    if cm.total == 0:
        raise ValueError("purity of an empty tabulation is undefined")
    return float(cm.counts.max(axis=0).sum()) / cm.total


def align_labels(cm: ConfusionMatrix) -> tuple[int, ...]:
    """Best one-to-one map cluster -> true class.

    Returns one true-class index per cluster (-1 for clusters left unmatched
    when there are more clusters than classes).  Ties keep the
    lexicographically first assignment.  While the candidate maps number at
    most ALIGN_LIMIT the search is exhaustive over them; above it, the
    assignment problem is solved (see `_first_best_assignment`).
    """
    n_true, k = cm.counts.shape
    if k <= n_true:  # a distinct class for each cluster
        return _first_best_assignment(cm.counts.T)
    best = _first_best_assignment(cm.counts)  # a distinct cluster for each class
    assignment = [-1] * k
    for t, c in enumerate(best):
        assignment[c] = t
    return tuple(assignment)


def _first_best_assignment(scores: npt.NDArray[np.int64]) -> tuple[int, ...]:
    """Lexicographically first injective row -> column map of maximal total score.

    `scores` has no more rows than columns.  While the maps number at most
    ALIGN_LIMIT they are tried in lexicographic order.  Above it, each row in
    turn takes the smallest column for which a `linear_sum_assignment`
    re-solve of the remaining rows over the remaining columns still reaches
    the optimum.
    """
    rows, cols = scores.shape
    if perm(cols, rows) <= ALIGN_LIMIT:
        table = scores.tolist()
        # permutations come in lexicographic order, and max keeps the first of equal totals
        return max(
            permutations(range(cols), rows), key=lambda m: sum(table[r][c] for r, c in enumerate(m))
        )
    from scipy.optimize import linear_sum_assignment  # only tables this large need it

    def optimum(free_rows: list[int], free_cols: list[int]) -> int:
        sub = scores[np.ix_(free_rows, free_cols)]
        r, c = linear_sum_assignment(sub, maximize=True)
        return int(sub[r, c].sum())

    free = list(range(cols))
    target = optimum(list(range(rows)), free)
    chosen: list[int] = []
    for r in range(rows):
        rest = list(range(r + 1, rows))
        for c in free:
            others = [x for x in free if x != c]
            if int(scores[r, c]) + optimum(rest, others) == target:
                chosen.append(c)
                target -= int(scores[r, c])
                free = others
                break
    return tuple(chosen)


def rand_index(labels_a: npt.ArrayLike, labels_b: npt.ArrayLike) -> float:
    """Fraction of point pairs on which two labelings agree (together vs apart)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-D and equally long")
    n = a.size
    if n < 2:
        raise ValueError("pair agreement needs at least two points")
    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    table = np.zeros((a_ids.max() + 1, b_ids.max() + 1), dtype=np.int64)
    np.add.at(table, (a_ids, b_ids), 1)
    same_both = sum(comb(int(x), 2) for x in table.ravel())
    same_a = sum(comb(int(x), 2) for x in table.sum(axis=1))
    same_b = sum(comb(int(x), 2) for x in table.sum(axis=0))
    pairs = comb(n, 2)
    return (pairs + 2 * same_both - same_a - same_b) / pairs


def labels_from_spans(spans: list[LabelSpan], times: npt.ArrayLike) -> list[str]:
    """Label each time by the half-open span [start, end) covering it.

    The spans must not overlap; they may come in any order and leave gaps.
    """
    t = np.asarray(times, dtype=np.float64)
    order = np.argsort([s.start_s for s in spans], kind="stable")
    starts = np.array([spans[i].start_s for i in order], dtype=np.float64)
    # a time before every start lands on the -inf sentinel at index -1
    ends = np.append([spans[i].end_s for i in order], -np.inf)
    at = np.searchsorted(starts, t, side="right") - 1
    outside = np.flatnonzero(~(t < ends[at]))
    if outside.size:
        raise ValueError(f"time {t[outside[0]]} falls outside every label span")
    return [spans[order[i]].label for i in at.tolist()]


def densify(names: list[str]) -> tuple[npt.NDArray[np.int64], tuple[str, ...]]:
    """Map string labels to dense ids ordered by first appearance."""
    seen: dict[str, int] = {}
    ids = []
    for name in names:
        if name not in seen:
            seen[name] = len(seen)
        ids.append(seen[name])
    return np.asarray(ids, dtype=np.int64), tuple(seen)

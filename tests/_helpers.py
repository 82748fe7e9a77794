"""Helpers shared by the test modules."""

from __future__ import annotations

import numpy as np
import numpy.typing as npt


def as_sets(labels: npt.ArrayLike) -> frozenset[frozenset[int]]:
    """A labelling as the set of its clusters, for comparisons up to relabeling."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(int(c), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())

"""Helpers shared by the test modules."""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from passby.plots import HEIGHT, MARGIN, WIDTH, _axes, _scale, _svg


def as_sets(labels: npt.ArrayLike) -> frozenset[frozenset[int]]:
    """A labelling as the set of its clusters, for comparisons up to relabeling."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(int(c), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def distance_matrix(tiles, n: int) -> npt.NDArray[np.float64]:
    """The full n x n matrix of upper-triangle distance tiles and their transposes."""
    D = np.zeros((n, n))
    for row0, col0, tile in tiles:
        h, w = tile.shape
        D[row0 : row0 + h, col0 : col0 + w] = tile
        D[col0 : col0 + w, row0 : row0 + h] = tile.T
    return D


def waveform_by_loop(samples, sample_rate, columns=600):
    """Envelope polygon with each column's extremes taken by a slice loop (reference)."""
    x = np.asarray(samples, dtype=np.float64)
    edges = np.linspace(0, x.size, columns + 1).astype(int)
    highs = np.array([x[a:b].max() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])])
    lows = np.array([x[a:b].min() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])])
    peak = float(max(abs(highs).max(), abs(lows).max(), 1e-12))
    xs = _scale(np.arange(columns, dtype=float), 0.0, float(columns - 1), MARGIN, WIDTH - MARGIN)
    mid = HEIGHT / 2
    half = (HEIGHT - 2 * MARGIN) / 2
    upper = mid - highs / peak * half
    lower = mid - lows / peak * half
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs, upper))
    pts += " " + " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs[::-1], lower[::-1]))
    body = _axes("time", "amplitude") + f'<polygon points="{pts}" fill="#4477aa" stroke="none"/>\n'
    return _svg(body)

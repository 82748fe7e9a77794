"""Deterministic SVG renderings of run artifacts (no timestamps, fixed geometry)."""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

import numpy as np
from scipy import sparse

WIDTH = 720
HEIGHT = 440
MARGIN = 54

# fixed cluster palette; cycles if a run ever exceeds it
PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222222",
)


def _svg(body: str, width: int = WIDTH, height: int = HEIGHT) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
        f"{body}</svg>\n"
    )


def _axes(x_label: str, y_label: str) -> str:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return (
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>\n'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>\n'
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 14}" font-size="13" text-anchor="middle">{x_label}</text>\n'
        f'<text x="16" y="{(y0 + y1) // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">{y_label}</text>\n'
    )


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def spectrum_svg(eigenvalues: np.ndarray) -> str:
    """Eigenvalues against their index, one circle marker each."""
    vals = np.asarray(eigenvalues, dtype=np.float64)
    idx = np.arange(1, vals.size + 1)
    lo, hi = float(min(0.0, vals.min())), float(vals.max())
    xs = _scale(idx.astype(float), 1.0, float(max(2, vals.size)), MARGIN + 10, WIDTH - MARGIN - 10)
    ys = _scale(vals, lo, hi, HEIGHT - MARGIN - 10, MARGIN + 10)
    body = _axes("eigenvalue index", "eigenvalue")
    for x, y in zip(xs, ys):
        body += f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#4477aa"/>\n'
    return _svg(body)


def embedding_svg(matrix: np.ndarray) -> str:
    """One polyline per embedding column, drawn over the window index."""
    M = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n, p = M.shape
    lo, hi = float(M.min()), float(M.max())
    xs = _scale(np.arange(n, dtype=float), 0.0, float(max(1, n - 1)), MARGIN + 6, WIDTH - MARGIN - 6)
    xs = [f"{x:.2f}," for x in xs.tolist()]  # formatted once, shared by every column
    body = _axes("window index", "coordinate")
    for j in range(p):
        ys = _scale(M[:, j], lo, hi, HEIGHT - MARGIN - 10, MARGIN + 10)
        pts = " ".join([x + f"{y:.2f}" for x, y in zip(xs, ys.tolist())])
        color = PALETTE[j % len(PALETTE)]
        body += f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
    return _svg(body)


def heatmap_svg(weights: np.ndarray | sparse.sparray) -> str:
    """Grayscale matrix picture: value 1 paints white, value 0 paints black.

    The picture has at most one cell per pixel: with n > 612 vertices, vertex
    i falls in bin i*b//n of b = 612 bins per axis, and each cell paints the
    largest grey in its bin, so no edge vanishes.  With n <= 612 every bin
    holds one vertex.  Each run of equal grey within a row of cells is
    painted as one rect.  A dense matrix is converted to CSR once.
    """
    W = sparse.csr_array(weights, dtype=np.float64)
    W.sum_duplicates()
    n = W.shape[0]
    side = WIDTH - 2 * MARGIN
    b = min(n, side)
    cell = side / b
    bins = np.arange(n, dtype=np.int64) * b // n
    grid = np.zeros((b, b), dtype=np.int64)
    np.maximum.at(
        grid,
        (np.repeat(bins, np.diff(W.indptr)), bins[W.indices]),
        np.clip(np.rint(W.data * 255.0), 0, 255).astype(np.int64),
    )
    opens = np.ones((b, b), dtype=bool)
    opens[:, 1:] = grid[:, 1:] != grid[:, :-1]
    rows, cols = np.nonzero(opens)
    # every row opens with a run, so a run ends where the next one starts
    lengths = np.diff(rows * b + cols, append=b * b)
    offsets = [f"{MARGIN + j * cell:.2f}" for j in range(b)]
    widths = [f"{run * cell + 0.35:.2f}" for run in range(b + 1)]
    height = f"{cell + 0.35:.2f}"
    fills = [f"rgb({g},{g},{g})" for g in range(256)]
    body = "".join(
        [
            f'<rect x="{offsets[j]}" y="{offsets[i]}" width="{widths[run]}" height="{height}" '
            f'fill="{fills[g]}"/>\n'
            for i, j, run, g in zip(
                rows.tolist(), cols.tolist(), lengths.tolist(), grid[opens].tolist()
            )
        ]
    )
    return _svg(body, width=WIDTH, height=side + 2 * MARGIN)


def timeline_svg(clusters: np.ndarray, truth: list[str]) -> str:
    """Two bands over the window index: true classes on top, clusters below."""
    labels = np.asarray(clusters, dtype=np.int64).tolist()
    n = len(labels)
    colors: dict[str, str] = {}
    for name in truth:
        colors.setdefault(name, PALETTE[len(colors) % len(PALETTE)])
    xs = _scale(np.arange(n + 1, dtype=float), 0.0, float(n), MARGIN, WIDTH - MARGIN).tolist()
    body = _axes("window index", "")
    body += f'<text x="{MARGIN}" y="{MARGIN - 10}" font-size="13">top: true class, bottom: cluster</text>\n'
    band_h = (HEIGHT - 2 * MARGIN - 30) / 2
    y_top, y_bottom, h = f"{MARGIN:.2f}", f"{MARGIN + band_h + 30:.2f}", f"{band_h:.2f}"
    rects = []
    for i in range(n):
        x, w = f"{xs[i]:.2f}", f"{xs[i + 1] - xs[i] + 0.2:.2f}"
        top, bottom = colors[truth[i]], PALETTE[labels[i] % len(PALETTE)]
        rects.append(f'<rect x="{x}" y="{y_top}" width="{w}" height="{h}" fill="{top}"/>\n')
        rects.append(f'<rect x="{x}" y="{y_bottom}" width="{w}" height="{h}" fill="{bottom}"/>\n')
    return _svg(body + "".join(rects))


def waveform_svg(envelope: np.ndarray) -> str:
    """Min/max envelope as one filled polygon: row 0 the column maxima, row 1 the minima."""
    highs, lows = envelope
    columns = highs.size
    peak = float(max(abs(highs).max(), abs(lows).max(), 1e-12))
    xs = _scale(np.arange(columns, dtype=float), 0.0, float(columns - 1), MARGIN, WIDTH - MARGIN)
    mid = HEIGHT / 2
    half = (HEIGHT - 2 * MARGIN) / 2
    upper = (mid - highs / peak * half).tolist()
    lower = (mid - lows / peak * half).tolist()
    xs = xs.tolist()
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs, upper))
    pts += " " + " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs[::-1], lower[::-1]))
    body = _axes("time", "amplitude")
    body += f'<polygon points="{pts}" fill="#4477aa" stroke="none"/>\n'
    return _svg(body)


def emit_plots(
    write: Callable[[str, str], Path],
    eigenvalues: np.ndarray,
    embedding: np.ndarray,
    clusters: np.ndarray,
    truth: list[str],
    weights: np.ndarray,
) -> list[Path]:
    """Render the spectrum, embedding, cluster timeline and similarity SVGs.

    Hands each to `write(f"plots/{name}", svg)` and returns what it returned.
    """
    return [
        write(f"plots/{name}", svg)
        for name, svg in (
            ("spectrum.svg", spectrum_svg(eigenvalues)),
            ("embedding.svg", embedding_svg(embedding)),
            ("clusters.svg", timeline_svg(clusters, truth)),
            ("similarity.svg", heatmap_svg(weights)),
        )
    ]

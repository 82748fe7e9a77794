"""The traced run: passby's own CLI entry point, called in process, with a span
around each public function that the pipeline reaches.

For one `cli.main` call the benchmark replaces those functions, in the module
namespaces where the pipeline looks them up, with wrappers that record a span
and keep the arguments and results the per-layer counts need; then it puts
the originals back.  passby itself is not instrumented, and the trace follows
whatever orchestration `run_pipeline` has.

Spans live in memory and are written out when the run ends.  tracemalloc
never runs during a timed call: each memory peak comes from a separate,
untimed replay of the recorded call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import gate, stable_outputs
from workloads import Inputs, Workload, command, generate

GROW_STEP_REPEATS = 25  # one grow step is ~0.1 ms at 480 windows; time the median of several

# (passby module, attribute, span name, keep the call's arguments and result).
# pipeline binds the functions it imports by name, knn_graph looks up its two
# helpers in passby.graph's globals, and the pipeline reaches the plots through
# the passby.plots module.  A name a later pipeline no longer has is skipped.
WRAPPED = (
    ("pipeline", "gen_vehicle_audio", "synth.gen_vehicle_audio", False),
    ("pipeline", "write_wav", "signal.write_wav", False),
    ("pipeline", "assemble_composite", "signal.assemble_composite", True),
    ("pipeline", "stft_features", "signal.stft_features", True),
    ("pipeline", "knn_graph", "graph.knn_graph", True),
    ("graph", "pairwise_cosine_distances", "graph.pairwise_cosine_distances", False),
    ("graph", "knn_graph_from_distances", "graph.knn_graph_from_distances", False),
    ("pipeline", "laplacian", "graph.laplacian", False),
    ("pipeline", "eigendecompose", "spectral.eigendecompose", True),
    ("pipeline", "spectral_cluster", "spectral.kmeans", False),
    ("pipeline", "kmeans", "spectral.kmeans", False),
    ("pipeline", "incres_cluster", "incres.cluster", True),
    ("pipeline", "incres_embedding", "incres.embedding", True),
    ("pipeline", "labels_from_spans", "evaluate.labels_from_spans", False),
    ("pipeline", "confusion", "evaluate.score", False),
    ("pipeline", "purity", "evaluate.score", False),
    ("pipeline", "align_labels", "evaluate.score", False),
    ("plots", "emit_plots", "plots.emit_plots", True),
    ("plots", "waveform_svg", "plots.waveform_svg", True),
)


@dataclass
class Tracer:
    run_id: str
    spans: list[dict] = field(default_factory=list)
    calls: dict[str, list[tuple[dict, object]]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "parent": parent, "run": self.run_id, "start": start, "end": end}
            )

    def wrap(self, fn, name: str, keep: bool):
        """fn with a span around every call; with keep, record (bound arguments, result)."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.calls.setdefault(name, []).append((signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def seconds(self, name: str) -> float:
        """Total busy seconds of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def last(self, name: str) -> tuple[dict, object] | None:
        """(arguments, result) of the last kept call with this name."""
        return self.calls.get(name, [None])[-1]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


@contextmanager
def instrumented(tracer: Tracer):
    """Swap WRAPPED for span wrappers; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, span_name, keep in WRAPPED:
            module = importlib.import_module(f"passby.{module_name}")
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(fn, span_name, keep))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _peak_alloc_mb(fn, arguments: dict) -> float:
    """tracemalloc peak of one untimed call, in MiB."""
    tracemalloc.start()
    try:
        fn(**arguments)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# The two helpers below accept a scipy.sparse matrix too, so that the graph
# and operator metrics keep their meaning when those become sparse.
def _nnz(matrix) -> int:
    if hasattr(matrix, "count_nonzero"):
        return int(matrix.count_nonzero())
    return int(np.count_nonzero(matrix))


def _storage_bytes(matrix) -> int:
    """Bytes that hold the operator: dense nbytes, or the arrays of a sparse format."""
    if hasattr(matrix, "data") and hasattr(matrix, "indices"):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    return int(np.asarray(matrix).nbytes)


def _cli_main(argv: list[str], log: Path) -> tuple[int, float]:
    """Exit code and wall seconds of passby's CLI entry point, run in this process."""
    from passby import cli

    with open(log, "w") as fh, redirect_stdout(fh), redirect_stderr(fh):
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start


def traced_pass(workload: Workload, seed: int, inputs: Inputs, work: Path, tracer: Tracer) -> dict:
    """Run the workload's command in process: a warm-up, a traced and an untraced call.

    All three write into the untraced loop's output directory, whose last
    (passing) outputs are the reference that each run's gate compares with.
    Returns the per-layer values, the problems found, and the runs attempted and failed.
    """
    from passby import pipeline
    from passby.incres import grow, plant, transition_matrix
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    work.mkdir(parents=True, exist_ok=True)
    values: dict[str, float] = {}
    problems: list[str] = []
    failed = 0
    if inputs.manifest is not None:
        # outside the program's run: the benchmark's own input generation
        with tracer.span("bench.inputs"):
            generate(workload, seed, work / "inputs", tracer.span)

    argv = command(workload, inputs, seed)
    reference = stable_outputs(inputs.out_dir)
    wall = {}
    # The first call warms this process up (lazy imports, first-call caches), so
    # the traced call is compared with the untraced call right after it.
    for label in ("warm-up", "traced", "untraced"):
        with instrumented(tracer) if label == "traced" else nullcontext(), tracer.span(f"cli.main.{label}"):
            code, wall[label] = _cli_main(argv, work / f"{label}.log")
        found = [f"exit code {code}"] if code != 0 else gate(inputs.out_dir, workload, reference)[0]
        problems += [f"in-process {label} run: {p}" for p in found]
        failed += bool(found)
    values["trace.overhead_s"] = wall["traced"] - wall["untraced"]

    for name in (
        "synth.gen_vehicle_audio",
        "signal.write_wav",
        "signal.assemble_composite",
        "signal.stft_features",
        "graph.pairwise_cosine_distances",
        "graph.knn_graph_from_distances",
        "graph.laplacian",
        "spectral.eigendecompose",
        "spectral.kmeans",
        "evaluate.labels_from_spans",
        "evaluate.score",
        "plots.emit_plots",
        "plots.waveform_svg",
    ):
        values[f"{name}.s"] = tracer.seconds(name)
    values["incres.s"] = tracer.seconds("incres.cluster") + tracer.seconds("incres.embedding")

    if call := tracer.last("signal.assemble_composite"):
        entries, base = call[0]["entries"], Path(call[0].get("base_dir") or ".")
        values["signal.ingest_bytes"] = sum((base / p).stat().st_size for p in {e.path for e in entries})
    if call := tracer.last("signal.stft_features"):
        values["signal.stft_features.peak_alloc_mb"] = _peak_alloc_mb(pipeline.stft_features, call[0])
    graph = None
    if call := tracer.last("graph.knn_graph"):
        graph = call[1]
        values["graph.peak_alloc_mb"] = _peak_alloc_mb(
            lambda **kw: pipeline.laplacian(pipeline.knn_graph(**kw)), call[0]
        )
        n, nnz = graph.n_vertices, _nnz(graph.weights)
        values["graph.nnz"] = nnz
        values["graph.density"] = nnz / n**2
        values["graph.components"] = int(connected_components(csr_matrix(graph.weights), directed=False)[0])
    if call := tracer.last("spectral.eigendecompose"):
        values["spectral.eigendecompose.peak_alloc_mb"] = _peak_alloc_mb(pipeline.eigendecompose, call[0])
        # the dense solver computes all n pairs and keeps p
        values["spectral.kept_ratio"] = call[1].p / call[1].eigenvectors.shape[0]
    svgs = tracer.last("plots.emit_plots")
    wave = tracer.last("plots.waveform_svg")
    values["plots.svg_bytes"] = sum(p.stat().st_size for p in (svgs[1] if svgs else ())) + len(
        wave[1].encode() if wave else b""
    )

    # Reseeding: zero where the workload never calls it (no incres span then).
    results = [c[1] for c in tracer.calls.get("incres.cluster", [])]
    results += [r for c in tracer.calls.get("incres.embedding", []) for r in c[1][1]]
    steps = [s for r in results for s in r.grow_steps]
    capped = [c for r in results for c in r.cap_exhausted]
    grow_step_s = 0.0
    transition_bytes = 0
    if results and graph is not None:
        P = transition_matrix(graph)
        transition_bytes = _storage_bytes(P)
        rng = np.random.default_rng(seed)
        times = []
        for _ in range(GROW_STEP_REPEATS):
            mass = plant(results[0].partition, 1, rng)
            with tracer.span("incres.grow_step"):
                grow(mass, P, 1)
            times.append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
        grow_step_s = statistics.median(times)
    values.update({
        "incres.rounds": len(steps),
        "incres.grow_steps": sum(steps),
        "incres.capped_rounds": sum(capped),
        "incres.useful_step_ratio": (
            sum(s for s, c in zip(steps, capped) if not c) / sum(steps) if sum(steps) else 0.0
        ),
        "incres.grow_step.s": grow_step_s,
        "incres.transition_bytes": transition_bytes,
    })
    return {"values": values, "problems": problems, "attempted": len(wall), "failed": failed}

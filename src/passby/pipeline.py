"""End-to-end runs: configuration, staging, artifact writing, and the run report."""

from __future__ import annotations

import json
import math
import numbers
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from . import plots
from .evaluate import align_labels, confusion, densify, labels_from_spans, purity
from .graph import (
    IsolatedVertexError,
    ScaleError,
    SimilarityGraph,
    ZeroNormError,
    knn_graph,
    laplacian,
)
from .incres import IncresConfig, incres_cluster, incres_embedding
from .signal import (
    AudioIOError,
    ManifestError,
    ManifestEntry,
    WindowingConfig,
    assemble_composite,
    read_manifest,
    stft_features,
    write_manifest,
    write_wav,
)
from .spectral import (
    EigensolverError,
    KmeansConfig,
    Partition,
    eigendecompose,
    estimate_k,
    kmeans,
    spectral_cluster,
)
from .synth import CLIP_S, PASSES, SAMPLE_RATE, default_vehicle_bank, gen_vehicle_audio

METHODS = ("spectral", "incres", "incres-embedding", "both")


class ConfigError(ValueError):
    """The run configuration is unusable."""


class StageError(RuntimeError):
    """A pipeline stage failed; `stage` names it and `__cause__` carries why."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def exit_code_for(exc: BaseException) -> int:
    """Distinct process exit codes for config, I/O, and numerical failures."""
    if isinstance(exc, StageError) and exc.__cause__ is not None:
        return exit_code_for(exc.__cause__)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (AudioIOError, ManifestError, OSError)):
        return EXIT_IO
    if isinstance(
        exc,
        (
            EigensolverError,
            ScaleError,
            ZeroNormError,
            IsolatedVertexError,
            FloatingPointError,
            np.linalg.LinAlgError,
        ),
    ):
        return EXIT_NUMERICAL
    return EXIT_UNEXPECTED


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs; defaults reproduce the headline configuration."""

    manifest: str | None = None  # clip manifest CSV; None generates synthetic input
    out_dir: str = "out"
    window_len: int = WindowingConfig.window_len
    overlap: float = WindowingConfig.overlap
    taper: str = WindowingConfig.taper
    smoothing_len: int | None = WindowingConfig.smoothing_len
    m: int = WindowingConfig.m
    neighbors: int = 15
    k: int | str = "auto"
    k_max: int = 8
    method: str = "both"
    iterations: int = IncresConfig.iterations
    seed_rate: float = IncresConfig.seed_rate
    restarts: int = KmeansConfig.restarts
    seed: int = 0

    def __post_init__(self) -> None:
        # a JSON config may hold any type; coerce the numbers before comparing them
        if not isinstance(self.out_dir, str) or not isinstance(self.manifest, (str, type(None))):
            raise ConfigError("manifest and out_dir must be strings")
        if self.out_dir == "" or self.manifest == "":
            raise ConfigError("manifest and out_dir must not be empty")
        for name in ("window_len", "m", "neighbors", "k_max", "iterations", "restarts", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.smoothing_len is not None:
            object.__setattr__(self, "smoothing_len", _integer("smoothing_len", self.smoothing_len))
        if self.k != "auto":
            object.__setattr__(self, "k", _integer("k", self.k, " >= 2 or 'auto'"))
        for name in ("overlap", "seed_rate"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.k != "auto" and self.k < 2:
            raise ConfigError(f"k must be at least 2, got {self.k}")
        if self.k_max < 2:
            raise ConfigError("k_max must be at least 2")
        if self.neighbors < 1:
            raise ConfigError("neighbors must be positive")
        if self.seed < 0:  # before the configs below derive seeds from it
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        try:  # each library config checks the limits it holds
            self.windowing()
            self.kmeans_config(1)
            self.incres_config(2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict[str, Any] | None = None) -> "PipelineConfig":
        """JSON config file merged with overrides; overrides win."""
        try:
            # as a manifest is read: UTF-8, with or without a byte order mark
            with open(path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        merged = {**raw, **(overrides or {})}
        unknown = sorted(set(merged) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**merged)

    def windowing(self) -> WindowingConfig:
        return WindowingConfig(
            window_len=self.window_len,
            overlap=self.overlap,
            taper=self.taper,
            smoothing_len=self.smoothing_len,
            m=self.m,
        )

    def kmeans_config(self, tag: int) -> KmeansConfig:
        return KmeansConfig(restarts=self.restarts, seed=_derived_seed(self.seed, tag))

    def incres_config(self, tag: int) -> IncresConfig:
        rng_seed = _derived_seed(self.seed, tag)
        return IncresConfig(iterations=self.iterations, seed_rate=self.seed_rate, rng_seed=rng_seed)


def _integer(name: str, value: Any, alternative: str = "") -> int:
    """`value` as an int; a bool, a string or a float is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer{alternative}, got {value!r}")
    return int(value)


def _finite(name: str, value: Any) -> float:
    """`value` as a float; a bool, a string, NaN or an infinity is a ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, tag)).generate_state(1)[0])


class _Stages:
    """Times each stage and writes the run's files, tracking each so a failure can remove them."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.timings: dict[str, float] = {}
        self.created: list[Path] = []  # files, in the order written
        self.made_dirs: list[Path] = []  # directories this run made, parents first

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the block; wrap any Exception it raises in StageError(name)."""
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            raise StageError(name, exc) from exc
        self.timings[name] = time.perf_counter() - start

    def track(self, path: Path) -> Path:
        self.created.append(path)
        return path

    def make_dir(self, path: Path) -> None:
        """`mkdir -p`, recording first each directory it will make."""
        self.made_dirs.extend(d for d in reversed((path, *path.parents)) if not d.exists())
        path.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        path = self.track(self.out / name)
        self.make_dir(path.parent)
        path.write_text(text, encoding="utf-8")
        return path

    def write_lines(self, name: str, header: list[str], lines: Iterable[str]) -> None:
        """A CSV table: the header, then the caller's lines, each ending in its own CRLF."""
        with open(self.track(self.out / name), "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(lines)

    def write_json(self, name: str, payload: dict[str, Any]) -> None:
        self.write_text(name, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def discard_artifacts(self) -> None:
        """Remove the files written, then each directory made if it is empty, deepest first."""
        for path in self.created:
            with suppress(OSError):
                if path.is_file():
                    path.unlink()
        for path in reversed(self.made_dirs):
            with suppress(OSError):
                path.rmdir()  # fails on a directory that holds files this run did not write


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it: quoted, inner quotes doubled, iff it holds `,`, `"`, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _edge_lines(graph: SimilarityGraph) -> Iterator[str]:
    """graph.csv's lines: each edge i < j, row by row, columns ascending, one row held at a time."""
    indptr, indices, data = graph.weights.indptr, graph.weights.indices, graph.weights.data
    for i in range(graph.n_vertices):  # the CSR holds each row's columns sorted
        start, stop = indptr[i], indptr[i + 1]
        for j, w in zip(indices[start:stop].tolist(), data[start:stop].tolist()):
            if j > i:
                yield f"{i},{j},{w!r}\r\n"


def run_pipeline(cfg: PipelineConfig) -> dict[str, Any]:
    """Execute every stage, write all artifacts into cfg.out_dir, and return the report.

    The report is `report.json` without its `timings`.

    Any stage failure removes the files and directories this run made and
    re-raises as StageError naming the stage.  An interrupt (KeyboardInterrupt,
    SystemExit) removes them too and propagates unchanged.
    """
    stages = _Stages(Path(cfg.out_dir))
    try:
        return _run(cfg, stages)
    except BaseException:
        stages.discard_artifacts()
        raise


def _run(cfg: PipelineConfig, stages: _Stages) -> dict[str, Any]:
    out = stages.out
    pairs = cfg.k_max + 1 if cfg.k == "auto" else cfg.k  # eigenpairs choosing k reads

    def check_input(n_samples: int) -> None:
        """The limits the input's length sets, checked before any work depends on them."""
        if n_samples < cfg.window_len:
            raise ConfigError(
                f"the input has {n_samples} samples, "
                f"fewer than one window of window_len={cfg.window_len}"
            )
        n = cfg.windowing().n_windows(n_samples)
        if cfg.neighbors >= n or pairs > n:
            raise ConfigError(
                f"the input has {n} windows; neighbors={cfg.neighbors} needs "
                f"{cfg.neighbors + 1} and k={cfg.k!r} (k_max={cfg.k_max}) needs {pairs}"
            )

    with stages.stage("setup"):
        stages.make_dir(out)
        if cfg.manifest is not None and not Path(cfg.manifest).is_file():
            problem = "is not a file" if Path(cfg.manifest).exists() else "does not exist"
            raise ConfigError(f"manifest {cfg.manifest} {problem}")

    with stages.stage("input"):
        synthetic = None
        if cfg.manifest is not None:
            entries, base_dir = read_manifest(cfg.manifest), Path(cfg.manifest).parent
        else:
            bank = default_vehicle_bank()
            # the synthetic input's length is known before anything is made or written
            check_input(len(bank) * PASSES * round(CLIP_S * SAMPLE_RATE))
            # float32, the file's encoding: the samples are held once and written as they are
            synthetic, synthetic_spans = gen_vehicle_audio(bank, rng_seed=cfg.seed, dtype=np.float32)
            write_wav(synthetic, stages.track(out / "synthetic.wav"), encoding="float32")
            entries = [
                ManifestEntry(
                    path="synthetic.wav",
                    label=s.label,
                    start_s=s.start_s,
                    duration_s=s.end_s - s.start_s,
                )
                for s in synthetic_spans
            ]
            write_manifest(entries, stages.track(out / "manifest.csv"))
            base_dir = out

    with stages.stage("ingest"):
        # the demo's crops are views of the samples it wrote, not read back from the file
        recording, spans = assemble_composite(entries, base_dir=base_dir, held=synthetic)
        del synthetic  # the crops hold the last references
        check_input(recording.n_samples)

    with stages.stage("features"):
        features = stft_features(recording, cfg.windowing())
        # nothing after this stage reads the samples: keep the rate and the
        # duration, and free the crops before the graph is built
        sample_rate = recording.sample_rate
        duration_s = recording.n_samples / sample_rate
        del recording

    with stages.stage("graph"):
        # the run's own matrix: its rows may become the unit rows in place
        graph = knn_graph(features.values, neighbors=cfg.neighbors, overwrite_features=True)
        # nothing after this stage reads the magnitudes: keep the window times,
        # the envelope and the counts, and free the matrix
        n_windows, n_coefficients = features.values.shape
        start_times, envelope = features.start_times, features.envelope
        del features

    with stages.stage("spectrum"):
        p = min(n_windows, max(cfg.k_max + 1, 20, pairs))
        embedding = eigendecompose(laplacian(graph), p)
        k_estimated = (
            estimate_k(embedding.eigenvalues, cfg.k_max) if embedding.p >= cfg.k_max + 1 else None
        )
        # with k = auto, check_input ensured n > k_max, so k_estimated is set
        k_used = k_estimated if cfg.k == "auto" else cfg.k

    methods = ("spectral", "incres") if cfg.method == "both" else (cfg.method,)
    primary = methods[-1]
    partitions: dict[str, Partition] = {}
    records: dict[str, dict[str, Any]] = {}  # the report's `methods` block
    with stages.stage("cluster"):
        for method in methods:
            if method == "spectral":
                km = spectral_cluster(embedding, k_used, cfg.kmeans_config(1))
                partitions[method] = km.partition
                records[method] = {"wcss": km.wcss, "restart_index": km.restart_index}
            elif method == "incres":
                res = incres_cluster(graph, k_used, cfg.incres_config(2))
                partitions[method] = res.partition
                records[method] = {
                    "grow_steps_total": int(sum(res.grow_steps)),
                    "grow_steps_max": int(max(res.grow_steps)),
                    "cap_exhausted_rounds": int(sum(res.cap_exhausted)),
                    "limit_rounds": int(sum(res.limit_rounds)),
                }
            else:  # incres-embedding
                E, _ = incres_embedding(graph, k_used, cfg.incres_config(3))
                km = kmeans(E, k_used, cfg.kmeans_config(4))
                partitions[method] = km.partition
                records[method] = {"wcss": km.wcss, "columns": E.shape[1]}

    with stages.stage("evaluate"):
        mids = start_times + cfg.window_len / (2.0 * sample_rate)
        truth_ids, class_names = densify(labels_from_spans(spans, mids))
        for method, partition in partitions.items():
            cm = confusion(truth_ids, partition)
            records[method].update(
                purity=purity(cm),
                confusion=cm.counts.tolist(),
                alignment=list(align_labels(cm)),
                labels=[int(c) for c in partition.labels],
            )

    first_artifact = len(stages.created)
    with stages.stage("artifacts"):
        primary_labels = partitions[primary].labels
        # the lines csv.writer writes: numbers need no quoting, a float's repr
        # round-trips exactly, and each class name is quoted once
        quoted = [_csv_field(name) for name in class_names]
        stages.write_lines(
            "labels.csv",
            ["window_index", "start_s", "cluster", "true_label"],
            (
                f"{i},{t!r},{c},{quoted[true_id]}\r\n"
                for i, (t, c, true_id) in enumerate(
                    zip(start_times.tolist(), primary_labels.tolist(), truth_ids.tolist())
                )
            ),
        )
        stages.write_lines(
            "spectrum.csv",
            ["index", "eigenvalue"],
            (f"{i},{v!r}\r\n" for i, v in enumerate(embedding.eigenvalues.tolist(), start=1)),
        )
        stages.write_lines(
            "embedding.csv",
            ["window_index"] + [f"v{j}" for j in range(1, embedding.p + 1)],
            (
                f"{i},{','.join(map(repr, row))}\r\n"
                for i, row in enumerate(embedding.eigenvectors.tolist())
            ),
        )
        stages.write_lines("graph.csv", ["i", "j", "weight"], _edge_lines(graph))
        stages.write_json(
            "graph.json",
            {
                "n": graph.n_vertices,
                "neighbors": graph.neighbors,
                "scales": [float(s) for s in graph.scales],
            },
        )
        for method, record in records.items():
            stages.write_json(
                f"confusion_{method}.json",
                {
                    "method": method,
                    "true_names": list(class_names),
                    "counts": record["confusion"],
                    "purity": record["purity"],
                    "alignment": record["alignment"],
                },
            )
        stages.write_text("plots/waveform.svg", plots.waveform_svg(envelope))
        plots.emit_plots(
            stages.write_text,
            embedding.eigenvalues,
            embedding.eigenvectors,
            primary_labels,
            truth_ids,
            graph.weights,
        )

    with stages.stage("report"):
        report = {
            "parameters": asdict(cfg),
            "n_windows": n_windows,
            "n_coefficients": n_coefficients,
            "sample_rate": sample_rate,
            "duration_s": duration_s,
            "k": {
                "requested": cfg.k,
                "k_max": cfg.k_max,
                "estimated": k_estimated,
                "used": k_used,
            },
            "spectrum": [float(v) for v in embedding.eigenvalues],
            "true_classes": list(class_names),
            "true_labels": [int(t) for t in truth_ids],
            "primary_method": primary,
            "methods": records,
            "artifacts": sorted(str(p.relative_to(out)) for p in stages.created[first_artifact:]),
        }
        stages.write_json("report.json", {**report, "timings": stages.timings})
    return report

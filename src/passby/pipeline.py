"""End-to-end runs: configuration, staging, artifact writing, and the run report."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from . import plots
from .evaluate import align_labels, confusion, densify, labels_from_spans, purity
from .graph import (
    IsolatedVertexError,
    ScaleError,
    ZeroNormError,
    knn_graph,
    laplacian,
    write_graph_csv,
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
    eigendecompose,
    estimate_k,
    kmeans,
    spectral_cluster,
)
from .synth import default_vehicle_bank, gen_vehicle_audio

METHODS = ("spectral", "incres", "incres-embedding", "both")


class ConfigError(ValueError):
    """The run configuration is unusable."""


class StageError(RuntimeError):
    """A pipeline stage failed; `stage` names it and `__cause__` carries why."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


EXIT_OK = 0
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
    window_len: int = 6000
    overlap: float = 0.0
    taper: str = "box"
    smoothing_len: int | None = None
    m: int = 1500
    neighbors: int = 15
    k: int | str = "auto"
    k_max: int = 8
    method: str = "both"
    iterations: int = 200
    seed_rate: float = 0.1
    restarts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            WindowingConfig(
                window_len=self.window_len,
                overlap=self.overlap,
                taper=self.taper,
                smoothing_len=self.smoothing_len,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if isinstance(self.k, str):
            if self.k != "auto":
                raise ConfigError(f"k must be an integer >= 2 or 'auto', got {self.k!r}")
        elif self.k < 2:
            raise ConfigError(f"k must be at least 2, got {self.k}")
        if self.k_max < 2:
            raise ConfigError("k_max must be at least 2")
        if self.m < 1:
            raise ConfigError("m must be positive")
        if self.neighbors < 1:
            raise ConfigError("neighbors must be positive")
        if self.iterations < 1 or self.restarts < 1:
            raise ConfigError("iterations and restarts must be positive")
        if self.seed_rate <= 0.0:
            raise ConfigError("seed_rate must be positive")

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict[str, Any] | None = None) -> "PipelineConfig":
        """JSON config file merged with overrides; overrides win."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        merged = dict(raw)
        merged.update(overrides or {})
        return cls.from_dict(merged)

    def windowing(self) -> WindowingConfig:
        return WindowingConfig(
            window_len=self.window_len,
            overlap=self.overlap,
            taper=self.taper,
            smoothing_len=self.smoothing_len,
        )


@dataclass
class RunResult:
    report: dict[str, Any]
    out_dir: Path
    artifacts: list[Path] = field(default_factory=list)


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, tag)).generate_state(1)[0])


def _methods_to_run(method: str) -> tuple[str, ...]:
    return ("spectral", "incres") if method == "both" else (method,)


class _Stages:
    """Tracks per-stage wall time and which artifacts a run has created."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self.created: list[Path] = []

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            out = fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        self.timings[name] = time.perf_counter() - start
        return out

    def track(self, path: Path) -> Path:
        self.created.append(path)
        return path

    def discard_artifacts(self) -> None:
        for path in self.created:
            try:
                if path.is_file():
                    path.unlink()
            except OSError:
                pass


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute every stage and write all artifacts into cfg.out_dir.

    Any stage failure removes the artifacts this run already wrote and
    re-raises as StageError naming the stage.  An interrupt (KeyboardInterrupt,
    SystemExit) removes them too and propagates unchanged.
    """
    stages = _Stages()
    try:
        return _run(cfg, stages)
    except BaseException:
        stages.discard_artifacts()
        raise


def _run(cfg: PipelineConfig, stages: _Stages) -> RunResult:
    out = Path(cfg.out_dir)

    def stage_setup():
        out.mkdir(parents=True, exist_ok=True)
        if cfg.manifest is not None and not Path(cfg.manifest).is_file():
            raise ConfigError(f"manifest {cfg.manifest} does not exist")
        return out

    stages.run("setup", stage_setup)

    def stage_input() -> tuple[list[ManifestEntry], Path]:
        if cfg.manifest is not None:
            return read_manifest(cfg.manifest), Path(cfg.manifest).parent
        composite, spans = gen_vehicle_audio(default_vehicle_bank(), rng_seed=cfg.seed)
        wav_path = stages.track(out / "synthetic.wav")
        write_wav(composite, wav_path, encoding="float32")
        entries = [
            ManifestEntry(
                path="synthetic.wav",
                label=s.label,
                start_s=s.start_s,
                duration_s=s.end_s - s.start_s,
            )
            for s in spans
        ]
        manifest_path = stages.track(out / "manifest.csv")
        write_manifest(entries, manifest_path)
        return entries, out

    entries, base_dir = stages.run("input", stage_input)

    def stage_ingest():
        return assemble_composite(entries, base_dir=base_dir)

    composite, spans = stages.run("ingest", stage_ingest)

    def stage_features():
        return stft_features(composite, cfg.windowing(), m=cfg.m)

    features = stages.run("features", stage_features)

    def stage_graph():
        g = knn_graph(features.values, neighbors=cfg.neighbors)
        return g, laplacian(g)

    graph, lap = stages.run("graph", stage_graph)

    def stage_spectrum():
        p = min(graph.n_vertices, max(cfg.k_max + 1, 20))
        emb = eigendecompose(lap, p)
        estimated = (
            estimate_k(emb.eigenvalues, cfg.k_max) if emb.p >= cfg.k_max + 1 else None
        )
        used = estimated if cfg.k == "auto" else int(cfg.k)
        if used is None:
            raise ConfigError(
                f"k='auto' needs at least {cfg.k_max + 1} eigenvalues; graph has {graph.n_vertices} vertices"
            )
        return emb, estimated, used

    embedding, k_estimated, k_used = stages.run("spectrum", stage_spectrum)

    def stage_cluster():
        results: dict[str, np.ndarray] = {}
        extras: dict[str, dict[str, Any]] = {}
        for method in _methods_to_run(cfg.method):
            if method == "spectral":
                km = spectral_cluster(
                    embedding,
                    k_used,
                    KmeansConfig(restarts=cfg.restarts, seed=_derived_seed(cfg.seed, 1)),
                )
                results[method] = km.partition.labels
                extras[method] = {"wcss": km.wcss, "restart_index": km.restart_index}
            elif method == "incres":
                res = incres_cluster(
                    graph,
                    IncresConfig(
                        k=k_used,
                        iterations=cfg.iterations,
                        seed_rate=cfg.seed_rate,
                        rng_seed=_derived_seed(cfg.seed, 2),
                    ),
                )
                results[method] = res.partition.labels
                extras[method] = {
                    "grow_steps_total": int(sum(res.grow_steps)),
                    "grow_steps_max": int(max(res.grow_steps)),
                    "cap_exhausted_rounds": int(sum(res.cap_exhausted)),
                    "limit_rounds": int(sum(res.limit_rounds)),
                }
            else:  # incres-embedding
                E, _ = incres_embedding(
                    graph,
                    k_used,
                    IncresConfig(
                        k=k_used,
                        iterations=cfg.iterations,
                        seed_rate=cfg.seed_rate,
                        rng_seed=_derived_seed(cfg.seed, 3),
                    ),
                )
                km = kmeans(
                    E,
                    k_used,
                    KmeansConfig(restarts=cfg.restarts, seed=_derived_seed(cfg.seed, 4)),
                )
                results[method] = km.partition.labels
                extras[method] = {"wcss": km.wcss, "columns": E.shape[1]}
        return results, extras

    method_labels, method_extras = stages.run("cluster", stage_cluster)

    def stage_evaluate():
        mids = features.start_times + features.window_len / (2.0 * features.sample_rate)
        truth_names = labels_from_spans(spans, mids)
        truth_ids, class_names = densify(truth_names)
        evals: dict[str, dict[str, Any]] = {}
        for method, labels in method_labels.items():
            from .spectral import Partition

            cm = confusion(truth_ids, Partition(labels=labels, k=k_used), class_names)
            evals[method] = {
                "purity": purity(cm),
                "confusion": cm.counts.tolist(),
                "alignment": list(align_labels(cm)),
            }
        return truth_names, truth_ids, class_names, evals

    truth_names, truth_ids, class_names, evals = stages.run("evaluate", stage_evaluate)

    def stage_artifacts():
        written: list[Path] = []
        primary = (
            "incres"
            if "incres" in method_labels
            else ("incres-embedding" if "incres-embedding" in method_labels else "spectral")
        )

        labels_path = stages.track(out / "labels.csv")
        with open(labels_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window_index", "start_s", "cluster", "true_label"])
            for i, (t, c, name) in enumerate(
                zip(features.start_times, method_labels[primary], truth_names)
            ):
                writer.writerow([i, repr(float(t)), int(c), name])
        written.append(labels_path)

        spectrum_path = stages.track(out / "spectrum.csv")
        with open(spectrum_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "eigenvalue"])
            for i, v in enumerate(embedding.eigenvalues, start=1):
                writer.writerow([i, repr(float(v))])
        written.append(spectrum_path)

        embedding_path = stages.track(out / "embedding.csv")
        with open(embedding_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window_index"] + [f"v{j}" for j in range(1, embedding.p + 1)])
            for i in range(features.n_windows):
                writer.writerow([i] + [repr(float(v)) for v in embedding.eigenvectors[i]])
        written.append(embedding_path)

        graph_csv = stages.track(out / "graph.csv")
        graph_meta = stages.track(out / "graph.json")
        write_graph_csv(graph, graph_csv, graph_meta)
        written += [graph_csv, graph_meta]

        for method, ev in evals.items():
            path = stages.track(out / f"confusion_{method}.json")
            payload = {
                "method": method,
                "true_names": list(class_names),
                "counts": ev["confusion"],
                "purity": ev["purity"],
                "alignment": ev["alignment"],
            }
            with open(path, "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
            written.append(path)

        wave_path = stages.track(out / "plots" / "waveform.svg")
        wave_path.parent.mkdir(parents=True, exist_ok=True)
        wave_path.write_text(plots.waveform_svg(composite.samples, composite.sample_rate))
        written.append(wave_path)
        for p in plots.emit_plots(
            out,
            embedding.eigenvalues,
            embedding.eigenvectors,
            method_labels[primary],
            truth_names,
            graph.weights,
        ):
            stages.track(p)
            written.append(p)
        return written, primary

    artifact_paths, primary_method = stages.run("artifacts", stage_artifacts)

    def stage_report():
        report = {
            "parameters": asdict(cfg),
            "n_windows": features.n_windows,
            "n_coefficients": features.n_coefficients,
            "sample_rate": features.sample_rate,
            "duration_s": composite.duration_s,
            "k": {
                "requested": cfg.k,
                "k_max": cfg.k_max,
                "estimated": k_estimated,
                "used": k_used,
            },
            "spectrum": [float(v) for v in embedding.eigenvalues],
            "true_classes": list(class_names),
            "true_labels": [int(t) for t in truth_ids],
            "primary_method": primary_method,
            "methods": {
                method: {
                    **evals[method],
                    **method_extras[method],
                    "labels": [int(c) for c in method_labels[method]],
                }
                for method in method_labels
            },
            "artifacts": sorted(str(p.relative_to(out)) for p in artifact_paths),
        }
        report_path = stages.track(out / "report.json")
        with open(report_path, "w") as fh:
            json.dump({**report, "timings": stages.timings}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return report, report_path

    report, report_path = stages.run("report", stage_report)
    return RunResult(report=report, out_dir=out, artifacts=stages.created)

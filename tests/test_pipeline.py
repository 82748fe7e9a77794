"""End-to-end runs: artifacts, reporting, exit codes, and plot rendering."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.io import wavfile

from _helpers import waveform_by_loop
from passby import plots
from passby.cli import build_parser, main
from passby.evaluate import align_labels, confusion, purity
from passby.graph import ZeroNormError, knn_graph, laplacian
from passby.incres import IncresConfig, incres_cluster
from passby.pipeline import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_UNEXPECTED,
    ConfigError,
    PipelineConfig,
    StageError,
    exit_code_for,
    run_pipeline,
)
from passby.plots import embedding_svg, heatmap_svg, timeline_svg, waveform_svg
from passby.signal import (
    AudioIOError,
    AudioSignal,
    _Envelope,
    ManifestEntry,
    WindowingConfig,
    assemble_composite,
    read_manifest,
    stft_features,
    write_manifest,
    write_wav,
)
from passby.spectral import KmeansConfig, Partition, eigendecompose, spectral_cluster
from passby.synth import default_vehicle_bank, gen_vehicle_audio

EXPECTED_ARTIFACTS = [
    "confusion_incres.json",
    "confusion_spectral.json",
    "embedding.csv",
    "graph.csv",
    "graph.json",
    "labels.csv",
    "plots/clusters.svg",
    "plots/embedding.svg",
    "plots/similarity.svg",
    "plots/spectrum.svg",
    "plots/waveform.svg",
    "spectrum.csv",
]


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The default run's report and its output directory."""
    out = tmp_path_factory.mktemp("run")
    return run_pipeline(PipelineConfig(out_dir=str(out))), out


def test_default_run_selects_three_clusters(default_run):
    report, _ = default_run
    k = report["k"]
    assert k["requested"] == "auto"
    assert k["estimated"] == 3
    assert k["used"] == 3
    for method in ("spectral", "incres"):
        assert report["methods"][method]["purity"] >= 0.9


def test_default_run_writes_all_artifacts(default_run):
    report, out = default_run
    for rel in EXPECTED_ARTIFACTS + ["report.json", "synthetic.wav", "manifest.csv"]:
        assert (out / rel).is_file(), rel
    assert report["artifacts"] == EXPECTED_ARTIFACTS


def test_default_run_report_contents(default_run):
    report, _ = default_run
    assert report["n_windows"] == 144
    assert report["n_coefficients"] == 1500
    assert report["sample_rate"] == 48000
    assert report["duration_s"] == pytest.approx(18.0)
    assert report["true_classes"] == ["truck", "sedan", "van"]
    assert report["primary_method"] == "incres"
    assert len(report["spectrum"]) == 20
    assert report["parameters"]["m"] == 1500
    assert report["parameters"]["neighbors"] == 15
    for method in ("spectral", "incres"):
        assert len(report["methods"][method]["labels"]) == 144
    assert "timings" not in report  # timings live only in the written file


def test_default_run_report_file_adds_timings(default_run):
    _, out = default_run
    with open(out / "report.json") as fh:
        on_disk = json.load(fh)
    stages = {"setup", "input", "ingest", "features", "graph", "spectrum", "cluster", "evaluate", "artifacts"}
    assert stages <= set(on_disk["timings"])
    assert all(t >= 0.0 for t in on_disk["timings"].values())


def test_default_run_labels_csv(default_run):
    report, out = default_run
    lines = (out / "labels.csv").read_text().strip().splitlines()
    assert lines[0] == "window_index,start_s,cluster,true_label"
    assert len(lines) == 145
    clusters = [int(line.split(",")[2]) for line in lines[1:]]
    assert clusters == report["methods"]["incres"]["labels"]
    truths = [line.split(",")[3] for line in lines[1:]]
    # sixteen windows per two-second clip, nine clips cycling three vehicles
    assert truths == (["truck"] * 16 + ["sedan"] * 16 + ["van"] * 16) * 3


def test_default_run_spectrum_csv(default_run):
    report, out = default_run
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 21
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx(report["spectrum"])
    assert values[0] == pytest.approx(0.0, abs=1e-10)


def test_default_run_embedding_csv(default_run):
    _, out = default_run
    lines = (out / "embedding.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["window_index", "v1"]
    assert len(lines[0].split(",")) == 21
    assert len(lines) == 145


def test_default_run_graph_csv_roundtrip(default_run):
    # rebuild the graph from the run's own input and compare it with the files
    _, out = default_run
    composite, _ = assemble_composite(read_manifest(out / "manifest.csv"), base_dir=out)
    cfg = PipelineConfig()
    g = knn_graph(stft_features(composite, cfg.windowing()).values, cfg.neighbors)
    meta = json.loads((out / "graph.json").read_text())
    with open(out / "graph.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "weight"]
    W = np.zeros((meta["n"], meta["n"]))
    for i_s, j_s, w_s in rows[1:]:
        i, j = int(i_s), int(j_s)
        assert i < j
        W[i, j] = W[j, i] = float(w_s)
    assert np.array_equal(W, g.weights.toarray())
    assert np.array_equal(np.array(meta["scales"]), g.scales)
    assert meta["neighbors"] == g.neighbors


def test_default_run_confusion_files(default_run):
    report, out = default_run
    for method in ("spectral", "incres"):
        with open(out / f"confusion_{method}.json") as fh:
            payload = json.load(fh)
        counts = np.array(payload["counts"])
        assert counts.shape == (3, 3)
        assert counts.sum() == 144
        assert payload["purity"] == report["methods"][method]["purity"]
        assert sorted(payload["alignment"]) == [0, 1, 2]


def test_default_run_plot_geometry(default_run):
    _, out = default_run
    plots = out / "plots"
    spectrum = (plots / "spectrum.svg").read_text()
    assert spectrum.count("<circle") == 20
    embedding = (plots / "embedding.svg").read_text()
    assert embedding.count("<polyline") == 20
    for name in ("clusters.svg", "similarity.svg", "waveform.svg"):
        text = (plots / name).read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")


def test_default_run_is_reproducible(default_run, tmp_path):
    report, out = default_run
    again = tmp_path / "again"
    a = dict(report)
    b = dict(run_pipeline(PipelineConfig(out_dir=str(again))))
    # the output directory is echoed among the parameters and legitimately differs
    pa = dict(a.pop("parameters"))
    pb = dict(b.pop("parameters"))
    pa.pop("out_dir")
    pb.pop("out_dir")
    assert pa == pb
    assert a == b
    assert (out / "labels.csv").read_bytes() == (again / "labels.csv").read_bytes()


# ------------------------------------------------------------ configuration


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        PipelineConfig(k=1)
    with pytest.raises(ConfigError):
        PipelineConfig(k="three")
    with pytest.raises(ConfigError):
        PipelineConfig(method="fastest")
    with pytest.raises(ConfigError):
        PipelineConfig(window_len=6, overlap=0.35)
    with pytest.raises(ConfigError):
        PipelineConfig(neighbors=0)
    with pytest.raises(ConfigError):
        PipelineConfig(seed_rate=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(k_max=1)
    with pytest.raises(ConfigError):
        PipelineConfig(m=0)
    with pytest.raises(ConfigError):
        PipelineConfig(seed=-1)


@pytest.mark.parametrize(
    "bad",
    [
        '{"m": "1500"}',
        '{"seed_rate": NaN}',
        '{"overlap": Infinity}',
        '{"neighbors": true}',
        '{"k": 3.5}',
        '{"k": 3.0}',
        '{"k": true}',
        '{"k": "3"}',
        '{"smoothing_len": 2.5}',
        '{"manifest": 5}',
    ],
)
def test_cli_config_of_a_wrong_type_is_config_error(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(bad)
    out = tmp_path / "o"
    code = main(["--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "bad configuration" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written


@pytest.mark.parametrize("flag, field", [("--out", "out_dir"), ("--manifest", "manifest")])
def test_cli_empty_out_or_manifest_is_config_error(tmp_path, capsys, monkeypatch, flag, field):
    # an empty out directory would be the working directory, and a failed
    # run would then remove the files it wrote there
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="must not be empty"):
        PipelineConfig(**{field: ""})
    code = main([flag, ""])
    assert code == EXIT_CONFIG
    assert "must not be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_coerces_numbers_to_plain_types():
    # the report writes the parameters as JSON, which takes no numpy scalar
    cfg = PipelineConfig(m=np.int64(800), k=np.int32(3), overlap=0, seed_rate=np.float32(0.5))
    assert (cfg.m, cfg.k, cfg.overlap, cfg.seed_rate) == (800, 3, 0.0, 0.5)
    assert [type(v) for v in (cfg.m, cfg.k, cfg.overlap, cfg.seed_rate)] == [int, int, float, float]
    json.dumps(dataclasses.asdict(cfg))


def test_cli_m_above_half_the_window_fails_before_any_stage(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["--m", "3001", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "[1, 3000]" in capsys.readouterr().err
    assert not out.exists()
    assert PipelineConfig(m=3000).m == 3000


def test_cli_smoothing_wider_than_m_fails_before_any_stage(tmp_path, capsys):
    # a moving mean wider than the row would return more columns than m
    out = tmp_path / "wide"
    code = main(["--smoothing", "1501", "--method", "spectral", "--k", "3", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "smoothing_len 1501" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "narrow"
    code = main(["--smoothing", "1499", "--method", "spectral", "--k", "3", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["n_coefficients"] == 1500


@pytest.mark.parametrize(
    "flags, holder, message",
    [
        (["--iterations", "0"], lambda: IncresConfig(iterations=0), "iterations must be positive"),
        (["--seed-rate", "0"], lambda: IncresConfig(seed_rate=0.0), "seed_rate must be positive"),
        (["--restarts", "0"], lambda: KmeansConfig(restarts=0), "restarts must be positive"),
        (["--m", "4000"], lambda: WindowingConfig(m=4000), "m must lie in [1, 3000]"),
        (["--smoothing", "1501"], lambda: WindowingConfig(smoothing_len=1501), "smoothing_len 1501"),
        (["--seed", "-1"], lambda: PipelineConfig(seed=-1), "seed must be nonnegative"),
    ],
    ids=["iterations", "seed-rate", "restarts", "m", "smoothing", "seed"],
)
def test_cli_limit_is_checked_by_the_type_that_holds_it(tmp_path, capsys, flags, holder, message):
    with pytest.raises(ValueError, match=re.escape(message)) as own:
        holder()
    out = tmp_path / "o"
    code = main([*flags, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: bad configuration: {own.value}\n"
    assert not out.exists()


def test_cli_window_longer_than_the_input_is_config_error(tmp_path, capsys, monkeypatch):
    # without a manifest the input's length is known before synthesis, so
    # nothing is synthesized or written
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the synthetic input was generated")

    monkeypatch.setattr("passby.pipeline.gen_vehicle_audio", no_synthesis)
    out = tmp_path / "o"
    code = main(["--window-len", "1000000", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "stage 'input' failed" in err and "864000 samples" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_cli_window_longer_than_a_manifest_input_is_config_error(tmp_path, capsys):
    # a manifest's length is known once its crops are read
    write_wav(AudioSignal(samples=np.zeros(3000), sample_rate=8000), tmp_path / "a.wav", "pcm16")
    write_manifest([ManifestEntry("a.wav", "car", 0.0, 0.25)], tmp_path / "m.csv")
    out = tmp_path / "o"
    code = main(["--manifest", str(tmp_path / "m.csv"), "--window-len", "4000", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "stage 'ingest' failed" in err and "2000 samples" in err


def test_config_from_file_merges_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 800, "neighbors": 10}))
    cfg = PipelineConfig.from_file(cfg_path, {"m": 600})
    assert cfg.m == 600  # explicit override wins
    assert cfg.neighbors == 10
    assert cfg.window_len == 6000  # untouched default


def test_config_from_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(array)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"window_size": 6000}))
    with pytest.raises(ConfigError, match="window_size"):
        PipelineConfig.from_file(unknown)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"method": "spectral"}\xff')
    with pytest.raises(ConfigError, match="cannot read config"):
        PipelineConfig.from_file(latin)


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(AudioIOError("x")) == EXIT_IO
    assert exit_code_for(OSError("x")) == EXIT_IO
    assert exit_code_for(ZeroNormError("x")) == EXIT_NUMERICAL
    assert exit_code_for(np.linalg.LinAlgError("x")) == EXIT_NUMERICAL
    assert exit_code_for(ValueError("x")) == EXIT_UNEXPECTED
    wrapped = StageError("graph", ZeroNormError("x"))
    wrapped.__cause__ = ZeroNormError("x")
    assert exit_code_for(wrapped) == EXIT_NUMERICAL


# -------------------------------------------------------------- failures


def test_missing_manifest_is_config_error(tmp_path):
    out = tmp_path / "out"
    cfg = PipelineConfig(manifest=str(tmp_path / "absent.csv"), out_dir=str(out))
    with pytest.raises(StageError) as excinfo:
        run_pipeline(cfg)
    assert excinfo.value.stage == "setup"
    assert exit_code_for(excinfo.value) == EXIT_CONFIG
    assert list(out.glob("**/*")) == []  # nothing was written


def test_manifest_that_is_a_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    out = tmp_path / "out"
    cfg = PipelineConfig(manifest=str(tmp_path / "adir"), out_dir=str(out))
    with pytest.raises(StageError, match="is not a file") as excinfo:
        run_pipeline(cfg)
    assert excinfo.value.stage == "setup"
    assert exit_code_for(excinfo.value) == EXIT_CONFIG
    assert main(["--manifest", str(tmp_path / "adir"), "--out", str(out)]) == EXIT_CONFIG
    assert "adir is not a file" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_with_missing_wav_fails_in_ingest(tmp_path):
    manifest = tmp_path / "m.csv"
    write_manifest([ManifestEntry("ghost.wav", "x", 0.0, 1.0)], manifest)
    cfg = PipelineConfig(manifest=str(manifest), out_dir=str(tmp_path / "out"))
    with pytest.raises(StageError) as excinfo:
        run_pipeline(cfg)
    assert excinfo.value.stage == "ingest"
    assert exit_code_for(excinfo.value) == EXIT_IO


def test_silent_audio_fails_numerically(tmp_path):
    # silence has zero energy in every retained coefficient, so the graph
    # stage cannot form cosine distances
    rate = 48000
    write_wav(AudioSignal(np.zeros(2 * rate), rate), tmp_path / "silence.wav")
    manifest = tmp_path / "m.csv"
    write_manifest([ManifestEntry("silence.wav", "hum", 0.0, 2.0)], manifest)
    cfg = PipelineConfig(manifest=str(manifest), out_dir=str(tmp_path / "out"), m=100)
    with pytest.raises(StageError) as excinfo:
        run_pipeline(cfg)
    assert excinfo.value.stage == "graph"
    assert exit_code_for(excinfo.value) == EXIT_NUMERICAL


def test_failed_run_discards_partial_artifacts(tmp_path, monkeypatch):
    def zero_norm(*args, **kwargs):
        raise ZeroNormError("a window has zero norm")

    # synthetic input is written first, then the graph stage fails
    monkeypatch.setattr("passby.pipeline.knn_graph", zero_norm)
    out = tmp_path / "out"
    with pytest.raises(StageError) as excinfo:
        run_pipeline(PipelineConfig(out_dir=str(out)))
    assert excinfo.value.stage == "graph"
    assert exit_code_for(excinfo.value) == EXIT_NUMERICAL
    assert not (out / "synthetic.wav").exists()
    assert not (out / "manifest.csv").exists()
    assert not (out / "labels.csv").exists()


def test_artifacts_failure_discards_everything_written(tmp_path, monkeypatch):
    out = tmp_path / "out"

    def broken_plots(*args, **kwargs):
        assert (out / "labels.csv").is_file() and (out / "graph.csv").is_file()
        raise RuntimeError("plotting broke")

    monkeypatch.setattr("passby.plots.emit_plots", broken_plots)
    with pytest.raises(StageError) as excinfo:
        run_pipeline(PipelineConfig(out_dir=str(out)))
    assert excinfo.value.stage == "artifacts"
    assert exit_code_for(excinfo.value) == EXIT_UNEXPECTED
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_failed_plot_write_discards_the_plots_already_written(tmp_path, monkeypatch):
    write_text = Path.write_text

    def failing_write_text(self, *args, **kwargs):
        if self.name == "clusters.svg":
            assert (self.parent / "spectrum.svg").is_file()
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "keep.txt").write_bytes(b"not the run's")
    before = sorted(tmp_path.rglob("*"))
    # a missing out directory, one with a missing parent, and one that holds a file
    for out in (tmp_path / "out", tmp_path / "o_fail" / "run", kept):
        with pytest.raises(StageError) as excinfo:
            run_pipeline(PipelineConfig(out_dir=str(out)))
        assert excinfo.value.stage == "artifacts"
        assert exit_code_for(excinfo.value) == EXIT_IO
        assert sorted(tmp_path.rglob("*")) == before


def test_emit_plots_hands_every_plot_to_write_and_returns_its_results():
    written = []

    def write(name, text):
        assert text.startswith("<svg ")
        written.append(name)
        return f"path of {name}"

    rng = np.random.default_rng(0)
    returned = plots.emit_plots(
        write,
        np.array([0.0, 0.5, 1.0]),
        rng.standard_normal((6, 3)),
        np.array([0, 0, 1, 1, 2, 2]),
        ["a", "a", "b", "b", "c", "c"],
        sparse.csr_array(np.ones((6, 6)) - np.eye(6)),
    )
    assert written == [
        "plots/spectrum.svg",
        "plots/embedding.svg",
        "plots/clusters.svg",
        "plots/similarity.svg",
    ]
    assert returned == [f"path of {name}" for name in written]


def test_composite_is_freed_before_the_graph_is_built(tmp_path, monkeypatch):
    # after the features stage nothing reads the samples
    from passby import pipeline

    crops = []
    assemble, build = pipeline.assemble_composite, pipeline.knn_graph

    def tracked_assemble(*args, **kwargs):
        recording, spans = assemble(*args, **kwargs)
        crops.extend(weakref.ref(crop) for crop in recording.crops)
        return recording, spans

    def checked_build(*args, **kwargs):
        assert crops and all(crop() is None for crop in crops)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "assemble_composite", tracked_assemble)
    monkeypatch.setattr(pipeline, "knn_graph", checked_build)
    report = run_pipeline(PipelineConfig(out_dir=str(tmp_path / "out"), method="spectral", k=3))
    assert report["duration_s"] == 18.0
    assert (tmp_path / "out" / "plots" / "waveform.svg").is_file()


def test_waveform_is_rendered_after_the_graph_is_built(tmp_path, monkeypatch):
    # the artifacts stage renders it; the features stage only computes the envelope
    from passby import pipeline

    calls = []
    build, render = pipeline.knn_graph, plots.waveform_svg

    def logged(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(pipeline, "knn_graph", logged("knn_graph", build))
    monkeypatch.setattr(plots, "waveform_svg", logged("waveform_svg", render))
    run_pipeline(PipelineConfig(out_dir=str(tmp_path / "out"), method="spectral", k=3))
    assert calls == ["knn_graph", "waveform_svg"]


@pytest.mark.parametrize("method", ["both", "spectral", "incres", "incres-embedding"])
def test_a_run_labels_the_graph_components_once(tmp_path, monkeypatch, method):
    # the graph holds its components; the eigensolver and each reseeding run read them
    from passby import graph, incres, spectral

    calls = []
    labels = graph.component_labels

    def counted(adjacency):
        calls.append(adjacency.shape)
        return labels(adjacency)

    for module in (graph, spectral, incres):
        if hasattr(module, "component_labels"):
            monkeypatch.setattr(module, "component_labels", counted)
    run_pipeline(PipelineConfig(out_dir=str(tmp_path / "out"), method=method, k=3, iterations=20))
    assert calls == [(144, 144)]


def test_interrupt_discards_artifacts_and_propagates(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("passby.pipeline.knn_graph", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(PipelineConfig(out_dir=str(out)))
    assert not (out / "synthetic.wav").exists()
    assert not (out / "manifest.csv").exists()


# ------------------------------------------------------------------- CLI


def test_cli_spectral_run(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["--out", str(out), "--method", "spectral", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "windows: 144 x 1500 coefficients" in captured.out
    assert "k: used 3" in captured.out
    assert "spectral: purity" in captured.out
    assert (out / "labels.csv").is_file()
    assert (out / "confusion_spectral.json").is_file()
    assert not (out / "confusion_incres.json").exists()
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["primary_method"] == "spectral"
    assert report["k"]["requested"] == 3


def test_cli_more_than_eight_clusters(tmp_path, capsys):
    # label alignment above 8 labels takes the assignment solver, not a late failure
    out = tmp_path / "k9"
    code = main(["--out", str(out), "--method", "spectral", "--k", "9"])
    assert code == 0, capsys.readouterr().err
    with open(out / "report.json") as fh:
        report = json.load(fh)
    alignment = report["methods"]["spectral"]["alignment"]
    assert len(alignment) == 9
    assert sorted(a for a in alignment if a >= 0) == [0, 1, 2]


@pytest.mark.parametrize("flags", [["--knn", "144"], ["--k", "145"], ["--k-max", "144"]])
def test_cli_limits_set_by_the_window_count_are_config_errors(tmp_path, capsys, monkeypatch, flags):
    # checked with the window length, before the synthetic input is made
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the synthetic input was generated")

    monkeypatch.setattr("passby.pipeline.gen_vehicle_audio", no_synthesis)
    out = tmp_path / "o"
    code = main([*flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "stage 'input' failed" in err and "144 windows" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_cli_limits_set_by_a_manifest_window_count_are_config_errors(tmp_path, capsys):
    # a manifest's window count is known once its crops are read, before the features
    write_wav(AudioSignal(samples=np.zeros(8000), sample_rate=8000), tmp_path / "a.wav", "pcm16")
    write_manifest([ManifestEntry("a.wav", "car", 0.0, 1.0)], tmp_path / "m.csv")
    out = tmp_path / "o"
    flags = ["--window-len", "1000", "--m", "100", "--knn", "8"]
    code = main(["--manifest", str(tmp_path / "m.csv"), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "stage 'ingest' failed" in err and "8 windows" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_cli_k_above_twenty_clusters(tmp_path, capsys):
    # the eigensolve keeps at least k pairs, so k-means has columns 1..k-1
    out = tmp_path / "k25"
    code = main(["--out", str(out), "--k", "25"])
    assert code == 0, capsys.readouterr().err
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["k"]["used"] == 25
    assert len(report["spectrum"]) == 25
    assert max(report["methods"]["spectral"]["labels"]) == 24


def test_cli_flags_are_config_fields():
    dests = set(vars(build_parser().parse_args([]))) - {"config", "out"}
    assert dests <= {f.name for f in dataclasses.fields(PipelineConfig)}


def test_cli_missing_manifest_returns_config_code(tmp_path, capsys):
    code = main(["--manifest", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "error" in captured.err


def test_cli_bad_k_returns_config_code(tmp_path, capsys):
    code = main(["--k", "lots", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "must be an integer or 'auto'" in capsys.readouterr().err


def test_cli_io_failure_returns_io_code(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    write_manifest([ManifestEntry("ghost.wav", "x", 0.0, 1.0)], manifest)
    code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == EXIT_IO
    assert "stage 'ingest' failed" in captured.err


def test_cli_non_finite_audio_returns_io_code(tmp_path, capsys):
    rate = 48000
    samples = np.sin(np.linspace(0.0, 400.0, 2 * rate)).astype(np.float32)
    samples[rate] = np.nan
    wavfile.write(tmp_path / "nan.wav", rate, samples)
    manifest = tmp_path / "m.csv"
    write_manifest([ManifestEntry("nan.wav", "x", 0.0, 2.0)], manifest)
    code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == EXIT_IO
    assert "stage 'ingest' failed" in captured.err and "non-finite" in captured.err


@pytest.mark.parametrize("start, duration", [("nan", "2.0"), ("0.0", "inf"), ("-inf", "2.0")])
def test_cli_non_finite_manifest_number_returns_io_code(tmp_path, capsys, start, duration):
    write_wav(AudioSignal(np.sin(np.linspace(0.0, 400.0, 2 * 48000)), 48000), tmp_path / "a.wav")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,label,start_s,duration_s\na.wav,x,0.0,1.0\na.wav,y,{start},{duration}\n")
    out = tmp_path / "o"
    code = main(["--manifest", str(manifest), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "stage 'input' failed" in err and "m.csv:3" in err and "finite" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_cli_manifest_row_with_extra_fields_returns_io_code(tmp_path, capsys):
    write_wav(AudioSignal(np.sin(np.linspace(0.0, 400.0, 2 * 48000)), 48000), tmp_path / "a.wav")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,start_s,duration_s\na.wav,car,0.0,1.0\na.wav,truck,0.0,2.0,7\n")
    out = tmp_path / "o"
    code = main(["--manifest", str(manifest), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "stage 'input' failed" in err and "m.csv:3: bad row" in err and "['7']" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_cli_manifest_with_a_byte_order_mark(tmp_path, capsys, default_run):
    _, out = default_run
    # a spreadsheet saving "CSV UTF-8" starts the file with U+FEFF
    shutil.copy(out / "synthetic.wav", tmp_path)
    text = (out / "manifest.csv").read_text()
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbfpath,")
    for name in ("plain", "bom"):
        flags = ["--manifest", str(tmp_path / f"{name}.csv"), "--method", "spectral", "--k", "3"]
        code = main([*flags, "--out", str(tmp_path / name)])
        assert code == 0, capsys.readouterr().err
    labels = [(tmp_path / name / "labels.csv").read_bytes() for name in ("plain", "bom")]
    assert labels[0] == labels[1]


def test_cli_writes_utf8_text_under_an_ascii_locale(tmp_path):
    # labels beyond ASCII: the manifest is read as UTF-8, so every text file is written so too
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
    }
    script = (
        "import sys\n"
        "from passby.cli import main\n"
        "from passby.signal import ManifestEntry, write_manifest, write_wav\n"
        "from passby.synth import default_vehicle_bank, gen_vehicle_audio\n"
        "signal, _ = gen_vehicle_audio(default_vehicle_bank(), passages=(0, 1, 0, 1), rng_seed=0)\n"
        "write_wav(signal, 'clips.wav')\n"
        "labels = ('cami\\u00f3n', '\\u8eca') * 2\n"
        "entries = [ManifestEntry('clips.wav', label, 2.0 * i, 2.0) for i, label in enumerate(labels)]\n"
        "write_manifest(entries, 'm.csv')\n"
        "sys.exit(main(['--manifest', 'm.csv', '--out', 'out', '--method', 'spectral', '--k', '2']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert "cami\u00f3n" in (tmp_path / "m.csv").read_bytes().decode("utf-8")
    rows = list(csv.reader((tmp_path / "out" / "labels.csv").read_bytes().decode("utf-8").splitlines()))
    assert {row[3] for row in rows[1:]} == {"cami\u00f3n", "\u8eca"}


def test_cli_config_file_flow(tmp_path, capsys):
    out = tmp_path / "cfgrun"
    cfg_path = tmp_path / "cfg.json"
    # a spreadsheet or editor may save UTF-8 with a byte order mark
    cfg_path.write_text(json.dumps({"method": "spectral", "k": 3, "restarts": 5}), encoding="utf-8-sig")
    code = main(["--config", str(cfg_path), "--out", str(out), "--restarts", "8"])
    assert code == 0
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["parameters"]["method"] == "spectral"
    assert report["parameters"]["restarts"] == 8  # flag overrides the file
    latin = tmp_path / "latin.json"
    latin.write_bytes(json.dumps({"manifest": "caf\xe9.csv"}, ensure_ascii=False).encode("latin-1"))
    capsys.readouterr()
    assert main(["--config", str(latin), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


# ------------------------------------------------------------------ plots


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # they cost set-up time on every run; the Lanczos solver imports its
    # module only when a component is large enough to need it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, passby.cli; "
        "print([m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph', 'scipy.optimize') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_module_import_leaves_the_pipeline_unloaded():
    # the package holds no re-exports, so a module loads only what it imports
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for module, absent in [
        ("passby.graph", ("passby.pipeline", "passby.plots", "scipy.io")),
        ("passby.signal", ("passby.pipeline", "passby.plots")),
        ("passby.spectral", ("passby.pipeline", "passby.plots")),
    ]:
        probe = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", module


def test_heatmap_paints_extremes():
    svg = heatmap_svg(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert "rgb(0,0,0)" in svg
    assert "rgb(255,255,255)" in svg


def test_heatmap_merges_constant_runs():
    svg = heatmap_svg(np.ones((8, 8)))
    assert svg.count("<rect") == 1 + 8  # background plus one merged run per row

    checker = (np.indices((8, 8)).sum(axis=0) % 2).astype(float)
    assert heatmap_svg(checker).count("<rect") == 1 + 64  # nothing merges


def _heatmap_by_loop(weights):
    """Row-run heatmap painted one cell comparison at a time (reference)."""
    from passby.plots import MARGIN, WIDTH, _svg

    W = np.asarray(weights, dtype=np.float64)
    n = W.shape[0]
    side = WIDTH - 2 * MARGIN
    cell = side / n
    grey = np.clip(np.rint(W * 255.0), 0, 255).astype(int)
    body = ""
    for i in range(n):
        j = 0
        while j < n:
            g = grey[i, j]
            j2 = j
            while j2 + 1 < n and grey[i, j2 + 1] == g:
                j2 += 1
            x = MARGIN + j * cell
            y = MARGIN + i * cell
            w = (j2 - j + 1) * cell
            body += (
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w + 0.35:.2f}" height="{cell + 0.35:.2f}" '
                f'fill="rgb({g},{g},{g})"/>\n'
            )
            j = j2 + 1
    return _svg(body, width=WIDTH, height=side + 2 * MARGIN)


def test_heatmap_matches_loop_reference():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 7, 40):
        # few grey levels, so runs of every length occur
        W = rng.integers(0, 4, size=(n, n)) / 3.0
        W[n // 2] = W[n // 2, 0]  # a constant row
        W[-1] = 1.0
        assert heatmap_svg(W) == _heatmap_by_loop(W)
        assert heatmap_svg(np.full((n, n), 0.5)) == _heatmap_by_loop(np.full((n, n), 0.5))


def test_heatmap_of_csr_matches_loop_reference():
    # runs are found from the stored entries only; a stored weight that
    # rounds to grey 0 must merge with the unstored zeros around it
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 30):
        W = rng.choice([0.0, 1e-4, 0.5, 1.0], p=[0.7, 0.1, 0.1, 0.1], size=(n, n))
        W[0] = 0.0  # an empty row
        assert heatmap_svg(sparse.csr_array(W)) == _heatmap_by_loop(W)
    g = knn_graph(rng.normal(size=(60, 4)) + 2.0, neighbors=5)
    assert heatmap_svg(g.weights) == _heatmap_by_loop(g.weights.toarray())


def _max_pooled(weights, bins):
    """Dense b x b matrix of each bin pair's largest weight, one vertex at a time (reference)."""
    W = np.asarray(weights, dtype=np.float64)
    n = W.shape[0]
    bin_of = [i * bins // n for i in range(n)]
    rows = np.zeros((bins, n))
    for i in range(n):
        rows[bin_of[i]] = np.maximum(rows[bin_of[i]], W[i])
    pooled = np.zeros((bins, bins))
    for j in range(n):
        pooled[:, bin_of[j]] = np.maximum(pooled[:, bin_of[j]], rows[:, j])
    return pooled


def test_heatmap_pools_large_graphs_to_one_cell_per_pixel():
    rng = np.random.default_rng(5)
    for n, density in ((613, 0.01), (1500, 0.002)):
        W = sparse.random_array((n, n), density=density, rng=rng, format="csr")
        W.data = rng.choice([1e-4, 0.3, 0.6, 1.0], size=W.nnz)
        W = W.maximum(W.T)
        assert heatmap_svg(W) == _heatmap_by_loop(_max_pooled(W.toarray(), 612))


def test_heatmap_keeps_a_lone_edge_visible():
    n = 5000
    W = sparse.coo_array(([1.0, 1.0], ([1234, 4321], [4321, 1234])), shape=(n, n)).tocsr()
    svg = heatmap_svg(W)
    assert svg.count("<rect") == 1 + 612 + 2 * 2  # two rows of the 612 hold three runs
    # one-pixel cells: the edge lands in bins 4321*612//5000 = 528 and 1234*612//5000 = 151
    assert '<rect x="582.00" y="205.00" width="1.35" height="1.35" fill="rgb(255,255,255)"/>' in svg
    assert '<rect x="205.00" y="582.00" width="1.35" height="1.35" fill="rgb(255,255,255)"/>' in svg


def _embedding_by_loop(M):
    """One polyline per column, each point formatted on its own (reference)."""
    from passby.plots import HEIGHT, MARGIN, PALETTE, WIDTH, _axes, _scale, _svg

    n, p = M.shape
    lo, hi = float(M.min()), float(M.max())
    xs = _scale(np.arange(n, dtype=float), 0.0, float(max(1, n - 1)), MARGIN + 6, WIDTH - MARGIN - 6)
    body = _axes("window index", "coordinate")
    for j in range(p):
        ys = _scale(M[:, j], lo, hi, HEIGHT - MARGIN - 10, MARGIN + 10)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        body += f'<polyline points="{pts}" fill="none" stroke="{PALETTE[j % len(PALETTE)]}" stroke-width="1.5"/>\n'
    return _svg(body)


def _timeline_by_loop(clusters, truth):
    """Both bands' rects, every number formatted per window (reference)."""
    from passby.plots import HEIGHT, MARGIN, PALETTE, WIDTH, _axes, _scale, _svg

    n = len(clusters)
    colors = {}
    for name in truth:
        colors.setdefault(name, PALETTE[len(colors) % len(PALETTE)])
    xs = _scale(np.arange(n + 1, dtype=float), 0.0, float(n), MARGIN, WIDTH - MARGIN).tolist()
    body = _axes("window index", "")
    body += f'<text x="{MARGIN}" y="{MARGIN - 10}" font-size="13">top: true class, bottom: cluster</text>\n'
    band_h = (HEIGHT - 2 * MARGIN - 30) / 2
    for i in range(n):
        w = xs[i + 1] - xs[i]
        for y, fill in ((MARGIN, colors[truth[i]]), (MARGIN + band_h + 30, PALETTE[clusters[i] % len(PALETTE)])):
            body += (
                f'<rect x="{xs[i]:.2f}" y="{y:.2f}" width="{w + 0.2:.2f}" '
                f'height="{band_h:.2f}" fill="{fill}"/>\n'
            )
    return _svg(body)


@pytest.mark.parametrize("n", [1, 2, 7, 144, 2880])
def test_embedding_and_timeline_svgs_match_the_per_point_loops(n):
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, 20)) * 0.02
    clusters = rng.integers(0, 3, size=n)
    truth = [("car", "truck", "van")[t] for t in rng.integers(0, 3, size=n)]
    assert embedding_svg(M) == _embedding_by_loop(M)
    assert timeline_svg(clusters, truth) == _timeline_by_loop(clusters.tolist(), truth)


def test_timeline_uses_distinct_band_colors():
    svg = timeline_svg(np.array([0, 0, 1, 1]), ["a", "a", "b", "b"])
    assert svg.count("<rect") == 1 + 8  # background plus two bands of four
    assert "#4477aa" in svg and "#ee6677" in svg


def _envelope(samples, cuts=()):
    """The envelope stft_features keeps, with the samples arriving in pieces split at `cuts`."""
    env = _Envelope(samples.size)
    bounds = [0, *cuts, samples.size]
    for a, b in zip(bounds, bounds[1:]):
        if b > a:
            env.add(a, samples[a:b])
    return env.extremes


def test_waveform_svg_shape():
    rng = np.random.default_rng(0)
    svg = waveform_svg(_envelope(rng.normal(size=48000)))
    assert svg.count("<polygon") == 1
    assert 'fill="white"' in svg


def test_waveform_envelope_matches_loop_reference():
    rng = np.random.default_rng(2)
    for size in (1, 599, 600, 601, 10_000):
        samples = rng.normal(size=size) * rng.uniform(0.1, 2.0)
        for cuts in ((), (1,), sorted(rng.integers(0, size, size=9).tolist())):
            assert waveform_svg(_envelope(samples, cuts)) == waveform_by_loop(samples, 8000)
    assert waveform_svg(_envelope(np.zeros(50))) == waveform_by_loop(np.zeros(50), 8000)


def test_svgs_are_deterministic(default_run, tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=10000)
    assert waveform_svg(_envelope(samples)) == waveform_svg(_envelope(samples))
    vals = np.sort(rng.uniform(0, 2, size=20))
    from passby.plots import spectrum_svg

    assert spectrum_svg(vals) == spectrum_svg(vals)


# ------------------------------------------------- boundary-error regime


def test_flat_envelope_concentrates_errors_at_clip_edges():
    # with no envelope and stronger noise, window features at clip edges sit
    # closest to other vehicles' windows, so misclusterings pile up there
    bank = tuple(
        dataclasses.replace(spec, edge_level=0.0, broadband_level=0.10)
        for spec in default_vehicle_bank()
    )
    signal, spans = gen_vehicle_audio(bank, rng_seed=0)
    features = stft_features(signal, WindowingConfig())
    graph = knn_graph(features.values, neighbors=15)
    emb = eigendecompose(laplacian(graph), p=20)
    truth = np.repeat(np.arange(3), 16)
    truth = np.tile(truth, 3)
    per_clip = 16

    for labels in (
        spectral_cluster(emb, 3, KmeansConfig(seed=1)).partition.labels,
        incres_cluster(graph, 3, IncresConfig(rng_seed=2)).partition.labels,
    ):
        cm = confusion(truth, Partition(labels=labels, k=3))
        assignment = align_labels(cm)
        mapped = np.array([assignment[c] for c in labels])
        errors = np.flatnonzero(mapped != truth)
        assert errors.size >= 5  # this regime must actually produce mistakes
        position = errors % per_clip
        boundary = (position < 3) | (position >= per_clip - 3)
        assert boundary.mean() >= 0.8
        assert purity(cm) >= 0.7

"""Self-tests of the benchmark: smoke runs, a tampered output, and metric names.

The smoke runs take every workload's code path at 48 windows (cli-default
keeps its 144), so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def smoke():
    """Last-line results of `--smoke --workload all`, by trace flag and workload."""
    out = {}
    for trace in ("0", "1"):
        proc = _bench("--smoke", "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        out[trace] = dict(zip(sorted(workloads.WORKLOADS), results))
    return out


def test_smoke_runs_pass_their_gates(smoke):
    for trace, by_workload in smoke.items():
        assert sorted(by_workload) == sorted(workloads.WORKLOADS)
        for result in by_workload.values():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 2


def test_every_benchmark_json_metric_is_printed(smoke):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        for name, result in smoke[trace].items():
            for metric in SPEC[key]:
                printed = result["metrics"].get(metric["name"])
                assert printed is not None, f"{name} --trace {trace} lacks {metric['name']}"
                assert printed["unit"] == metric["unit"]
    for result in smoke["0"].values():
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reseeding_layer_is_traced_only_where_it_runs(smoke):
    per_layer = {name: {k: v["value"] for k, v in r["metrics"].items()} for name, r in smoke["1"].items()}
    assert per_layer["reseed-480"]["incres.capped_rounds"] > 0
    assert per_layer["spectral-2880"]["incres.rounds"] == 0
    spans = run.OUT / "smoke" / "trace" / "spectral-2880-s3" / "spans.jsonl"
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert "spectral.eigendecompose" in names
    assert not any(n.startswith("incres.") for n in names)


def test_tampered_labels_fail_the_gate_and_count(monkeypatch):
    real = measure._spawn_and_reap
    cli_runs = []

    def tamper_second_run(args, env, log):
        outcome = real(args, env, log)
        if "passby.cli" in args:
            cli_runs.append(args)
            if len(cli_runs) == 2:
                out_dir = Path(args[args.index("--out") + 1])
                labels = out_dir / "labels.csv"
                lines = labels.read_text().splitlines(keepends=True)
                row = lines[1].split(",")
                row[2] = str((int(row[2]) + 1) % 3)
                lines[1] = ",".join(row)
                labels.write_text("".join(lines))
        return outcome

    monkeypatch.setattr(measure, "_spawn_and_reap", tamper_second_run)
    record = run.run_workload("cli-default", 7, 0.0, trace=False, smoke=True)
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert record["problems"] == ["labels.csv differs from the first invocation"]


def test_gate_rejects_a_purity_below_the_floor(tmp_path):
    workload = workloads.SMOKE["spectral-2880"]
    report = {
        "k": {"used": 3},
        "n_windows": workload.n_windows,
        "methods": {"spectral": {"purity": 0.5}},
    }
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "labels.csv").write_text("window_index,start_s,cluster,true_label\n")
    problems, _ = measure.gate(tmp_path, workload, None)
    assert problems == [f"spectral purity 0.5000 < {measure.PURITY_FLOORS['spectral']}"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cli-default", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_instrumented_restores_the_pipeline_functions():
    from passby import graph, pipeline

    from tracing import WRAPPED, Tracer, instrumented

    modules = {"pipeline": pipeline, "graph": graph, "plots": pipeline.plots}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in WRAPPED}
    with instrumented(Tracer("t")):
        assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())

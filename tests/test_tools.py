"""The scripts under tools/: their command lines and summaries, and one end-to-end comparison."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["cli-default", "reseed-480", "spectral-2880"]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def same_outputs():
    return _load("same_outputs")


@pytest.fixture(scope="module")
def ab_bench():
    return _load("ab_bench")


def test_same_outputs_selects_runs_by_name_or_pattern_in_the_order_of_its_table(same_outputs):
    opts, runs, extra = same_outputs.parse(["old", "new"])
    assert (opts.old, opts.new, runs, extra) == (Path("old"), Path("new"), list(same_outputs.RUNS), [])
    assert len(runs) == 50 and same_outputs.RUNS["spectral-2880-seed31"] == ("spectral-2880", 31, [])
    _, runs, extra = same_outputs.parse(
        ["old", "new", "spectral-2880-*", "cli-default-seed[0-1]", "--", "--overlap", "0.5", "--seed", "9"]
    )
    assert runs == ["cli-default-seed0", "cli-default-seed1", *(f"spectral-2880-seed{s}" for s in (1, 7, 31))]
    assert extra == ["--overlap", "0.5", "--seed", "9"]


@pytest.mark.parametrize("pattern", ["nowhere", "cli-default-seed41", "reseed-480-seed2"])
def test_same_outputs_rejects_a_run_that_matches_nothing_before_any_run(same_outputs, pattern, capsys):
    with pytest.raises(SystemExit) as exit:
        same_outputs.parse(["old", "new", "cli-default-seed0", pattern])
    assert exit.value.code == 2
    assert f"no run matches {pattern!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # the runs are named; there is no workload-and-seed grammar
        same_outputs.parse(["old", "new", "--workload", "cli-default", "--seed", "1"])


def test_ab_bench_defaults_to_seed_1_and_the_workload_as_label(ab_bench):
    opts = ab_bench.parse(["old", "new", "--workload", "cli-default", "--pairs", "10"], WORKLOADS)
    assert (opts.old, opts.new, opts.workload, opts.pairs) == (Path("old"), Path("new"), "cli-default", 10)
    assert (opts.seed, opts.label) == (1, "cli-default")
    opts = ab_bench.parse(["old", "new", "--workload", "spectral-2880", "--pairs", "2", "--label", "x.1"], WORKLOADS)
    assert opts.label == "x.1"


@pytest.mark.parametrize(
    "flags",
    [
        "old --workload cli-default --pairs 10",  # no NEW_SRC
        "old new --same --workload cli-default --pairs 10",  # no such flag
        "old new --workload cli-default --pairs 1",
        "old new --workload nowhere --pairs 10",
        "old new --pairs 10",
        "old new --workload cli-default --pairs 10 --label ../up",
    ],
)
def test_ab_bench_rejects_a_bad_command_line(ab_bench, flags):
    with pytest.raises(SystemExit):
        ab_bench.parse(flags.split(), WORKLOADS)


def test_ab_bench_runs_the_old_tree_first_in_the_first_half_of_the_pairs(ab_bench):
    assert [ab_bench.first_side(i, 4) for i in range(4)] == ["old", "old", "new", "new"]
    assert [ab_bench.first_side(i, 5) for i in range(5)] == ["old", "old", "old", "new", "new"]


def test_ab_bench_verdict_needs_a_shift_beyond_the_old_quartiles(ab_bench):
    old = [1.0, 1.1, 1.2, 1.3, 1.4]  # quartiles 1.05 and 1.35
    lower = ab_bench.compare(old, [0.5, 0.6, 0.7, 0.8, 0.9], "lower")
    assert lower["verdict"] == "lower" and lower["new_wins"] == 5
    assert lower["old_quartiles"] == pytest.approx([1.05, 1.35])
    assert ab_bench.compare(old, [1.1, 1.0, 1.3, 1.2, 1.4], "lower")["verdict"] == "unresolved"
    higher = ab_bench.compare(old, [1.6, 1.7, 1.8, 1.9, 2.0], "higher")
    assert higher["verdict"] == "higher" and higher["new_wins"] == 5  # purity: higher wins
    assert ab_bench.compare([1.0] * 4, [1.0] * 4, "higher")["new_wins"] == 0  # ties count for neither


def test_ab_bench_side_takes_medians_of_its_passing_invocations_and_its_lowest_purity(ab_bench):
    def run(run_s, purity, problems=()):
        return SimpleNamespace(
            run_s=run_s, cpu_s=2 * run_s, peak_rss_mb=100 + run_s, purity=purity, problems=list(problems)
        )

    runs = [
        run(1.0, {"spectral": 1.0}),
        run(9.0, {"spectral": 0.1}, ["exit code 1"]),  # left out
        run(3.0, {"spectral": 0.97, "incres": 0.99}),
        run(2.0, {"spectral": 1.0}),
    ]
    values = ab_bench.side_metrics(runs, [0.5, 0.4, 0.9])
    assert values == {"run_s": 2.0, "setup_s": 0.5, "cpu_s": 4.0, "peak_rss_mb": 102.0, "purity": 0.97}
    assert ab_bench.side_metrics([runs[1]], [0.5])["run_s"] == 9.0  # none passed: every invocation


def _same_outputs(old, new, root):
    command = [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(old), str(new), "cli-default-seed0"]
    return subprocess.run(command + ["--root", str(root)], capture_output=True, text=True, timeout=300)


def test_same_outputs_tells_a_tree_from_itself_and_from_a_changed_copy(tmp_path):
    src = ROOT / "src"
    run = _same_outputs(src, src, tmp_path / "root")
    assert (run.returncode, run.stdout) == (0, "cli-default-seed0: same\n"), run.stderr
    changed = tmp_path / "changed"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    plots = changed / "passby" / "plots.py"
    text = plots.read_text()
    assert 'PALETTE = (\n    "#4477aa",' in text
    plots.write_text(text.replace('PALETTE = (\n    "#4477aa",', 'PALETTE = (\n    "#4477ab",'))
    run = _same_outputs(src, changed, tmp_path / "root")
    assert run.returncode == 1, run.stderr
    assert run.stdout.startswith("cli-default-seed0: DIFFERENT: ")
    assert "plots/clusters.svg" in run.stdout

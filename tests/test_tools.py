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


def _pairs(module, flags=""):
    return module.parse(["old", "new", *flags.split()], WORKLOADS)[1]


def test_same_outputs_runs_every_workload_at_seed_1_by_default(same_outputs):
    assert _pairs(same_outputs) == [(name, [1]) for name in WORKLOADS]


def test_same_outputs_gives_each_seed_to_the_workload_before_it(same_outputs):
    pairs = _pairs(same_outputs, "--workload cli-default --seed 0-2 --workload spectral-2880 --seed 1")
    assert pairs == [("cli-default", [0, 1, 2]), ("spectral-2880", [1])]


def test_same_outputs_gives_leading_seeds_to_every_workload(same_outputs):
    pairs = _pairs(same_outputs, "--seed 1 --seed 7 --workload reseed-480 --workload spectral-2880")
    assert pairs == [("reseed-480", [1, 7]), ("spectral-2880", [1, 7])]
    assert _pairs(same_outputs, "--seed 0-40") == [(name, list(range(41))) for name in WORKLOADS]
    assert _pairs(same_outputs, "--seed 3 --workload cli-default --seed 5") == [("cli-default", [3, 5])]


def test_same_outputs_runs_seed_1_for_a_workload_without_seeds(same_outputs):
    pairs = _pairs(same_outputs, "--workload reseed-480 --workload cli-default --seed 4")
    assert pairs == [("reseed-480", [1]), ("cli-default", [4])]


def test_same_outputs_passes_what_follows_the_separator_to_passby(same_outputs):
    opts, pairs, extra = same_outputs.parse(
        ["old", "new", "--workload", "cli-default", "--", "--overlap", "0.5", "--seed", "9"], WORKLOADS
    )
    assert (opts.old, opts.new) == (Path("old"), Path("new"))
    assert pairs == [("cli-default", [1])]
    assert extra == ["--overlap", "0.5", "--seed", "9"]


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
    command = [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(old), str(new)]
    flags = ["--workload", "cli-default", "--seed", "0", "--root", str(root)]
    return subprocess.run(command + flags, capture_output=True, text=True, timeout=300)


def test_same_outputs_tells_a_tree_from_itself_and_from_a_changed_copy(tmp_path):
    src = ROOT / "src"
    run = _same_outputs(src, src, tmp_path / "root")
    assert (run.returncode, run.stdout) == (0, "cli-default seed 0: same\n"), run.stderr
    changed = tmp_path / "changed"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    plots = changed / "passby" / "plots.py"
    text = plots.read_text()
    assert 'PALETTE = (\n    "#4477aa",' in text
    plots.write_text(text.replace('PALETTE = (\n    "#4477aa",', 'PALETTE = (\n    "#4477ab",'))
    run = _same_outputs(src, changed, tmp_path / "root")
    assert run.returncode == 1, run.stderr
    assert run.stdout.startswith("cli-default seed 0: DIFFERENT: ")
    assert "plots/clusters.svg" in run.stdout

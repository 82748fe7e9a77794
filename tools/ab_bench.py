"""Paired runs of two passby source trees on one benchmark workload, written to BENCH_<label>.json.

    python3 tools/ab_bench.py OLD_SRC NEW_SRC --workload W --pairs N [--seed S] [--label L]

Each pair times both trees on the same inputs, one side after the other:
the first half of the pairs run OLD_SRC first (ABAB...), the rest NEW_SRC
first (...BABA), so a drift in machine speed falls on both sides.  A side
is one closed loop of bench/measure.py, as bench/run.py runs it: passby
invocations for BENCHMARK.json's `run_seconds`, at least three of them,
each after three fresh interpreters time `import passby.cli`.  A side's
`run_s`, `cpu_s` and `peak_rss_mb` are the medians over its passing
invocations (from each child's os.wait4), `setup_s` the median of its
set-up samples, and `purity` the lowest one in their report.json files.
Each loop checks that its invocations write the same labels.csv and
report.json minus timings, and each side's later loops must write what
its first did.  W's inputs are generated once, with OLD_SRC, in a child
process, so this process never loads numpy and its own RSS never reaches
a child's `ru_maxrss`.  OLD_SRC given twice is the A/A set that shows each
metric's noise.

For each end-to-end metric of BENCHMARK.json, with the unit and direction
listed there, the file holds both medians over the pairs, the quartiles of
OLD_SRC's pairs, the pairs NEW_SRC won (ties count for neither side) and a
verdict: "lower" or "higher" when the medians differ by more than
OLD_SRC's interquartile range, else "unresolved".  It also holds every
invocation and each tree's numpy, scipy and BLAS thread counts, read in a
child started as the timed ones are.  Pairs with a failed invocation, or
with outputs that differ from the side's first loop, are left out of the
metrics; the exit code is 1 when there is any.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a side's loop, as bench/run.py runs one; its imports would load numpy here
MIN_INVOCATIONS = 3
SETUP_PER_INVOCATION = 3
# the versions and BLAS thread counts of a child that loads passby as the timed ones do
TREE_PROBE = """
import json, sys
import passby.cli
import numpy, scipy, scipy.linalg  # scipy.linalg loads scipy's own OpenBLAS
from passby.threads import _openblas
counts = sorted(get() for get, _ in _openblas().values())
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": counts}))
"""
# generates (or finds cached) the workload's inputs: argv is bench/, the tree, workload, seed, root
PREPARE = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS, prepare
prepare(WORKLOADS[sys.argv[3]], int(sys.argv[4]), Path(sys.argv[5]))
"""


def parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--label", help="BENCH_<label>.json; default: the workload")
    p.add_argument("--root", type=Path, default=ROOT / ".bench_out" / "ab_bench")
    opts = p.parse_args(argv)
    if opts.pairs < 2:
        p.error("--pairs must be at least 2, so the quartiles exist")
    opts.label = opts.label or opts.workload
    if not re.fullmatch(r"[\w.-]+", opts.label):
        p.error(f"--label may hold letters, digits, '.', '_' and '-' only, got {opts.label!r}")
    return opts


def first_side(pair: int, pairs: int) -> str:
    """The side that runs first in pair `pair` (0-based) of `pairs`."""
    return "old" if pair < (pairs + 1) // 2 else "new"


def compare(old: list[float], new: list[float], better: str) -> dict:
    """Medians, OLD's quartiles, NEW's wins over the pairs, and the verdict."""
    q1, _, q3 = statistics.quantiles(old, n=4)
    old_median, new_median = statistics.median(old), statistics.median(new)
    wins = sum(b < a if better == "lower" else b > a for a, b in zip(old, new))
    shift = new_median - old_median
    verdict = "unresolved" if abs(shift) <= q3 - q1 else ("lower" if shift < 0 else "higher")
    return {
        "old_median": old_median,
        "new_median": new_median,
        "old_quartiles": [q1, q3],
        "new_wins": wins,
        "pairs": len(old),
        "verdict": verdict,
    }


def side_metrics(runs: list, setup: list[float]) -> dict:
    """A side's metrics: medians over its passing invocations (all, if none passed) and set-up samples, and its lowest purity."""
    ok = [r for r in runs if not r.problems] or runs
    return {
        "run_s": statistics.median(r.run_s for r in ok),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r.cpu_s for r in ok),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        "purity": min(min(r.purity.values(), default=0.0) for r in ok),
    }


def _tree_name(src: Path) -> str:
    """The tree's path inside this repository, else its last two path parts."""
    src = src.resolve()
    try:
        return str(src.relative_to(ROOT))
    except ValueError:
        return str(Path(src.parent.name) / src.name)


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import measure
    from workloads import WORKLOADS, prepare

    opts = parse(sys.argv[1:], list(WORKLOADS))
    workload = WORKLOADS[opts.workload]
    trees = {"old": opts.old.resolve(), "new": opts.new.resolve()}
    bench = [str(ROOT / "bench"), str(trees["old"])]
    subprocess.run([sys.executable, "-c", PREPARE, *bench, opts.workload, str(opts.seed), str(opts.root)], check=True)
    inputs = prepare(workload, opts.seed, opts.root)  # cached by now: loads no passby here

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    about, side_inputs, first_outputs = {}, {}, {}
    for side, src in trees.items():
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = subprocess.run([sys.executable, "-c", TREE_PROBE], env=env, capture_output=True, text=True)
        if probe.returncode != 0:
            raise SystemExit(f"{side} tree {src} does not load: {probe.stderr.strip()}")
        about[side] = {"src": _tree_name(src), **json.loads(probe.stdout)}
        side_inputs[side] = dataclasses.replace(inputs, out_dir=inputs.out_dir / side)
        side_inputs[side].out_dir.mkdir(parents=True, exist_ok=True)

    sides = []
    for pair in range(opts.pairs):
        order = ["old", "new"] if first_side(pair, opts.pairs) == "old" else ["new", "old"]
        for side in order:
            runs, setup = measure.invoke_loop(
                workload, side_inputs[side], opts.seed, trees[side], seconds, MIN_INVOCATIONS, SETUP_PER_INVOCATION
            )
            problems = [p for r in runs for p in r.problems]
            if not runs[-1].problems:
                outputs = measure.stable_outputs(side_inputs[side].out_dir)
                if first_outputs.setdefault(side, outputs) != outputs:
                    problems.append("labels.csv or report.json minus timings differs from the side's first loop")
            values = side_metrics(runs, setup)
            sides.append(
                {
                    "pair": pair,
                    "side": side,
                    "first": side == order[0],
                    **values,
                    "problems": problems,
                    "setup_samples": setup,
                    "invocations": [vars(r) for r in runs],
                }
            )
            failed = " FAILED" if problems else ""
            print(f"pair {pair + 1}/{opts.pairs} {side}: run_s median {values['run_s']:.3f} of {len(runs)}{failed}")

    by_pair = {(s["pair"], s["side"]): s for s in sides}
    clean = [p for p in range(opts.pairs) if not (by_pair[p, "old"]["problems"] or by_pair[p, "new"]["problems"])]
    metrics = {}
    if len(clean) >= 2:
        for metric in benchmark["end_to_end"]:
            name, better = metric["name"], metric["better"]
            old = [by_pair[p, "old"][name] for p in clean]
            new = [by_pair[p, "new"][name] for p in clean]
            metrics[name] = {"unit": metric["unit"], "better": better, **compare(old, new, better)}
    failed = {side: sum(1 for s in sides if s["side"] == side and s["problems"]) for side in trees}
    record = {
        "label": opts.label,
        "workload": opts.workload,
        "seed": opts.seed,
        "pairs": opts.pairs,
        "run_seconds": seconds,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
        "trees": about,
        "input_bytes": inputs.input_bytes,
        "metrics": metrics,
        "failed": failed,
        "sides": sides,
    }
    path = ROOT / f"BENCH_{opts.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{'metric':<12} {'old median':>11} {'new median':>11} {'old IQR':>19} {'wins':>6}  verdict")
    for name, m in metrics.items():
        q1, q3 = m["old_quartiles"]
        wins = f"{m['new_wins']}/{m['pairs']}"
        print(f"{name:<12} {m['old_median']:>11.4f} {m['new_median']:>11.4f} {q1:>9.4f}-{q3:<9.4f} {wins:>6}  {m['verdict']}")
    print(f"failed: old {failed['old']}, new {failed['new']} of {opts.pairs} each; wrote {path.relative_to(ROOT)}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

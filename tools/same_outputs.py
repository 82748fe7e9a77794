"""Check that two passby source trees write the same outputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [RUN ...] [-- FLAGS]

Each RUN names a run of RUNS, the runs a change must not move, or is a
shell-style pattern such as 'spectral-2880-*'; runs go in the order of
RUNS, and with no RUN every run goes.  FLAGS go to every passby command.
Inputs come from bench/workloads.py::prepare, cached under --root, so both
trees always read the same inputs, generated once for each (workload,
seed).  Every artifact of the two runs must be byte-identical, and so must
report.json without `timings` and `parameters.out_dir`, the exit code and
the console output (out directory masked).  Prints each difference and
exits 1 if there is any; a CSV or JSON file that differs only in its
numbers also gets the largest relative difference between them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fnmatch
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OPTIONS = ["--overlap", "0.5", "--taper", "hamming", "--smoothing", "5", "--method", "incres"]
RUNS = {  # run: (workload, seed, flags); tests/test_known_answers.py hashes each
    **{f"cli-default-seed{s}": ("cli-default", s, []) for s in range(41)},
    # seed 31 draws the recording of lowest spectral purity
    **{f"{w}-seed{s}": (w, s, []) for w in ("reseed-480", "spectral-2880") for s in (1, 7, 31)},
    # overlap, the Hamming taper, smoothing and incres alone
    **{f"options-cli-default-seed{s}": ("cli-default", s, OPTIONS) for s in range(3)},
}


def _run(src: Path, args: list[str], out: Path) -> tuple[int, str]:
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "passby.cli", *args], env=env, capture_output=True, text=True)
    return proc.returncode, (proc.stdout + proc.stderr).replace(str(out), "<out>")


def _report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("timings", None)
    report.get("parameters", {}).pop("out_dir", None)
    return report


def _comparable(path: Path) -> bytes:
    if path.name != "report.json":
        return path.read_bytes()
    return json.dumps(_report(path), sort_keys=True).encode()


def _leaves(path: Path) -> list | None:
    """A CSV file's cells, row ends marked, or a JSON file's keys and values, in order."""

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return cell

    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [number(cell) for row in csv.reader(fh) for cell in [*row, "\n"]]
    if path.suffix != ".json":
        return None
    out = []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                out.append(key)
                walk(node[key])
        elif isinstance(node, list):
            out.append(len(node))
            for item in node:
                walk(item)
        else:
            out.append(node)

    walk(_report(path) if path.name == "report.json" else json.loads(path.read_text()))
    return out


def _largest_relative_difference(a: Path, b: Path) -> float | None:
    """max |x - y| / max(|x|, |y|) over the numbers of two files that differ only in numbers."""
    x, y = _leaves(a), _leaves(b)
    if x is None or y is None or len(x) != len(y):
        return None
    worst = 0.0
    for p, q in zip(x, y):
        if p == q:
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (p, q)):
            return None
        worst = max(worst, abs(p - q) / max(abs(p), abs(q)))
    return worst


def parse(argv: list[str]) -> tuple[argparse.Namespace, list[str], list[str]]:
    """The options, the runs to make in the order of RUNS, and the FLAGS after `--`."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("patterns", nargs="*", metavar="RUN")
    p.add_argument("--root", type=Path, default=ROOT / ".bench_out" / "same_outputs")
    extra = []
    if "--" in argv:
        argv, extra = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    opts = p.parse_args(argv)
    for pattern in opts.patterns:
        if not fnmatch.filter(RUNS, pattern):
            p.error(f"no run matches {pattern!r}")
    patterns = opts.patterns or ["*"]
    return opts, [run for run in RUNS if any(fnmatch.fnmatchcase(run, pat) for pat in patterns)], extra


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, command, prepare

    opts, runs, extra = parse(sys.argv[1:])
    sys.path.insert(0, str(opts.old.resolve()))  # prepare generates missing inputs with OLD_SRC
    differences = 0
    for run in runs:
        name, seed, flags = RUNS[run]
        inputs = prepare(WORKLOADS[name], seed, opts.root)
        outs = []
        for side, src in (("old", opts.old), ("new", opts.new)):
            out = inputs.out_dir / side
            args = command(WORKLOADS[name], dataclasses.replace(inputs, out_dir=out), seed)
            outs.append((out, _run(src.resolve(), args + flags + extra, out)))
        (old_out, old_run), (new_out, new_run) = outs
        found = [] if old_run == new_run else ["exit code or console output"]
        files = {q.relative_to(o) for o in (old_out, new_out) for q in o.rglob("*") if q.is_file()}
        for rel in sorted(files):
            a, b = old_out / rel, new_out / rel
            if not (a.is_file() and b.is_file() and _comparable(a) == _comparable(b)):
                worst = _largest_relative_difference(a, b) if a.is_file() and b.is_file() else None
                found.append(str(rel) if worst is None else f"{rel} (largest relative difference {worst:.2g})")
        print(f"{run}: {'same' if not found else 'DIFFERENT: ' + ', '.join(found)}")
        differences += len(found)
    return 1 if differences else 0

if __name__ == "__main__":
    sys.exit(main())

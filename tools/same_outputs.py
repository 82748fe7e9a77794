"""Check that two passby source trees write the same outputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--workload W] [--seed N|A-B] [-- FLAGS]

--workload and --seed repeat, and --seed takes an inclusive range such as
0-40.  Each --seed belongs to the --workload before it; seeds given before
any --workload belong to every workload.  With no --workload every
workload runs, and a workload left without seeds runs seed 1.  FLAGS go to
every passby command.
Inputs come from bench/workloads.py::prepare, cached under --root and
generated with OLD_SRC.  Every artifact of the two runs must be
byte-identical, and so must report.json without `timings` and
`parameters.out_dir`, the exit code and the console output (out directory
masked).  Prints each difference and exits 1 if there is any; a CSV or
JSON file that differs only in its numbers also gets the largest relative
difference between them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def _seeds(text: str) -> list[int]:
    """One seed, or the inclusive range A-B."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def parse(
    argv: list[str], workloads: list[str]
) -> tuple[argparse.Namespace, list[tuple[str, list[int]]], list[str]]:
    """The options, the (workload, seeds) pairs to run in order, and the FLAGS after `--`."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    # one list in command-line order, so each seed can find its workload
    p.add_argument("--workload", dest="steps", action="append", type=lambda w: (w, None))
    p.add_argument("--seed", dest="steps", action="append", type=lambda s: (None, _seeds(s)))
    p.add_argument("--root", type=Path, default=ROOT / ".bench_out" / "same_outputs")
    extra = []
    if "--" in argv:
        argv, extra = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    opts = p.parse_args(argv)
    common: list[int] = []
    pairs: list[tuple[str, list[int]]] = []
    for workload, seeds in opts.steps or []:
        if workload is not None:
            pairs.append((workload, []))
        elif pairs:
            pairs[-1][1].extend(seeds)
        else:
            common.extend(seeds)
    pairs = pairs or [(name, []) for name in workloads]
    return opts, [(name, common + seeds or [1]) for name, seeds in pairs], extra


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, command, prepare

    opts, pairs, extra = parse(sys.argv[1:], list(WORKLOADS))
    sys.path.insert(0, str(opts.old.resolve()))  # inputs are generated with OLD_SRC
    differences = 0
    for name, seeds in pairs:
        for seed in seeds:
            inputs = prepare(WORKLOADS[name], seed, opts.root)
            runs = []
            for side, src in (("old", opts.old), ("new", opts.new)):
                out = inputs.out_dir / side
                args = command(WORKLOADS[name], dataclasses.replace(inputs, out_dir=out), seed)
                runs.append((out, _run(src.resolve(), args + extra, out)))
            (old_out, old_run), (new_out, new_run) = runs
            found = [] if old_run == new_run else ["exit code or console output"]
            files = {q.relative_to(o) for o in (old_out, new_out) for q in o.rglob("*") if q.is_file()}
            for rel in sorted(files):
                a, b = old_out / rel, new_out / rel
                if not (a.is_file() and b.is_file() and _comparable(a) == _comparable(b)):
                    worst = _largest_relative_difference(a, b) if a.is_file() and b.is_file() else None
                    found.append(str(rel) if worst is None else f"{rel} (largest relative difference {worst:.2g})")
            print(f"{name} seed {seed}: {'same' if not found else 'DIFFERENT: ' + ', '.join(found)}")
            differences += len(found)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

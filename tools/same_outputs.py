"""Check that two passby source trees write the same outputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--workload W] [--seed N] [-- FLAGS]

--workload and --seed repeat (default: every workload, seed 1); FLAGS go to
every passby command.  Inputs come from bench/workloads.py::prepare, cached
under --root and generated with OLD_SRC.  Every artifact of the two runs must
be byte-identical, and so must report.json without `timings` and
`parameters.out_dir`, the exit code and the console output (out directory
masked).  Prints each difference and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
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


def _comparable(path: Path) -> bytes:
    if path.name != "report.json":
        return path.read_bytes()
    report = json.loads(path.read_text())
    report.pop("timings", None)
    report.get("parameters", {}).pop("out_dir", None)
    return json.dumps(report, sort_keys=True).encode()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, action="append")
    p.add_argument("--root", type=Path, default=ROOT / ".bench_out" / "same_outputs")
    argv, extra = sys.argv[1:], []
    if "--" in argv:
        argv, extra = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    opts = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "bench"), str(opts.old.resolve())]
    from workloads import WORKLOADS, command, prepare

    differences = 0
    for name in opts.workload or list(WORKLOADS):
        for seed in opts.seed or [1]:
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
                    found.append(str(rel))
            print(f"{name} seed {seed}: {'same' if not found else 'DIFFERENT: ' + ', '.join(found)}")
            differences += len(found)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

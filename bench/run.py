"""passby benchmark: the real `passby` CLI on generated workloads, one process at a time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reseed-480 --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 1
    python3 bench/run.py --smoke --workload all --seconds 0 --trace 1   # tiny inputs

With --trace 0 it prints the end-to-end metrics (medians over the run's
invocations), with --trace 1 the per-layer metrics of a separate traced
pass, which calls passby's CLI entry point in process.  The last line of
stdout is one JSON object; the exit code is 1 when any correctness gate
failed and 2 when the checkout has no passby sources.
Inputs, outputs, spans and a full result record go under .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_INVOCATION = 3
# One reseed-480 invocation takes 8-18 s on a 2-vCPU VM, so a 22 s run would otherwise
# take the median of only two.
MIN_INVOCATIONS = 3

# bench/ is on sys.path as the script's directory
import measure  # noqa: E402
from tracing import Tracer, traced_pass  # noqa: E402
from workloads import SMOKE, WORKLOADS, prepare  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "purity": "ratio",  # lowest purity over the methods the workload runs
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "density")):
        return "ratio"
    return "count"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, read through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload_seed": seed,
    }


def _median_timings(runs: list[measure.Invocation]) -> dict[str, float]:
    keys = sorted({k for r in runs for k in r.timings})
    return {k: statistics.median(r.timings.get(k, 0.0) for r in runs) for k in keys}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; return the result record (metrics, counts, environment)."""
    workload = (SMOKE if smoke else WORKLOADS)[name]
    root = OUT / ("smoke" if smoke else "runs")
    env = environment(seed)
    inputs = prepare(workload, seed, root)
    inputs.out_dir.parent.mkdir(parents=True, exist_ok=True)
    runs, setup = measure.invoke_loop(
        workload, inputs, seed, SRC, seconds, 2 if smoke else MIN_INVOCATIONS, 1 if smoke else SETUP_PER_INVOCATION
    )
    ok = [r for r in runs if not r.problems] or runs
    samples = {
        "run_s": [r.run_s for r in ok],
        "setup_s": setup,
        "cpu_s": [r.cpu_s for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
        "purity": [min(r.purity.values(), default=0.0) for r in ok],
    }
    for method in workload.methods:
        samples[f"purity.{method}"] = [r.purity.get(method, 0.0) for r in ok]
    summaries = {k: measure.summary(v) for k, v in samples.items()}
    attempted = len(runs)
    failed = sum(1 for r in runs if r.problems)
    problems = [p for r in runs for p in r.problems]
    record = {
        "workload": name,
        "smoke": smoke,
        "environment": env,
        "inputs": {"gen_s": inputs.gen_s, "input_bytes": inputs.input_bytes, "cached": inputs.gen_s == 0.0},
        "end_to_end": summaries,
        "k_estimated": sorted({r.k_estimated for r in runs if r.k_estimated is not None}),
        "invocations": [vars(r) for r in runs],
    }
    metrics = {k: (summaries[k]["median"], unit) for k, unit in END_TO_END_UNITS.items()}

    if trace and not failed:  # the traced pass compares with the outputs of a passing run
        work = root / "trace" / f"{name}-s{seed}"
        tracer = Tracer(run_id=f"{name}-s{seed}")
        traced = traced_pass(workload, seed, inputs, work, tracer)
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        stages = _median_timings(ok)
        values = dict(traced["values"])
        for stage, secs in stages.items():
            values[f"pipeline.{stage}.s"] = secs
        values["pipeline.artifact_bytes"] = statistics.median(r.artifact_bytes for r in ok)
        values["pipeline.unaccounted_s"] = (
            summaries["run_s"]["median"] - summaries["setup_s"]["median"] - sum(stages.values())
        )
        metrics = {k: (v, per_layer_unit(k)) for k, v in values.items()}
        spans_path = work / "spans.jsonl"
        tracer.write(spans_path)
        record["per_layer"] = values
        record["trace"] = {"spans": str(spans_path.relative_to(ROOT))}

    record.update({"attempted": attempted, "failed": failed, "problems": problems})
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{'smoke-' if smoke else ''}{name}-s{seed}-trace{int(trace)}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    record["metrics"] = metrics
    return record


def _print_human(record: dict, trace: bool) -> None:
    attempted, failed = record["attempted"], record["failed"]
    env = record["environment"]
    print(f"== {record['workload']} (seed {env['workload_seed']}){' [smoke]' if record['smoke'] else ''}")
    print(
        f"env: commit {env['commit'][:12]}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, nproc {env['nproc']}, {env['blas']} threads {env['blas_threads']}"
    )
    gen = record["inputs"]
    print(f"inputs: {gen['input_bytes']} bytes, generated in {gen['gen_s']:.3f} s{' (cached)' if gen['cached'] else ''}")
    for name, s in record["end_to_end"].items():
        unit = END_TO_END_UNITS.get(name, "ratio")
        print(f"{name}: {s['median']:.6g} {unit} (p75 {s['p75']:.6g}, n={s['n']})")
    if trace:
        for name, (value, unit) in sorted(record["metrics"].items()):
            print(f"{name}: {value:.6g} {unit}")
    print(f"failure_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if record["k_estimated"]:
        print(f"k estimated: {record['k_estimated']}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="48-window inputs, two invocations, one timed import each"
    )
    args = parser.parse_args(argv)
    if not (SRC / "passby" / "cli.py").is_file():
        print(f"error: no passby sources under {SRC}; run from the root of a passby checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        _print_human(record, bool(args.trace))
        result = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
        }
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Known answers: the SHA-256 of every file a run writes, against tests/known_answers.json.

A change that moves an output byte fails here, naming the run and the file.
The runs are RUNS of tools/same_outputs.py, on inputs from
bench/workloads.py; `tools/same_outputs.py OLD_SRC NEW_SRC RUN` shows
which numbers of a failing run moved.  report.json is hashed without
`timings` and the two paths in `parameters`, which name temporary
directories.

The digests hold in the environment recorded with them: the numpy and scipy
versions, each loaded OpenBLAS's build and core, and numpy's detected CPU
features, which pick the float64 `np.sin` path the synthetic input is made
with.  Anywhere else every run skips, naming what differs.  A change that
moves outputs on purpose regenerates the file, in the recorded environment:

    PYTHONPATH=src python tests/test_known_answers.py
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from passby import threads
from passby.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))  # the benchmark's workloads, as tools/same_outputs.py reads them
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
KNOWN = Path(__file__).with_name("known_answers.json")
# the version string of an OpenBLAS build, by the symbol names threads._SYMBOLS lists
_CONFIG_SYMBOLS = [get.replace("num_threads", "config") for get, _ in threads._SYMBOLS]


def environment() -> dict:
    """What the digests depend on besides passby: library versions, BLAS builds, CPU features."""
    import scipy
    import scipy.sparse.linalg  # noqa: F401 - loads scipy's own OpenBLAS

    def config(path: str) -> str:
        lib = ctypes.CDLL(path)
        get = next(getattr(lib, name) for name in _CONFIG_SYMBOLS if hasattr(lib, name))
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode().strip()

    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted(config(path) for path in threads._openblas()),
        "cpu_features": sorted(name for name, on in umath.__cpu_features__.items() if on),
    }


def digests(run: str) -> dict[str, str]:
    """The SHA-256 of each file the run writes, by its path under the output directory."""
    name, seed, flags = same_outputs.RUNS[run]
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        manifest = None if workload.rounds is None else workloads.generate(workload, seed, inputs)
        assert main(workloads.command(workload, workloads.Inputs(manifest, out, 0.0, 0), seed) + flags) == 0
        found = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "report.json":
                report = json.loads(data)
                del report["timings"], report["parameters"]["out_dir"], report["parameters"]["manifest"]
                data = json.dumps(report, sort_keys=True).encode()
            found[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return found


@pytest.fixture(scope="module")
def known() -> dict[str, dict[str, str]]:
    recorded = json.loads(KNOWN.read_text())
    then, here = recorded["environment"], environment()
    differ = [f"{key} {then.get(key)} recorded, {here[key]} here" for key in here if here[key] != then.get(key)]
    if differ:
        pytest.skip("known answers hold in another environment: " + "; ".join(differ))
    return recorded["runs"]


@pytest.mark.parametrize("run", same_outputs.RUNS)
def test_run_writes_its_known_answer(known, run):
    expected, got = known[run], digests(run)
    moved = sorted(f for f in expected.keys() | got.keys() if expected.get(f) != got.get(f))
    assert not moved, f"{run}: {', '.join(moved)} differ from the known answers"


if __name__ == "__main__":
    known = {"environment": environment(), "runs": {run: digests(run) for run in same_outputs.RUNS}}
    KNOWN.write_text(json.dumps(known, indent=2) + "\n")
    print(f"wrote {KNOWN.relative_to(ROOT)}: {len(same_outputs.RUNS)} runs")

"""The command lines of the scripts under tools/, parsed without running them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["cli-default", "reseed-480", "spectral-2880"]


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

"""Benchmark workloads and their generated inputs.

Each workload is one `passby` command line.  Manifest workloads get their
clips from `gen_vehicle_audio(passages=(0, 1, 2) * r)` under the workload
seed, written as one PCM16 WAV per clip plus a manifest, cached per
(workload, seed) so that generation never runs inside a timed region.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# Passby modules are imported inside the functions that need them, so the
# harness can report a missing source tree instead of failing on import.

CLIP_S = 2.0
WINDOWS_PER_CLIP = 16  # 2 s clips at 48 kHz in 6000-sample windows
N_CLASSES = 3  # vehicles in the default bank; every workload drives all three past


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int | None  # clips = 3 * rounds; None: the CLI synthesizes its own input
    method: str
    k: str  # --k as passed to passby

    @property
    def n_windows(self) -> int:
        return 3 * (3 if self.rounds is None else self.rounds) * WINDOWS_PER_CLIP

    @property
    def methods(self) -> tuple[str, ...]:
        return ("spectral", "incres") if self.method == "both" else (self.method,)


# The manifest workloads fix --k 3.  Auto k picks a wrong count on some
# recordings (seeds 0-40 checked): 4 on 3 seeds at 480 windows, where a
# sub-split of one vehicle outgaps the three components, and 7 on 1 seed at
# 2880 windows, where spectral purity then falls to 0.91.  The estimate is
# still recorded for every invocation, and a fixed k keeps the work the
# same shape on every seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-default", None, "both", "auto"),
        Workload("reseed-480", 10, "incres-embedding", "3"),
        Workload("spectral-2880", 60, "spectral", "3"),
    )
}

# Tiny variants for the smoke mode: same code paths, 48 windows each.
SMOKE = {
    name: Workload(name, None if w.rounds is None else 1, w.method, w.k)
    for name, w in WORKLOADS.items()
}


@dataclass(frozen=True)
class Inputs:
    manifest: Path | None
    out_dir: Path
    gen_s: float  # seconds spent generating; 0.0 when taken from the cache
    input_bytes: int


def prepare(workload: Workload, seed: int, root: Path) -> Inputs:
    """Write the workload's clips and manifest under root, or reuse a cached set.

    The manifest path and the output directory depend only on (workload,
    seed, size), so every invocation of one run sees identical arguments and
    report.json stays byte-comparable.
    """
    tag = f"{workload.name}-n{workload.n_windows}-s{seed}"
    out_dir = root / "out" / tag
    if workload.rounds is None:
        return Inputs(None, out_dir, 0.0, 0)
    data_dir = root / "inputs" / tag
    done = data_dir / "done.json"
    if done.is_file():
        meta = json.loads(done.read_text())
        return Inputs(data_dir / "manifest.csv", out_dir, 0.0, meta["input_bytes"])
    start = time.perf_counter()
    manifest = generate(workload, seed, data_dir)
    input_bytes = sum(p.stat().st_size for p in data_dir.iterdir())
    done.write_text(json.dumps({"input_bytes": input_bytes}) + "\n")
    return Inputs(manifest, out_dir, time.perf_counter() - start, input_bytes)


def generate(workload: Workload, seed: int, data_dir: Path, span=lambda name: nullcontext()) -> Path:
    """Synthesize the workload's clips into data_dir; return the manifest path.

    `span(name)` wraps the synth and WAV-write calls, so the traced run can
    time the same generation.
    """
    from passby.signal import AudioSignal, ManifestEntry, write_manifest, write_wav
    from passby.synth import default_vehicle_bank, gen_vehicle_audio

    data_dir.mkdir(parents=True, exist_ok=True)
    with span("synth.gen_vehicle_audio"):
        composite, spans = gen_vehicle_audio(
            default_vehicle_bank(), passages=(0, 1, 2) * workload.rounds, rng_seed=seed
        )
    rate = composite.sample_rate
    clip_len = int(round(CLIP_S * rate))
    entries = []
    with span("signal.write_wav"):
        for i, label_span in enumerate(spans):
            name = f"clip{i:04d}.wav"
            clip = composite.samples[i * clip_len : (i + 1) * clip_len]
            write_wav(AudioSignal(samples=clip, sample_rate=rate), data_dir / name, "pcm16")
            entries.append(ManifestEntry(name, label_span.label, 0.0, CLIP_S))
    manifest = data_dir / "manifest.csv"
    write_manifest(entries, manifest)
    return manifest


def program_seed(workload: Workload, seed: int) -> int:
    """The --seed passby gets.

    Without a manifest it is the workload seed, because the CLI synthesizes
    its input from it.  With a manifest the workload seed has already drawn
    the recording, and passby keeps its default seed 0: the reseeding work
    depends on the program seed (5-14 s at 480 windows), so a varying one
    would hide a change behind that spread.
    """
    return seed if workload.rounds is None else 0


def command(workload: Workload, inputs: Inputs, seed: int) -> list[str]:
    """The passby arguments of one invocation (after the interpreter and module)."""
    args = ["--out", str(inputs.out_dir), "--seed", str(program_seed(workload, seed))]
    if inputs.manifest is not None:
        args += ["--manifest", str(inputs.manifest), "--method", workload.method, "--k", workload.k]
    return args

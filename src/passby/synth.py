"""Synthetic input: vehicle-like pass-by audio."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from . import threads
from .signal import AudioSignal, LabelSpan

SAMPLE_RATE = 48000
CLIP_S = 2.0  # seconds per pass-by clip
PASSES = 3  # times each vehicle drives by in the default passages
SYNTH_BLOCK_SAMPLES = 16384  # samples of a clip built at a time, in one scratch buffer


@dataclass(frozen=True)
class VehicleSpec:
    """One vehicle's acoustic signature: a harmonic stack over broadband noise.

    Each pass rises and falls over its clip as a squared sine, from
    `edge_level` at the clip's edges to 1.0 mid-clip.
    """

    name: str
    fundamental_hz: float
    harmonic_amps: tuple[float, ...]
    broadband_level: float = 0.06
    edge_level: float = 0.35
    amp_jitter: float = 0.05  # per-clip relative wobble of each harmonic

    def __post_init__(self) -> None:
        numbers = (
            self.fundamental_hz,
            *self.harmonic_amps,
            self.broadband_level,
            self.edge_level,
            self.amp_jitter,
        )
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError("every VehicleSpec number must be finite")
        if self.fundamental_hz <= 0.0:
            raise ValueError("fundamental_hz must be positive")
        if not self.harmonic_amps or any(a < 0 for a in self.harmonic_amps):
            raise ValueError("harmonic_amps must be nonempty and nonnegative")
        if max(self.harmonic_amps) == 0.0:
            raise ValueError("at least one harmonic must be audible")
        if self.broadband_level < 0.0 or self.amp_jitter < 0.0:
            raise ValueError("broadband_level and amp_jitter must be nonnegative")
        if not 0.0 <= self.edge_level <= 1.0:
            raise ValueError("edge_level must lie in [0, 1]")


def _scaled(amps: tuple[float, ...], total: float) -> tuple[float, ...]:
    s = sum(amps)
    return tuple(a * total / s for a in amps)


def default_vehicle_bank() -> tuple[VehicleSpec, ...]:
    """Three well-separated vehicles (fundamentals 30 / 45 / 70 Hz)."""
    return (
        VehicleSpec(
            name="truck",
            fundamental_hz=30.0,
            harmonic_amps=_scaled((1.0, 0.62, 0.81, 0.42, 0.55, 0.30, 0.35, 0.18, 0.20, 0.10), 0.75),
        ),
        VehicleSpec(
            name="sedan",
            fundamental_hz=45.0,
            harmonic_amps=_scaled((0.70, 1.0, 0.45, 0.65, 0.28, 0.40, 0.18, 0.22), 0.75),
        ),
        VehicleSpec(
            name="van",
            fundamental_hz=70.0,
            harmonic_amps=_scaled((1.0, 0.42, 0.78, 0.50, 0.30, 0.36, 0.16), 0.75),
        ),
    )


def gen_vehicle_audio(
    specs: tuple[VehicleSpec, ...],
    passages: tuple[int, ...] | None = None,
    *,
    rng_seed: int = 0,
    dtype: npt.DTypeLike = np.float64,
) -> tuple[AudioSignal, list[LabelSpan]]:
    """Concatenated `CLIP_S`-second pass-by clips at `SAMPLE_RATE`, plus their true label spans.

    `passages` lists which vehicle drives by in each clip; the default cycles
    through all vehicles `PASSES` times.  Fundamentals of distinct vehicles must
    differ by at least 15%.  Harmonics are enveloped per clip; broadband noise
    stays constant, so clip edges carry the weakest signatures.  Clips are
    built on one thread per CPU the process may run on; the samples do not
    depend on that count.

    The samples are computed in float64.  With `dtype=np.float32` each block
    is rounded into the float32 samples as it is finished, which gives the
    bytes of the float64 samples' `astype(np.float32)` without holding them.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("at least one vehicle is required")
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            fi, fj = specs[i].fundamental_hz, specs[j].fundamental_hz
            if abs(fi - fj) / min(fi, fj) < 0.15:
                raise ValueError(
                    f"fundamentals of {specs[i].name!r} and {specs[j].name!r} differ by under 15%"
                )
    if passages is None:
        passages = tuple(range(len(specs))) * PASSES
    if not passages:
        raise ValueError("at least one passage is required")
    if any(not 0 <= v < len(specs) for v in passages):
        raise ValueError("passages must index into specs")
    if np.dtype(dtype) not in (np.float64, np.float32):
        raise ValueError(f"dtype must be float64 or float32, got {np.dtype(dtype)}")
    n = int(round(CLIP_S * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    samples = np.empty(n * len(passages), dtype=dtype)
    # each clip owns its seed stream and its slice of `samples`, so the clips
    # build at once and their bytes do not depend on the worker count
    with ThreadPoolExecutor(max_workers=min(threads.available_cpus(), len(passages))) as pool:
        builds = [
            pool.submit(_build_clip, samples[idx * n : (idx + 1) * n], specs[v], idx, t, rng_seed)
            for idx, v in enumerate(passages)
        ]
    for build in builds:
        build.result()
    spans = [LabelSpan(specs[v].name, idx * CLIP_S, (idx + 1) * CLIP_S) for idx, v in enumerate(passages)]
    return AudioSignal(samples=samples, sample_rate=SAMPLE_RATE), spans


def _build_clip(
    x: npt.NDArray[np.float64] | npt.NDArray[np.float32],
    spec: VehicleSpec,
    idx: int,
    t: npt.NDArray[np.float64],
    rng_seed: int,
) -> None:
    """Write clip `idx` into `x`, `SYNTH_BLOCK_SAMPLES` samples at a time.

    Each sample is `sum_h (amp_h * wobble_h) * sin((2 pi f h) * t + phase_h)`
    over h in order, times the envelope, plus `broadband_level * noise`, with
    the operations grouped as in that formula, so the bytes match a whole-clip
    build.  The noise is drawn after every (wobble, phase) pair, block by
    block, which gives the values of one whole-clip draw.  Each block is
    summed in a second float64 scratch buffer, then written into `x`: copied
    into float64 samples, rounded into float32 ones as astype rounds.
    """
    # the middle 0 keeps the stream every clip has always drawn
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(rng_seed, 0, idx)))
    harmonics = []
    for h, amp in enumerate(spec.harmonic_amps, start=1):
        wobble = 1.0 + spec.amp_jitter * rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        harmonics.append((2.0 * np.pi * spec.fundamental_hz * h, phase, amp * wobble))
    scratch, sums = np.empty(SYNTH_BLOCK_SAMPLES), np.empty(SYNTH_BLOCK_SAMPLES)
    for start in range(0, x.size, SYNTH_BLOCK_SAMPLES):
        tb = t[start : start + SYNTH_BLOCK_SAMPLES]
        xb = sums[: tb.size]
        buf = scratch[: xb.size]
        xb.fill(0.0)
        for omega, phase, level in harmonics:
            np.multiply(omega, tb, out=buf)
            buf += phase
            np.sin(buf, out=buf)
            buf *= level
            xb += buf
        np.multiply(np.pi, tb, out=buf)
        buf /= CLIP_S
        np.sin(buf, out=buf)
        np.square(buf, out=buf)
        buf *= 1.0 - spec.edge_level
        buf += spec.edge_level
        xb *= buf
        rng.standard_normal(out=buf)
        buf *= spec.broadband_level
        xb += buf
        x[start : start + tb.size] = xb

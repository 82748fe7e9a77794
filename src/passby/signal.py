"""Audio ingestion, manifest crops, and short-time spectral features."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt
from scipy.io import wavfile


STFT_BLOCK_ROWS = 32  # windows transformed together in stft_features
WAVEFORM_COLUMNS = 600  # time columns of the min/max envelope stft_features keeps
TAPERS = ("box", "hamming")  # per-window tapers; "box" leaves the samples as they are
# integer PCM formats and the full scale each divides by; uint8 is offset by it
# first.  24-bit PCM arrives widened into the top bytes of int32, so one scale
# realizes v/2^23 for 24-bit data and v/2^31 for true 32-bit.
PCM_SCALES = {np.dtype(np.uint8): 128.0, np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}


class AudioIOError(Exception):
    """A file could not be read as audio at all."""


class UnsupportedEncodingError(AudioIOError):
    """WAV encoding outside PCM 8/16/24/32-bit integer or 32-bit float."""


class EmptyAudioError(AudioIOError):
    """A decoded file carried zero samples."""


class ManifestError(ValueError):
    """A composite manifest is malformed or inconsistent with its audio."""


@dataclass(frozen=True)
class AudioSignal:
    """Mono audio: float64 samples plus the sample rate that produced them."""

    samples: npt.NDArray[np.float64]
    sample_rate: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size == 0:
            raise EmptyAudioError("audio contains no samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class Recording:
    """A manifest's crops in order, each still in its file's own sample format.

    The recording is their concatenation once `_to_float` decodes them;
    `stft_features` decodes them a block of windows at a time, so the whole
    recording is never held as float64.
    """

    crops: tuple[np.ndarray, ...]
    sample_rate: int

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not self.crops:
            raise ValueError("a recording needs at least one crop")
        for crop in self.crops:
            if crop.ndim != 1 and crop.shape[1:] != (2,):
                raise ValueError(f"a crop must be mono or two-channel, got shape {crop.shape}")
            if crop.dtype not in PCM_SCALES and crop.dtype not in (np.float32, np.float64):
                raise ValueError(f"crop sample format {crop.dtype} not supported")

    @property
    def n_samples(self) -> int:
        return sum(crop.shape[0] for crop in self.crops)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class WindowingConfig:
    """How a signal is chopped into fixed-length analysis windows, and what each keeps.

    `overlap` is a fraction of the window length and must land on a whole
    number of samples.  Each window keeps its DFT bins 1..m, m at most half
    the window.  `smoothing_len` (odd, optional, at most m) switches on a
    moving mean over each window's coefficient row; edges use truncated averages.
    """

    window_len: int = 6000
    overlap: float = 0.0
    taper: str = "box"
    smoothing_len: int | None = None
    m: int = 1500

    def __post_init__(self) -> None:
        if self.window_len < 2:
            raise ValueError("window_len must be at least 2")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must lie in [0, 1)")
        step = self.window_len * (1.0 - self.overlap)
        if abs(step - round(step)) > 1e-9 or round(step) < 1:
            raise ValueError("overlap must leave a whole positive number of samples between window starts")
        if self.taper not in TAPERS:
            raise ValueError(f"unknown taper {self.taper!r}; expected {' or '.join(map(repr, TAPERS))}")
        if self.smoothing_len is not None:
            if self.smoothing_len < 1 or self.smoothing_len % 2 == 0:
                raise ValueError("smoothing_len must be an odd positive integer")
        if not 1 <= self.m <= self.window_len // 2:
            raise ValueError(f"m must lie in [1, {self.window_len // 2}], got {self.m}")
        if self.smoothing_len is not None and self.smoothing_len > self.m:
            raise ValueError(f"smoothing_len {self.smoothing_len} is wider than the {self.m} coefficients")

    @property
    def hop(self) -> int:
        """Samples between consecutive window starts."""
        return round(self.window_len * (1.0 - self.overlap))

    def n_windows(self, n_samples: int) -> int:
        """Whole windows in `n_samples` samples; a trailing partial window is dropped."""
        return (n_samples - self.window_len) // self.hop + 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-window magnitudes of DFT bins 1..m (bin 0 excluded), row per window.

    `envelope` holds the maximum (row 0) and minimum (row 1) sample of each
    of `WAVEFORM_COLUMNS` equal time columns of the whole signal; a column
    that holds no sample reads 0.
    """

    values: npt.NDArray[np.float64]
    start_times: npt.NDArray[np.float64]
    window_len: int
    sample_rate: int
    envelope: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "start_times", np.asarray(self.start_times, dtype=np.float64))
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if self.start_times.shape != (self.values.shape[0],):
            raise ValueError("start_times must hold one entry per window")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("feature values must be finite and nonnegative")

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]

    @property
    def n_coefficients(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ManifestEntry:
    """One clip reference: file, class label, and the crop to take from it."""

    path: str
    label: str
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.duration_s)):
            raise ManifestError(
                f"{self.path}: crop start {self.start_s} and duration {self.duration_s} must be finite"
            )


@dataclass(frozen=True)
class LabelSpan:
    """Half-open interval [start_s, end_s) of recording time carrying one label."""

    label: str
    start_s: float
    end_s: float


def _read_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """Read a WAV file's rate and raw samples, rejecting what cannot become audio.

    Unreadable files, unsupported encodings, and zero-length audio raise
    distinct exception types; non-finite float samples raise AudioIOError.
    """
    try:
        rate, data = wavfile.read(str(path))
    except ValueError as exc:
        raise UnsupportedEncodingError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise AudioIOError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise EmptyAudioError(f"{path}: file contains no samples")
    if data.ndim == 2 and data.shape[1] > 2:
        raise UnsupportedEncodingError(f"{path}: {data.shape[1]} channels; expected 1 or 2")
    if data.dtype == np.float32:
        if not np.isfinite(data).all():
            raise AudioIOError(f"{path}: non-finite (NaN or inf) samples")
    elif data.dtype not in PCM_SCALES:
        raise UnsupportedEncodingError(f"{path}: sample format {data.dtype} not supported")
    return int(rate), data


def _to_float(raw: np.ndarray, out: np.ndarray) -> None:
    """Write raw samples from `_read_wav` into `out` as mono float64.

    Integer PCM is scaled by 1/2^(bits-1); two channels are averaged to one.
    """
    if raw.ndim == 2:
        np.sum(raw, axis=1, dtype=np.float64, out=out)
        out /= raw.shape[1]
    else:
        out[...] = raw
    scale = PCM_SCALES.get(raw.dtype)
    if scale is not None:
        if raw.dtype == np.uint8:
            out -= scale
        out /= scale


def write_wav(signal: AudioSignal, path: str | Path, encoding: str = "float32") -> None:
    """Encode mono audio to WAV. float32 round-trips exactly; pcm16 quantizes."""
    if encoding == "float32":
        wavfile.write(str(path), signal.sample_rate, signal.samples.astype(np.float32))
    elif encoding == "pcm16":
        q = np.clip(np.round(signal.samples * 2.0**15), -(2.0**15), 2.0**15 - 1)
        wavfile.write(str(path), signal.sample_rate, q.astype(np.int16))
    else:
        raise ValueError(f"unknown encoding {encoding!r}; expected 'float32' or 'pcm16'")


MANIFEST_FIELDS = ("path", "label", "start_s", "duration_s")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a clip manifest CSV with header path,label,start_s,duration_s."""
    try:
        # a spreadsheet's "CSV UTF-8" starts with a byte order mark
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_FIELDS:
                raise ManifestError(
                    f"{path}: manifest header must be {','.join(MANIFEST_FIELDS)}"
                )
            entries = []
            for row in reader:
                try:
                    if None in row:
                        raise ValueError(f"fields beyond {','.join(MANIFEST_FIELDS)}: {row[None]}")
                    entries.append(
                        ManifestEntry(
                            path=row["path"],
                            label=row["label"],
                            start_s=float(row["start_s"]),
                            duration_s=float(row["duration_s"]),
                        )
                    )
                except (TypeError, ValueError) as exc:
                    # the row's last line: a quoted field may span several
                    raise ManifestError(f"{path}:{reader.line_num}: bad row: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not entries:
        raise ManifestError(f"{path}: manifest lists no clips")
    return entries


def write_manifest(entries: list[ManifestEntry], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for e in entries:
            writer.writerow([e.path, e.label, repr(float(e.start_s)), repr(float(e.duration_s))])


def assemble_composite(
    entries: list[ManifestEntry], base_dir: str | Path | None = None
) -> tuple[Recording, list[LabelSpan]]:
    """Cut the manifest's crops out of their files, plus their label spans.

    Relative clip paths resolve against `base_dir`.  All clips must share one
    sample rate and every crop must lie inside its file.  A file is read once
    for a run of entries that name it, and each crop is a copy in the file's
    own sample format, so the file's samples are freed before the next file
    is read.
    """
    if not entries:
        raise ManifestError("manifest lists no clips")
    base = Path(base_dir) if base_dir is not None else Path(".")
    crops: list[np.ndarray] = []
    spans: list[LabelSpan] = []
    rate: int | None = None
    raw: np.ndarray | None = None
    raw_path: Path | None = None
    offset = 0
    for e in entries:
        clip_path = Path(e.path)
        if not clip_path.is_absolute():
            clip_path = base / clip_path
        if clip_path != raw_path:
            raw = None  # let the last file go before the next one is read
            clip_rate, raw = _read_wav(clip_path)
            raw_path = clip_path
        if rate is None:
            rate = clip_rate
        elif clip_rate != rate:
            raise ManifestError(f"{e.path}: sample rate {clip_rate} != {rate} of the first clip")
        start = int(round(e.start_s * rate))
        length = int(round(e.duration_s * rate))
        if length < 1:
            raise ManifestError(f"{e.path}: crop duration {e.duration_s} leaves no samples")
        if start < 0 or start + length > raw.shape[0]:
            raise ManifestError(
                f"{e.path}: crop [{e.start_s}s, +{e.duration_s}s) falls outside the file"
            )
        crops.append(raw[start : start + length].copy())
        spans.append(LabelSpan(e.label, offset / rate, (offset + length) / rate))
        offset += length
    assert rate is not None
    return Recording(crops=tuple(crops), sample_rate=rate), spans


class _Envelope:
    """Running per-column maximum and minimum of a signal whose length is known.

    The `WAVEFORM_COLUMNS` columns split [0, n_samples) at `linspace` points
    rounded down; samples may arrive in pieces of any size, in order.
    """

    def __init__(self, n_samples: int) -> None:
        self.edges = np.linspace(0, n_samples, WAVEFORM_COLUMNS + 1).astype(int)
        self.extremes = np.empty((2, WAVEFORM_COLUMNS))
        self.extremes[0] = -np.inf
        self.extremes[1] = np.inf
        self.extremes[:, self.edges[1:] == self.edges[:-1]] = 0.0  # columns no sample reaches

    def add(self, offset: int, x: np.ndarray) -> None:
        """Take in samples offset .. offset + len(x) - 1."""
        inner = self.edges[(self.edges > offset) & (self.edges < offset + x.size)]
        starts = np.unique(np.concatenate(([offset], inner)))
        # the last column starting at or before each start is the non-empty one
        cols = np.searchsorted(self.edges, starts, side="right") - 1
        highs, lows = self.extremes
        highs[cols] = np.maximum(highs[cols], np.maximum.reduceat(x, starts - offset))
        lows[cols] = np.minimum(lows[cols], np.minimum.reduceat(x, starts - offset))


def _moving_mean(rows: np.ndarray, width: int) -> np.ndarray:
    """Row-wise centered moving mean; edge positions average the in-range part only."""
    kernel = np.ones(width)
    counts = np.convolve(np.ones(rows.shape[1]), kernel, mode="same")
    sums = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, rows)
    return sums / counts


def stft_features(
    signal: Recording | AudioSignal, cfg: WindowingConfig = WindowingConfig()
) -> FeatureMatrix:
    """Magnitudes of DFT bins 1..cfg.m for each analysis window, plus the waveform envelope.

    Uses the unnormalized forward transform.  The DC bin is dropped and a
    trailing partial window is discarded.  The samples are decoded into one
    carry buffer that holds the span of `STFT_BLOCK_ROWS` windows; each full
    span is transformed as one block, and the samples of the windows still
    open move to the buffer's front, so a window may straddle crops.
    """
    if isinstance(signal, AudioSignal):
        signal = Recording(crops=(signal.samples,), sample_rate=signal.sample_rate)
    total, w, hop, m = signal.n_samples, cfg.window_len, cfg.hop, cfg.m
    if total < w:
        raise ValueError(f"signal has {total} samples; at least one window of {w} required")
    n = cfg.n_windows(total)
    span = (STFT_BLOCK_ROWS - 1) * hop + w
    buf = np.empty(min(span, total))
    taper = np.hamming(w) if cfg.taper == "hamming" else None
    mags = np.empty((n, m))
    envelope = _Envelope(total)
    row = 0  # windows transformed so far; buf[0] is sample row * hop
    fill = 0  # samples held in buf

    def spectra(samples: np.ndarray, rows: int) -> np.ndarray:
        """Bins 1..m of the first `rows` windows of `samples`."""
        block = np.lib.stride_tricks.sliding_window_view(samples[: (rows - 1) * hop + w], w)[::hop]
        if taper is not None:
            block = block * taper
        return np.fft.rfft(block, axis=1)[:, 1 : m + 1]

    for crop in signal.crops:
        pos = 0
        while pos < crop.shape[0]:
            take = min(crop.shape[0] - pos, buf.size - fill)
            _to_float(crop[pos : pos + take], out=buf[fill : fill + take])
            envelope.add(row * hop + fill, buf[fill : fill + take])
            pos += take
            fill += take
            if fill == span:
                np.abs(spectra(buf, STFT_BLOCK_ROWS), out=mags[row : row + STFT_BLOCK_ROWS])
                row += STFT_BLOCK_ROWS
                fill = span - STFT_BLOCK_ROWS * hop
                buf[:fill] = buf[STFT_BLOCK_ROWS * hop : span]
    if row < n:
        last = spectra(buf, n - row)
        buf = None  # every sample is in: free them before the magnitudes are taken
        np.abs(last, out=mags[row:])
    if cfg.smoothing_len is not None:
        mags = _moving_mean(mags, cfg.smoothing_len)
    starts = hop * np.arange(n) / signal.sample_rate
    return FeatureMatrix(
        values=mags,
        start_times=starts,
        window_len=w,
        sample_rate=signal.sample_rate,
        envelope=envelope.extremes,
    )

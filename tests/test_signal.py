"""Audio decode, manifest crops, and spectral feature contracts."""

from __future__ import annotations

import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import passby.signal as signal_module
from passby.plots import waveform_svg
from passby.signal import (
    AudioIOError,
    AudioSignal,
    EmptyAudioError,
    FeatureMatrix,
    ManifestEntry,
    ManifestError,
    Recording,
    UnsupportedEncodingError,
    WindowingConfig,
    assemble_composite,
    read_manifest,
    stft_features,
    write_manifest,
    write_wav,
)
from _helpers import waveform_by_loop


def _write_pcm24(path, rate, values):
    """Hand-built 24-bit PCM WAV; values are ints in [-2^23, 2^23)."""
    raw = b"".join(int(v & 0xFFFFFF).to_bytes(3, "little") for v in values)
    header = b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
    header += b"data" + struct.pack("<I", len(raw))
    path.write_bytes(header + raw)


def _sine(rate, seconds, hz, amp=0.5):
    t = np.arange(int(rate * seconds)) / rate
    return amp * np.sin(2 * np.pi * hz * t)


# ---------------------------------------------------------------- load_audio


def load_audio(path):
    """Decode a whole WAV file to mono float64 (oracle for the composite's decode).

    `_read_wav` reads the file, so a bad one raises what ingest raises.  The
    samples are scaled here, one expression at a time: a stereo mean, then
    1/2^(bits-1) for integer PCM.
    """
    rate, data = signal_module._read_wav(path)
    x = data.astype(np.float64).mean(axis=1) if data.ndim == 2 else data.astype(np.float64)
    if data.dtype == np.uint8:
        x = (x - 128.0) / 128.0
    elif data.dtype == np.int16:
        x = x / 2.0**15
    elif data.dtype == np.int32:
        # 24-bit PCM arrives widened into the top bytes of int32
        x = x / 2.0**31
    return AudioSignal(samples=x, sample_rate=rate)


def _samples(recording):
    """The recording's float64 samples: its crops decoded by `_to_float`, concatenated."""
    out = np.empty(recording.n_samples)
    offset = 0
    for crop in recording.crops:
        signal_module._to_float(crop, out=out[offset : offset + crop.shape[0]])
        offset += crop.shape[0]
    return out


def test_load_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([32767, -32768, 0, 1], dtype=np.int16))
    sig = load_audio(path)
    assert sig.sample_rate == 8000
    assert sig.samples[0] == 32767 / 32768
    assert sig.samples[1] == -1.0
    assert sig.samples[2] == 0.0
    assert sig.samples[3] == 1 / 32768


def test_load_pcm24_scaling(tmp_path):
    path = tmp_path / "a.wav"
    _write_pcm24(path, 48000, [2**23 - 1, -(2**23), 0, 1])
    sig = load_audio(path)
    assert sig.samples[0] == (2**23 - 1) / 2**23
    assert sig.samples[1] == -1.0
    assert sig.samples[2] == 0.0
    assert sig.samples[3] == 1 / 2**23


def test_load_pcm32_scaling(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([2**31 - 1, -(2**31), 0], dtype=np.int32))
    sig = load_audio(path)
    assert sig.samples[0] == (2**31 - 1) / 2**31
    assert sig.samples[1] == -1.0


def test_load_pcm8_scaling(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([0, 128, 255], dtype=np.uint8))
    sig = load_audio(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.0
    assert sig.samples[2] == 127 / 128


def test_load_float32_passthrough(tmp_path):
    path = tmp_path / "a.wav"
    x = np.array([0.5, -0.25, 1.0], dtype=np.float32)
    wavfile.write(path, 8000, x)
    sig = load_audio(path)
    assert np.array_equal(sig.samples, x.astype(np.float64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_non_finite_float32_is_read_error(tmp_path, bad):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([0.5, bad, -0.25], dtype=np.float32))
    with pytest.raises(AudioIOError, match="non-finite"):
        load_audio(path)


def test_load_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([[32767, 0], [0, 0], [-32768, -32768]], dtype=np.int16))
    sig = load_audio(path)
    assert sig.samples.shape == (3,)
    assert sig.samples[0] == pytest.approx(32767 / 65536)
    assert sig.samples[2] == -1.0


def test_load_missing_file_is_read_error(tmp_path):
    with pytest.raises(AudioIOError):
        load_audio(tmp_path / "nope.wav")


def test_load_garbage_is_unsupported(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio at all, not even close")
    with pytest.raises(UnsupportedEncodingError):
        load_audio(path)


def test_load_float64_is_unsupported(tmp_path):
    path = tmp_path / "f64.wav"
    wavfile.write(path, 8000, np.array([0.1, 0.2], dtype=np.float64))
    with pytest.raises(UnsupportedEncodingError):
        load_audio(path)


def test_load_three_channels_is_unsupported(tmp_path):
    path = tmp_path / "tri.wav"
    wavfile.write(path, 8000, np.zeros((4, 3), dtype=np.int16))
    with pytest.raises(UnsupportedEncodingError):
        load_audio(path)


def test_load_zero_length_is_distinct_error(tmp_path):
    path = tmp_path / "empty.wav"
    wavfile.write(path, 8000, np.array([], dtype=np.int16))
    with pytest.raises(EmptyAudioError):
        load_audio(path)


def test_write_wav_float32_roundtrip(tmp_path):
    path = tmp_path / "rt.wav"
    x = np.linspace(-0.9, 0.9, 123).astype(np.float32).astype(np.float64)
    write_wav(AudioSignal(samples=x, sample_rate=8000), path, encoding="float32")
    back = load_audio(path)
    assert back.sample_rate == 8000
    assert np.array_equal(back.samples, x)


def test_float32_samples_are_kept_and_written_without_a_copy(tmp_path):
    x = np.random.default_rng(0).uniform(-0.9, 0.9, 200_000).astype(np.float32)
    signal = AudioSignal(samples=x, sample_rate=8000)
    assert signal.samples is x
    assert AudioSignal(samples=[0.5, 1], sample_rate=8000).samples.dtype == np.float64
    tracemalloc.start()
    try:
        write_wav(signal, tmp_path / "a.wav", encoding="float32")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 4
    assert wavfile.read(tmp_path / "a.wav")[1].tobytes() == x.tobytes()


def test_write_wav_pcm16_quantizes(tmp_path):
    path = tmp_path / "q.wav"
    write_wav(AudioSignal(samples=np.array([0.5]), sample_rate=8000), path, encoding="pcm16")
    back = load_audio(path)
    assert back.samples[0] == pytest.approx(0.5, abs=1 / 32768)


@pytest.mark.parametrize("rate", [8000, 48000])
@pytest.mark.parametrize("n", [1001, 1002])
def test_write_wav_writes_the_bytes_scipy_writes(tmp_path, rate, n):
    rng = np.random.default_rng(n)
    float64 = rng.uniform(-1.2, 1.2, n)  # past full scale too, where pcm16 clips
    float32 = rng.uniform(-0.9, 0.9, 2 * n).astype(np.float32)
    for samples in (float64, float32[:n], float32[::2]):
        signal = AudioSignal(samples, rate)
        quantized = np.clip(np.round(signal.samples * 2.0**15), -(2.0**15), 2.0**15 - 1)
        for encoding, oracle in [
            ("float32", signal.samples.astype(np.float32)),
            ("pcm16", quantized.astype(np.int16)),
        ]:
            write_wav(signal, tmp_path / "passby.wav", encoding=encoding)
            wavfile.write(tmp_path / "scipy.wav", rate, oracle)
            assert (tmp_path / "passby.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
    assert not AudioSignal(float32[::2], rate).samples.flags.c_contiguous  # the strided view stays one


def test_write_wav_refuses_audio_beyond_riff_sizes_before_converting_it(tmp_path):
    # 4 GiB of samples from a broadcast zero, which holds one; converting it would allocate them.
    # The directory is missing, so a writer that opened the file before refusing fails unwritten.
    huge = AudioSignal(np.broadcast_to(np.float32(0), (2**30,)), 8000)
    with pytest.raises(ValueError, match="32-bit"):
        write_wav(huge, tmp_path / "missing" / "big.wav")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "samples, rate, encoding, match",
    [
        ([0.5, np.nan], 8000, "float32", "non-finite"),  # passby's reader refuses the file
        ([np.inf, 0.5], 8000, "float32", "non-finite"),
        ([-np.inf], 8000, "float32", "non-finite"),
        ([0.5, np.nan], 8000, "pcm16", "non-finite"),  # the cast would write NaN as 0
        ([0.5], 2**31, "float32", "byte rate"),  # 4 bytes a sample overflow the header's 32 bits
        ([0.5], 8000, "pcm24", "unknown encoding"),
    ],
    ids=["float32-nan", "float32-inf", "float32-minus-inf", "pcm16-nan", "rate", "encoding"],
)
def test_write_wav_refuses_what_a_wav_file_cannot_hold_before_opening_it(
    tmp_path, samples, rate, encoding, match
):
    with pytest.raises(ValueError, match=match):
        write_wav(AudioSignal(np.array(samples), rate), tmp_path / "a.wav", encoding=encoding)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ manifest


def test_manifest_roundtrip(tmp_path):
    entries = [
        ManifestEntry("a.wav", "truck", 0.0, 2.0),
        ManifestEntry("b.wav", "sedan", 0.5, 1.25),
    ]
    path = tmp_path / "m.csv"
    write_manifest(entries, path)
    assert read_manifest(path) == entries


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("file,label,start,dur\na.wav,x,0,1\n")
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_manifest_not_utf8_is_manifest_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes("path,label,start_s,duration_s\na.wav,caf\xe9,0,1\n".encode("latin-1"))
    with pytest.raises(ManifestError, match="cannot read manifest"):
        read_manifest(path)


def test_manifest_bad_number(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,label,start_s,duration_s\na.wav,x,zero,1\n")
    with pytest.raises(ManifestError, match=r"m\.csv:2: bad row"):
        read_manifest(path)


def test_manifest_bad_row_is_named_by_its_file_line(tmp_path):
    # the first row's quoted label spans lines 2 and 3, so the bad row is on line 4
    path = tmp_path / "m.csv"
    path.write_text('path,label,start_s,duration_s\na.wav,"heavy\ntruck",0,1\nb.wav,x,zero,1\n')
    with pytest.raises(ManifestError, match=r"m\.csv:4: bad row"):
        read_manifest(path)


@pytest.mark.parametrize("start, duration", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, np.nan)])
def test_composite_rejects_non_finite_entries_built_in_code(start, duration):
    with pytest.raises(ManifestError, match="must be finite"):
        assemble_composite([ManifestEntry("a.wav", "x", start, duration)])


def test_manifest_empty_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,label,start_s,duration_s\n")
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_composite_nine_two_second_clips(tmp_path):
    rate = 48000
    entries = []
    for i, label in enumerate(["truck", "sedan", "van"] * 3):
        path = tmp_path / f"clip{i}.wav"
        write_wav(AudioSignal(_sine(rate, 2.0, 100 + 10 * i), rate), path)
        entries.append(ManifestEntry(f"clip{i}.wav", label, 0.0, 2.0))
    composite, spans = assemble_composite(entries, base_dir=tmp_path)
    assert _samples(composite).size == composite.n_samples == 864000
    assert composite.n_samples / composite.sample_rate == 18.0
    assert len(spans) == 9
    assert spans[0].label == "truck"
    assert spans[-1].end_s == pytest.approx(18.0)
    # spans tile the composite without gaps
    for left, right in zip(spans, spans[1:]):
        assert left.end_s == pytest.approx(right.start_s)


def test_composite_crops_inside_files(tmp_path):
    rate = 8000
    path = tmp_path / "c.wav"
    write_wav(AudioSignal(np.arange(rate * 2) / (rate * 2.0), rate), path)
    entries = [ManifestEntry("c.wav", "x", 0.5, 1.0)]
    composite, spans = assemble_composite(entries, base_dir=tmp_path)
    assert _samples(composite).size == rate
    assert _samples(composite)[0] == pytest.approx(0.25)
    assert spans[0].start_s == 0.0 and spans[0].end_s == pytest.approx(1.0)


def test_composite_is_the_concatenated_crops(tmp_path):
    rate = 8000
    rng = np.random.default_rng(5)
    clips = [rng.uniform(-0.5, 0.5, size=rate) for _ in range(3)]
    crops = [(0.0, 1.0), (0.25, 0.5), (0.125, 0.75)]
    entries = []
    for i, (clip, (start, duration)) in enumerate(zip(clips, crops)):
        write_wav(AudioSignal(clip, rate), tmp_path / f"c{i}.wav")
        entries.append(ManifestEntry(f"c{i}.wav", str(i), start, duration))
    composite, spans = assemble_composite(entries, base_dir=tmp_path)
    expected = np.concatenate(
        [load_audio(tmp_path / f"c{i}.wav").samples[int(s * rate) : int((s + d) * rate)]
         for i, (s, d) in enumerate(crops)]
    )
    assert np.array_equal(_samples(composite), expected)
    assert [(sp.start_s, sp.end_s) for sp in spans] == [(0.0, 1.0), (1.0, 1.5), (1.5, 2.25)]


def test_composite_duration_beyond_memory_is_manifest_error(tmp_path):
    # the crop's bounds check rejects it before anything of its size is allocated
    write_wav(AudioSignal(np.ones(100) * 0.1, 8000), tmp_path / "a.wav")
    entries = [ManifestEntry("a.wav", "x", 0.0, 0.01), ManifestEntry("a.wav", "y", 0.0, 1e300)]
    with pytest.raises(ManifestError, match="falls outside the file"):
        assemble_composite(entries, base_dir=tmp_path)


def test_composite_rate_mismatch(tmp_path):
    write_wav(AudioSignal(np.ones(100) * 0.1, 8000), tmp_path / "a.wav")
    write_wav(AudioSignal(np.ones(100) * 0.1, 16000), tmp_path / "b.wav")
    entries = [ManifestEntry("a.wav", "x", 0.0, 0.01), ManifestEntry("b.wav", "y", 0.0, 0.01)]
    with pytest.raises(ManifestError, match="sample rate"):
        assemble_composite(entries, base_dir=tmp_path)


def test_composite_crop_out_of_range(tmp_path):
    write_wav(AudioSignal(np.ones(100) * 0.1, 8000), tmp_path / "a.wav")
    entries = [ManifestEntry("a.wav", "x", 0.0, 1.0)]  # file holds only 100 samples
    with pytest.raises(ManifestError, match="outside"):
        assemble_composite(entries, base_dir=tmp_path)


def test_composite_empty_manifest():
    with pytest.raises(ManifestError):
        assemble_composite([])


def test_composite_decodes_every_format_bit_identically(tmp_path):
    rate, frames = 8000, 4000
    rng = np.random.default_rng(11)
    raws = {
        "u8": rng.integers(0, 256, size=frames).astype(np.uint8),
        "i16": rng.integers(-(2**15), 2**15, size=frames).astype(np.int16),
        "i32": rng.integers(-(2**31), 2**31, size=frames).astype(np.int32),
        # magnitudes far apart, so a stereo sum rounds in float64
        "f32": (rng.standard_normal(frames) * 10.0 ** rng.integers(-20, 20, size=frames)).astype(
            np.float32
        ),
    }
    raws.update({f"{name}-stereo": np.stack([raw, raw[::-1]], axis=1) for name, raw in raws.items()})
    for name, raw in raws.items():
        wavfile.write(tmp_path / f"{name}.wav", rate, raw)
    _write_pcm24(tmp_path / "i24.wav", rate, rng.integers(-(2**23), 2**23, size=frames).tolist())
    names = [*raws, "i24"]
    entries, expected = [], []
    for i, name in enumerate(names):
        whole = load_audio(tmp_path / f"{name}.wav").samples
        for start, length in ((0, frames), (0, 800), (17 + 100 * i, 1203), (frames - 400, 400)):
            entries.append(ManifestEntry(f"{name}.wav", name, start / rate, length / rate))
            expected.append(whole[start : start + length])
    composite, _ = assemble_composite(entries, base_dir=tmp_path)
    assert _samples(composite).tobytes() == np.concatenate(expected).tobytes()


def _bad_wav(tmp_path, kind):
    path = tmp_path / f"{kind}.wav"
    if kind == "garbage":
        path.write_bytes(b"this is not audio at all, not even close")
    elif kind == "float64":
        wavfile.write(path, 8000, np.full(100, 0.1))
    elif kind == "three-channels":
        wavfile.write(path, 8000, np.zeros((100, 3), dtype=np.int16))
    elif kind == "empty":
        wavfile.write(path, 8000, np.array([], dtype=np.int16))
    elif kind == "nan-outside-crop":
        x = np.full(100, 0.1, dtype=np.float32)
        x[90] = np.nan
        wavfile.write(path, 8000, x)
    elif kind == "stereo-inf":
        x = np.full((100, 2), 0.1, dtype=np.float32)
        x[5, 1] = np.inf
        wavfile.write(path, 8000, x)
    return path


@pytest.mark.parametrize(
    "kind", ["missing", "garbage", "float64", "three-channels", "empty", "nan-outside-crop", "stereo-inf"]
)
def test_composite_raises_what_load_audio_raises(tmp_path, kind):
    # the composite decodes crops only, yet every whole-file check still runs
    path = _bad_wav(tmp_path, kind)
    with pytest.raises(AudioIOError) as from_load:
        load_audio(path)
    with pytest.raises(AudioIOError) as from_composite:
        assemble_composite([ManifestEntry(path.name, "x", 0.0, 0.001)], base_dir=tmp_path)
    assert type(from_composite.value) is type(from_load.value)
    assert str(from_composite.value) == str(from_load.value)


def test_composite_crop_checks_on_a_shared_file(tmp_path):
    write_wav(AudioSignal(np.ones(100) * 0.1, 8000), tmp_path / "a.wav")
    write_wav(AudioSignal(np.ones(100) * 0.1, 16000), tmp_path / "b.wav")
    ok = ManifestEntry("a.wav", "x", 0.0, 0.005)
    for bad, match in (
        (ManifestEntry("a.wav", "y", 0.0, 0.00001), "leaves no samples"),
        (ManifestEntry("a.wav", "y", -0.001, 0.005), "outside"),
        (ManifestEntry("a.wav", "y", 0.01, 0.005), "outside"),
        (ManifestEntry("b.wav", "y", 0.0, 0.005), "sample rate"),
    ):
        with pytest.raises(ManifestError, match=match):
            assemble_composite([ok, ok, bad], base_dir=tmp_path)


def test_composite_reads_a_shared_file_once_per_run(tmp_path, monkeypatch):
    rate = 8000
    rng = np.random.default_rng(12)
    for name in ("a", "b"):
        write_wav(AudioSignal(rng.uniform(-0.5, 0.5, size=rate), rate), tmp_path / f"{name}.wav")
    reads, alive = [], []
    read_wav = signal_module._read_wav

    def tracked(path):
        assert all(ref() is None for ref in alive)  # one raw clip at a time
        rate, raw = read_wav(path)
        reads.append(Path(path).name)
        alive.append(weakref.ref(raw))
        return rate, raw

    monkeypatch.setattr(signal_module, "_read_wav", tracked)
    crops = [("a", 0.0, 0.25), ("a", 0.5, 0.25), ("b", 0.125, 0.5), ("b", 0.0, 0.125), ("a", 0.25, 0.5)]
    entries = [ManifestEntry(f"{name}.wav", name, start, length) for name, start, length in crops]
    composite, _ = assemble_composite(entries, base_dir=tmp_path)
    assert reads == ["a.wav", "b.wav", "a.wav"]
    # the crops are copies, so no file's samples outlive the call
    assert all(ref() is None for ref in alive)
    assert all(crop.base is None for crop in composite.crops)
    monkeypatch.undo()
    expected = [
        load_audio(tmp_path / f"{name}.wav").samples[int(start * rate) : int((start + length) * rate)]
        for name, start, length in crops
    ]
    assert np.array_equal(_samples(composite), np.concatenate(expected))


def _read_nothing(path):
    raise AssertionError(f"{path} was read")


def test_composite_of_held_samples_is_views_equal_to_the_files_crops(tmp_path, monkeypatch):
    rate = 8000
    sig = AudioSignal(np.random.default_rng(5).uniform(-0.5, 0.5, size=rate).astype(np.float32), rate)
    write_wav(sig, tmp_path / "a.wav")
    crops = [(0.0, 0.25), (0.5, 0.25), (0.125, 0.5)]
    entries = [ManifestEntry("a.wav", f"c{i}", start, length) for i, (start, length) in enumerate(crops)]
    from_file, file_spans = assemble_composite(entries, base_dir=tmp_path)
    monkeypatch.setattr(signal_module, "_read_wav", _read_nothing)
    held, held_spans = assemble_composite(entries, base_dir=tmp_path, held=sig)
    assert held_spans == file_spans
    assert held.sample_rate == from_file.sample_rate == rate
    for got, read in zip(held.crops, from_file.crops, strict=True):
        assert got.dtype == read.dtype == np.float32
        assert np.array_equal(got, read)
        assert np.shares_memory(got, sig.samples)  # a view, not a copy


@pytest.mark.parametrize(
    "samples",
    [np.array([0.5, np.nan, -0.25], np.float32), np.array([0.5, np.inf, -0.25], np.float32), np.zeros(3)],
    ids=["nan", "inf", "float64"],
)
def test_held_samples_raise_what_the_file_of_those_samples_raises(tmp_path, samples):
    wavfile.write(tmp_path / "a.wav", 8000, samples)
    entries = [ManifestEntry("a.wav", "x", 0.0, 0.0001)]  # one sample, outside the bad one
    with pytest.raises(AudioIOError) as from_file:
        assemble_composite(entries, base_dir=tmp_path)
    (tmp_path / "a.wav").unlink()  # the held samples stand for it
    with pytest.raises(AudioIOError) as from_held:
        assemble_composite(entries, base_dir=tmp_path, held=AudioSignal(samples, 8000))
    assert type(from_held.value) is type(from_file.value)
    assert str(from_held.value) == str(from_file.value)


def test_float32_samples_are_checked_without_a_mask():
    # a bool per sample would be a quarter of the samples' bytes
    samples = np.random.default_rng(0).uniform(-1.0, 1.0, 1_000_000).astype(np.float32)
    tracemalloc.start()
    try:
        signal_module._check_samples("a.wav", 8000, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_held_samples_stand_for_one_file_only(tmp_path):
    sig = AudioSignal(np.zeros(800, np.float32), 8000)
    entries = [ManifestEntry("a.wav", "x", 0.0, 0.01), ManifestEntry("b.wav", "y", 0.0, 0.01)]
    with pytest.raises(ValueError, match="more than one"):
        assemble_composite(entries, base_dir=tmp_path, held=sig)
    # one file named twice, once through its absolute path
    both = [entries[0], ManifestEntry(str(tmp_path / "a.wav"), "y", 0.05, 0.01)]
    recording, _ = assemble_composite(both, base_dir=tmp_path, held=sig)
    assert [crop.shape[0] for crop in recording.crops] == [80, 80]


# ------------------------------------------------------------ stft features


@pytest.mark.parametrize(
    "samples, rate, error, match",
    [
        (np.zeros((4, 2)), 8000, ValueError, "one-dimensional"),
        (np.zeros(0), 8000, EmptyAudioError, "no samples"),
        (np.zeros(4), 0, ValueError, "sample_rate must be positive"),
    ],
    ids=["2-D", "empty", "rate"],
)
def test_audio_signal_rejects_what_is_not_mono_audio(samples, rate, error, match):
    with pytest.raises(error, match=match):
        AudioSignal(samples, rate)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"window_len": 1, "m": 1}, "window_len must be at least 2"),
        ({"overlap": 1.0}, r"overlap must lie in \[0, 1\)"),
        ({"overlap": -0.5}, r"overlap must lie in \[0, 1\)"),
    ],
    ids=["window_len", "overlap-1", "overlap-negative"],
)
def test_windowing_config_rejects_a_window_or_overlap_out_of_range(kwargs, match):
    with pytest.raises(ValueError, match=match):
        WindowingConfig(**kwargs)


def test_windowing_config_rejects_fractional_hop():
    with pytest.raises(ValueError):
        WindowingConfig(window_len=6, overlap=0.35)  # 3.9-sample hop


def test_windowing_config_rejects_even_smoothing():
    with pytest.raises(ValueError):
        WindowingConfig(smoothing_len=4)


def test_windowing_config_rejects_unknown_taper():
    with pytest.raises(ValueError):
        WindowingConfig(taper="hann")


def test_window_count_and_start_times():
    rate = 100
    sig = AudioSignal(np.random.default_rng(0).normal(size=20), rate)
    fm = stft_features(sig, WindowingConfig(window_len=6, m=3))
    # floor((20 - 6) / 6) + 1 = 3 full windows; the trailing 2 samples drop
    assert fm.values.shape == (3, 3)
    assert np.array_equal(fm.start_times, np.array([0.0, 6 / rate, 12 / rate]))


def test_window_count_formula_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(10, 400))
        w = int(rng.integers(2, 10)) * 2
        overlap = rng.choice([0.0, 0.5])
        hop = int(w * (1 - overlap))
        sig = AudioSignal(rng.normal(size=n), 10)
        if n < w:
            with pytest.raises(ValueError):
                stft_features(sig, WindowingConfig(window_len=w, overlap=overlap, m=1))
            continue
        fm = stft_features(sig, WindowingConfig(window_len=w, overlap=overlap, m=w // 2))
        assert fm.values.shape[0] == (n - w) // hop + 1


def test_overlap_half_hop():
    sig = AudioSignal(np.arange(12, dtype=float), 10)
    fm = stft_features(sig, WindowingConfig(window_len=6, overlap=0.5, m=2))
    assert fm.values.shape[0] == 3
    assert np.array_equal(fm.start_times, np.array([0.0, 0.3, 0.6]))


def test_on_bin_sinusoid_concentrates():
    rate, w = 48000, 6000
    hz = 400.0  # bin 50 at 8 Hz resolution
    sig = AudioSignal(_sine(rate, 0.5, hz, amp=0.7), rate)
    fm = stft_features(sig, WindowingConfig(window_len=w, m=w // 2))
    row = fm.values[0] ** 2
    bin_index = int(hz * w / rate)  # column index bin_index-1 (bins start at 1)
    assert row[bin_index - 1] / row.sum() > 0.999999


def test_zero_signal_zero_features():
    sig = AudioSignal(np.zeros(600), 100)
    fm = stft_features(sig, WindowingConfig(window_len=100, m=50))
    assert np.all(fm.values == 0.0)


def test_parseval_box_taper():
    rng = np.random.default_rng(3)
    w = 256
    sig = AudioSignal(rng.normal(size=w * 4), 1000)
    fm = stft_features(sig, WindowingConfig(window_len=w, m=w // 2))
    for i in range(fm.values.shape[0]):
        window = sig.samples[i * w : (i + 1) * w]
        dc = abs(window.sum())
        nyq = fm.values[i, -1]
        inner = fm.values[i, :-1] ** 2
        total = dc**2 + 2.0 * inner.sum() + nyq**2
        expected = w * (window**2).sum()
        assert abs(total - expected) / expected < 1e-9


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    sig = AudioSignal(rng.normal(size=1000), 100)
    cfg = WindowingConfig(window_len=200, m=100)
    base = stft_features(sig, cfg).values
    scaled = stft_features(AudioSignal(sig.samples * 3.5, 100), cfg).values
    assert np.allclose(scaled, 3.5 * base, rtol=1e-12, atol=0.0)


def test_features_deterministic():
    rng = np.random.default_rng(9)
    sig = AudioSignal(rng.normal(size=2000), 100)
    a = stft_features(sig, WindowingConfig(window_len=500, m=200)).values
    b = stft_features(sig, WindowingConfig(window_len=500, m=200)).values
    assert np.array_equal(a, b)


def test_moving_mean_truncated_edges():
    rng = np.random.default_rng(11)
    sig = AudioSignal(rng.normal(size=400), 100)
    raw = stft_features(sig, WindowingConfig(window_len=100, m=40)).values
    smooth = stft_features(sig, WindowingConfig(window_len=100, smoothing_len=5, m=40)).values
    # oracle: direct truncated-window average
    for i in range(raw.shape[0]):
        for j in range(raw.shape[1]):
            lo, hi = max(0, j - 2), min(raw.shape[1], j + 3)
            assert smooth[i, j] == pytest.approx(raw[i, lo:hi].mean(), rel=1e-12)


def test_hamming_taper_changes_values():
    rng = np.random.default_rng(13)
    sig = AudioSignal(rng.normal(size=600), 100)
    box = stft_features(sig, WindowingConfig(window_len=200, m=80)).values
    ham = stft_features(sig, WindowingConfig(window_len=200, taper="hamming", m=80)).values
    assert box.shape == ham.shape
    assert not np.allclose(box, ham)


def test_m_out_of_range():
    with pytest.raises(ValueError):
        WindowingConfig(window_len=50, m=26)
    with pytest.raises(ValueError):
        WindowingConfig(window_len=50, m=0)


def test_windowing_config_rejects_smoothing_wider_than_m():
    # a moving mean wider than the row would return more columns than m
    with pytest.raises(ValueError, match="smoothing_len 41"):
        WindowingConfig(window_len=100, smoothing_len=41, m=40)
    assert WindowingConfig(window_len=100, smoothing_len=39, m=40).m == 40


def test_feature_matrix_rejects_negative_values():
    with pytest.raises(ValueError):
        FeatureMatrix(
            values=np.array([[1.0, -0.5]]),
            start_times=np.array([0.0]),
            envelope=np.zeros((2, 1)),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_matrix_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        FeatureMatrix(
            values=np.array([[1.0, 0.5], [bad, 2.0]]),
            start_times=np.array([0.0, 0.4]),
            envelope=np.zeros((2, 1)),
        )


@pytest.mark.parametrize(
    "values, start_times, match",
    [(np.ones(3), np.zeros(3), "2-D"), (np.ones((3, 2)), np.zeros(2), "one entry per window")],
    ids=["1-D", "start_times"],
)
def test_feature_matrix_rejects_a_misshapen_matrix(values, start_times, match):
    with pytest.raises(ValueError, match=match):
        FeatureMatrix(values=values, start_times=start_times, envelope=np.zeros((2, 1)))


def test_feature_matrix_checks_its_values_without_a_mask():
    # a boolean n x m mask is an eighth of the values
    values = np.random.default_rng(0).uniform(0.0, 1.0, (400, 300))
    tracemalloc.start()
    try:
        FeatureMatrix(
            values=values,
            start_times=np.arange(400.0),
            envelope=np.zeros((2, 1)),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes // 32


def test_feature_matrix_may_hold_no_windows():
    features = FeatureMatrix(
        values=np.empty((0, 3)),
        start_times=np.empty(0),
        envelope=np.zeros((2, 1)),
    )
    assert features.values.shape == (0, 3)


@pytest.mark.parametrize(
    "crops, rate, match",
    [
        ((np.zeros(12, np.int16),), 0, "sample_rate"),
        ((np.arange(12, dtype=np.int64), np.ones((6, 3), np.int16)), -5, "sample_rate"),
        ((), 8000, "at least one crop"),
        ((np.zeros(12, np.int16), np.ones((6, 3), np.int16)), 8000, r"shape \(6, 3\)"),
        ((np.zeros((6, 1), np.int16),), 8000, "two-channel"),
        ((np.zeros((6, 2, 1), np.int16),), 8000, "two-channel"),
        ((np.array(0.5),), 8000, "two-channel"),
        ((np.zeros(12), np.arange(12, dtype=np.int64)), 8000, "int64"),
        ((np.zeros(12, np.int8),), 8000, "int8"),
        ((np.zeros(12, np.float16),), 8000, "float16"),
        ((np.zeros(12, bool),), 8000, "bool"),
    ],
)
def test_recording_rejects_what_to_float_cannot_decode(crops, rate, match):
    with pytest.raises(ValueError, match=match):
        Recording(crops=crops, sample_rate=rate)


# ------------------------------------------------ crops streamed into windows


def _features_by_blocks(x, cfg, m):
    """Windows of the whole float64 signal, STFT_BLOCK_ROWS rows per transform (reference)."""
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window_len)[:: cfg.hop]
    taper = np.hamming(cfg.window_len) if cfg.taper == "hamming" else None
    rows = []
    for start in range(0, frames.shape[0], signal_module.STFT_BLOCK_ROWS):
        block = frames[start : start + signal_module.STFT_BLOCK_ROWS]
        if taper is not None:
            block = block * taper
        rows.append(np.abs(np.fft.rfft(block, axis=1)[:, 1 : m + 1]))
    return np.concatenate(rows)


def _mixed_format_files(tmp_path, rate, frames):
    rng = np.random.default_rng(21)
    wavfile.write(tmp_path / "i16.wav", rate, rng.integers(-(2**15), 2**15, size=frames).astype(np.int16))
    wavfile.write(tmp_path / "u8.wav", rate, rng.integers(0, 256, size=frames).astype(np.uint8))
    _write_pcm24(tmp_path / "i24.wav", rate, rng.integers(-(2**23), 2**23, size=frames).tolist())
    stereo = rng.integers(-(2**15), 2**15, size=(frames, 2)).astype(np.int16)
    wavfile.write(tmp_path / "i16-stereo.wav", rate, stereo)
    wavfile.write(tmp_path / "f32.wav", rate, rng.uniform(-0.9, 0.9, size=frames).astype(np.float32))
    return ["i16", "u8", "i24", "i16-stereo", "f32"]


@pytest.mark.parametrize("block_rows", [3, 8, 32, 256])
@pytest.mark.parametrize("shape", ["straddling", "below-one-block", "whole-blocks"])
@pytest.mark.parametrize(
    "cfg",
    [
        WindowingConfig(window_len=40, overlap=0.5, taper="hamming", m=17),
        WindowingConfig(window_len=40, smoothing_len=3, m=17),
    ],
    ids=["hamming-overlap", "box-smoothed"],
)
def test_features_of_crops_match_the_concatenated_oracle_crops(
    tmp_path, monkeypatch, block_rows, shape, cfg
):
    monkeypatch.setattr(signal_module, "STFT_BLOCK_ROWS", block_rows)
    rate, frames, m = 8000, 12000, cfg.m
    names = _mixed_format_files(tmp_path, rate, frames)
    span = (block_rows - 1) * cfg.hop + cfg.window_len  # samples under one block of windows
    if shape == "straddling":
        lengths = [2477, 1203, 3001, 1999, 2711, 713]  # none a multiple of the hop
    else:
        # one block less 7 samples, or two whole blocks plus a 7-sample partial window
        total = span - 7 if shape == "below-one-block" else span + block_rows * cfg.hop + 7
        lengths = [total * 3 // 10, total * 2 // 10 + 1, total // 10 + 3]
        lengths.append(total - sum(lengths))
    entries, oracle = [], []
    for i, length in enumerate(lengths):
        name = names[i % len(names)]
        start = (137 * i + 11) % (frames - length + 1)
        entries.append(ManifestEntry(f"{name}.wav", name, start / rate, length / rate))
        oracle.append(load_audio(tmp_path / f"{name}.wav").samples[start : start + length])
    x = np.concatenate(oracle)
    n = (x.size - cfg.window_len) // cfg.hop + 1
    if shape == "below-one-block":
        assert n < block_rows
    elif shape == "whole-blocks":
        assert n == 2 * block_rows

    recording, _ = assemble_composite(entries, base_dir=tmp_path)
    got = stft_features(recording, cfg)
    whole = stft_features(AudioSignal(x, rate), cfg)
    assert got.values.tobytes() == whole.values.tobytes()
    assert np.array_equal(got.start_times, cfg.hop * np.arange(n) / rate)
    assert got.envelope.tobytes() == whole.envelope.tobytes()
    reference = _features_by_blocks(x, cfg, m)
    if cfg.smoothing_len is not None:
        reference = signal_module._moving_mean(reference, cfg.smoothing_len)
    assert got.values.tobytes() == reference.tobytes()
    assert waveform_svg(got.envelope) == waveform_by_loop(x, rate)


def test_ingest_and_features_never_hold_the_recording_as_float64(tmp_path):
    rate, clip = 8000, 8000
    rng = np.random.default_rng(4)
    entries = []
    for i in range(60):
        wavfile.write(
            tmp_path / f"clip{i:02d}.wav", rate, rng.integers(-3000, 3000, size=clip).astype(np.int16)
        )
        entries.append(ManifestEntry(f"clip{i:02d}.wav", "x", 0.0, clip / rate))
    cfg = WindowingConfig(window_len=200, m=50)  # 2400 windows: many blocks of them
    tracemalloc.start()
    try:
        recording, _ = assemble_composite(entries, base_dir=tmp_path)
        features = stft_features(recording, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features.values.shape[0] == 2400
    assert peak < 8 * recording.n_samples

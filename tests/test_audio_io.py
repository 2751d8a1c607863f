import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from audiojigsaw import audio_io
from audiojigsaw.audio_io import (
    AudioBuffer,
    WavFormatError,
    add_awgn,
    read_wav,
    synthesize_speechlike,
    vad_trim,
    write_wav,
)


def test_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((2, 3)), 8000)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(4), 0)


def test_buffer_samples_read_only():
    buf = AudioBuffer(np.zeros(8), 8000)
    with pytest.raises(ValueError):
        buf.samples[0] = 1.0


@pytest.mark.parametrize("rate", [8000.9, 0.5, math.inf, -math.inf, math.nan, 0, -8000, "8000", None])
def test_buffer_refuses_rates_that_are_not_positive_whole_numbers(rate):
    with pytest.raises(ValueError, match="sample_rate must be a positive whole number"):
        AudioBuffer(np.zeros(4), rate)


@pytest.mark.parametrize("rate", [8000, 8000.0, np.int64(8000), np.float64(8000.0)])
def test_buffer_keeps_whole_rates_as_int(rate):
    buf = AudioBuffer(np.zeros(4), rate)
    assert buf.sample_rate == 8000 and type(buf.sample_rate) is int


def test_buffer_adopts_a_slice_of_another_buffer():
    whole = AudioBuffer(np.arange(100, dtype=np.float64), 8000)
    part = AudioBuffer(whole.samples[10:30], 8000)
    assert np.shares_memory(part.samples, whole.samples)
    assert not part.samples.flags.writeable
    with pytest.raises(ValueError):
        part.samples[0] = 1.0
    np.testing.assert_array_equal(part.samples, np.arange(10, 30))


def test_buffer_adopts_a_frozen_owner():
    samples = np.arange(50.0) / 50.0
    samples.flags.writeable = False
    assert AudioBuffer(samples, 8000).samples is samples


def test_buffer_copies_a_writeable_input():
    source = np.arange(10, dtype=np.float64)
    buf = AudioBuffer(source, 8000)
    assert not np.shares_memory(buf.samples, source)
    source[:] = -1.0
    np.testing.assert_array_equal(buf.samples, np.arange(10))
    assert source.flags.writeable


def test_buffer_copies_a_read_only_view_of_a_writeable_array():
    source = np.arange(10, dtype=np.float64)
    view = source[2:8]
    view.flags.writeable = False
    buf = AudioBuffer(view, 8000)
    assert not np.shares_memory(buf.samples, source)
    source[:] = -1.0
    np.testing.assert_array_equal(buf.samples, np.arange(2, 8))


def _frozen(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.frombuffer(np.arange(12, dtype=np.float64).tobytes()),
        lambda: _frozen(np.arange(24, dtype=np.float64))[::2],
        lambda: _frozen(np.arange(12, dtype=np.float64).astype(">f8")),
        lambda: _frozen(np.arange(12, dtype=np.float32)),
    ],
    ids=["frombuffer", "strided", "big-endian", "float32"],
)
def test_buffer_copies_inputs_it_cannot_adopt(make):
    samples = make()
    assert not samples.flags.writeable
    buf = AudioBuffer(samples, 8000)
    assert not np.shares_memory(buf.samples, samples)
    np.testing.assert_array_equal(buf.samples, samples)
    assert buf.samples.flags.owndata and not buf.samples.flags.writeable
    assert buf.samples.dtype == np.float64 and buf.samples.dtype.isnative


def test_buffer_copies_a_memory_map(tmp_path):
    path = tmp_path / "samples.f64"
    np.arange(16, dtype=np.float64).tofile(path)
    mapped = np.memmap(path, dtype=np.float64, mode="r")
    for samples in (mapped, np.asarray(mapped)):
        buf = AudioBuffer(samples, 8000)
        assert not np.shares_memory(buf.samples, mapped)
        np.testing.assert_array_equal(buf.samples, np.arange(16))


def test_wav_known_sample_values(tmp_path):
    """Full scale maps onto the int16 rails: 1.0 clips to 32767, -1.0 is exact."""
    path = tmp_path / "levels.wav"
    write_wav(path, AudioBuffer(np.array([1.0, 0.0, -1.0, 0.5, -1.5]), 8000))
    raw = path.read_bytes()
    assert struct.unpack("<5h", raw[44:54]) == (32767, 0, -32768, 16384, -32768)


def test_wav_header_layout(tmp_path):
    path = tmp_path / "header.wav"
    write_wav(path, AudioBuffer(np.zeros(10), 44100))
    raw = path.read_bytes()
    assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE" and raw[12:16] == b"fmt "
    fmt_tag, channels, rate = struct.unpack("<HHI", raw[20:28])
    (bits,) = struct.unpack("<H", raw[34:36])
    assert (fmt_tag, channels, rate, bits) == (1, 1, 44100, 16)
    assert raw[36:40] == b"data"
    assert struct.unpack("<I", raw[40:44])[0] == 20


def test_wav_round_trip_error_bound(tmp_path):
    rng = np.random.Generator(np.random.PCG64(7))
    for trial in range(5):
        signal = rng.uniform(-0.99, 0.99, size=400)
        path = tmp_path / f"rt{trial}.wav"
        write_wav(path, AudioBuffer(signal, 8000))
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - signal)) <= 1.0 / 32768.0


def test_wav_int_levels_survive_exactly(tmp_path):
    """Values already on the int16 grid reproduce bit for bit."""
    grid = np.array([-32768, -12345, -1, 0, 1, 99, 32767]) / 32768.0
    path = tmp_path / "grid.wav"
    write_wav(path, AudioBuffer(grid, 8000))
    np.testing.assert_array_equal(read_wav(path).samples, grid)


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"certainly not RIFF data")
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_wav_rejects_stereo(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(b"\x00\x00" * 64)
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_wav_rejects_8bit(tmp_path):
    import wave

    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(1)
        handle.setframerate(8000)
        handle.writeframes(b"\x80" * 64)
    with pytest.raises(WavFormatError):
        read_wav(path)


@pytest.mark.parametrize("size, whole_frames", [(50, 3), (51, 3), (44, 0), (243, 99)])
def test_read_wav_refuses_truncated_data(tmp_path, size, whole_frames):
    """A file cut short, whole frames or mid-sample, names both frame counts."""
    path = tmp_path / "cut.wav"
    write_wav(path, AudioBuffer(np.full(100, 0.25), 8000))
    path.write_bytes(path.read_bytes()[:size])
    expected = f"^{re.escape(str(path))}: truncated data: header declares 100 frames, file holds {whole_frames}$"
    with pytest.raises(WavFormatError, match=expected):
        read_wav(path)


def test_write_wav_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        write_wav(tmp_path / "e.wav", AudioBuffer(np.empty(0), 8000))


def test_vad_trim_removes_silence():
    rate = 8000
    tone = 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(rate) / rate)
    padded = np.concatenate([np.zeros(rate // 2), tone, np.zeros(rate // 4)])
    trimmed = vad_trim(AudioBuffer(padded, rate))
    # 20 ms windows, so the kept span is the tone rounded to window borders
    assert abs(len(trimmed) - len(tone)) <= 2 * 160
    assert np.mean(trimmed.samples**2) > 0.9 * np.mean(tone**2)


def test_vad_trim_all_silence_comes_back_empty():
    trimmed = vad_trim(AudioBuffer(np.zeros(4000), 8000))
    assert len(trimmed) == 0


def test_awgn_hits_target_snr():
    rng = np.random.Generator(np.random.PCG64(3))
    clean = AudioBuffer(rng.standard_normal(80000) * 0.3, 8000)
    for snr_db in (30.0, 20.0, 10.0):
        noisy = add_awgn(clean, snr_db, seed=11)
        noise = noisy.samples - clean.samples
        measured = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
        assert abs(measured - snr_db) < 0.2


def test_awgn_deterministic_and_infinite_snr_is_identity():
    buf = AudioBuffer(np.sin(np.arange(1000) * 0.1), 8000)
    a = add_awgn(buf, 15.0, seed=5)
    b = add_awgn(buf, 15.0, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert add_awgn(buf, np.inf, seed=5) is buf
    with pytest.raises(ValueError):
        add_awgn(AudioBuffer(np.zeros(10), 8000), 20.0, seed=0)


@pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
def test_awgn_refuses_nan_and_negative_infinite_snr(snr_db):
    buf = AudioBuffer(np.sin(np.arange(1000) * 0.1), 8000)
    with pytest.raises(ValueError, match="snr_db must be finite or \\+inf"):
        add_awgn(buf, snr_db, seed=5)


@pytest.mark.parametrize("snr_db", [4000.0, 3100.0, -3100.0, -4000.0])
def test_awgn_refuses_a_finite_snr_without_a_positive_finite_deviation(snr_db):
    """10^(snr/10) overflows above about 3,083 dB; below about -3,083 dB
    the division overflows to an infinite deviation or, once the power
    ratio underflows to zero, divides by zero."""
    buf = AudioBuffer(np.sin(np.arange(1000) * 0.1), 8000)
    with pytest.raises(ValueError, match=f"^snr_db {snr_db:g} gives no positive finite noise deviation$"):
        add_awgn(buf, snr_db, seed=5)


def test_synthesize_deterministic():
    a = synthesize_speechlike(1.0, seed=42)
    b = synthesize_speechlike(1.0, seed=42)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = synthesize_speechlike(1.0, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesize_basic_shape():
    buf = synthesize_speechlike(2.5, seed=0, sample_rate=8000)
    assert len(buf) == 20000
    assert buf.sample_rate == 8000
    assert abs(np.max(np.abs(buf.samples)) - 0.9) < 1e-9


def test_synthesize_is_strongly_correlated():
    """Resonant filtering leaves heavy sample-to-sample correlation,
    which is what gives the border predictor something to learn."""
    for seed in (1, 2, 3):
        x = synthesize_speechlike(4.0, seed=seed).samples
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 > 0.8


def test_synthesize_has_quiet_and_loud_stretches():
    x = synthesize_speechlike(8.0, seed=9).samples
    win = 400
    rms = np.sqrt(np.mean(x[: len(x) // win * win].reshape(-1, win) ** 2, axis=1))
    assert rms.max() > 8.0 * rms.min()


def _reference_synthesize(duration_s, seed, sample_rate=8000):
    """synthesize_speechlike with its per-sample loops on numpy arrays, as it
    was before the loops moved onto Python-float chunks."""
    aio = audio_io
    n = int(round(duration_s * sample_rate))
    rng = np.random.Generator(np.random.PCG64(seed))
    times = np.arange(n) / sample_rate

    def piecewise_track(lo, hi, at, span):
        key_t = [0.0]
        key_v = [rng.uniform(lo, hi)]
        while key_t[-1] < duration_s:
            key_t.append(key_t[-1] + rng.uniform(*span))
            key_v.append(rng.uniform(lo, hi))
        return np.interp(at, key_t, key_v)

    env_t = [0.0]
    env_v = [rng.uniform(*aio._VOICED_LEVEL)]
    voiced_spans = []
    t = 0.0
    while t < duration_s:
        u = rng.uniform()
        if u < aio._P_PAUSE:
            dur = rng.uniform(*aio._PAUSE_DUR_S)
            level = rng.uniform(*aio._PAUSE_LEVEL)
        elif u < aio._P_PAUSE + aio._P_UNVOICED:
            dur = rng.uniform(*aio._UNVOICED_DUR_S)
            level = rng.uniform(*aio._UNVOICED_LEVEL)
        else:
            dur = rng.uniform(*aio._VOICED_DUR_S)
            level = rng.uniform(*aio._VOICED_LEVEL)
            voiced_spans.append((t, t + dur))
        env_t.append(t + aio._RAMP_S)
        env_v.append(level)
        hold = t + aio._RAMP_S
        while hold + 0.08 < t + dur:
            hold += rng.uniform(0.06, 0.15)
            env_t.append(hold)
            env_v.append(level * rng.uniform(0.7, 1.3))
        env_t.append(t + dur)
        env_v.append(level)
        t += dur
    envelope = np.interp(times, env_t, env_v)
    voiced = np.zeros(n, dtype=bool)
    for start, stop in voiced_spans:
        voiced[int(start * sample_rate) : min(n, int(stop * sample_rate))] = True

    pitch = piecewise_track(*aio._F0_RANGE_HZ, times, aio._F0_SPAN_S)
    pulses = np.zeros(n)
    pos = 0
    while pos < n:
        if voiced[pos]:
            pulses[pos] = 1.0
            pos += int(round(sample_rate / pitch[pos]))
        else:
            pos += 1
    noise = rng.standard_normal(n)
    excitation = aio._PULSE_GAIN * pulses + aio._ASPIRATION_GAIN * noise
    excitation[~voiced] += aio._FRICATION_GAIN * noise[~voiced]

    shaped = lfilter([1.0], [1.0, -0.97], excitation)
    for (f_lo, f_hi), radius in zip(aio._RESONANCE_BANDS, aio._RESONANCE_RADII):
        theta = 2.0 * math.pi * piecewise_track(f_lo, f_hi, times, aio._FORMANT_SPAN_S) / sample_rate
        a1 = 2.0 * radius * np.cos(theta)
        a2 = radius * radius
        gain = 1.0 - radius
        out = np.empty(n)
        y1 = 0.0
        y2 = 0.0
        for m in range(n):
            value = gain * shaped[m] + a1[m] * y1 - a2 * y2
            y2 = y1
            y1 = value
            out[m] = value
        shaped = out

    shaped = shaped * envelope
    peak = np.max(np.abs(shaped))
    return shaped * (0.9 / peak)


# Sample counts below one 4096-sample chunk, at exactly one and two chunks,
# and between chunk multiples, at both rates; then several chunks: at 2.0 s,
# seed 0 the envelope's keypoints step back in time inside the second chunk,
# where an envelope interpolated chunk by chunk differs.
@pytest.mark.parametrize(
    "duration_s, sample_rate",
    [
        (0.2, 8000), (0.512, 8000), (1.3, 8000), (0.1, 16000), (0.512, 16000), (0.77, 16000),
        (2.0, 8000), (10.0, 8000), (1.0, 16000),
    ],
)
def test_synthesize_matches_per_sample_reference_bytes(duration_s, sample_rate):
    for seed in (0, 7, 222):
        got = synthesize_speechlike(duration_s, seed, sample_rate).samples
        want = _reference_synthesize(duration_s, seed, sample_rate)
        assert got.tobytes() == want.tobytes()


def test_synthesize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synthesize_speechlike(0.0, seed=1)
    with pytest.raises(ValueError):
        synthesize_speechlike(1.0, seed=1, sample_rate=0)


def test_synthesize_refuses_a_fractional_rate_before_drawing_samples(monkeypatch):
    def unreachable(seed):
        raise AssertionError("the generator was built before the rate was checked")

    monkeypatch.setattr(audio_io.np.random, "PCG64", unreachable)
    with pytest.raises(ValueError, match="^sample_rate must be a positive whole number, got 8000.5$"):
        synthesize_speechlike(10.0, 0, 8000.5)


@pytest.mark.parametrize("duration_s", [math.inf, math.nan, -1.0])
def test_synthesize_refuses_a_duration_that_is_not_finite_and_positive(monkeypatch, duration_s):
    def unreachable(seed):
        raise AssertionError("the generator was built before the duration was checked")

    monkeypatch.setattr(audio_io.np.random, "PCG64", unreachable)
    message = f"^duration_s must be finite and positive, got {re.escape(str(duration_s))}$"
    with pytest.raises(ValueError, match=message):
        synthesize_speechlike(duration_s, 0)


_LOW_RATES = """
from audiojigsaw.audio_io import synthesize_speechlike
for rate in (1, 100, 135):
    try:
        synthesize_speechlike(1.0, 0, rate)
    except ValueError as exc:
        print(rate, exc)
    else:
        print(rate, "accepted")
print(136, len(synthesize_speechlike(1.0, 0, 136)))
"""


def test_synthesize_refuses_rates_too_low_for_a_pitch_period():
    """At 135 Hz and below a 270 Hz pitch period rounds to 0 samples and
    the pulse train never advanced, so synthesis never returned; the
    subprocess's timeout turns such a hang into a failure."""
    src = str(Path(audio_io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _LOW_RATES], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"{rate} sample_rate {rate} Hz is too low for a 270 Hz pitch period" for rate in (1, 100, 135)
    ] + ["136 136"]


def _traced_peak(build):
    """Bytes allocated at the peak of ``build()`` above what was live before, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _ten_seconds():
    return synthesize_speechlike(10.0, seed=0, sample_rate=8000)


def _package_constructors(tmp_path):
    """Every package function that builds an AudioBuffer, on 10 s at 8 kHz."""
    from audiojigsaw.scrambler import ScramblerConfig, descramble, make_key_schedule, scramble

    speech = _ten_seconds()
    cfg = ScramblerConfig()
    keys = make_key_schedule(3, cfg.frame_count(len(speech)), cfg.frame_size)
    cipher = scramble(speech, cfg, keys)
    path = tmp_path / "speech.wav"
    write_wav(path, speech)
    return {
        "synthesize_speechlike": _ten_seconds,
        "scramble": lambda: scramble(speech, cfg, keys),
        "descramble": lambda: descramble(cipher, cfg, keys),
        "add_awgn": lambda: add_awgn(speech, 20.0, seed=4),
        "vad_trim": lambda: vad_trim(speech),
        "read_wav": lambda: read_wav(path),
    }


def test_package_constructors_hand_over_arrays_that_own_their_data(tmp_path):
    for name, build in _package_constructors(tmp_path).items():
        samples = build().samples
        assert samples.flags.owndata and samples.base is None, name
        assert not samples.flags.writeable, name


# Peak memory while building 10 s at 8 kHz, in multiples of the output's
# bytes.  Before each constructor allocated its output once, these read
# 13.5x, 3.1x, 3.1x and 2.1x.
@pytest.mark.parametrize(
    "name, bound",
    [("synthesize_speechlike", 6.0), ("scramble", 1.25), ("descramble", 1.25), ("add_awgn", 1.25)],
)
def test_constructor_peak_memory(tmp_path, name, bound):
    build = _package_constructors(tmp_path)[name]
    build()  # first call warms numpy's and the interpreter's caches
    buf, peak = _traced_peak(build)
    assert peak <= bound * buf.samples.nbytes, f"{name}: {peak / buf.samples.nbytes:.2f}x"

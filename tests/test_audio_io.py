import math
import struct

import numpy as np
import pytest
from scipy.signal import lfilter

from audiojigsaw import audio_io
from audiojigsaw.audio_io import (
    AudioBuffer,
    VadConfig,
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


def test_vad_config_validation():
    with pytest.raises(ValueError):
        VadConfig(window_ms=0.0)
    with pytest.raises(ValueError):
        VadConfig(threshold_ratio=1.5)


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
# and between chunk multiples, at both rates.
@pytest.mark.parametrize(
    "duration_s, sample_rate",
    [(0.2, 8000), (0.512, 8000), (1.3, 8000), (0.1, 16000), (0.512, 16000), (0.77, 16000)],
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

"""Audio ingestion, synthesis, silence trimming, noise injection, WAV persistence.

Only PCM 16-bit mono WAV files are accepted.  Other layouts are rejected
instead of silently converted, so nothing downstream ever sees resampled
or channel-mixed data.

The synthesizer's per-sample loops (pulse placement, and one pass through
the tilt pole and three resonators with per-sample coefficients) run on
Python floats taken from ``tolist()`` chunks of 4,096 samples.  Indexing
numpy arrays sample by sample costs several times more, and Python floats
round exactly like float64 scalars, so the output is the same bit for bit.
The chunks bound the memory the lists take: a whole-signal list holds
every sample as a 24-byte float object plus a pointer, and took the peak
memory growth of a 10 s, 8 kHz synthesis from ~8 MB to ~20 MB.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np


class WavFormatError(ValueError):
    """A WAV file exists but is not PCM 16-bit mono."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples plus their sample rate in Hz.

    The sample array is made read-only on construction so buffers can be
    shared between pipeline stages without defensive copies.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64, copy=True)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional (mono)")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


# Energy gate of vad_trim: analysis window length, and the share of the
# loudest window's mean energy a window must reach to be kept.
_VAD_WINDOW_MS = 20.0
_VAD_THRESHOLD_RATIO = 0.05


def read_wav(path) -> AudioBuffer:
    """Load a PCM 16-bit mono WAV file, scaling samples to [-1, 1].

    Raises
    ------
    WavFormatError
        If the file is not RIFF/WAVE PCM, not mono, or not 16-bit.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            n_channels = handle.getnchannels()
            sample_width = handle.getsampwidth()
            rate = handle.getframerate()
            raw = handle.readframes(handle.getnframes())
    except wave.Error as exc:
        raise WavFormatError(f"{path}: unsupported WAV encoding ({exc})") from exc
    except EOFError as exc:
        raise WavFormatError(f"{path}: truncated WAV header") from exc
    if n_channels != 1:
        raise WavFormatError(f"{path}: channels: expected 1 (mono), got {n_channels}")
    if sample_width != 2:
        raise WavFormatError(
            f"{path}: sample width: expected 16-bit, got {8 * sample_width}-bit"
        )
    ints = np.frombuffer(raw, dtype="<i2")
    return AudioBuffer(ints / 32768.0, rate)


def write_wav(path, buf: AudioBuffer) -> None:
    """Store a buffer as PCM 16-bit mono, clipping amplitudes to full scale.

    Amplitude a maps to round(a * 32768) clamped to [-32768, 32767], the
    inverse of the read scaling, so a write/read round trip moves every
    sample by at most one quantization step (1/32768).
    """
    if len(buf) == 0:
        raise ValueError("refusing to write an empty buffer")
    ints = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(buf.sample_rate)
        handle.writeframes(ints.tobytes())


# Formant-like bands (Hz) and pole radii for the three drifting resonances.
_RESONANCE_BANDS = ((200.0, 850.0), (850.0, 2000.0), (1900.0, 3200.0))
_RESONANCE_RADII = (0.985, 0.975, 0.965)
_FORMANT_SPAN_S = (0.05, 0.2)

# Glottal-style excitation: pulse trains during voiced stretches, with the
# pitch range chosen so one period always fits well inside a 53-tap linear
# predictor at 8 kHz (periods of 30-42 samples).
_F0_RANGE_HZ = (190.0, 270.0)
_F0_SPAN_S = (0.3, 0.6)
_PULSE_GAIN = 4.0
_ASPIRATION_GAIN = 0.03
_FRICATION_GAIN = 0.6

# Phonation plan: probabilities and durations (s) of pause / fricative-like
# unvoiced / voiced stretches, plus their loudness ranges.
_P_PAUSE, _P_UNVOICED = 0.22, 0.05
_PAUSE_DUR_S = (0.06, 0.15)
_UNVOICED_DUR_S = (0.04, 0.10)
_VOICED_DUR_S = (0.12, 0.35)
_PAUSE_LEVEL = (0.02, 0.06)
_UNVOICED_LEVEL = (0.2, 0.5)
_VOICED_LEVEL = (0.5, 1.0)
_RAMP_S = 0.02

# Samples per Python-list chunk in the per-sample loops (see the module docstring).
_CHUNK = 4096


def _shape(excitation: np.ndarray, a1s: list[np.ndarray]) -> np.ndarray:
    """Tilt pole and the three resonators, from rest, in one pass over the samples.

    Per sample, the tilt t[m] = x[m] + 0.97 t[m-1] (what
    ``lfilter([1], [1, -0.97], x)`` computes, bit for bit) feeds resonator
    k, y[m] = gain * in[m] + a1s[k][m] y[m-1] - a2 y[m-2] with gain
    1 - radius and a2 = radius**2, whose output feeds resonator k + 1.
    Running the cascade sample by sample does every float operation of
    filtering stage by stage, in the same order.
    """
    (ga, a2a), (gb, a2b), (gc, a2c) = ((1.0 - r, r * r) for r in _RESONANCE_RADII)
    out = np.empty(excitation.size)
    t = p1 = p2 = q1 = q2 = r1 = r2 = 0.0
    for lo in range(0, excitation.size, _CHUNK):
        hi = lo + _CHUNK
        block = []
        for x, ca, cb, cc in zip(excitation[lo:hi].tolist(), *(a1[lo:hi].tolist() for a1 in a1s)):
            t = x + 0.97 * t
            p1, p2 = ga * t + ca * p1 - a2a * p2, p1
            q1, q2 = gb * p1 + cb * q1 - a2b * q2, q1
            r1, r2 = gc * q1 + cc * r1 - a2c * r2, r1
            block.append(r1)
        out[lo : lo + len(block)] = block
    return out


def synthesize_speechlike(duration_s: float, seed: int, sample_rate: int = 8000) -> AudioBuffer:
    """Generate a speech-like test signal: voiced stretches, bursts, pauses.

    A random phonation plan alternates voiced stretches (120-350 ms),
    short fricative-like noise bursts, and near-silent pauses.  Voiced
    excitation is a glottal-style pulse train following a slowly moving
    pitch track, plus a whisper of aspiration noise; unvoiced excitation
    is plain noise.  The excitation passes through a low-frequency tilt
    pole and three resonances whose center frequencies glide between
    random targets held for 50-200 ms (interpolated per sample, so the
    spectral envelope evolves without jumps).  A loudness contour with
    syllable-scale wobble shapes the result, which is peak-normalized
    to 0.9.

    All randomness comes from one PCG64 generator, so the output is a
    pure function of (duration_s, seed, sample_rate).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    n = int(round(duration_s * sample_rate))
    rng = np.random.Generator(np.random.PCG64(seed))
    times = np.arange(n) / sample_rate

    def piecewise_track(lo, hi, at, span):
        """Random piecewise-linear track: new target every span seconds."""
        key_t = [0.0]
        key_v = [rng.uniform(lo, hi)]
        while key_t[-1] < duration_s:
            key_t.append(key_t[-1] + rng.uniform(*span))
            key_v.append(rng.uniform(lo, hi))
        return np.interp(at, key_t, key_v)

    # Phonation plan: envelope keypoints plus the voiced time spans.
    env_t = [0.0]
    env_v = [rng.uniform(*_VOICED_LEVEL)]
    voiced_spans = []
    t = 0.0
    while t < duration_s:
        u = rng.uniform()
        if u < _P_PAUSE:
            dur = rng.uniform(*_PAUSE_DUR_S)
            level = rng.uniform(*_PAUSE_LEVEL)
        elif u < _P_PAUSE + _P_UNVOICED:
            dur = rng.uniform(*_UNVOICED_DUR_S)
            level = rng.uniform(*_UNVOICED_LEVEL)
        else:
            dur = rng.uniform(*_VOICED_DUR_S)
            level = rng.uniform(*_VOICED_LEVEL)
            voiced_spans.append((t, t + dur))
        env_t.append(t + _RAMP_S)
        env_v.append(level)
        hold = t + _RAMP_S
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

    pitch = piecewise_track(*_F0_RANGE_HZ, times, _F0_SPAN_S)
    pulse_at = []
    pos = 0
    for lo in range(0, n, _CHUNK):
        is_voiced = voiced[lo : lo + _CHUNK].tolist()
        f0 = pitch[lo : lo + _CHUNK].tolist()
        while pos < lo + len(is_voiced):
            if is_voiced[pos - lo]:
                pulse_at.append(pos)
                pos += int(round(sample_rate / f0[pos - lo]))
            else:
                pos += 1
    pulses = np.zeros(n)
    pulses[pulse_at] = 1.0
    noise = rng.standard_normal(n)
    excitation = _PULSE_GAIN * pulses + _ASPIRATION_GAIN * noise
    excitation[~voiced] += _FRICATION_GAIN * noise[~voiced]

    a1s = []
    for (f_lo, f_hi), radius in zip(_RESONANCE_BANDS, _RESONANCE_RADII):
        theta = 2.0 * math.pi * piecewise_track(f_lo, f_hi, times, _FORMANT_SPAN_S) / sample_rate
        a1s.append(2.0 * radius * np.cos(theta))

    shaped = _shape(excitation, a1s) * envelope
    peak = np.max(np.abs(shaped))
    return AudioBuffer(shaped * (0.9 / peak), sample_rate)


def vad_trim(buf: AudioBuffer) -> AudioBuffer:
    """Drop low-energy 20 ms analysis windows, keeping the rest in order.

    A window survives when its mean energy reaches 0.05 times the peak
    window energy.  An all-silent buffer comes back empty.
    """
    if len(buf) == 0:
        raise ValueError("cannot trim an empty buffer")
    win = max(1, int(round(_VAD_WINDOW_MS * buf.sample_rate / 1000.0)))
    n_win = -(-len(buf) // win)
    energies = np.array(
        [np.mean(buf.samples[i * win : (i + 1) * win] ** 2) for i in range(n_win)]
    )
    peak = energies.max()
    if peak == 0.0:
        return AudioBuffer(np.empty(0), buf.sample_rate)
    kept = [
        buf.samples[i * win : (i + 1) * win]
        for i in range(n_win)
        if energies[i] >= _VAD_THRESHOLD_RATIO * peak
    ]
    joined = np.concatenate(kept) if kept else np.empty(0)
    return AudioBuffer(joined, buf.sample_rate)


def add_awgn(buf: AudioBuffer, snr_db: float, seed: int) -> AudioBuffer:
    """Add white Gaussian noise at the requested signal-to-noise ratio.

    Noise variance is mean(x^2) / 10^(snr_db/10).  Deviates come from
    numpy's PCG64 generator (ziggurat standard-normal transform), so the
    channel is byte-reproducible for a given seed.  An snr_db of +inf
    returns the input unchanged; NaN and -inf are refused.
    """
    if snr_db == math.inf:
        return buf
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    power = float(np.mean(buf.samples**2)) if len(buf) else 0.0
    if power == 0.0:
        raise ValueError("zero-power signal: SNR is undefined")
    sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    return AudioBuffer(buf.samples + sigma * rng.standard_normal(len(buf)), buf.sample_rate)

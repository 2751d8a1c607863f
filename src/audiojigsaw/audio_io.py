"""Audio ingestion, synthesis, silence trimming, noise injection, WAV persistence.

Only PCM 16-bit mono WAV files are accepted.  Other layouts are rejected
instead of silently converted, so nothing downstream ever sees resampled
or channel-mixed data.

Every function here that builds samples allocates them once: it fills a
fresh array, makes it read-only and hands it to :class:`AudioBuffer`,
which keeps such an array without copying it.

The synthesizer streams its signal through chunks of 4,096 samples.  Only
four arrays span the whole signal: the noise, the voiced mask, the
loudness envelope and the output.  Per chunk it interpolates the pitch
and formant tracks, places the pulses, builds the excitation and runs
its per-sample loops (pulse placement, and one pass through the tilt
pole and three resonators with per-sample coefficients) on Python floats
taken from ``tolist()``.  Indexing numpy arrays sample by sample costs
several times more, and Python floats round exactly like float64
scalars, so the output is the same bit for bit as filtering whole-signal
arrays.  The chunks also bound the memory the lists take: a whole-signal
list holds every sample as a 24-byte float object plus a pointer.  A
10 s, 8 kHz synthesis peaks at 4.9 times its output's bytes under
tracemalloc, against 13.5 times when every track and the excitation
spanned the whole signal.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np


class WavFormatError(ValueError):
    """A WAV file exists but is not PCM 16-bit mono."""


def _is_frozen_owner_chain(samples) -> bool:
    """True for a 1-d, C-contiguous, native float64 ndarray that nothing
    can write through: it and every ndarray in its ``.base`` chain are
    read-only, and the chain ends at an ndarray owning its data."""
    if not (
        type(samples) is np.ndarray
        and samples.ndim == 1
        and samples.dtype == np.float64  # a byte-swapped float64 compares unequal
        and samples.flags.c_contiguous
    ):
        return False
    array = samples
    while type(array) is np.ndarray and not array.flags.writeable:
        if array.base is None:
            return array.flags.owndata
        array = array.base
    return False


def _whole(value, least: int, name: str) -> int:
    """The package's one count rule: a whole number (``8``, ``8.0`` or a numpy
    integer) of at least ``least``, returned as an ``int``.  Anything else
    (a fraction, NaN, an infinity, a string, a number below ``least``)
    raises ValueError naming the setting ``name`` and its bound."""
    try:
        if int(value) == value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    bound = {0: "a non-negative whole number", 1: "a positive whole number"}.get(least)
    raise ValueError(f"{name} must be {bound or f'a whole number of at least {least}'}, got {value!r}")


def _positive(value, name: str) -> None:
    """The package's one rule for amounts of time (seconds, milliseconds,
    minutes): finite and positive, else ValueError naming ``name``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _snr_power_ratio(snr_db: float) -> float:
    """The package's one SNR rule: the power ratio 10^(snr_db/10), +inf for +inf.

    NaN, -inf and finite values whose ratio is not a positive finite float
    (beyond about +-3,083 dB) are refused: no signal power gives them a
    positive finite noise deviation.
    """
    if snr_db == math.inf:
        return math.inf
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"snr_db {snr_db:g} gives no positive finite noise deviation")
    return ratio


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples plus their sample rate in Hz.

    The sample array is read-only, so buffers can be shared between
    pipeline stages without defensive copies.  An input that is already
    frozen is kept as it is: a 1-d, C-contiguous, native float64 ndarray
    is adopted without a copy when neither it nor any ndarray in its
    ``.base`` chain is writeable and the chain ends at an ndarray that
    owns its data.  So ``AudioBuffer(buf.samples[lo:hi], rate)`` is a
    view of ``buf``.  Any other input (a writeable array, a read-only
    view of a writeable one, an array over a ``bytes`` object or a memory
    map, a list) is copied and the copy frozen.  An owner that turns
    ``writeable`` back on can change an adopted buffer, just as setting
    ``buf.samples.flags.writeable = True`` can change any buffer.

    The sample rate must be a positive whole number (``8000`` or
    ``8000.0``), stored as an ``int``: the count rule of :func:`_whole`.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = self.samples
        if not _is_frozen_owner_chain(samples):
            samples = np.array(samples, dtype=np.float64, copy=True)
            samples.flags.writeable = False
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional (mono)")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", _whole(self.sample_rate, 1, "sample_rate"))

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
        If the file is not RIFF/WAVE PCM, not mono, or not 16-bit, or
        holds fewer sample bytes than its header declares.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            n_channels = handle.getnchannels()
            sample_width = handle.getsampwidth()
            rate = handle.getframerate()
            n_frames = handle.getnframes()
            raw = handle.readframes(n_frames)
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
    if len(raw) != 2 * n_frames:
        raise WavFormatError(
            f"{path}: truncated data: header declares {n_frames} frames, "
            f"file holds {len(raw) // 2}"
        )
    samples = np.frombuffer(raw, dtype="<i2") / 32768.0
    samples.flags.writeable = False
    return AudioBuffer(samples, rate)


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


def _shape(excitation: np.ndarray, a1s: np.ndarray, state: list[float]) -> list[float]:
    """Tilt pole and the three resonators over one chunk, in one pass over its samples.

    Per sample, the tilt t[m] = x[m] + 0.97 t[m-1] (what
    ``lfilter([1], [1, -0.97], x)`` computes, bit for bit) feeds resonator
    k, y[m] = gain * in[m] + a1s[k][m] y[m-1] - a2 y[m-2] with gain
    1 - radius and a2 = radius**2, whose output feeds resonator k + 1.
    Running the cascade sample by sample does every float operation of
    filtering stage by stage, in the same order.  ``state`` holds the
    seven filter memories (t, then y[m-1] and y[m-2] of each resonator),
    all 0.0 at rest; it is updated in place, so consecutive chunks filter
    as one signal.  Returns the chunk's output samples.
    """
    (ga, a2a), (gb, a2b), (gc, a2c) = ((1.0 - r, r * r) for r in _RESONANCE_RADII)
    t, p1, p2, q1, q2, r1, r2 = state
    block = []
    for x, ca, cb, cc in zip(excitation.tolist(), *a1s.tolist()):
        t = x + 0.97 * t
        p1, p2 = ga * t + ca * p1 - a2a * p2, p1
        q1, q2 = gb * p1 + cb * q1 - a2b * q2, q1
        r1, r2 = gc * q1 + cc * r1 - a2c * r2, r1
        block.append(r1)
    state[:] = t, p1, p2, q1, q2, r1, r2
    return block


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

    ``duration_s`` must be finite and positive and last at least one
    sample, and ``sample_rate`` must be a whole number above 135 Hz, where
    a 270 Hz pitch period would round to 0 samples; all are checked, and
    the output allocated, before any sample is drawn, so a duration too
    long for memory is refused at once.
    """
    _positive(duration_s, "duration_s")
    sample_rate = _whole(sample_rate, 1, "sample_rate")
    if round(sample_rate / _F0_RANGE_HZ[1]) < 1:
        raise ValueError(f"sample_rate {sample_rate} Hz is too low for a {_F0_RANGE_HZ[1]:g} Hz pitch period")
    n = int(round(duration_s * sample_rate))
    if n == 0:
        raise ValueError(f"duration_s {duration_s:g} s is shorter than one sample at {sample_rate} Hz")
    try:
        out = np.empty(n)
    except MemoryError as err:
        raise ValueError(f"duration_s {duration_s:g} s needs {n} samples, more than memory holds") from err
    rng = np.random.Generator(np.random.PCG64(seed))

    def track_keys(lo, hi, span):
        """Keypoints of a random piecewise-linear track: new target every span seconds."""
        key_t = [0.0]
        key_v = [rng.uniform(lo, hi)]
        while key_t[-1] < duration_s:
            key_t.append(key_t[-1] + rng.uniform(*span))
            key_v.append(rng.uniform(lo, hi))
        return np.array(key_t), np.array(key_v)

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
    # env_t steps back where a hold passes its stretch's end, and there
    # np.interp's answer depends on where its search starts: the envelope
    # is one call over all samples, never per chunk.
    envelope = np.interp(np.arange(n) / sample_rate, env_t, env_v)
    voiced = np.zeros(n, dtype=bool)
    for start, stop in voiced_spans:
        voiced[int(start * sample_rate) : min(n, int(stop * sample_rate))] = True

    pitch_t, pitch_v = track_keys(*_F0_RANGE_HZ, _F0_SPAN_S)
    noise = rng.standard_normal(n)
    formant_keys = [track_keys(f_lo, f_hi, _FORMANT_SPAN_S) for f_lo, f_hi in _RESONANCE_BANDS]
    a1_gain = np.array([[2.0 * radius] for radius in _RESONANCE_RADII])

    state = [0.0] * 7
    pos = 0
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        at = np.arange(lo, hi) / sample_rate
        is_voiced = voiced[lo:hi]
        flags = is_voiced.tolist()
        f0 = np.interp(at, pitch_t, pitch_v).tolist()
        excitation = np.zeros(hi - lo)
        while pos < hi:
            if flags[pos - lo]:
                excitation[pos - lo] = _PULSE_GAIN
                pos += int(round(sample_rate / f0[pos - lo]))
            else:
                pos += 1
        chunk_noise = noise[lo:hi]
        excitation += _ASPIRATION_GAIN * chunk_noise
        unvoiced = ~is_voiced
        excitation[unvoiced] += _FRICATION_GAIN * chunk_noise[unvoiced]
        theta = 2.0 * math.pi * np.array([np.interp(at, *keys) for keys in formant_keys]) / sample_rate
        out[lo:hi] = _shape(excitation, a1_gain * np.cos(theta), state)

    out *= envelope
    out *= 0.9 / max(out.max(), -out.min())
    out.flags.writeable = False
    return AudioBuffer(out, sample_rate)


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
    joined = np.concatenate(kept)  # never empty: the loudest window is kept
    joined.flags.writeable = False
    return AudioBuffer(joined, buf.sample_rate)


def add_awgn(buf: AudioBuffer, snr_db: float, seed: int) -> AudioBuffer:
    """Add white Gaussian noise at the requested signal-to-noise ratio.

    Noise variance is mean(x^2) / 10^(snr_db/10).  Deviates come from
    numpy's PCG64 generator (ziggurat standard-normal transform), so the
    channel is byte-reproducible for a given seed.  An snr_db of +inf
    returns the input unchanged.  snr_db must pass
    :func:`_snr_power_ratio`, and the noise deviation it gives this signal
    must be a positive finite float.
    """
    ratio = _snr_power_ratio(snr_db)
    if ratio == math.inf:
        return buf
    power = float(np.mean(buf.samples**2)) if len(buf) else 0.0
    if power == 0.0:
        raise ValueError("zero-power signal: SNR is undefined")
    sigma = math.sqrt(power / ratio)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"snr_db {snr_db:g} gives no positive finite noise deviation")
    rng = np.random.Generator(np.random.PCG64(seed))
    # sigma * z + x, built in place in the deviates' array; float + and *
    # commute, so the bits are those of x + sigma * z.
    noisy = rng.standard_normal(len(buf))
    noisy *= sigma
    noisy += buf.samples
    noisy.flags.writeable = False
    return AudioBuffer(noisy, buf.sample_rate)

"""Hopping-window time-domain scrambler: per-frame segment permutations.

A frame is ``frame_size`` consecutive segments of fixed duration.  Each
frame gets its own permutation key, freshly drawn per frame, which is what
makes exhaustive key search hopeless and motivates the puzzle attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio_io import AudioBuffer, _positive, _whole


@dataclass(frozen=True)
class ScramblerConfig:
    """Framing geometry: segments per frame, segment duration, sample rate.

    ``frame_size`` is a whole number of at least 2 segments, so every
    frame has an order to hide, and ``segment_ms`` is finite and positive.
    The sample rate is a positive whole number, as in :class:`AudioBuffer`,
    and audio at another rate is refused wherever it is cut into frames.
    Both counts are stored as ``int``.
    """

    frame_size: int = 8
    segment_ms: float = 40.0
    sample_rate: int = 8000

    def __post_init__(self):
        object.__setattr__(self, "frame_size", _whole(self.frame_size, 2, "frame_size"))
        _positive(self.segment_ms, "segment_ms")
        object.__setattr__(self, "sample_rate", _whole(self.sample_rate, 1, "sample_rate"))
        if self.segment_samples < 1:
            raise ValueError("segment shorter than one sample")

    @property
    def segment_samples(self) -> int:
        return int(round(self.segment_ms * self.sample_rate / 1000.0))

    @property
    def frame_samples(self) -> int:
        return self.frame_size * self.segment_samples

    def frame_count(self, n_samples: int) -> int:
        """Full frames in a signal of ``n_samples`` samples; a signal without one is refused."""
        n_frames = _whole(n_samples, 0, "n_samples") // self.frame_samples
        if n_frames == 0:
            raise ValueError(
                f"signal of {n_samples} samples is shorter than one {self.frame_samples}-sample frame"
            )
        return n_frames


@dataclass(frozen=True)
class KeySchedule:
    """One permutation per frame."""

    keys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.keys:
            raise ValueError("key schedule is empty")
        size = len(self.keys[0])
        for i, key in enumerate(self.keys):
            if len(key) != size or sorted(key) != list(range(size)):
                raise ValueError(f"key {i} is not a permutation of 0..{size - 1}")

    @property
    def frame_size(self) -> int:
        return len(self.keys[0])

    def __len__(self) -> int:
        return len(self.keys)


def make_key_schedule(seed: int, n_frames: int, frame_size: int) -> KeySchedule:
    """Draw ``n_frames`` independent uniform permutations from a seeded PCG64.

    numpy's Generator.permutation performs a Fisher-Yates shuffle, so every
    permutation of 0..frame_size-1 is equally likely and the whole schedule
    is a pure function of the seed.  ``n_frames`` must be a positive whole
    number and ``frame_size`` a whole number of at least 2.
    """
    n_frames = _whole(n_frames, 1, "n_frames")
    frame_size = _whole(frame_size, 2, "frame_size")
    rng = np.random.Generator(np.random.PCG64(seed))
    keys = tuple(tuple(int(v) for v in rng.permutation(frame_size)) for _ in range(n_frames))
    return KeySchedule(keys)


def invert_permutation(key: Sequence[int]) -> tuple[int, ...]:
    """Return the inverse permutation: out[key[i]] = i."""
    inv = [0] * len(key)
    for i, k in enumerate(key):
        inv[k] = i
    return tuple(inv)


def _split_frames(buf: AudioBuffer, cfg: ScramblerConfig):
    """Full frames as an (n_frames, frame_size, segment_samples) view plus the tail;
    every cut of audio into frames goes through here."""
    if buf.sample_rate != cfg.sample_rate:
        raise ValueError(f"audio at {buf.sample_rate} Hz does not match the {cfg.sample_rate} Hz geometry")
    n_frames = cfg.frame_count(len(buf))
    body = buf.samples[: n_frames * cfg.frame_samples]
    tail = buf.samples[n_frames * cfg.frame_samples :]
    return body.reshape(n_frames, cfg.frame_size, cfg.segment_samples), tail


def _check_schedule(ks: KeySchedule, cfg: ScramblerConfig, n_frames: int) -> None:
    if ks.frame_size != cfg.frame_size:
        raise ValueError(
            f"key width {ks.frame_size} does not match frame_size {cfg.frame_size}"
        )
    if len(ks) < n_frames:
        raise ValueError(f"key schedule has {len(ks)} keys but {n_frames} frames need one")


def _gather_segments(buf: AudioBuffer, cfg: ScramblerConfig, ks: KeySchedule) -> AudioBuffer:
    """Output segment i of full frame f is its input segment ks.keys[f][i], all
    frames in one gather straight into the output; a trailing partial frame
    passes through untouched."""
    frames, tail = _split_frames(buf, cfg)
    n_frames = len(frames)
    _check_schedule(ks, cfg, n_frames)
    index = np.array(ks.keys[:n_frames], dtype=np.intp)
    index += cfg.frame_size * np.arange(n_frames)[:, None]
    segments = frames.reshape(-1, cfg.segment_samples)
    out = np.empty(len(buf))
    body = out[: segments.size].reshape(segments.shape)
    # Every index is in range (keys are permutations); mode="clip" lets
    # take write straight into ``out``, where mode="raise" buffers it.
    np.take(segments, index.reshape(-1), axis=0, out=body, mode="clip")
    out[segments.size :] = tail
    out.flags.writeable = False
    return AudioBuffer(out, buf.sample_rate)


def scramble(buf: AudioBuffer, cfg: ScramblerConfig, ks: KeySchedule) -> AudioBuffer:
    """Permute segments inside each full frame: output segment i is input segment key[i].

    A trailing partial frame passes through untouched; a signal shorter
    than one frame is refused.
    """
    return _gather_segments(buf, cfg, ks)


def descramble(buf: AudioBuffer, cfg: ScramblerConfig, ks: KeySchedule) -> AudioBuffer:
    """Invert :func:`scramble`: output segment key[i] receives input segment i."""
    return _gather_segments(buf, cfg, KeySchedule(tuple(invert_permutation(k) for k in ks.keys)))


def keyspace_bits(minutes: float, segment_ms: float, frame_size: int) -> int:
    """Bits of work to try every key of each frame of a conversation on its own.

    A conversation of ``minutes`` minutes holds minutes*60 / (L * N) frames
    of N segments lasting L seconds each, and every frame independently
    takes one of N! keys.  Returns ceil(log2(frames * N!)): 26 bits at N=8
    over five minutes, where whole key sequences span frames * log2(N!),
    about 14,343 bits, that no frame-by-frame attack searches.  A conversation
    shorter than one frame is refused, as :meth:`ScramblerConfig.frame_count`
    refuses a signal without a full frame.  ``minutes`` and ``segment_ms``
    must be finite and positive, and ``frame_size`` a whole number of at
    least 2.
    """
    _positive(minutes, "minutes")
    _positive(segment_ms, "segment_ms")
    frame_size = _whole(frame_size, 2, "frame_size")
    n_frames = minutes * 60.0 / (segment_ms / 1000.0 * frame_size)
    if not 0 < n_frames < math.inf:
        raise ValueError(f"{minutes:g} minutes of {segment_ms:g} ms segments hold no countable frames")
    if n_frames < 1:
        raise ValueError(f"{minutes:g} minutes is shorter than one {segment_ms * frame_size:g} ms frame")
    bits = math.log2(n_frames) + math.log2(math.factorial(frame_size))
    return math.ceil(bits)


def save_keys(ks: KeySchedule, path) -> None:
    """Write one frame key per line as space-separated 0-based indices."""
    with open(path, "w", encoding="ascii") as handle:
        for key in ks.keys:
            handle.write(" ".join(str(v) for v in key) + "\n")


def load_keys(path) -> KeySchedule:
    """Read a key schedule written by :func:`save_keys`."""
    keys = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if line:
                keys.append(tuple(int(tok) for tok in line.split()))
    return KeySchedule(tuple(keys))

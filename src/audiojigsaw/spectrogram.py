"""Short-time magnitude spectra and their conversion to puzzle-piece images.

The scrambled signal is cut at segment borders before any windowing, so no
analysis window ever straddles two segments; each segment becomes one
"piece" whose columns are magnitude spectra of successive windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio_io import _whole


@dataclass(frozen=True)
class StftConfig:
    """Sliding-window transform geometry.

    ``window_size`` samples per Hamming window, consecutive windows share
    ``overlap`` samples, and each window is zero-padded to ``fft_size``.
    Each is a whole number, stored as an ``int``: ``window_size`` at least
    2, ``overlap`` at least 0 and below ``window_size``, and ``fft_size`` a
    power of two no shorter than the window.
    """

    window_size: int = 60
    overlap: int = 51
    fft_size: int = 256

    def __post_init__(self):
        for name, least in (("window_size", 2), ("overlap", 0), ("fft_size", 1)):
            object.__setattr__(self, name, _whole(getattr(self, name), least, name))
        if self.overlap >= self.window_size:
            raise ValueError("overlap must be less than window_size")
        if self.fft_size < self.window_size or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two no shorter than window_size")

    @property
    def hop(self) -> int:
        return self.window_size - self.overlap


def hamming_window(size: int) -> np.ndarray:
    """Symmetric Hamming taper: 0.54 - 0.46*cos(2*pi*n/(size-1)), for a whole ``size`` of at least 2."""
    size = _whole(size, 2, "size")
    n = np.arange(size)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (size - 1))


def segmented_spectrogram(segments: Sequence, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """The ``(N, fft_size/2, n_columns)`` magnitude spectra of a frame's N segments.

    Matrix i is segment i's spectrogram, windowed strictly inside it:
    column m holds |FFT| of its Hamming-windowed slice starting at sample
    m * hop (0-based), zero-padded to fft_size, and n_columns =
    floor((L - overlap) / hop).  Row r is frequency bin r+1: the DC bin is
    dropped, bins 1..fft_size/2 kept.  A frame's segments share their
    length, so the whole frame goes through one windowing and one FFT call;
    each matrix is bit-identical to the one-segment reference in the tests
    (``tests/references.py``).
    """
    if not len(segments):
        raise ValueError("no segments given")
    lengths = sorted({np.size(seg) for seg in segments})
    if len(lengths) > 1:
        raise ValueError(f"segments of one frame must share their length, got lengths {lengths}")
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be one-dimensional")
    if x.shape[1] < cfg.window_size:
        raise ValueError(
            f"sequence of {x.shape[1]} samples is shorter than one {cfg.window_size}-sample window"
        )
    n_cols = (x.shape[1] - cfg.overlap) // cfg.hop
    windows = np.lib.stride_tricks.sliding_window_view(x, cfg.window_size, axis=1)
    slices = windows[:, :: cfg.hop][:, :n_cols]
    spectra = np.fft.rfft(slices * hamming_window(cfg.window_size), n=cfg.fft_size, axis=2)
    return np.abs(spectra[:, :, 1 : cfg.fft_size // 2 + 1]).transpose(0, 2, 1)


def quantize_frame(spectra) -> np.ndarray:
    """Map a frame's ``(N, rows, cols)`` magnitude spectra jointly onto 0..255.

    Each value v becomes 20*log10(v + 1e-10) dB first.  One (lo, hi) range
    is taken over the whole frame so grey levels stay comparable across
    pieces; lo maps to 0, hi to 255, rounding half-up.  A flat frame
    (hi == lo) quantizes to all zeros.  Returns the frame's pieces as one
    uint8 array of the same shape.  The steps run in place in one float64
    temporary, in the order the formula reads.
    """
    values = np.asarray(spectra, dtype=np.float64)
    if values.ndim != 3 or values.size == 0:
        raise ValueError("spectra must be a non-empty (pieces, rows, cols) array")
    scaled = values + 1e-10
    np.log10(scaled, out=scaled)
    scaled *= 20.0
    lo, hi = scaled.min(), scaled.max()
    if hi == lo:
        return np.zeros(scaled.shape, dtype=np.uint8)
    scaled -= lo
    scaled *= 255.0
    scaled /= hi - lo
    scaled += 0.5
    np.floor(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    return scaled.astype(np.uint8)


def write_pgm(pixels: np.ndarray, path) -> None:
    """Dump one piece, a 2-d uint8 matrix, as binary PGM, low frequencies at the bottom."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise ValueError("PGM export needs a 2-d uint8 matrix")
    rows, cols = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        handle.write(np.flipud(pixels).tobytes())

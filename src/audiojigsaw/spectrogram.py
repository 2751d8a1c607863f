"""Short-time magnitude spectra and their conversion to puzzle-piece images.

The scrambled signal is cut at segment borders before any windowing, so no
analysis window ever straddles two segments; each segment becomes one
"piece" whose columns are magnitude spectra of successive windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class StftConfig:
    """Sliding-window transform geometry.

    ``window_size`` samples per Hamming window, consecutive windows share
    ``overlap`` samples, and each window is zero-padded to ``fft_size``.
    """

    window_size: int = 60
    overlap: int = 51
    fft_size: int = 256

    def __post_init__(self):
        if self.window_size < 2:
            raise ValueError("window_size must be at least 2")
        if not 0 <= self.overlap < self.window_size:
            raise ValueError("overlap must satisfy 0 <= overlap < window_size")
        if self.fft_size < self.window_size:
            raise ValueError("fft_size must be at least window_size")
        if self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")

    @property
    def hop(self) -> int:
        return self.window_size - self.overlap


def hamming_window(size: int) -> np.ndarray:
    """Symmetric Hamming taper: 0.54 - 0.46*cos(2*pi*n/(size-1))."""
    if size < 2:
        raise ValueError("window needs at least 2 points")
    n = np.arange(size)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (size - 1))


def stft_magnitude(samples, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Magnitude spectrogram, shape (fft_size/2, n_columns).

    Column m holds |FFT| of the windowed slice starting at sample
    m * hop (0-based); n_columns = floor((len - overlap) / hop).  Row r is
    frequency bin r+1: the DC bin is dropped, bins 1..fft_size/2 kept.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size < cfg.window_size:
        raise ValueError(
            f"sequence of {x.size} samples is shorter than one {cfg.window_size}-sample window"
        )
    n_cols = (x.size - cfg.overlap) // cfg.hop
    slices = np.lib.stride_tricks.sliding_window_view(x, cfg.window_size)[:: cfg.hop][:n_cols]
    spectra = np.fft.rfft(slices * hamming_window(cfg.window_size), n=cfg.fft_size, axis=1)
    return np.abs(spectra[:, 1 : cfg.fft_size // 2 + 1]).T


def window_coverage(sample_pos: int, segment_len: int, window_size: int) -> int:
    """How many maximally-overlapped analysis windows contain a sample.

    With hop 1, a sample at 1-based position j of a segment of length L is
    seen by j windows near the left border, window_size windows in the
    interior, and L - j + 1 near the right border.  Border samples
    therefore influence fewer spectrogram columns, which is exactly the
    artifact predictive extension repairs.
    """
    if not 1 <= sample_pos <= segment_len:
        raise ValueError("sample_pos must lie in 1..segment_len")
    if window_size > segment_len:
        raise ValueError("window longer than segment")
    if sample_pos < window_size:
        return sample_pos
    if sample_pos <= segment_len - window_size:
        return window_size
    return segment_len - sample_pos + 1


def segmented_spectrogram(segments: Sequence, cfg: StftConfig = StftConfig()) -> list[np.ndarray]:
    """One magnitude matrix per segment, each windowed strictly inside it.

    A frame's segments share their length, so the whole frame goes through
    one windowing and one FFT call; each matrix is bit-identical to
    :func:`stft_magnitude` of its segment.
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
    return list(np.abs(spectra[:, :, 1 : cfg.fft_size // 2 + 1]).transpose(0, 2, 1))


@dataclass(frozen=True)
class PieceImage:
    """8-bit puzzle piece: quantized magnitude matrix plus its position in the frame."""

    pixels: np.ndarray
    piece_index: int

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 2:
            raise ValueError("pixels must be a 2-d matrix")
        if pixels.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if self.piece_index < 0:
            raise ValueError("piece_index must be non-negative")
        pixels = pixels.copy()
        pixels.flags.writeable = False
        object.__setattr__(self, "pixels", pixels)


def quantize_frame(matrices: Sequence[np.ndarray], scale: str = "db") -> list[PieceImage]:
    """Map a frame's magnitude matrices jointly onto 0..255.

    With the default ``db`` scale each value v becomes 20*log10(v + 1e-10)
    first.  One (lo, hi) range is taken over ALL matrices of the frame so
    grey levels stay comparable across pieces; lo maps to 0, hi to 255,
    rounding half-up.  A flat frame (hi == lo) quantizes to all zeros.  The
    matrices are placed side by side and go through one elementwise pass,
    then are split back, so they may differ in column count.
    """
    if not len(matrices):
        raise ValueError("no matrices given")
    if scale not in ("db", "linear"):
        raise ValueError(f"scale must be 'db' or 'linear', got {scale!r}")
    rows = matrices[0].shape[0]
    if any(m.shape[0] != rows for m in matrices):
        raise ValueError("matrices of one frame must share their row count")
    values = np.concatenate(matrices, axis=1, dtype=np.float64)
    if scale == "db":
        values = 20.0 * np.log10(values + 1e-10)
    lo, hi = values.min(), values.max()
    if hi == lo:
        pixels = np.zeros(values.shape, dtype=np.uint8)
    else:
        scaled = 255.0 * (values - lo) / (hi - lo)
        pixels = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    cuts = np.cumsum([m.shape[1] for m in matrices[:-1]], dtype=np.intp)
    return [PieceImage(p, i) for i, p in enumerate(np.split(pixels, cuts, axis=1))]


def write_pgm(piece, path) -> None:
    """Dump a piece (or raw uint8 matrix) as binary PGM, low frequencies at the bottom."""
    pixels = piece.pixels if isinstance(piece, PieceImage) else np.asarray(piece)
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise ValueError("PGM export needs a 2-d uint8 matrix")
    rows, cols = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        handle.write(np.flipud(pixels).tobytes())

"""Directed dissimilarity between puzzle pieces and the pairwise cost matrix.

The score for placing piece j directly after piece i compares one border
column of each: the right edge of i against the left edge of j.  Because
border columns are distorted (fewer windows cover border samples, and any
extension is only a forecast), the comparison may slide up to
``max_penetration`` columns inward on both pieces and up to ``max_slide``
rows vertically in either direction, keeping the best agreement found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import _whole


@dataclass(frozen=True)
class DistanceConfig:
    """Seam search reach: the inward column offset alpha and the vertical
    slide beta, each a non-negative whole number stored as an ``int``."""

    max_penetration: int = 3
    max_slide: int = 7

    def __post_init__(self):
        for name in ("max_penetration", "max_slide"):
            object.__setattr__(self, name, _whole(getattr(self, name), 0, name))


def build_distance_matrix(pieces: np.ndarray, cfg: DistanceConfig = DistanceConfig()) -> np.ndarray:
    """All ordered pair distances of a frame's pieces; unusable self-transitions are +inf.

    ``pieces`` is one frame's ``(N, rows, cols)`` uint8 array, giving an
    ``(N, N)`` matrix, or an ``(F, N, rows, cols)`` stack of frames, giving
    one matrix per frame.  Entry (i, j) is the RMS pixel gap across the
    seam if piece j is placed directly after piece i.  For each inward
    offset a in 0..max_penetration, column (last - a) of piece i meets
    column a of piece j; for each vertical slide b in 0..max_slide the
    overlapping rows (shifting either piece up by b) are compared.  The
    minimum RMS difference over all offsets and slides is the distance.
    The matrix is directed: (i, j) and (j, i) differ in general.

    All pairs and slides are computed at once.  A slide in either
    direction is a lag k in -max_slide..max_slide between the rows of the
    left and the right column, and the sum of squared gaps over the
    overlapping rows is expanded as S = sum(l**2) + sum(r**2) - 2 l.r: the
    squares come from prefix sums of the squared border columns, and l.r
    for every pair and lag from one matrix product per inward offset, of
    the left columns with the right columns shifted by every lag and
    zero-padded where they run past the piece.  Only the border columns
    are converted to float64, and one offset's shifted copy exists at a
    time.

    The result is bit-identical to computing each pair on its own, as the
    reference in the tests (``tests/references.py``) does.  Pixels are
    8-bit, so every product, partial sum and S itself is
    an integer of at most 255**2 * rows, far below 2**53: float64 holds all
    of them exactly, in any summation order, and the zero padding adds
    exact zeros.  Division and square root are correctly rounded and
    monotone, so taking the minimum before or after them picks the same
    value.

    Every finite distance is then rounded to the nearest multiple of 2**-32
    (ties to even); +inf stays +inf.  A distance is at most 255, so each
    moves by at most 2**-33, and up to 2,055 pieces the matrix is a fixed
    point of the grid the search rounds onto (``solver._on_grid``), where
    every sum it forms is exact.  Arrangements that tie in exact
    arithmetic then tie in the search too, and its tie-prune fires: a
    stationary tone, whose pieces are identical or nearly so, takes one
    node per piece instead of every order.
    """
    pieces = np.asarray(pieces)
    if pieces.ndim not in (3, 4) or pieces.dtype != np.uint8:
        raise ValueError("pieces must be a ([frames,] pieces, rows, cols) uint8 array")
    *_, n, n_rows, n_cols = pieces.shape
    if n < 2:
        raise ValueError("need at least 2 pieces")
    if n_cols <= cfg.max_penetration:
        raise ValueError(
            f"pieces have {n_cols} columns, need more than max_penetration={cfg.max_penetration}"
        )
    frames = pieces.reshape(-1, n, n_rows, n_cols)
    offsets = np.arange(cfg.max_penetration + 1)
    slide = min(cfg.max_slide, n_rows - 1)
    lags = np.arange(-slide, slide + 1)
    # (offset, frame, piece, row) for each side: column last - a of each left piece,
    # column a of each right piece, zero-padded by ``slide`` rows at both ends.
    columns = np.concatenate([n_cols - 1 - offsets, offsets])
    padded = np.zeros((columns.size, len(frames), n, n_rows + 2 * slide))
    padded[..., slide : slide + n_rows] = frames[..., columns].transpose(3, 0, 1, 2)
    lefts, rights = padded[: offsets.size, ..., slide : slide + n_rows], padded[offsets.size :]
    # Window w of a padded right column is that column shifted by lag w - slide:
    # row t of the window is row t + lag of the column, or 0 past its ends.
    windows = sliding_window_view(rights, n_rows, axis=3)
    # One offset's lag copy at a time, (frame, right piece, lag, row), bounds the memory.
    shifted = np.empty(windows.shape[1:])
    stacked = shifted.reshape(len(frames), -1, n_rows).swapaxes(1, 2)
    # (offset, frame, left piece, right piece, lag)
    sums = np.empty(lefts.shape[:3] + (n, lags.size))
    for a in offsets:
        np.copyto(shifted, windows[a])
        np.matmul(lefts[a], stacked, out=sums[a].reshape(len(frames), n, -1))
    # Prefix sums of squares over the padded rows: entry k sums padded rows 0..k-1.
    squares = np.zeros(padded.shape[:3] + (padded.shape[3] + 1,))
    np.cumsum(padded * padded, axis=3, out=squares[..., 1:])
    left_sq, right_sq = squares[: offsets.size], squares[offsets.size :]
    # Rows lo..hi-1 of the left column meet rows lo+k..hi+k-1 of the right one.
    lo = np.maximum(-lags, 0) + slide
    hi = n_rows - np.maximum(lags, 0) + slide
    sums *= -2.0
    sums += (left_sq[..., hi] - left_sq[..., lo])[:, :, :, None]
    sums += (right_sq[..., hi + lags] - right_sq[..., lo + lags])[:, :, None]
    d = np.sqrt(sums.min(axis=0) / (hi - lo)).min(axis=3)
    d = np.round(d * 2.0**32) / 2.0**32
    d.reshape(len(frames), -1)[:, :: n + 1] = np.inf
    return d.reshape(pieces.shape[:-3] + (n, n))


def arrangement_cost(d: np.ndarray, arrangement: Sequence[int]) -> float:
    """Sum of seam distances along an open path visiting every piece once."""
    n = d.shape[0]
    if sorted(arrangement) != list(range(n)):
        raise ValueError("arrangement must be a permutation of all pieces")
    cost = 0.0
    for i in range(1, n):
        cost += float(d[arrangement[i - 1], arrangement[i]])
    return cost

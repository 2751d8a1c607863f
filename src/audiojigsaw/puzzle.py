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


@dataclass(frozen=True)
class DistanceConfig:
    max_penetration: int = 3
    max_slide: int = 7

    def __post_init__(self):
        if self.max_penetration < 0:
            raise ValueError("max_penetration must be non-negative")
        if self.max_slide < 0:
            raise ValueError("max_slide must be non-negative")


def build_distance_matrix(pieces: np.ndarray, cfg: DistanceConfig = DistanceConfig()) -> np.ndarray:
    """All ordered pair distances of a frame's pieces; unusable self-transitions are +inf.

    ``pieces`` is the frame's ``(N, rows, cols)`` uint8 array.  Entry (i, j)
    is the RMS pixel gap across the seam if piece j is placed directly
    after piece i.  For each inward offset a in 0..max_penetration,
    column (last - a) of piece i meets column a of piece j; for each
    vertical slide b in 0..max_slide the overlapping rows (shifting either
    piece up by b) are compared.  The minimum RMS difference over all
    offsets and slides is the distance.  The matrix is directed: (i, j) and
    (j, i) differ in general.

    All pairs are computed at once.  For each vertical slide and direction,
    the sum of squared gaps between left column l and right column r over
    the overlapping rows is expanded as S = sum(l**2) + sum(r**2) - 2 l.r:
    the squares come from prefix sums of the squared border columns, and
    l.r for all pairs and inward offsets from one batched matrix product.

    The result is bit-identical to computing each pair on its own, as the
    reference in the tests (``tests/references.py``) does.  Pixels are
    8-bit, so every product, partial sum and S itself is
    an integer of at most 255**2 * rows, far below 2**53: float64 holds all
    of them exactly, in any summation order.  Division and square root are
    correctly rounded and monotone, so taking the minimum before or after
    them picks the same value.
    """
    pieces = np.asarray(pieces)
    if pieces.ndim != 3 or pieces.dtype != np.uint8:
        raise ValueError("pieces must be a (pieces, rows, cols) uint8 array")
    n, n_rows, n_cols = pieces.shape
    if n < 2:
        raise ValueError("need at least 2 pieces")
    if n_cols <= cfg.max_penetration:
        raise ValueError(
            f"pieces have {n_cols} columns, need more than max_penetration={cfg.max_penetration}"
        )
    stack = pieces.astype(np.float64)
    offsets = np.arange(cfg.max_penetration + 1)
    # (offset, piece, row): column last - a of each left piece, column a of each right piece.
    lefts = stack[:, :, n_cols - 1 - offsets].transpose(2, 0, 1)
    rights = stack[:, :, offsets].transpose(2, 0, 1)
    # Prefix sums of squares: entry k sums rows 0..k-1.
    start = np.zeros((offsets.size, n, 1))
    left_sq = np.concatenate([start, np.cumsum(lefts * lefts, axis=2)], axis=2)
    right_sq = np.concatenate([start, np.cumsum(rights * rights, axis=2)], axis=2)
    d = np.full((n, n), np.inf)
    for b in range(min(cfg.max_slide, n_rows - 1) + 1):
        span = n_rows - b
        # (left first row, right first row): shift the left piece up, then the right one.
        shifts = [(b, 0), (0, b)] if b else [(0, 0)]
        for lo, ro in shifts:
            cross = lefts[:, :, lo : lo + span] @ rights[:, :, ro : ro + span].transpose(0, 2, 1)
            left_ss = left_sq[:, :, lo + span] - left_sq[:, :, lo]
            right_ss = right_sq[:, :, ro + span] - right_sq[:, :, ro]
            sums = left_ss[:, :, None] + right_ss[:, None, :] - 2.0 * cross
            np.minimum(d, np.sqrt(sums.min(axis=0) / span), out=d)
    np.fill_diagonal(d, np.inf)
    return d


def arrangement_cost(d: np.ndarray, arrangement: Sequence[int]) -> float:
    """Sum of seam distances along an open path visiting every piece once."""
    n = d.shape[0]
    if sorted(arrangement) != list(range(n)):
        raise ValueError("arrangement must be a permutation of all pieces")
    cost = 0.0
    for i in range(1, n):
        cost += float(d[arrangement[i - 1], arrangement[i]])
    return cost

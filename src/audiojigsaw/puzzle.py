"""Directed dissimilarity between puzzle pieces and the pairwise cost matrix.

The score for placing piece j directly after piece i compares one border
column of each: the right edge of i against the left edge of j.  Because
border columns are distorted (fewer windows cover border samples, and any
extension is only a forecast), the comparison may slide up to
``max_penetration`` columns inward on both pieces and up to ``max_slide``
rows vertically in either direction, keeping the best agreement found.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectrogram import PieceImage


@dataclass(frozen=True)
class DistanceConfig:
    max_penetration: int = 3
    max_slide: int = 7

    def __post_init__(self):
        if self.max_penetration < 0:
            raise ValueError("max_penetration must be non-negative")
        if self.max_slide < 0:
            raise ValueError("max_slide must be non-negative")


def piece_distance(left: PieceImage, right: PieceImage, cfg: DistanceConfig = DistanceConfig()) -> float:
    """RMS pixel gap across the seam if ``right`` is placed after ``left``.

    For each inward offset a in 0..max_penetration, column (last - a) of
    the left piece meets column a of the right piece; for each vertical
    slide b in 0..max_slide the overlapping rows (shifting either piece up)
    are compared.  The minimum RMS difference over all offsets is the
    distance.  Directed: piece_distance(x, y) != piece_distance(y, x) in
    general.
    """
    li = left.pixels.astype(np.float64)
    ri = right.pixels.astype(np.float64)
    if li.shape != ri.shape:
        raise ValueError("pieces must share their matrix shape")
    n_rows, n_cols = li.shape
    if n_cols <= cfg.max_penetration:
        raise ValueError(
            f"pieces have {n_cols} columns, need more than max_penetration={cfg.max_penetration}"
        )
    best = math.inf
    for a in range(cfg.max_penetration + 1):
        col_l = li[:, n_cols - 1 - a]
        col_r = ri[:, a]
        for b in range(min(cfg.max_slide, n_rows - 1) + 1):
            span = n_rows - b
            diff = col_l[b:] - col_r[:span]
            best = min(best, math.sqrt(float(diff @ diff) / span))
            if b:
                diff = col_l[:span] - col_r[b:]
                best = min(best, math.sqrt(float(diff @ diff) / span))
    return best


def build_distance_matrix(pieces: Sequence[PieceImage], cfg: DistanceConfig = DistanceConfig()) -> np.ndarray:
    """All ordered pair distances; unusable self-transitions are +inf.

    Computes :func:`piece_distance` for every pair at once.  For each
    vertical slide and direction, the sum of squared gaps between left
    column l and right column r over the overlapping rows is expanded as
    S = sum(l**2) + sum(r**2) - 2 l.r: the squares come from prefix sums of
    the squared border columns, and l.r for all pairs and inward offsets
    from one batched matrix product.

    The result is bit-identical to calling :func:`piece_distance` pair by
    pair.  Pixels are 8-bit, so every product, partial sum and S itself is
    an integer of at most 255**2 * rows, far below 2**53: float64 holds all
    of them exactly, in any summation order.  Division and square root are
    correctly rounded and monotone, so taking the minimum before or after
    them picks the same value.
    """
    n = len(pieces)
    if n < 2:
        raise ValueError("need at least 2 pieces")
    shape = pieces[0].pixels.shape
    if any(p.pixels.shape != shape for p in pieces):
        raise ValueError("pieces must share their matrix shape")
    n_rows, n_cols = shape
    if n_cols <= cfg.max_penetration:
        raise ValueError(
            f"pieces have {n_cols} columns, need more than max_penetration={cfg.max_penetration}"
        )
    stack = np.stack([p.pixels for p in pieces]).astype(np.float64)
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


def write_distance_csv(d: np.ndarray, path) -> None:
    """Dump the matrix for eyeballing, one row per source piece."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"to_{j}" for j in range(d.shape[1])])
        for row in d:
            writer.writerow([f"{v:.6f}" if math.isfinite(v) else "inf" for v in row])

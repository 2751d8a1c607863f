"""Partial-credit scoring of recovered piece orders against ground truth."""

from __future__ import annotations

import math
from typing import Sequence


def _check_pair(found: Sequence[int], correct: Sequence[int]) -> int:
    n = len(found)
    if len(correct) != n:
        raise ValueError("found and correct orders differ in length")
    if not n:
        raise ValueError("orders must hold at least one piece")
    if sorted(found) != list(range(n)) or sorted(correct) != list(range(n)):
        raise ValueError("orders must be permutations of 0..n-1")
    return n


def accuracy(found: Sequence[int], correct: Sequence[int]) -> float:
    """Length-weighted fraction of shared contiguous runs, in [0, 1].

    Every run of k pieces that appears in both orders, wherever it sits in
    each, earns k points, normalized by the points of identical orders.
    1.0 exactly when the orders are identical; a lone swap still scores
    partial credit because short runs elsewhere survive.

    Both orders are permutations, so a run of ``found`` occurs at most once
    in ``correct``, and the shared runs are the sub-runs of the maximal
    stretches of ``found`` that ``correct`` also holds in sequence.  A
    stretch of L pieces holds L - k + 1 runs of length k, which earn
    sum_k k (L - k + 1) = C(L + 2, 3) points; identical orders earn
    C(n + 2, 3), 120 at n = 8.
    """
    n = _check_pair(found, correct)
    where = {piece: i for i, piece in enumerate(correct)}
    at = [where[piece] for piece in found]
    earned = 0
    stretch = 1
    for prev, here in zip(at, at[1:]):
        if here == prev + 1:
            stretch += 1
        else:
            earned += math.comb(stretch + 2, 3)
            stretch = 1
    earned += math.comb(stretch + 2, 3)
    return earned / math.comb(n + 2, 3)

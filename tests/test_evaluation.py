import itertools

import numpy as np
import pytest

from audiojigsaw.evaluation import accuracy
from references import block_accuracy, sub_block_matches

IDENT8 = tuple(range(8))


def test_identity_scores_one():
    assert accuracy(IDENT8, IDENT8) == 1.0
    assert accuracy((0,), (0,)) == 1.0


def test_reversal_keeps_only_singletons():
    """Reversing kills every run of length 2 or more; the 8 singletons are
    worth 8 of the 120 attainable points."""
    reverse = tuple(range(7, -1, -1))
    assert accuracy(reverse, IDENT8) == 8 / 120


def test_cyclic_shift_hand_value():
    # (1,2,...,7,0) keeps the ascending run 1..7 and all its sub-runs:
    # lengths 1..7 contribute 8,12,15,16,15,12,7 = 85 points of 120
    shifted = tuple(list(range(1, 8)) + [0])
    assert accuracy(shifted, IDENT8) == 85 / 120


def test_sub_block_matches_hand_case():
    found = (0, 1, 2)
    correct = (1, 2, 0)
    # length-2 blocks of found: (0,1), (1,2); of correct: (1,2), (2,0)
    assert sub_block_matches(found, correct, 2) == 1
    assert sub_block_matches(found, correct, 1) == 3
    assert sub_block_matches(found, correct, 3) == 0


def test_sub_block_credit_is_position_free():
    # the pair (2,3) sits at different offsets in the two orders but counts
    assert sub_block_matches((2, 3, 0, 1), (0, 1, 2, 3), 2) == 2


def test_closed_form_matches_block_sum_reference():
    """Summing C(L + 2, 3) over maximal shared stretches gives the block-sum
    definition exactly: every pair of orders up to 5 pieces, then seeded
    random, rotated and one-swap pairs up to 16, where long stretches occur."""
    for n in range(1, 6):
        for found in itertools.permutations(range(n)):
            for correct in itertools.permutations(range(n)):
                assert accuracy(found, correct) == block_accuracy(found, correct)
    rng = np.random.Generator(np.random.PCG64(31))
    for n in range(6, 17):
        for _ in range(20):
            correct = [int(v) for v in rng.permutation(n)]
            shift = int(rng.integers(1, n))
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            swapped = list(correct)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            for found in (
                [int(v) for v in rng.permutation(n)],
                correct[shift:] + correct[:shift],
                swapped,
            ):
                assert accuracy(found, correct) == block_accuracy(found, correct)


def test_accuracy_is_symmetric_and_bounded():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(40):
        n = int(rng.integers(1, 10))
        a = tuple(int(v) for v in rng.permutation(n))
        b = tuple(int(v) for v in rng.permutation(n))
        val = accuracy(a, b)
        assert 0.0 < val <= 1.0  # singletons always earn something
        assert val == accuracy(b, a)
        assert accuracy(a, a) == 1.0


def test_accuracy_validation():
    with pytest.raises(ValueError):
        accuracy((0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        accuracy((0, 0, 1), (0, 1, 2))
    # an empty order has no blocks to score: the denominator C(2, 3) is 0
    with pytest.raises(ValueError, match="^orders must hold at least one piece$"):
        accuracy((), ())
    with pytest.raises(ValueError):
        sub_block_matches((0, 1), (1, 0), 3)
    with pytest.raises(ValueError):
        sub_block_matches((0, 1), (1, 0), 0)

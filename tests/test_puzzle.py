import numpy as np
import pytest

from audiojigsaw.audio_io import synthesize_speechlike
from audiojigsaw.pipeline import AttackConfig, frame_pieces
from audiojigsaw.puzzle import DistanceConfig, arrangement_cost, build_distance_matrix
from audiojigsaw.spectrogram import PieceImage
from references import piece_distance


def _piece(rows, index=0):
    return PieceImage(np.asarray(rows, dtype=np.uint8), index)


def _pairwise_matrix(pieces, cfg=DistanceConfig()):
    """The scalar reference: one piece_distance call per ordered pair."""
    n = len(pieces)
    d = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = piece_distance(pieces[i], pieces[j], cfg)
    return d


def test_distance_config_validation():
    assert DistanceConfig() == DistanceConfig(3, 7)
    with pytest.raises(ValueError):
        DistanceConfig(max_penetration=-1)
    with pytest.raises(ValueError):
        DistanceConfig(max_slide=-1)


def test_matching_edges_have_zero_distance():
    """The score joins the right edge of one piece to the left edge of the
    next, so equal border columns meet exactly."""
    rng = np.random.Generator(np.random.PCG64(1))
    border = rng.integers(0, 256, size=16)
    left = rng.integers(0, 256, size=(16, 12), dtype=np.uint8)
    right = rng.integers(0, 256, size=(16, 12), dtype=np.uint8)
    left[:, -1] = border
    right[:, 0] = border
    assert piece_distance(_piece(left), _piece(right, 1), DistanceConfig(0, 0)) == 0.0
    flat = _piece(np.full((16, 12), 77))
    assert piece_distance(flat, _piece(np.full((16, 12), 77), 1)) == 0.0


def test_distance_hand_value_single_row():
    left = _piece([[0, 10]])
    right = _piece([[4, 6]], 1)
    cfg = DistanceConfig(max_penetration=1, max_slide=0)
    # offset 0 compares 10 against 4, offset 1 compares 0 against 6
    assert piece_distance(left, right, cfg) == 6.0


def test_distance_is_rms_over_rows():
    left = _piece(np.zeros((16, 4)))
    right = _piece(np.full((16, 4), 3), 1)
    assert piece_distance(left, right, DistanceConfig(0, 0)) == 3.0
    assert piece_distance(left, right, DistanceConfig(0, 7)) == 3.0


def test_distance_is_directional():
    left = _piece([[0, 4, 3]])
    right = _piece([[9, 6, 1]], 1)
    cfg = DistanceConfig(max_penetration=1, max_slide=0)
    assert piece_distance(left, right, cfg) == 2.0
    assert piece_distance(right, left, cfg) == 1.0


def test_vertical_slide_recovers_shifted_seam():
    """The right border continues the left one two rows higher; only a
    slide search of at least 2 can see the match."""
    rows = 16
    left = np.zeros((rows, 4))
    right = np.full((rows, 4), 200.0)
    left[:, -1] = np.arange(rows)
    right[:, 0] = np.arange(rows) + 2.0
    pl, pr = _piece(left), _piece(right, 1)
    assert piece_distance(pl, pr, DistanceConfig(0, 7)) == 0.0
    assert piece_distance(pl, pr, DistanceConfig(0, 1)) > 0.0


def test_penetration_skips_corrupt_border_columns():
    rng = np.random.Generator(np.random.PCG64(4))
    shared = rng.integers(0, 200, size=16)
    left = np.zeros((16, 5))
    right = np.zeros((16, 5))
    left[:, 3] = shared
    left[:, 4] = 255  # junk outermost column
    right[:, 0] = 251
    right[:, 1] = shared
    pl, pr = _piece(left), _piece(right, 1)
    assert piece_distance(pl, pr, DistanceConfig(1, 0)) == 0.0
    assert piece_distance(pl, pr, DistanceConfig(0, 0)) > 0.0


def test_piece_distance_validation():
    with pytest.raises(ValueError):
        piece_distance(_piece(np.zeros((4, 4))), _piece(np.zeros((4, 5)), 1))
    with pytest.raises(ValueError):
        piece_distance(_piece(np.zeros((4, 3))), _piece(np.zeros((4, 3)), 1))


def test_build_matrix_shape_and_diagonal():
    rng = np.random.Generator(np.random.PCG64(9))
    pieces = [_piece(rng.integers(0, 256, size=(8, 6), dtype=np.uint8), i) for i in range(5)]
    d = build_distance_matrix(pieces)
    assert d.shape == (5, 5)
    assert np.all(np.isinf(np.diag(d)))
    off = d[~np.eye(5, dtype=bool)]
    assert np.all(np.isfinite(off)) and np.all(off >= 0)
    assert d[1, 3] == piece_distance(pieces[1], pieces[3])
    with pytest.raises(ValueError):
        build_distance_matrix(pieces[:1])


@pytest.mark.parametrize(
    "n, rows, cols, cfg",
    [
        (8, 128, 29, DistanceConfig()),
        (2, 1, 1, DistanceConfig(0, 0)),
        (5, 1, 6, DistanceConfig(3, 7)),  # one-row pieces
        (6, 10, 4, DistanceConfig(3, 12)),  # max_slide >= rows
        (7, 16, 5, DistanceConfig(0, 3)),  # no penetration
        (4, 9, 9, DistanceConfig(8, 9)),
        (16, 32, 10, DistanceConfig(2, 31)),
    ],
)
def test_matrix_matches_pairwise_reference_on_random_pieces(n, rows, cols, cfg):
    rng = np.random.Generator(np.random.PCG64(1000 * n + 10 * rows + cols))
    pieces = [_piece(rng.integers(0, 256, size=(rows, cols), dtype=np.uint8), i) for i in range(n)]
    assert np.array_equal(build_distance_matrix(pieces, cfg), _pairwise_matrix(pieces, cfg))


@pytest.mark.parametrize("extend", [False, True])
def test_matrix_matches_pairwise_reference_on_speech(extend):
    x = synthesize_speechlike(1.0, seed=6).samples
    for frame in x[: 3 * 8 * 320].reshape(3, 8, 320):
        pieces = frame_pieces(frame, AttackConfig(use_estimation=extend))
        assert np.array_equal(build_distance_matrix(pieces), _pairwise_matrix(pieces))


def _extreme_pieces():
    """Pieces that push the Gram expansion to its largest terms."""
    black = np.zeros((128, 29))
    white = np.full((128, 29), 255)
    stripes = np.zeros((128, 29))
    stripes[:, ::2] = 255
    rows = np.zeros((128, 29))
    rows[::2] = 255
    return [black, white, stripes, 255 - stripes, rows, 255 - rows]


@pytest.mark.parametrize(
    "name, pixels",
    [
        ("black against white", [np.zeros((128, 29)), np.full((128, 29), 255)] * 2),
        ("alternating 0/255 columns and rows", _extreme_pieces()),
        (
            "tall pieces",
            list(np.random.Generator(np.random.PCG64(21)).integers(0, 256, size=(5, 1024, 6))),
        ),
        ("tall extremes", [np.zeros((1024, 6)), np.full((1024, 6), 255), np.zeros((1024, 6))]),
    ],
)
def test_matrix_is_exact_on_extreme_pieces(name, pixels):
    """Every term of sum(l**2) + sum(r**2) - 2 l.r is an integer below
    2**53, so even full-scale gaps over 1,024 rows come out exact."""
    pieces = [_piece(p, i) for i, p in enumerate(pixels)]
    assert np.array_equal(build_distance_matrix(pieces), _pairwise_matrix(pieces))


def test_build_matrix_validation():
    square = [_piece(np.zeros((4, 4)), i) for i in range(3)]
    with pytest.raises(ValueError, match="^pieces must share their matrix shape$"):
        build_distance_matrix(square + [_piece(np.zeros((4, 5)), 3)])
    with pytest.raises(ValueError, match="^pieces must share their matrix shape$"):
        build_distance_matrix(square + [_piece(np.zeros((5, 4)), 3)])
    with pytest.raises(ValueError, match="^pieces have 4 columns, need more than max_penetration=4$"):
        build_distance_matrix(square, DistanceConfig(max_penetration=4))
    with pytest.raises(ValueError, match="^need at least 2 pieces$"):
        build_distance_matrix(square[:1])


def test_arrangement_cost_hand_value():
    d = np.array([[np.inf, 1.0, 5.0], [9.0, np.inf, 2.0], [4.0, 7.0, np.inf]])
    assert arrangement_cost(d, (0, 1, 2)) == 3.0
    assert arrangement_cost(d, (2, 0, 1)) == 5.0
    with pytest.raises(ValueError):
        arrangement_cost(d, (0, 1, 1))
    with pytest.raises(ValueError):
        arrangement_cost(d, (0, 1))


def test_true_neighbors_are_closer_on_synthetic_speech():
    """End-of-chain sanity: pieces cut from continuous audio should cost
    less to join in their true order than in a shuffled one."""
    from audiojigsaw.audio_io import synthesize_speechlike
    from audiojigsaw.spectrogram import quantize_frame, segmented_spectrogram

    x = synthesize_speechlike(0.5, seed=6).samples
    segments = x[: 4 * 320].reshape(4, 320)
    pieces = quantize_frame(segmented_spectrogram(list(segments)))
    d = build_distance_matrix(pieces)
    true_cost = arrangement_cost(d, (0, 1, 2, 3))
    rng = np.random.Generator(np.random.PCG64(13))
    shuffled = []
    for _ in range(10):
        order = tuple(int(v) for v in rng.permutation(4))
        if order != (0, 1, 2, 3):
            shuffled.append(arrangement_cost(d, order))
    assert true_cost < np.mean(shuffled)

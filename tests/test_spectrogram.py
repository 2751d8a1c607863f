import numpy as np
import pytest

from audiojigsaw.audio_io import synthesize_speechlike
from audiojigsaw.estimator import extend_frame
from audiojigsaw.spectrogram import (
    PieceImage,
    StftConfig,
    hamming_window,
    quantize_frame,
    segmented_spectrogram,
    stft_magnitude,
    window_coverage,
    write_pgm,
)


def test_stft_config_defaults_and_hop():
    cfg = StftConfig()
    assert (cfg.window_size, cfg.overlap, cfg.fft_size) == (60, 51, 256)
    assert cfg.hop == 9


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(overlap=60)
    with pytest.raises(ValueError):
        StftConfig(overlap=-1)
    with pytest.raises(ValueError):
        StftConfig(fft_size=200)  # not a power of two
    with pytest.raises(ValueError):
        StftConfig(window_size=512, fft_size=256)


def test_hamming_endpoints_and_symmetry():
    w = hamming_window(60)
    assert abs(w[0] - 0.08) < 1e-12 and abs(w[-1] - 0.08) < 1e-12
    np.testing.assert_allclose(w, w[::-1], atol=1e-12)
    w5 = hamming_window(5)
    assert abs(w5[2] - 1.0) < 1e-12


def test_stft_shape_for_one_segment():
    # a 40 ms segment at 8 kHz yields 29 columns of 128 kept bins
    mag = stft_magnitude(np.random.default_rng(0).standard_normal(320))
    assert mag.shape == (128, 29)


def test_stft_matches_naive_dft():
    """Columns agree with the textbook DFT evaluated straight from the sum."""
    rng = np.random.Generator(np.random.PCG64(42))
    x = rng.standard_normal(500)
    cfg = StftConfig()
    mag = stft_magnitude(x, cfg)
    w = hamming_window(cfg.window_size)
    for col in (0, 10, 48):
        seg = x[col * cfg.hop : col * cfg.hop + cfg.window_size] * w
        for r in (1, 7, 128):
            angles = -2.0j * np.pi * r * np.arange(cfg.window_size) / cfg.fft_size
            ref = abs(np.sum(seg * np.exp(angles)))
            assert abs(mag[r - 1, col] - ref) < 1e-9


def test_stft_drops_dc():
    mag = stft_magnitude(np.ones(320))
    # constant signal has all energy in the dropped bin 0; a little leaks
    # into bin 1 through the window's spectral skirt
    assert mag[:, 0].max() < np.sum(hamming_window(60))


def test_stft_peak_row_tracks_frequency():
    cfg = StftConfig()
    n = np.arange(2000)
    for bin_index in (10, 40, 100):
        x = np.cos(2.0 * np.pi * bin_index * n / cfg.fft_size)
        mag = stft_magnitude(x, cfg)
        assert np.argmax(mag[:, 5]) == bin_index - 1


def test_stft_rejects_short_input():
    with pytest.raises(ValueError):
        stft_magnitude(np.zeros(59))


def test_window_coverage_closed_form_vs_enumeration():
    """Count hop-1 windows containing each sample the long way around."""
    length, win = 80, 16
    for j in range(1, length + 1):
        covered = sum(1 for s in range(length - win + 1) if s + 1 <= j <= s + win)
        assert window_coverage(j, length, win) == covered
    assert window_coverage(1, 80, 16) == 1
    assert window_coverage(40, 80, 16) == 16
    assert window_coverage(80, 80, 16) == 1


def test_window_coverage_validation():
    with pytest.raises(ValueError):
        window_coverage(0, 80, 16)
    with pytest.raises(ValueError):
        window_coverage(81, 80, 16)
    with pytest.raises(ValueError):
        window_coverage(1, 10, 16)


def test_quantize_linear_rounding_half_up():
    m1 = np.array([[0.0, 255.0]])
    m2 = np.array([[127.5, 64.25]])
    p1, p2 = quantize_frame([m1, m2], scale="linear")
    np.testing.assert_array_equal(p1.pixels, [[0, 255]])
    np.testing.assert_array_equal(p2.pixels, [[128, 64]])
    assert (p1.piece_index, p2.piece_index) == (0, 1)


def test_quantize_range_is_shared_across_pieces():
    """The quiet piece must NOT stretch to full scale on its own."""
    quiet = np.full((3, 4), 2.0)
    loud = np.full((3, 4), 8.0)
    loud[0, 0] = 10.0
    pq, pl = quantize_frame([quiet, loud], scale="linear")
    assert pq.pixels.max() == 0
    assert pl.pixels.max() == 255
    alone = quantize_frame([quiet], scale="linear")[0]
    assert alone.pixels.max() == 0  # flat matrix quantizes to zeros


def test_quantize_db_scale():
    p1, p2 = quantize_frame([np.array([[1.0]]), np.array([[10.0]])], scale="db")
    assert p1.pixels[0, 0] == 0
    assert p2.pixels[0, 0] == 255


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize_frame([])
    with pytest.raises(ValueError):
        quantize_frame([np.zeros((2, 2))], scale="log")
    with pytest.raises(ValueError):
        quantize_frame([np.zeros((2, 2)), np.zeros((3, 2))])


def test_piece_image_validation():
    with pytest.raises(ValueError):
        PieceImage(np.zeros((2, 2)), 0)  # float pixels
    with pytest.raises(ValueError):
        PieceImage(np.zeros(4, dtype=np.uint8), 0)
    with pytest.raises(ValueError):
        PieceImage(np.zeros((2, 2), dtype=np.uint8), -1)
    piece = PieceImage(np.zeros((2, 2), dtype=np.uint8), 0)
    with pytest.raises(ValueError):
        piece.pixels[0, 0] = 1


def test_segmented_spectrogram_is_per_segment():
    rng = np.random.Generator(np.random.PCG64(8))
    segments = [rng.standard_normal(320) for _ in range(4)]
    mats = segmented_spectrogram(segments)
    assert len(mats) == 4
    np.testing.assert_array_equal(mats[2], stft_magnitude(segments[2]))
    with pytest.raises(ValueError):
        segmented_spectrogram([])


def _frames(count, seed, length=320, extend=False):
    x = synthesize_speechlike(count * 8 * 320 / 8000, seed=seed).samples
    for frame in x[: count * 8 * 320].reshape(count, 8, 320):
        if extend:
            yield list(extend_frame(frame, 59))
        else:
            yield [seg[:length] for seg in frame]


@pytest.mark.parametrize(
    "name, frames",
    [
        ("speech", lambda: _frames(6, 3)),
        ("extended speech", lambda: _frames(4, 4, extend=True)),
        ("one window", lambda: _frames(6, 5, length=60)),
        ("one window plus a hop less one", lambda: _frames(6, 5, length=68)),
    ],
)
def test_frame_stft_equals_per_segment_reference(name, frames):
    """The frame goes through one FFT call, yet every matrix is
    bit-identical to transforming its segment alone."""
    for segments in frames():
        mats = segmented_spectrogram(segments)
        assert len(mats) == len(segments)
        for mat, seg in zip(mats, segments):
            assert np.array_equal(mat, stft_magnitude(seg))


def test_segmented_spectrogram_names_mismatched_lengths():
    segments = [np.zeros(320), np.zeros(320), np.zeros(321)]
    mismatch = r"^segments of one frame must share their length, got lengths \[320, 321\]$"
    with pytest.raises(ValueError, match=mismatch):
        segmented_spectrogram(segments)
    too_short = "^sequence of 59 samples is shorter than one 60-sample window$"
    with pytest.raises(ValueError, match=too_short):
        segmented_spectrogram([np.zeros(59)] * 2)
    with pytest.raises(ValueError, match="^samples must be one-dimensional$"):
        segmented_spectrogram([np.zeros((2, 320))] * 2)


def _reference_quantize(matrices, scale):
    """Piece by piece, as the frame's one-pass quantization replaced."""
    if scale == "db":
        values = [20.0 * np.log10(np.asarray(m, dtype=np.float64) + 1e-10) for m in matrices]
    else:
        values = [np.asarray(m, dtype=np.float64) for m in matrices]
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    pieces = []
    for v in values:
        if hi == lo:
            pieces.append(np.zeros(v.shape, dtype=np.uint8))
        else:
            scaled = 255.0 * (v - lo) / (hi - lo)
            pieces.append(np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8))
    return pieces


def _ragged_sets(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        rows = int(rng.integers(1, 130))
        widths = rng.integers(1, 40, size=int(rng.integers(1, 17)))
        spread = 10.0 ** rng.uniform(-3, 3)
        mats = [spread * rng.random((rows, int(w))) ** 3 for w in widths]
        if rng.random() < 0.3:
            mats = [m.astype(np.float32) for m in mats]
        yield mats


@pytest.mark.parametrize("scale", ["db", "linear"])
@pytest.mark.parametrize(
    "name, frames",
    [
        ("speech", lambda: (segmented_spectrogram(f) for f in _frames(6, 3))),
        ("extended speech", lambda: (segmented_spectrogram(f) for f in _frames(3, 4, extend=True))),
        ("ragged", lambda: _ragged_sets(12, 60)),
        ("flat", lambda: [[np.full((128, 29), 3.0)] * 8, [np.zeros((4, 3)), np.zeros((4, 5))]]),
    ],
)
def test_quantize_frame_matches_per_piece_reference(name, frames, scale):
    """One pass over the whole frame gives every piece the bytes that
    quantizing it alone against the frame's range gives."""
    for mats in frames():
        pieces = quantize_frame(mats, scale=scale)
        expected = _reference_quantize(mats, scale)
        assert [p.piece_index for p in pieces] == list(range(len(mats)))
        for piece, want in zip(pieces, expected):
            assert piece.pixels.shape == want.shape
            assert piece.pixels.tobytes() == want.tobytes()


def test_write_pgm_layout(tmp_path):
    pixels = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    path = tmp_path / "piece.pgm"
    write_pgm(PieceImage(pixels, 0), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    # low frequencies go at the bottom, so rows flip
    assert raw[-4:] == bytes([3, 4, 1, 2])
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2)), tmp_path / "bad.pgm")

import numpy as np
import pytest

from audiojigsaw.audio_io import synthesize_speechlike
from audiojigsaw.estimator import extend_segment
from audiojigsaw.spectrogram import (
    StftConfig,
    hamming_window,
    quantize_frame,
    segmented_spectrogram,
    write_pgm,
)
from references import quantize_pieces, stft_magnitude, window_coverage


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
    """The frame's dB range maps linearly onto 0..255, rounding half up.
    Powers of ten from 1e7 up sit at exact multiples of 20 dB (the 1e-10
    floor vanishes in rounding), so the 140..220 dB frame below puts
    160, 180 and 200 dB at exactly 63.75, 127.5 and 191.25."""
    pieces = quantize_frame(np.array([[[1e7, 1e11, 1e9]], [[1e8, 1e10, 1e9]]]))
    assert pieces.dtype == np.uint8 and pieces.shape == (2, 1, 3)
    np.testing.assert_array_equal(pieces, [[[0, 255, 128]], [[64, 191, 128]]])


def test_quantize_range_is_shared_across_pieces():
    """The quiet piece must NOT stretch to full scale on its own."""
    quiet = np.full((3, 4), 2.0)
    loud = np.full((3, 4), 8.0)
    loud[0, 0] = 10.0
    pq, pl = quantize_frame([quiet, loud])
    assert pq.max() == 0
    assert pl.max() == 255
    alone = quantize_frame([quiet])[0]
    assert alone.max() == 0  # flat matrix quantizes to zeros


def test_quantize_db_scale():
    p1, p2 = quantize_frame([np.array([[1.0]]), np.array([[10.0]])])
    assert p1[0, 0] == 0
    assert p2[0, 0] == 255


def test_quantize_validation():
    not_spectra = r"^spectra must be a non-empty \(pieces, rows, cols\) array$"
    with pytest.raises(ValueError, match=not_spectra):
        quantize_frame([])
    with pytest.raises(ValueError, match=not_spectra):
        quantize_frame(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        quantize_frame([np.zeros((2, 2)), np.zeros((3, 2))])


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
            yield list(extend_segment(frame, 59))
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


def _random_frames(seed, count):
    """Frames of 1 to 16 pieces of one random shape, magnitudes spread over
    six decades, some in float32."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        shape = (int(rng.integers(1, 17)), int(rng.integers(1, 130)), int(rng.integers(1, 40)))
        spectra = 10.0 ** rng.uniform(-3, 3) * rng.random(shape) ** 3
        yield spectra.astype(np.float32) if rng.random() < 0.3 else spectra


@pytest.mark.parametrize("scale", ["db"])  # the one scale pieces are quantized on
@pytest.mark.parametrize(
    "name, frames",
    [
        ("speech", lambda: (segmented_spectrogram(f) for f in _frames(6, 3))),
        ("extended speech", lambda: (segmented_spectrogram(f) for f in _frames(3, 4, extend=True))),
        ("random shapes", lambda: _random_frames(12, 60)),
        ("flat", lambda: [[np.full((128, 29), 3.0)] * 8, [np.zeros((4, 3))] * 2]),
    ],
)
def test_quantize_frame_matches_per_piece_reference(name, frames, scale):
    """One pass over the whole frame gives every piece the bytes that
    quantizing it alone against the frame's range gives."""
    for mats in frames():
        pieces = quantize_frame(mats)
        expected = quantize_pieces(mats)
        assert pieces.shape == (len(mats),) + expected[0].shape
        for piece, want in zip(pieces, expected):
            assert piece.tobytes() == want.tobytes()


def test_write_pgm_layout(tmp_path):
    pixels = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    path = tmp_path / "piece.pgm"
    write_pgm(pixels, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    # low frequencies go at the bottom, so rows flip
    assert raw[-4:] == bytes([3, 4, 1, 2])
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2)), tmp_path / "bad.pgm")

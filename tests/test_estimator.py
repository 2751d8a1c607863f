import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

from audiojigsaw.audio_io import synthesize_speechlike
from audiojigsaw.estimator import (
    ExtendedSegment,
    RlsConfig,
    _terminal_weights,
    extend_frame,
    extend_segment,
)
from audiojigsaw.pipeline import AttackConfig, attack
from audiojigsaw.scrambler import ScramblerConfig
from references import rls_run


def test_rls_config_validation():
    with pytest.raises(ValueError):
        RlsConfig(order=0)
    with pytest.raises(ValueError):
        RlsConfig(forgetting=0.0)
    with pytest.raises(ValueError):
        RlsConfig(forgetting=1.2)
    with pytest.raises(ValueError):
        RlsConfig(init_reg=0.0)


def test_rls_defaults_match_reference_setup():
    cfg = RlsConfig()
    assert cfg.order == 52
    assert cfg.forgetting == 0.97


def test_rls_identifies_two_tap_recursion():
    """cos(w n) obeys x[n] = 2cos(w) x[n-1] - x[n-2].  With exactly two
    taps that solution is unique, so the weights must land on it."""
    w = 2.0 * np.pi * 0.07
    x = np.cos(w * np.arange(600))
    weights, errors = rls_run(x, RlsConfig(order=1, forgetting=0.99))
    assert abs(weights[0] - 2.0 * np.cos(w)) < 1e-3
    assert abs(weights[1] + 1.0) < 1e-3
    power = float(np.mean(x**2))
    assert float(np.mean(errors[-100:] ** 2)) < 1e-6 * power


def test_rls_overparameterized_error_still_vanishes():
    # three taps admit many exact solutions for a pure tone; whichever one
    # the recursion settles on, the a-priori error must still die out
    w = 2.0 * np.pi * 0.07
    x = np.cos(w * np.arange(600))
    _, errors = rls_run(x, RlsConfig(order=2, forgetting=0.99))
    assert float(np.mean(errors[-100:] ** 2)) < 1e-6 * float(np.mean(x**2))


def test_rls_rejects_short_or_2d_input():
    with pytest.raises(ValueError):
        rls_run(np.zeros(10), RlsConfig(order=12))
    with pytest.raises(ValueError):
        rls_run(np.zeros((50, 2)), RlsConfig(order=2))


def test_extend_preserves_core_bit_exactly():
    rng = np.random.Generator(np.random.PCG64(21))
    segment = rng.standard_normal(320)
    ext = extend_segment(segment, 59)
    assert len(ext.samples) == 320 + 2 * 59
    assert ext.length == 59
    np.testing.assert_array_equal(ext.samples[59 : 59 + 320], segment)


def test_extend_zero_length_is_identity():
    segment = np.arange(100, dtype=np.float64)
    ext = extend_segment(segment, 0)
    assert ext.length == 0
    np.testing.assert_array_equal(ext.samples, segment)


def test_extend_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    segment = rng.standard_normal(320)
    a = extend_segment(segment, 40)
    b = extend_segment(segment, 40)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_extend_continues_a_sinusoid():
    """Both flanks should track the true continuation of a pure tone."""
    w = 2.0 * np.pi * 0.05
    n = np.arange(1000)
    x = 0.7 * np.sin(w * n)
    a, b = 400, 720
    ext = extend_segment(x[a:b], 59, RlsConfig(order=8, forgetting=0.995))
    future_err = ext.samples[-59:] - x[b : b + 59]
    past_err = ext.samples[:59] - x[a - 59 : a]
    assert np.sqrt(np.mean(future_err**2)) < 0.02
    assert np.sqrt(np.mean(past_err**2)) < 0.02


def test_extend_validation():
    with pytest.raises(ValueError):
        extend_segment(np.zeros(320), -1)
    with pytest.raises(ValueError):
        ExtendedSegment(np.zeros(10), length=6)
    with pytest.raises(ValueError):
        ExtendedSegment(np.zeros(10), length=-1)


def test_extend_rejects_segment_no_longer_than_taps():
    cfg = RlsConfig(order=8)
    with pytest.raises(ValueError, match="need a 1-d signal longer than 9 samples"):
        extend_segment(np.ones(9), 5, cfg)
    assert extend_segment(np.ones(10), 5, cfg).samples.size == 20


def test_attack_names_the_frame_whose_segments_are_too_short():
    # 5 ms segments at 8 kHz hold 40 samples, fewer than the 53 default taps
    geom = ScramblerConfig(frame_size=4, segment_ms=5.0)
    cipher = synthesize_speechlike(geom.frame_samples / 8000.0, seed=5)
    with pytest.raises(ValueError, match=r"^frame 0: need a 1-d signal longer than 53 samples"):
        attack(cipher, AttackConfig(scrambler=geom))


# --- closed-form terminal weights against the RLS recursion -------------------


def _reference_forecast(x, length, cfg, w=None):
    """The per-side extension loop: (forecast, clamp count).

    It runs on rls_run's weights unless ``w`` gives the tap vector.
    """
    if w is None:
        w, _ = rls_run(x, cfg)
    taps = cfg.order + 1
    work = np.empty(taps + length)
    work[:taps] = x[-taps:]
    clamped = 0
    for i in range(length):
        pred = w @ work[i : i + taps][::-1]
        if abs(pred) > 4.0:
            pred = 4.0 if pred > 0 else -4.0
            clamped += 1
        work[taps + i] = pred
    return work[taps:], clamped


def _objective(x, w, cfg):
    """sum_i lambda^(k-i) e_i^2 + delta lambda^k ||w||^2, the cost RLS minimises."""
    taps = cfg.order + 1
    k = x.size - taps
    errors = np.array([x[n] - w @ x[n - taps : n][::-1] for n in range(taps, x.size)])
    weights = cfg.forgetting ** np.arange(k - 1, -1, -1)
    return float(weights @ errors**2 + cfg.init_reg * cfg.forgetting**k * (w @ w))


def _speech_segments(n, sample_rate, seed, count):
    x = synthesize_speechlike(count * n / sample_rate, seed=seed, sample_rate=sample_rate).samples
    return [x[i * n : (i + 1) * n] for i in range(count)]


def _clamp_counts(records):
    counts = []
    for rec in records:
        hit = re.match(r"clamped (\d+) of \d+ forecast samples", rec.getMessage())
        if hit:
            counts.append(int(hit.group(1)))
    return counts


def test_terminal_weights_match_rls_run_on_speech():
    cfg = RlsConfig()
    for seg in _speech_segments(320, 8000, 13, 24):
        for x in (seg, seg[::-1]):
            ref, _ = rls_run(x, cfg)
            got = _terminal_weights(np.ascontiguousarray(x), cfg)
            assert np.linalg.norm(got - ref) <= 1e-7 * np.linalg.norm(ref)


# One segment of each kind the extension meets: speech whose future-side
# forecast clamps 4 samples, a digitally silent segment, a pure tone, a hard step.
_CLAMPING_SPEECH = synthesize_speechlike(1.0, seed=7).samples[7680:8000]
_EXTENSION_CASES = {
    "clamping speech": _CLAMPING_SPEECH,
    "silence": np.zeros(320),
    "tone": 0.7 * np.sin(2.0 * np.pi * 0.05 * np.arange(320)),
    "step": np.concatenate([np.zeros(200), np.full(120, 0.9)]),
}


@pytest.mark.parametrize("name", sorted(_EXTENSION_CASES))
def test_extend_matches_recursive_reference(name, caplog):
    cfg = RlsConfig()
    segment = _EXTENSION_CASES[name]
    future, clamped_future = _reference_forecast(segment, 59, cfg)
    past, clamped_past = _reference_forecast(segment[::-1], 59, cfg)
    with caplog.at_level(logging.WARNING, logger="audiojigsaw.estimator"):
        ext = extend_segment(segment, 59, cfg)
    np.testing.assert_allclose(ext.samples[-59:], future, rtol=0, atol=1e-6)
    np.testing.assert_allclose(ext.samples[:59], past[::-1], rtol=0, atol=1e-6)
    assert _clamp_counts(caplog.records) == [c for c in (clamped_future, clamped_past) if c]


def test_reference_cases_cover_clamping_and_silence():
    assert _reference_forecast(_CLAMPING_SPEECH, 59, RlsConfig())[1] > 0
    assert np.all(_terminal_weights(np.zeros(320), RlsConfig()) == 0.0)


def test_extend_forecast_stays_clamped(caplog):
    # this speech segment's future-side predictor is unstable: its forecast
    # leaves +/-4, and the extension must stay inside the rails regardless
    with caplog.at_level(logging.WARNING, logger="audiojigsaw.estimator"):
        ext = extend_segment(_CLAMPING_SPEECH, 59)
    assert _clamp_counts(caplog.records)
    assert np.max(np.abs(ext.samples)) <= 4.0


@pytest.mark.parametrize("n", [640, 960])
def test_terminal_weights_minimise_the_rls_objective_on_long_segments(n):
    # over 587+ updates lambda^k is tiny and the recursion itself drifts by
    # up to ~1e-4 from the closed form, so compare costs, not weights
    cfg = RlsConfig()
    for seg in _speech_segments(n, 16000, 11, 6):
        for x in (seg, seg[::-1]):
            ref, _ = rls_run(x, cfg)
            got = _terminal_weights(np.ascontiguousarray(x), cfg)
            assert _objective(x, got, cfg) <= _objective(x, ref, cfg) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(1, 8),
    forgetting=st.floats(0.9, 1.0),
    extra=st.integers(1, 400),
    pole=st.floats(-0.99, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_terminal_weights_agree_with_rls_run(order, forgetting, extra, pole, seed):
    cfg = RlsConfig(order=order, forgetting=forgetting)
    n = min(order + 1 + extra, 400)
    noise = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    x = lfilter([1.0], [1.0, -pole], noise)
    ref, _ = rls_run(x, cfg)
    got = _terminal_weights(x, cfg)
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


# --- the frame-batched extension against the per-side loop it replaced ---------


def _reference_weights(x, cfg):
    """Closed-form terminal weights of one side, solved on their own."""
    taps = cfg.order + 1
    k = x.size - taps
    scale = np.sqrt(cfg.forgetting) ** np.arange(k - 1, -1, -1)
    a = sliding_window_view(x, taps)[:k, ::-1] * scale[:, None]
    b = x[taps:] * scale
    reg = cfg.init_reg * cfg.forgetting**k
    r = a.T @ a
    r[np.diag_indices(taps)] += reg
    w = np.linalg.solve(r, a.T @ b)
    return w + np.linalg.solve(r, a.T @ (b - a @ w) - reg * w)


def _reference_extend_frame(segments, length, cfg):
    """Extend segment by segment, side by side: (rows, clamp counts in log order)."""
    rows, counts = [], []
    for seg in np.asarray(segments, dtype=np.float64):
        rev = seg[::-1]
        future, clamped_future = _reference_forecast(seg, length, cfg, _reference_weights(seg, cfg))
        past, clamped_past = _reference_forecast(rev, length, cfg, _reference_weights(rev, cfg))
        rows.append(np.concatenate([past[::-1], seg, future]))
        counts += [c for c in (clamped_future, clamped_past) if c]
    return np.array(rows), counts


def _assert_frame_matches_reference(segments, length, cfg):
    want, _ = _reference_extend_frame(segments, length, cfg)
    got = extend_frame(segments, length, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# A segment of negative zeros: every forecast product is -0.0, and the
# per-side dot product, which starts its sum at +0.0, returns +0.0; a sum
# seeded with its first product would return -0.0.
_BYTE_CASES = {**_EXTENSION_CASES, "negative zeros": np.full(320, -0.0)}


@pytest.mark.parametrize("name", sorted(_BYTE_CASES))
def test_extend_frame_matches_per_side_reference_bytes(name):
    segment = _BYTE_CASES[name]
    want, _ = _reference_extend_frame(segment[None], 59, RlsConfig())
    assert extend_frame(segment[None], 59).tobytes() == want.tobytes()
    assert extend_segment(segment, 59).samples.tobytes() == want[0].tobytes()


def test_extend_frame_of_all_cases_matches_per_side_reference_bytes():
    _assert_frame_matches_reference(np.stack(list(_BYTE_CASES.values())), 59, RlsConfig())


@pytest.mark.parametrize("frame_size", [8, 16])
def test_extend_frame_matches_per_side_reference_on_speech(frame_size):
    x = synthesize_speechlike(3.0, seed=7).samples
    frames = x[: x.size // (frame_size * 320) * frame_size * 320].reshape(-1, frame_size, 320)
    for frame in frames:
        _assert_frame_matches_reference(frame, 59, RlsConfig())


def test_extend_frame_zero_length_and_validation():
    frame = np.arange(640, dtype=np.float64).reshape(2, 320)
    got = extend_frame(frame, 0)
    assert got.tobytes() == frame.tobytes() and got is not frame
    # a zero-length extension never trains a predictor, so short segments pass
    assert extend_frame(np.ones((3, 5)), 0).shape == (3, 5)
    with pytest.raises(ValueError, match="^length must be non-negative$"):
        extend_frame(frame, -1)
    with pytest.raises(ValueError, match="need a 1-d signal longer than 53 samples"):
        extend_frame(np.ones((2, 53)), 5)
    for bad in (np.ones(320), np.ones((2, 2, 320)), np.ones((0, 320))):
        with pytest.raises(ValueError, match="^segments must be a non-empty 2-d"):
            extend_frame(bad, 5)
    with pytest.raises(ValueError, match="^segment must be one-dimensional$"):
        extend_segment(np.ones((2, 320)), 5)


def test_extend_frame_logs_clamps_like_the_per_side_loop(caplog):
    """One warning per clamped side, segment by segment, future side first:
    reversing a segment moves its clamps to the past side, and the spliced
    segment clamps 4 future-side and 6 past-side samples."""
    speech = synthesize_speechlike(10.0, seed=7).samples
    spliced = np.concatenate([_CLAMPING_SPEECH[::-1][:100], _CLAMPING_SPEECH[100:]])
    frame = np.stack(
        [
            _CLAMPING_SPEECH,
            speech[68480:68800][::-1],
            _EXTENSION_CASES["tone"],
            spliced,
            speech[7680:8000],
        ]
    )
    cfg = RlsConfig()
    _, want = _reference_extend_frame(frame, 59, cfg)
    assert want == [4, 3, 4, 6, 2]
    with caplog.at_level(logging.WARNING, logger="audiojigsaw.estimator"):
        extend_frame(frame, 59, cfg)
    assert [r.getMessage() for r in caplog.records] == [
        f"clamped {c} of 59 forecast samples to +/-4" for c in want
    ]


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 12),
    forgetting=st.floats(0.9, 1.0),
    length=st.integers(0, 40),
    count=st.integers(1, 6),
    extra=st.integers(1, 80),
    pole=st.floats(-0.99, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_extend_frame_matches_per_side_reference_property(
    order, forgetting, length, count, extra, pole, seed
):
    cfg = RlsConfig(order=order, forgetting=forgetting)
    noise = np.random.Generator(np.random.PCG64(seed)).standard_normal((count, order + 1 + extra))
    segments = lfilter([1.0], [1.0, -pole], noise, axis=1)
    _assert_frame_matches_reference(segments, length, cfg)

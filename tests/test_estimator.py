import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from audiojigsaw.audio_io import synthesize_speechlike
from audiojigsaw.estimator import (
    _INIT_REG,
    RlsConfig,
    _terminal_weights,
    extend_segment,
)
from audiojigsaw.pipeline import AttackConfig, attack
from audiojigsaw.scrambler import ScramblerConfig
from references import normal_equation_weights, rls_run


def test_rls_config_validation():
    with pytest.raises(ValueError):
        RlsConfig(order=0)
    with pytest.raises(ValueError):
        RlsConfig(forgetting=0.0)
    with pytest.raises(ValueError):
        RlsConfig(forgetting=1.2)


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
    assert ext.shape == (320 + 2 * 59,)
    np.testing.assert_array_equal(ext[59 : 59 + 320], segment)


def test_extend_zero_length_is_identity():
    segment = np.arange(100, dtype=np.float64)
    np.testing.assert_array_equal(extend_segment(segment, 0), segment)


def test_extend_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    segment = rng.standard_normal(320)
    a = extend_segment(segment, 40)
    b = extend_segment(segment, 40)
    np.testing.assert_array_equal(a, b)


def test_extend_continues_a_sinusoid():
    """Both flanks should track the true continuation of a pure tone."""
    w = 2.0 * np.pi * 0.05
    n = np.arange(1000)
    x = 0.7 * np.sin(w * n)
    a, b = 400, 720
    ext = extend_segment(x[a:b], 59, RlsConfig(order=8, forgetting=0.995))
    future_err = ext[-59:] - x[b : b + 59]
    past_err = ext[:59] - x[a - 59 : a]
    assert np.sqrt(np.mean(future_err**2)) < 0.02
    assert np.sqrt(np.mean(past_err**2)) < 0.02


def test_extend_validation():
    with pytest.raises(ValueError):
        extend_segment(np.zeros(320), -1)


def test_extend_rejects_segment_no_longer_than_taps():
    cfg = RlsConfig(order=8)
    with pytest.raises(ValueError, match="^segments must be longer than 9 samples$"):
        extend_segment(np.ones(9), 5, cfg)
    assert extend_segment(np.ones(10), 5, cfg).size == 20


def test_attack_names_the_frame_whose_segments_are_too_short():
    # 5 ms segments at 8 kHz hold 40 samples, fewer than the 53 default taps
    geom = ScramblerConfig(frame_size=4, segment_ms=5.0)
    cipher = synthesize_speechlike(geom.frame_samples / 8000.0, seed=5)
    with pytest.raises(ValueError, match=r"^frame 0: segments must be longer than 53 samples$"):
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
    return float(weights @ errors**2 + _INIT_REG * cfg.forgetting**k * (w @ w))


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
    np.testing.assert_allclose(ext[-59:], future, rtol=0, atol=1e-6)
    np.testing.assert_allclose(ext[:59], past[::-1], rtol=0, atol=1e-6)
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
    assert np.max(np.abs(ext)) <= 4.0


@pytest.mark.parametrize("n", [640, 960])
def test_terminal_weights_minimise_the_rls_objective_on_long_segments(n):
    # over 587+ updates lambda^k is tiny and the recursion itself drifts by
    # up to ~1e-4 from the closed form, so compare costs, not weights
    cfg = RlsConfig()
    for seg in _speech_segments(n, 16000, 11, 6):
        for x in (seg, np.ascontiguousarray(seg[::-1])):
            # one memory layout for both objectives: a reversed view moves
            # one by 1.2e-12, more than the margin, through summation order
            ref, _ = rls_run(x, cfg)
            got = _terminal_weights(x, cfg)
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


@pytest.mark.parametrize("n", [320, 640])
def test_terminal_weights_match_the_normal_equations_on_speech(n):
    # the Gram recurrence and its Cholesky factor against the LU solve on A^T A they replaced
    cfg = RlsConfig()
    for seg in _speech_segments(n, 8000 * n // 320, 13, 12):
        for x in (seg, seg[::-1]):
            ref = normal_equation_weights(x, cfg)
            got = _terminal_weights(x, cfg)
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


# --- the frame-batched extension against the per-side loop it replaced ---------


def _reference_extend_frame(segments, length, cfg):
    """Extend segment by segment, side by side: (rows, clamp counts in log order).

    Each side's weights come from ``_terminal_weights`` of that side alone,
    so this pins the batched forecast loop and the stacked weight solve to
    the bytes of one side at a time.
    """
    rows, counts = [], []
    for seg in np.asarray(segments, dtype=np.float64):
        rev = seg[::-1]
        future, clamped_future = _reference_forecast(seg, length, cfg, _terminal_weights(seg, cfg))
        past, clamped_past = _reference_forecast(rev, length, cfg, _terminal_weights(rev, cfg))
        rows.append(np.concatenate([past[::-1], seg, future]))
        counts += [c for c in (clamped_future, clamped_past) if c]
    return np.array(rows), counts


def _assert_frame_matches_reference(segments, length, cfg):
    want, _ = _reference_extend_frame(segments, length, cfg)
    got = extend_segment(segments, length, cfg)
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
    assert extend_segment(segment[None], 59).tobytes() == want.tobytes()
    assert extend_segment(segment, 59).tobytes() == want[0].tobytes()


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
    got = extend_segment(frame, 0)
    assert got.tobytes() == frame.tobytes() and got is not frame
    # a zero-length extension never trains a predictor, so short segments pass
    assert extend_segment(np.ones((3, 5)), 0).shape == (3, 5)
    with pytest.raises(ValueError, match="^length must be a non-negative whole number, got -1$"):
        extend_segment(frame, -1)
    with pytest.raises(ValueError, match="^segments must be longer than 53 samples$"):
        extend_segment(np.ones((2, 53)), 5)
    for bad in (np.float64(1.0), np.ones(0), np.ones((2, 2, 2, 320)), np.ones((0, 320))):
        with pytest.raises(ValueError, match=r"^segments must be a non-empty \(L,\) segment"):
            extend_segment(bad, 5)


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
        extend_segment(frame, 59, cfg)
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


@pytest.mark.parametrize("seed", [7, 123])
def test_extend_frame_of_a_stack_matches_one_frame_at_a_time(seed, caplog):
    """An (F, N, L) stack extends to the bytes of F one-frame calls and logs
    the same clamp warnings in the same order.  Both 10 s clips clamp at
    N=8: seed 123 on one side of frame 20, seed 7 on several frames."""
    x = synthesize_speechlike(10.0, seed=seed).samples
    frames = x[: x.size // 2560 * 2560].reshape(-1, 8, 320)
    with caplog.at_level(logging.WARNING, logger="audiojigsaw.estimator"):
        want = [extend_segment(frame, 59) for frame in frames]
        one_by_one = [r.getMessage() for r in caplog.records]
        caplog.clear()
        got = extend_segment(frames, 59)
    assert one_by_one
    assert [r.getMessage() for r in caplog.records] == one_by_one
    assert got.shape == (len(frames), 8, 320 + 2 * 59)
    assert got.tobytes() == np.stack(want).tobytes()


# --- degenerate Gram matrices: sides without a Cholesky factor ----------------


def _lacks_a_factor(x, cfg):
    """Whether the Cholesky factorisation of signal x's Gram matrix fails."""
    failures = []
    original = np.linalg.cholesky

    def spy(a):
        try:
            return original(a)
        except np.linalg.LinAlgError:
            failures.append(a)
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", spy)
        _terminal_weights(x, cfg)
    return bool(failures)


def _degenerate_signals(n):
    t = np.arange(n)
    return {
        f"tone, {n}": 0.7 * np.sin(2.0 * np.pi * 0.05 * t),
        f"two tones, {n}": 0.5 * np.sin(2.0 * np.pi * 0.05 * t) + 0.3 * np.sin(2.0 * np.pi * 0.13 * t),
        f"ramp, {n}": t / n,
        f"DC, {n}": np.full(n, 0.5),
    }


_SPEECH_FRAME = synthesize_speechlike(1.0, seed=7).samples[:2560].reshape(8, 320)
# name: (segments, config)
_DEGENERATE_CASES = {
    "speech, forgetting 0.5": (_SPEECH_FRAME, RlsConfig(forgetting=0.5)),
    "speech, forgetting 0.6": (_SPEECH_FRAME, RlsConfig(forgetting=0.6)),
    **{name: (x[None], RlsConfig()) for n in (960, 1920) for name, x in _degenerate_signals(n).items()},
    "silence": (np.zeros((2, 320)), RlsConfig()),
    "negative zeros": (np.full((2, 320), -0.0), RlsConfig()),
}


def test_degenerate_cases_reach_the_fallback():
    # delta lambda^k sinks below the Gram's rounding on all but these three;
    # digital silence keeps R = delta lambda^k I, and DC at 960 samples keeps a factor
    lacking = {
        name
        for name, (segments, cfg) in _DEGENERATE_CASES.items()
        if any(_lacks_a_factor(side, cfg) for seg in segments for side in (seg, seg[::-1]))
    }
    assert set(_DEGENERATE_CASES) - lacking == {"silence", "negative zeros", "DC, 960"}


@pytest.mark.parametrize("name", sorted(_DEGENERATE_CASES))
def test_extend_frame_on_degenerate_gram_matrices(name, caplog):
    segments, cfg = _DEGENERATE_CASES[name]
    want, counts = _reference_extend_frame(segments, 59, cfg)
    with caplog.at_level(logging.WARNING, logger="audiojigsaw.estimator"):
        got = extend_segment(segments, 59, cfg)
    assert np.all(np.isfinite(got)) and np.max(np.abs(got)) <= 4.0
    assert got.tobytes() == want.tobytes()
    assert [r.getMessage() for r in caplog.records] == [
        f"clamped {c} of 59 forecast samples to +/-4" for c in counts
    ]


def test_dc_whose_gram_is_singular_even_to_lu_continues_flat():
    # at 1920 samples LU finds the DC Gram matrix exactly singular as well;
    # the minimum-norm least-squares weights sum to one and continue the level
    ext = extend_segment(np.full(1920, 0.5), 59)
    np.testing.assert_allclose(ext, 0.5, rtol=0, atol=1e-9)


@pytest.mark.parametrize("forgetting", [0.97, 0.5])
def test_weights_ignore_the_half_of_the_gram_that_is_not_built(forgetting, monkeypatch):
    """_gram builds one triangle of each Gram matrix and Cholesky reads only
    that one: NaN in the other half leaves every weight's bytes alone, on
    the batched factor and on the fallback of sides without one (0.5)."""
    cfg = RlsConfig(forgetting=forgetting)
    want = _terminal_weights(_SPEECH_FRAME, cfg)
    original = np.linalg.cholesky

    def poisoned(a):
        a = np.array(a)
        rows, cols = np.triu_indices(a.shape[-1], 1)
        a[..., rows, cols] = np.nan
        return original(a)

    monkeypatch.setattr(np.linalg, "cholesky", poisoned)
    got = _terminal_weights(_SPEECH_FRAME, cfg)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()


def test_stack_with_fallback_sides_matches_each_side_alone():
    speech = synthesize_speechlike(0.6, seed=11, sample_rate=16000).samples[:9600].reshape(10, 960)
    stack = np.concatenate([speech[:5], np.stack(list(_degenerate_signals(960).values())), speech[5:]])
    cfg = RlsConfig()
    lacking = [_lacks_a_factor(x, cfg) for x in stack]
    assert any(lacking) and not all(lacking)
    weights = _terminal_weights(stack, cfg)
    for x, w in zip(stack, weights):
        assert w.tobytes() == _terminal_weights(x, cfg).tobytes()
    _assert_frame_matches_reference(stack, 59, cfg)

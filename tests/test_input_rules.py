"""The count rule: every integer setting is a whole number of at least a bound.

Segments per frame, the STFT window, overlap and FFT length, the RLS order,
the seam offsets, sample rates, key-schedule sizes and the sweep's trials
and seed all go through ``audio_io._whole``.  A whole number (``8``,
``8.0`` or a numpy integer) at or above the bound is stored as an ``int``;
anything else raises ``ValueError`` naming the setting, at the call that
receives it.

These tests only construct and validate.  They start no process, never run
a sweep, and call a function that allocates from a drawn count only when
the count is small.
"""

import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiojigsaw.audio_io import AudioBuffer, synthesize_speechlike
from audiojigsaw.estimator import RlsConfig, extend_segment
from audiojigsaw.pipeline import SweepSpec
from audiojigsaw.puzzle import DistanceConfig
from audiojigsaw.scrambler import ScramblerConfig, keyspace_bits, make_key_schedule
from audiojigsaw.spectrogram import StftConfig, hamming_window

_SEGMENT = np.sin(np.arange(16) / 3.0)
_RLS = RlsConfig(order=2)
# Two one-sample segments per frame: frame_count(n) is n // 2.
_TINY_FRAMES = ScramblerConfig(frame_size=2, segment_ms=1000.0, sample_rate=1)
_WIDE = 1 << 80  # a window, and FFT length, wider than any drawn count


def test_whole_counts_are_kept_as_int():
    assert type(ScramblerConfig(8.0).frame_size) is int
    assert ScramblerConfig(np.int64(8), sample_rate=np.uint16(8000)) == ScramblerConfig(8, sample_rate=8000)
    cfg = StftConfig(window_size=np.int32(60), overlap=51.0, fft_size=256.0)
    assert (cfg.window_size, cfg.overlap, cfg.fft_size) == (60, 51, 256)
    assert all(type(v) is int for v in (cfg.window_size, cfg.overlap, cfg.fft_size))
    assert type(RlsConfig(order=np.int64(52)).order) is int
    assert DistanceConfig(3.0, np.int8(7)) == DistanceConfig(3, 7)
    assert make_key_schedule(0, 2.0, np.int64(8)) == make_key_schedule(0, 2, 8)
    assert keyspace_bits(5.0, 40.0, 8.0) == keyspace_bits(5.0, 40.0, 8)
    assert hamming_window(60.0).tobytes() == hamming_window(60).tobytes()
    assert extend_segment(_SEGMENT, 2.0, _RLS).tobytes() == extend_segment(_SEGMENT, 2, _RLS).tobytes()


# Each of these was accepted before the count rule and then failed later
# with TypeError, IndexError or AxisError, or returned a wrong value.
_REGRESSIONS = {
    "StftConfig(window_size=60.5)": lambda: StftConfig(window_size=60.5),
    "RlsConfig(order=2.5)": lambda: RlsConfig(order=2.5),
    "DistanceConfig(1.5, 2)": lambda: DistanceConfig(1.5, 2),
    "SweepSpec(trials=1.5)": lambda: SweepSpec(trials=1.5),
    "make_key_schedule(0, 2, 8.5)": lambda: make_key_schedule(0, 2, 8.5),
    "keyspace_bits(5, 40, 8.5)": lambda: keyspace_bits(5, 40, 8.5),
    "extend_segment(x, 2.5)": lambda: extend_segment(_SEGMENT, 2.5, _RLS),
    "hamming_window(60.5)": lambda: hamming_window(60.5),
    "frame_count(-5)": lambda: ScramblerConfig().frame_count(-5),
}

_MESSAGES = {
    "StftConfig(window_size=60.5)": "window_size must be a whole number of at least 2, got 60.5",
    "RlsConfig(order=2.5)": "order must be a positive whole number, got 2.5",
    "DistanceConfig(1.5, 2)": "max_penetration must be a non-negative whole number, got 1.5",
    "SweepSpec(trials=1.5)": "trials must be a positive whole number, got 1.5",
    "make_key_schedule(0, 2, 8.5)": "frame_size must be a whole number of at least 2, got 8.5",
    "keyspace_bits(5, 40, 8.5)": "frame_size must be a whole number of at least 2, got 8.5",
    "extend_segment(x, 2.5)": "length must be a non-negative whole number, got 2.5",
    "hamming_window(60.5)": "size must be a whole number of at least 2, got 60.5",
    "frame_count(-5)": "n_samples must be a non-negative whole number, got -5",
}


@pytest.mark.parametrize("case", sorted(_REGRESSIONS))
def test_count_regressions_raise_value_error_where_received(case):
    with pytest.raises(ValueError) as err:
        _REGRESSIONS[case]()
    assert str(err.value) == _MESSAGES[case]


def _count(value, least):
    """The count rule restated by hand: the int a draw is stored as, or None."""
    if isinstance(value, (bool, np.bool_, numbers.Integral)):
        n = int(value)
    elif isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer():
        n = int(value)
    else:
        return None
    return n if n >= least else None


# Draws at most this large reach the calls that allocate from them.
_SMALL = 64

# entry point -> (the setting's name in messages, its bound, a call that
# returns what the setting became, and what that is for a whole count n:
# None where a relational rule refuses n, ... where the call allocates
# from n and n is not small).
_ENTRIES = {
    "ScramblerConfig.frame_size": (
        "frame_size", 2, lambda v: ScramblerConfig(frame_size=v).frame_size, lambda n: n),
    "ScramblerConfig.sample_rate": (
        "sample_rate", 1, lambda v: ScramblerConfig(segment_ms=1000.0, sample_rate=v).sample_rate,
        lambda n: n),
    "ScramblerConfig.frame_count": (
        "n_samples", 0, _TINY_FRAMES.frame_count, lambda n: n // 2 if n >= 2 else None),
    "StftConfig.window_size": (
        "window_size", 2, lambda v: StftConfig(window_size=v, overlap=0, fft_size=_WIDE).window_size,
        lambda n: n if n <= _WIDE else None),
    "StftConfig.overlap": (
        "overlap", 0, lambda v: StftConfig(window_size=_WIDE, overlap=v, fft_size=_WIDE).overlap,
        lambda n: n if n < _WIDE else None),
    "StftConfig.fft_size": (
        "fft_size", 1, lambda v: StftConfig(window_size=2, overlap=0, fft_size=v).fft_size,
        lambda n: n if n >= 2 and not n & (n - 1) else None),
    "hamming_window": (
        "size", 2, lambda v: hamming_window(v).size, lambda n: n if n <= _SMALL else ...),
    "RlsConfig.order": ("order", 1, lambda v: RlsConfig(order=v).order, lambda n: n),
    "extend_segment": (
        "length", 0, lambda v: (extend_segment(_SEGMENT, v, _RLS).size - _SEGMENT.size) // 2,
        lambda n: n if n <= _SMALL else ...),
    "DistanceConfig.max_penetration": (
        "max_penetration", 0, lambda v: DistanceConfig(max_penetration=v).max_penetration, lambda n: n),
    "DistanceConfig.max_slide": (
        "max_slide", 0, lambda v: DistanceConfig(max_slide=v).max_slide, lambda n: n),
    "AudioBuffer.sample_rate": (
        "sample_rate", 1, lambda v: AudioBuffer(np.zeros(4), v).sample_rate, lambda n: n),
    "synthesize_speechlike": (
        "sample_rate", 1, lambda v: synthesize_speechlike(0.01, 0, v).sample_rate,
        lambda n: ... if n > 100 * _SMALL else n if round(n / 270) >= 1 else None),
    "make_key_schedule.n_frames": (
        "n_frames", 1, lambda v: len(make_key_schedule(0, v, 2).keys),
        lambda n: n if n <= _SMALL else ...),
    "make_key_schedule.frame_size": (
        "frame_size", 2, lambda v: len(make_key_schedule(0, 1, v).keys[0]),
        lambda n: n if n <= _SMALL else ...),
    "keyspace_bits": (
        "frame_size", 2, lambda v: keyspace_bits(5.0, 40.0, v),
        lambda n: keyspace_bits(5.0, 40.0, n) if n <= _SMALL else ...),
    "SweepSpec.frame_sizes": (
        "frame_size", 2, lambda v: SweepSpec(frame_sizes=(8, v)).frame_sizes[1], lambda n: n),
    "SweepSpec.trials": ("trials", 1, lambda v: SweepSpec(trials=v).trials, lambda n: n),
    "SweepSpec.seed": ("seed", 0, lambda v: SweepSpec(seed=v).seed, lambda n: n),
}

_SPECIAL = [
    0, -1, 1, 2, 3, 8, 0.5, 2.5, 60.5, -8.0, 8.0, 256.0, 1e300,
    math.nan, math.inf, -math.inf, 2**63, 2**64 + 1, -(2**63) - 1,
    True, False, np.True_, "8", "8.0", "", None,
    np.int64(8), np.int32(-3), np.uint8(3), np.int64(2**62), np.uint64(2**64 - 1),
    np.float64(8.0), np.float64(60.5), np.float32(2.0), np.float32(2.5),
]
_DRAWS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-300, 300),
    st.integers(2**63, 2**70),
    st.integers(-300, 300).map(float),
    st.integers(0, 300).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@settings(max_examples=40, deadline=None)
@given(value=_DRAWS)
def test_every_count_is_kept_as_int_or_refused_with_value_error(entry, value):
    name, least, call, expect = _ENTRIES[entry]
    n = _count(value, least)
    want = None if n is None else expect(n)
    if want is ...:
        return  # a whole count too large to allocate from here
    try:
        got = call(value)
    except ValueError as err:
        assert want is None, f"{entry} refused {value!r}: {err}"
        if n is None:
            assert str(err).startswith(f"{name} must be "), str(err)
    else:
        assert want is not None, f"{entry} accepted {value!r}"
        assert type(got) is int and got == want

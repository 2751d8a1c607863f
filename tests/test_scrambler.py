import numpy as np
import pytest

from audiojigsaw.audio_io import AudioBuffer
from audiojigsaw.scrambler import (
    KeySchedule,
    ScramblerConfig,
    descramble,
    invert_permutation,
    keyspace_bits,
    load_keys,
    make_key_schedule,
    save_keys,
    scramble,
)


def test_config_sample_counts():
    cfg = ScramblerConfig()
    assert cfg.segment_samples == 320
    assert cfg.frame_samples == 2560
    cfg = ScramblerConfig(frame_size=6, segment_ms=25.0, sample_rate=16000)
    assert cfg.segment_samples == 400
    assert cfg.frame_samples == 2400


def test_config_validation():
    with pytest.raises(ValueError):
        ScramblerConfig(frame_size=0)
    with pytest.raises(ValueError, match="^frame_size must be at least 2$"):
        ScramblerConfig(frame_size=1)
    with pytest.raises(ValueError):
        ScramblerConfig(segment_ms=-1.0)
    with pytest.raises(ValueError):
        ScramblerConfig(sample_rate=0)
    with pytest.raises(ValueError):
        ScramblerConfig(segment_ms=0.01, sample_rate=8000)  # rounds to 0 samples


def test_invert_permutation_hand_case():
    # key[2] = 0 means input segment 0 sits at output slot 2
    assert invert_permutation((1, 3, 0, 2)) == (2, 0, 3, 1)
    assert invert_permutation((0, 1, 2)) == (0, 1, 2)


def test_invert_permutation_is_involutive():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(50):
        n = int(rng.integers(2, 12))
        key = tuple(int(v) for v in rng.permutation(n))
        inv = invert_permutation(key)
        assert invert_permutation(inv) == key
        for i, k in enumerate(key):
            assert inv[k] == i


def test_scramble_hand_placement():
    """One frame of four one-sample segments with key (2, 0, 3, 1):
    output slot i must hold input segment key[i]."""
    cfg = ScramblerConfig(frame_size=4, segment_ms=0.125, sample_rate=8000)
    assert cfg.segment_samples == 1
    buf = AudioBuffer(np.array([10.0, 11.0, 12.0, 13.0]), 8000)
    ks = KeySchedule(((2, 0, 3, 1),))
    out = scramble(buf, cfg, ks)
    np.testing.assert_array_equal(out.samples, [12.0, 10.0, 13.0, 11.0])
    back = descramble(out, cfg, ks)
    np.testing.assert_array_equal(back.samples, buf.samples)


def test_round_trip_with_partial_tail():
    cfg = ScramblerConfig(frame_size=3, segment_ms=1.0, sample_rate=8000)
    rng = np.random.Generator(np.random.PCG64(5))
    samples = rng.uniform(-1, 1, size=2 * cfg.frame_samples + 13)
    buf = AudioBuffer(samples, 8000)
    ks = make_key_schedule(99, 2, 3)
    out = scramble(buf, cfg, ks)
    # the 13-sample tail is shorter than a frame and passes through
    np.testing.assert_array_equal(out.samples[-13:], samples[-13:])
    assert not np.array_equal(out.samples[: cfg.frame_samples], samples[: cfg.frame_samples])
    np.testing.assert_array_equal(descramble(out, cfg, ks).samples, samples)


@pytest.mark.parametrize("transform", [scramble, descramble])
def test_signal_shorter_than_one_frame_is_refused(transform):
    """Such a signal used to come back unchanged: the scrambler returned plaintext."""
    cfg = ScramblerConfig(frame_size=4, segment_ms=1.0)
    buf = AudioBuffer(np.arange(cfg.frame_samples - 1, dtype=np.float64), 8000)
    with pytest.raises(ValueError, match="^signal of 31 samples is shorter than one 32-sample frame$"):
        transform(buf, cfg, make_key_schedule(1, 1, 4))


def test_scramble_rejects_mismatched_schedule():
    cfg = ScramblerConfig(frame_size=4, segment_ms=1.0)
    buf = AudioBuffer(np.zeros(3 * cfg.frame_samples), 8000)
    with pytest.raises(ValueError):
        scramble(buf, cfg, make_key_schedule(1, 3, 5))  # wrong width
    with pytest.raises(ValueError):
        scramble(buf, cfg, make_key_schedule(1, 2, 4))  # too few keys


def test_key_schedule_properties():
    ks = make_key_schedule(314, n_frames=40, frame_size=8)
    assert len(ks) == 40 and ks.frame_size == 8
    for key in ks.keys:
        assert sorted(key) == list(range(8))
    again = make_key_schedule(314, 40, 8)
    assert again.keys == ks.keys
    other = make_key_schedule(315, 40, 8)
    assert other.keys != ks.keys


def test_key_schedule_validation():
    with pytest.raises(ValueError):
        KeySchedule(())
    with pytest.raises(ValueError):
        KeySchedule(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        make_key_schedule(0, 1, 1)


def test_keys_file_round_trip(tmp_path):
    ks = make_key_schedule(7, 5, 6)
    path = tmp_path / "keys.txt"
    save_keys(ks, path)
    loaded = load_keys(path)
    assert loaded.keys == ks.keys


def test_keyspace_bits_table():
    """Five-minute conversation at 40 ms segments."""
    expected = {6: 20, 8: 26, 10: 32, 12: 39, 14: 46}
    for n, bits in expected.items():
        assert keyspace_bits(5.0, 40.0, n) == bits


def test_keyspace_bits_validation():
    with pytest.raises(ValueError):
        keyspace_bits(0.0, 40.0, 8)
    with pytest.raises(ValueError):
        keyspace_bits(5.0, 40.0, 1)


def test_many_random_round_trips():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(25):
        n = int(rng.integers(2, 10))
        seg_ms = float(rng.uniform(5.0, 50.0))
        rate = int(rng.choice([8000, 16000]))
        cfg = ScramblerConfig(n, seg_ms, rate)
        frames = int(rng.integers(1, 5))
        length = frames * cfg.frame_samples + int(rng.integers(0, cfg.frame_samples))
        buf = AudioBuffer(rng.uniform(-1, 1, size=length), rate)
        ks = make_key_schedule(int(rng.integers(1 << 31)), frames, n)
        np.testing.assert_array_equal(
            descramble(scramble(buf, cfg, ks), cfg, ks).samples, buf.samples
        )

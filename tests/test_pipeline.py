import csv
import math
import time

import numpy as np
import pytest

from audiojigsaw import pipeline
from audiojigsaw.audio_io import AudioBuffer, synthesize_speechlike, write_wav
from audiojigsaw.estimator import RlsConfig, extend_segment
from audiojigsaw.pipeline import (
    CSV_HEADER,
    AttackConfig,
    FrameAttackResult,
    SweepSpec,
    attack,
    format_rows,
    frame_pieces,
    sweep,
    write_results_csv,
)
from audiojigsaw.scrambler import KeySchedule, ScramblerConfig, make_key_schedule, scramble
from audiojigsaw.spectrogram import StftConfig, segmented_spectrogram
from references import quantize_pieces


def _cipher(seed=5, frame_size=4, frames=1):
    geom = ScramblerConfig(frame_size=frame_size)
    plain = synthesize_speechlike(frames * geom.frame_samples / 8000.0, seed=seed)
    keys = make_key_schedule(seed + 1, frames, frame_size)
    return scramble(plain, geom, keys), plain, keys, geom


def test_attack_config_validation():
    """The quantization scale (dB) and the extension length (window minus
    one) are fixed, not settable: 320-sample segments extended by 59 and 39
    samples per side give 43 and 36 columns, and 29 without extension."""
    for knob in ("quant_scale", "extension"):
        with pytest.raises(TypeError):
            AttackConfig(**{knob: None})
    frame = synthesize_speechlike(0.32, seed=7).samples.reshape(8, 320)
    small = StftConfig(40, 30, 128)
    assert frame_pieces(frame, AttackConfig()).shape == (8, 128, 43)
    assert frame_pieces(frame, AttackConfig(stft=small)).shape == (8, 64, 36)
    assert frame_pieces(frame, AttackConfig(use_estimation=False)).shape == (8, 128, 29)
    assert frame_pieces(frame[None], AttackConfig()).shape == (1, 8, 128, 43)
    for bad in (frame[0], frame[None, None]):
        with pytest.raises(ValueError, match=r"^segments must be an \(N, L\) frame or an"):
            frame_pieces(bad, AttackConfig())


def test_attack_reports_and_reassembles():
    cipher, plain, keys, geom = _cipher()
    cfg = AttackConfig(scrambler=geom)
    estimate, results = attack(cipher, cfg)
    assert len(results) == 1
    r = results[0]
    assert sorted(r.arrangement) == [0, 1, 2, 3]
    assert r.accuracy is None
    assert r.solve_nodes >= 1 and r.solve_ms >= 0.0
    # the estimate must be exactly the cipher segments laid out in the
    # reported order, whatever that order is
    segments = cipher.samples[: geom.frame_samples].reshape(4, geom.segment_samples)
    np.testing.assert_array_equal(
        estimate.samples[: geom.frame_samples],
        segments[list(r.arrangement)].reshape(-1),
    )


def test_attack_scores_against_truth():
    cipher, plain, keys, geom = _cipher(seed=8)
    estimate, results = attack(cipher, AttackConfig(scrambler=geom), truth=keys)
    assert results[0].accuracy is not None
    assert 0.0 < results[0].accuracy <= 1.0
    if results[0].accuracy == 1.0:
        np.testing.assert_array_equal(estimate.samples, plain.samples)


def test_attack_passes_partial_tail_through():
    cipher, plain, keys, geom = _cipher(seed=3)
    with_tail = AudioBuffer(np.concatenate([cipher.samples, plain.samples[:100]]), 8000)
    estimate, results = attack(with_tail, AttackConfig(scrambler=geom))
    assert len(results) == 1
    np.testing.assert_array_equal(estimate.samples[-100:], plain.samples[:100])


def test_attack_is_deterministic():
    cipher, _, _, geom = _cipher(seed=12)
    a, ra = attack(cipher, AttackConfig(scrambler=geom))
    b, rb = attack(cipher, AttackConfig(scrambler=geom))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert ra[0].arrangement == rb[0].arrangement
    assert ra[0].cost == rb[0].cost


@pytest.mark.parametrize(
    "cfg",
    [
        AttackConfig(),
        AttackConfig(use_estimation=False),
        AttackConfig(stft=StftConfig(40, 30, 128), use_estimation=False),
        AttackConfig(stft=StftConfig(40, 30, 128), rls=RlsConfig(order=12, forgetting=0.99)),
    ],
)
def test_frame_pieces_matches_segment_by_segment_chain(cfg):
    """frame_pieces equals extending each segment on its own by window - 1
    samples, then the STFT and the per-piece reference quantization, byte
    for byte, whether it gets one frame or a stack of them."""
    x = synthesize_speechlike(1.0, seed=7).samples
    frames = x[: 3 * 2560].reshape(3, 8, 320)
    stacked = frame_pieces(frames, cfg)
    for frame, from_stack in zip(frames, stacked):
        if cfg.use_estimation:
            flank = cfg.stft.window_size - 1
            sequences = [extend_segment(seg, flank, cfg.rls) for seg in frame]
        else:
            sequences = list(frame)
        want = quantize_pieces(segmented_spectrogram(sequences, cfg.stft))
        got = frame_pieces(frame, cfg)
        assert got.dtype == np.uint8 and got.shape == (8,) + want[0].shape
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert from_stack.tobytes() == got.tobytes()


def test_attack_calls_the_frame_stages_through_module_globals(monkeypatch):
    """A tracer rebinds these names in the pipeline module and must see each
    call, stage by stage: one extension and one distance call per block,
    the STFT and quantization of each frame in between, then each frame's
    solve and score."""
    calls = []
    for name in ("extend_frame", "segmented_spectrogram", "quantize_frame",
                 "build_distance_matrix", "solve_bnb", "accuracy"):
        original = getattr(pipeline, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, spy)
    cipher, _, keys, geom = _cipher(frames=3)
    attack(cipher, AttackConfig(scrambler=geom), truth=keys)
    assert calls == (
        ["extend_frame"]
        + ["segmented_spectrogram", "quantize_frame"] * 3
        + ["build_distance_matrix"]
        + ["solve_bnb", "accuracy"] * 3
    )


def _nineteen_frame_cipher():
    """19 N=8 frames, three blocks of 8, 8 and 3: speech with a digitally
    silent frame 9, then a 100-sample tail."""
    geom = ScramblerConfig(frame_size=8)
    n = geom.frame_samples
    speech = synthesize_speechlike(18 * n / 8000.0, seed=31).samples
    plain = np.concatenate([speech[: 9 * n], np.zeros(n), speech[9 * n :], speech[:100]])
    keys = make_key_schedule(32, 19, 8)
    return scramble(AudioBuffer(plain, 8000), geom, keys), keys, geom


@pytest.mark.parametrize("use_estimation", [True, False])
def test_attack_in_blocks_matches_attacking_each_frame_alone(use_estimation, monkeypatch):
    cipher, keys, geom = _nineteen_frame_cipher()
    cfg = AttackConfig(scrambler=geom, use_estimation=use_estimation)
    stacked = []
    original = pipeline.build_distance_matrix

    def spy(pieces, *args):
        stacked.append(len(pieces) if np.ndim(pieces) == 4 else 1)
        return original(pieces, *args)

    monkeypatch.setattr(pipeline, "build_distance_matrix", spy)
    began = time.perf_counter()
    estimate, results = attack(cipher, cfg, truth=keys)
    wall_ms = (time.perf_counter() - began) * 1000.0
    # the block bounds the stack any one stage call holds
    assert max(stacked) <= pipeline._BLOCK_FRAMES and sum(stacked) == 19 and len(stacked) == 3
    assert sum(r.solve_ms for r in results) <= wall_ms
    assert [r.frame_index for r in results] == list(range(19))
    n = geom.frame_samples
    alone_estimates = []
    for f, r in enumerate(results):
        samples = cipher.samples[f * n : len(cipher) if f == 18 else (f + 1) * n]
        truth = KeySchedule((keys.keys[f],))
        alone_estimate, (want,) = attack(AudioBuffer(samples, 8000), cfg, truth=truth)
        alone_estimates.append(alone_estimate.samples)
        assert (r.arrangement, r.cost, r.solve_nodes, r.accuracy) == (
            want.arrangement, want.cost, want.solve_nodes, want.accuracy
        )
    assert results[9].cost == 0.0
    assert estimate.samples.tobytes() == np.concatenate(alone_estimates).tobytes()


def test_attack_validation():
    geom = ScramblerConfig(frame_size=4)
    short = AudioBuffer(np.zeros(geom.frame_samples - 1), 8000)
    with pytest.raises(ValueError, match="^signal of 1279 samples is shorter than one 1280-sample frame$"):
        attack(short, AttackConfig(scrambler=geom))
    cipher, _, keys, _ = _cipher()
    wrong_width = make_key_schedule(1, 1, 5)
    with pytest.raises(ValueError):
        attack(cipher, AttackConfig(scrambler=geom), truth=wrong_width)


def test_format_rows_cells():
    result = FrameAttackResult(0, (1, 0), 2.5, 17, 1.234, accuracy=None)
    row = format_rows([result], 3, 2, 40.0, math.inf, "none", "puzzle")[0]
    assert row == ["3", "0", "2", "40", "", "none", "puzzle", "2.500000", "", "17", "1.234"]
    scored = FrameAttackResult(1, (0, 1), 0.0, 1, 0.5, accuracy=0.25)
    row = format_rows([scored], 0, 2, 40.0, 20.0, "channel", "puzzle+rls")[0]
    assert row[4] == "20" and row[8] == "0.250000"


def test_results_csv_header(tmp_path):
    path = tmp_path / "out.csv"
    write_results_csv(path, [["0"] * len(CSV_HEADER)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,frame,N,segment_ms,snr_db,noise_at,method,cost,accuracy,solve_nodes,solve_ms"
    assert len(lines) == 2


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(frame_sizes=())
    with pytest.raises(ValueError):
        SweepSpec(noise_at="wire")
    with pytest.raises(ValueError):
        SweepSpec(noise_at="channel", snr_dbs=())
    with pytest.raises(ValueError):
        SweepSpec(trials=0)
    with pytest.raises(ValueError):
        SweepSpec(corpus=())
    assert SweepSpec(noise_at="none").snr_grid == (math.inf,)
    # a bad SNR grid is refused before any trial is synthesized
    for snr in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=r"^snr_db must be finite or \+inf$"):
            SweepSpec(snr_dbs=(snr,), noise_at="channel")
        with pytest.raises(ValueError, match=r"^snr_db must be finite or \+inf$"):
            SweepSpec(snr_dbs=(20.0, snr), noise_at="source")
        assert SweepSpec(snr_dbs=(snr,), noise_at="none").snr_grid == (math.inf,)


def test_sweep_row_count_contract(tmp_path):
    """One grid point, one trial, one frame: exactly two data rows, one per
    method."""
    spec = SweepSpec(
        frame_sizes=(8,),
        segment_ms_values=(40.0,),
        noise_at="none",
        trials=1,
        seed=42,
        duration_s=0.35,
    )
    path = tmp_path / "rows.csv"
    sweep(spec, path)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert {r["method"] for r in rows} == {"puzzle", "puzzle+rls"}
    assert all(r["frame"] == "0" for r in rows)
    assert all(r["accuracy"] != "" for r in rows)


def test_sweep_rerun_is_byte_identical(tmp_path):
    spec = SweepSpec(
        frame_sizes=(4,),
        segment_ms_values=(20.0,),
        snr_dbs=(20.0,),
        noise_at="channel",
        trials=2,
        seed=9,
        duration_s=0.5,
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    sweep(spec, first)
    sweep(spec, second)
    a = first.read_bytes()
    b = second.read_bytes()
    # wall-clock timing differs run to run; science columns must not
    strip = lambda raw: [line.rsplit(b",", 1)[0] for line in raw.splitlines()]
    assert strip(a) == strip(b)


def test_sweep_corpus_mode(tmp_path):
    from audiojigsaw.audio_io import write_wav

    wav = tmp_path / "plain.wav"
    write_wav(wav, synthesize_speechlike(0.35, seed=77))
    spec = SweepSpec(
        frame_sizes=(8,),
        segment_ms_values=(40.0,),
        noise_at="none",
        trials=1,
        seed=1,
        corpus=(str(wav),),
    )
    path = tmp_path / "corpus.csv"
    sweep(spec, path)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2


def test_sweep_refuses_a_corpus_file_shorter_than_one_frame(tmp_path):
    wav = tmp_path / "short.wav"
    write_wav(wav, AudioBuffer(np.zeros(2559), 8000))
    path = tmp_path / "corpus.csv"
    with pytest.raises(ValueError, match="^signal of 2559 samples is shorter than one 2560-sample frame$"):
        sweep(SweepSpec(corpus=(str(wav),)), path)
    assert not path.exists()


def test_sweep_corpus_mode_frames_at_the_file_rate(tmp_path, monkeypatch):
    """A 16 kHz corpus file is cut into 40 ms segments of 640 samples, so
    one second holds 3 frames of 8 and the CSV 6 rows."""
    wav = tmp_path / "plain16k.wav"
    write_wav(wav, synthesize_speechlike(1.0, seed=77, sample_rate=16000))
    geoms = []
    original = pipeline.attack

    def spy(cipher, cfg, truth=None):
        geoms.append(cfg.scrambler)
        return original(cipher, cfg, truth)

    monkeypatch.setattr(pipeline, "attack", spy)
    path = tmp_path / "corpus.csv"
    sweep(SweepSpec(corpus=(str(wav),)), path)
    assert geoms == [ScramblerConfig(8, 40.0, 16000)] * 2
    assert geoms[0].segment_samples == 640
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    assert {r["segment_ms"] for r in rows} == {"40"}

import csv
import math

import numpy as np
import pytest

from audiojigsaw import pipeline
from audiojigsaw.audio_io import AudioBuffer, synthesize_speechlike
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
from audiojigsaw.scrambler import ScramblerConfig, make_key_schedule, scramble
from audiojigsaw.spectrogram import StftConfig, quantize_frame, segmented_spectrogram


def _one_frame_cipher(seed=5, frame_size=4):
    geom = ScramblerConfig(frame_size=frame_size)
    plain = synthesize_speechlike(geom.frame_samples / 8000.0, seed=seed)
    keys = make_key_schedule(seed + 1, 1, frame_size)
    return scramble(plain, geom, keys), plain, keys, geom


def test_attack_config_validation():
    assert AttackConfig().extension_samples == 59
    assert AttackConfig(extension=10).extension_samples == 10
    with pytest.raises(ValueError):
        AttackConfig(quant_scale="log")
    with pytest.raises(ValueError):
        AttackConfig(extension=-1)


def test_attack_reports_and_reassembles():
    cipher, plain, keys, geom = _one_frame_cipher()
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
    cipher, plain, keys, geom = _one_frame_cipher(seed=8)
    estimate, results = attack(cipher, AttackConfig(scrambler=geom), truth=keys)
    assert results[0].accuracy is not None
    assert 0.0 < results[0].accuracy <= 1.0
    if results[0].accuracy == 1.0:
        np.testing.assert_array_equal(estimate.samples, plain.samples)


def test_attack_passes_partial_tail_through():
    cipher, plain, keys, geom = _one_frame_cipher(seed=3)
    with_tail = AudioBuffer(np.concatenate([cipher.samples, plain.samples[:100]]), 8000)
    estimate, results = attack(with_tail, AttackConfig(scrambler=geom))
    assert len(results) == 1
    np.testing.assert_array_equal(estimate.samples[-100:], plain.samples[:100])


def test_attack_is_deterministic():
    cipher, _, _, geom = _one_frame_cipher(seed=12)
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
        AttackConfig(quant_scale="linear", extension=20),
        AttackConfig(stft=StftConfig(40, 30, 128), rls=RlsConfig(order=12, forgetting=0.99)),
    ],
)
def test_frame_pieces_matches_segment_by_segment_chain(cfg):
    """frame_pieces equals extending each segment on its own, then the STFT
    and the joint quantization, pixel for pixel."""
    x = synthesize_speechlike(1.0, seed=7).samples
    for frame in x[: 3 * 2560].reshape(3, 8, 320):
        if cfg.use_estimation:
            flank = cfg.extension_samples
            sequences = [extend_segment(seg, flank, cfg.rls).samples for seg in frame]
        else:
            sequences = list(frame)
        want = quantize_frame(segmented_spectrogram(sequences, cfg.stft), cfg.quant_scale)
        got = frame_pieces(frame, cfg)
        assert [p.piece_index for p in got] == [p.piece_index for p in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.pixels, b.pixels)


def test_attack_calls_the_frame_stages_through_module_globals(monkeypatch):
    # a tracer rebinds these names in the pipeline module and must see each call
    calls = []
    for name in ("extend_frame", "segmented_spectrogram", "quantize_frame"):
        original = getattr(pipeline, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, spy)
    cipher, _, _, geom = _one_frame_cipher()
    attack(cipher, AttackConfig(scrambler=geom))
    assert calls == ["extend_frame", "segmented_spectrogram", "quantize_frame"]


def test_attack_validation():
    geom = ScramblerConfig(frame_size=4)
    short = AudioBuffer(np.zeros(geom.frame_samples - 1), 8000)
    with pytest.raises(ValueError):
        attack(short, AttackConfig(scrambler=geom))
    cipher, _, keys, _ = _one_frame_cipher()
    wrong_width = make_key_schedule(1, 1, 5)
    with pytest.raises(ValueError):
        attack(cipher, AttackConfig(scrambler=geom), truth=wrong_width)


def test_degenerate_single_piece_frame():
    geom = ScramblerConfig(frame_size=1, segment_ms=40.0)
    buf = synthesize_speechlike(0.04, seed=2)
    keys_none = None
    estimate, results = attack(buf, AttackConfig(scrambler=geom), truth=keys_none)
    assert results[0].arrangement == (0,)
    np.testing.assert_array_equal(estimate.samples, buf.samples)


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

import csv
import dataclasses

import numpy as np
import pytest

from audiojigsaw import cli, pipeline
from audiojigsaw.audio_io import AudioBuffer, read_wav, write_wav, synthesize_speechlike
from audiojigsaw.cli import main
from audiojigsaw.estimator import RlsConfig
from audiojigsaw.pipeline import AttackConfig, SweepSpec, frame_pieces
from audiojigsaw.puzzle import DistanceConfig
from audiojigsaw.scrambler import ScramblerConfig, load_keys
from audiojigsaw.spectrogram import StftConfig, write_pgm


@pytest.fixture
def plain_wav(tmp_path):
    path = tmp_path / "plain.wav"
    write_wav(path, synthesize_speechlike(1.0, seed=11))
    return path


def test_keyspace_prints_bits_for_default_setup(capsys):
    assert main(["keyspace", "--minutes", "5", "--segment-ms", "40", "--frame-size", "8"]) == 0
    assert capsys.readouterr().out.strip() == "26"


def test_scramble_descramble_round_trip(tmp_path, plain_wav, capsys):
    scrambled = tmp_path / "scrambled.wav"
    restored = tmp_path / "restored.wav"
    assert main(["scramble", "--input", str(plain_wav), "--output", str(scrambled),
                 "--key-seed", "5"]) == 0
    assert main(["descramble", "--input", str(scrambled), "--output", str(restored),
                 "--key-seed", "5"]) == 0
    assert restored.read_bytes() == plain_wav.read_bytes()
    assert not np.array_equal(read_wav(scrambled).samples, read_wav(plain_wav).samples)


def test_scramble_saves_keys_and_descramble_reads_them(tmp_path, plain_wav):
    scrambled = tmp_path / "s.wav"
    restored = tmp_path / "r.wav"
    keys_file = tmp_path / "keys.txt"
    assert main(["scramble", "--input", str(plain_wav), "--output", str(scrambled),
                 "--key-seed", "3", "--keys-out", str(keys_file)]) == 0
    assert len(load_keys(keys_file)) == 3  # one second holds 3 full frames
    assert main(["descramble", "--input", str(scrambled), "--output", str(restored),
                 "--keys-in", str(keys_file)]) == 0
    assert restored.read_bytes() == plain_wav.read_bytes()


def test_descramble_requires_some_key_source(tmp_path, plain_wav, capsys):
    code = main(["descramble", "--input", str(plain_wav), "--output", str(tmp_path / "x.wav")])
    assert code == 1
    assert "key" in capsys.readouterr().err


def test_attack_without_truth_omits_accuracy(tmp_path, plain_wav, capsys):
    scrambled = tmp_path / "s.wav"
    main(["scramble", "--input", str(plain_wav), "--output", str(scrambled), "--key-seed", "5"])
    out_csv = tmp_path / "res.csv"
    code = main(["attack", "--input", str(scrambled), "--output", str(tmp_path / "est.wav"),
                 "--csv", str(out_csv)])
    assert code == 0
    with open(out_csv) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert all(r["accuracy"] == "" for r in rows)
    assert all(r["method"] == "puzzle+rls" for r in rows)


def test_attack_with_truth_scores_accuracy(tmp_path, plain_wav, capsys):
    scrambled = tmp_path / "s.wav"
    main(["scramble", "--input", str(plain_wav), "--output", str(scrambled), "--key-seed", "5"])
    out_csv = tmp_path / "res.csv"
    code = main(["attack", "--input", str(scrambled), "--output", str(tmp_path / "est.wav"),
                 "--key-seed", "5", "--no-rls", "--csv", str(out_csv)])
    assert code == 0
    assert "mean accuracy" in capsys.readouterr().out
    with open(out_csv) as handle:
        rows = list(csv.DictReader(handle))
    assert all(r["accuracy"] != "" for r in rows)
    assert all(r["method"] == "puzzle" for r in rows)


def test_sweep_subcommand_writes_csv(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--csv", str(out_csv), "--frame-size", "8", "--segment-ms", "40",
                 "--trials", "1", "--seed", "7", "--duration", "0.35"])
    assert code == 0
    with open(out_csv) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2


@pytest.mark.parametrize("snr", ["-inf", "nan"])
def test_sweep_non_finite_snr_is_data_error(tmp_path, capsys, snr):
    code = main(["sweep", "--csv", str(tmp_path / "sweep.csv"), f"--snr-db={snr}",
                 "--noise-at", "channel", "--duration", "0.35"])
    assert code == 2
    assert "error: snr_db must be finite or +inf" in capsys.readouterr().err


def test_spectrogram_subcommand_writes_pgm(tmp_path, plain_wav):
    out_dir = tmp_path / "pieces"
    code = main(["spectrogram", "--input", str(plain_wav), "--output", str(out_dir),
                 "--no-rls", "--frame-size", "4"])
    assert code == 0
    # one second of 4-segment frames at 40 ms: 6 frames, 4 pieces each
    names = sorted(path.name for path in out_dir.glob("*.pgm"))
    assert names == [f"frame{f:03d}_piece{k}.pgm" for f in range(6) for k in range(4)]
    # piece k of frame f is slice k of that frame's frame_pieces array
    geom = ScramblerConfig(frame_size=4)
    segments = read_wav(plain_wav).samples[2 * geom.frame_samples : 3 * geom.frame_samples]
    pieces = frame_pieces(segments.reshape(4, -1), AttackConfig(scrambler=geom, use_estimation=False))
    write_pgm(pieces[3], tmp_path / "want.pgm")
    assert (out_dir / "frame002_piece3.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


def test_spectrogram_subcommand_numbers_frames_across_blocks(tmp_path, plain_wav):
    # one second of 2-segment frames: 12 frames, a full block of 8 and 4 more
    out_dir = tmp_path / "pieces"
    assert main(["spectrogram", "--input", str(plain_wav), "--output", str(out_dir),
                 "--frame-size", "2"]) == 0
    names = sorted(path.name for path in out_dir.glob("*.pgm"))
    assert names == [f"frame{f:03d}_piece{k}.pgm" for f in range(12) for k in range(2)]
    geom = ScramblerConfig(frame_size=2)
    segments = read_wav(plain_wav).samples[9 * geom.frame_samples : 10 * geom.frame_samples]
    pieces = frame_pieces(segments.reshape(2, -1), AttackConfig(scrambler=geom))
    write_pgm(pieces[1], tmp_path / "want.pgm")
    assert (out_dir / "frame009_piece1.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["keyspace", "--frames", "8"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_bad_input_path_is_data_error(tmp_path, capsys):
    code = main(["scramble", "--input", str(tmp_path / "nope.wav"),
                 "--output", str(tmp_path / "out.wav")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_short_input_is_data_error(tmp_path, capsys):
    path = tmp_path / "tiny.wav"
    write_wav(path, AudioBuffer(np.zeros(100), 8000))
    out = str(tmp_path / "out")
    for args in (["scramble"], ["attack", "--key-seed", "1"], ["spectrogram"]):
        assert main([*args, "--input", str(path), "--output", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: signal of 100 samples is shorter than one 2560-sample frame\n"


def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# keyspace setup\nminutes = 5\nframe-size = 10\n")
    assert main(["keyspace", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "32"
    # explicit flag beats the file value
    assert main(["keyspace", "--config", str(cfg), "--frame-size", "8"]) == 0
    assert capsys.readouterr().out.strip() == "26"


def test_config_file_rejects_unknown_option(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["keyspace", "--config", str(cfg)]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "audiojigsaw" in capsys.readouterr().out


_ANALYSIS_FLAGS = ["--win-size", "40", "--overlap", "30", "--fft-size", "128", "--rls-order", "12",
                   "--forgetting", "0.99", "--alpha-max", "2", "--beta-max", "5"]


def _leaves(config, prefix=""):
    """(dotted field name, value) for every non-dataclass field, nested ones included."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name, value


def test_every_config_field_is_set_from_flags(tmp_path, monkeypatch):
    """Non-default flags reach every field of the configs that attack and
    sweep build, and the geometry takes the WAV's own 16 kHz rate; a field
    that still holds its default after this has no flag to set it.
    ``--duration`` goes to a synthetic sweep and ``--input`` to a corpus
    sweep, since one sweep takes only one of them."""
    wav = tmp_path / "plain16k.wav"
    write_wav(wav, synthesize_speechlike(1.0, seed=11, sample_rate=16000))
    attack_cfgs, specs = [], []
    original_attack, original_sweep = pipeline.attack, pipeline.sweep

    def attack_spy(cipher, cfg, truth=None):
        attack_cfgs.append(cfg)
        return original_attack(cipher, cfg, truth)

    def sweep_spy(spec, csv_path):
        specs.append(spec)
        return original_sweep(spec, csv_path)

    # the CLI calls the names it imported; sweep calls pipeline.attack
    monkeypatch.setattr(pipeline, "attack", attack_spy)
    monkeypatch.setattr(cli, "attack", attack_spy)
    monkeypatch.setattr(cli, "sweep", sweep_spy)
    framing = ["--frame-size", "4", "--segment-ms", "30"]
    assert main(["attack", "--input", str(wav), "--output", str(tmp_path / "est.wav"),
                 "--no-rls", *framing, *_ANALYSIS_FLAGS]) == 0
    assert main(["sweep", "--csv", str(tmp_path / "synthetic.csv"), "--snr-db", "20",
                 "--noise-at", "source", "--trials", "2", "--seed", "3", "--duration", "2.5",
                 *framing, *_ANALYSIS_FLAGS]) == 0
    assert main(["sweep", "--csv", str(tmp_path / "corpus.csv"), "--input", str(wav), "--vad",
                 *framing, *_ANALYSIS_FLAGS]) == 0

    attack_cfg, *sweep_cfgs = attack_cfgs
    defaults = dict(_leaves(AttackConfig()))
    assert [name for name, value in _leaves(attack_cfg) if value == defaults[name]] == []
    defaults = dict(_leaves(SweepSpec()))
    synthetic, corpus = specs
    assert [name for (name, a), (_, b) in zip(_leaves(synthetic), _leaves(corpus))
            if a == defaults[name] and b == defaults[name]] == []
    analysis = dict(stft=StftConfig(40, 30, 128), rls=RlsConfig(12, 0.99),
                    distance=DistanceConfig(2, 5))
    geom = ScramblerConfig(4, 30.0, 16000)
    assert attack_cfg == AttackConfig(scrambler=geom, use_estimation=False, **analysis)
    synthetic_geom = ScramblerConfig(4, 30.0, 8000)
    assert sweep_cfgs == [AttackConfig(scrambler=synthetic_geom, use_estimation=use, **analysis)
                          for _ in range(2) for use in (True, False)] + [
        AttackConfig(scrambler=geom, use_estimation=use, **analysis) for use in (True, False)
    ]
    framing_spec = dict(frame_sizes=(4,), segment_ms_values=(30.0,), **analysis)
    assert synthetic == SweepSpec(snr_dbs=(20.0,), noise_at="source", trials=2, seed=3,
                                  duration_s=2.5, **framing_spec)
    assert corpus == SweepSpec(corpus=(str(wav),), vad=True, **framing_spec)


def test_sweep_refuses_a_duration_for_a_corpus_file(tmp_path, plain_wav, capsys):
    """A corpus file sets its own length; a --duration next to --input used
    to be dropped without a word."""
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--csv", str(out_csv), "--input", str(plain_wav), "--duration", "0.35"])
    assert code == 2
    assert "error: a corpus sweep attacks whole files" in capsys.readouterr().err
    assert not out_csv.exists()
    with pytest.raises(ValueError, match="duration_s is for synthetic audio"):
        SweepSpec(corpus=(str(plain_wav),), duration_s=10.0)

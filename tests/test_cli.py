import csv

import numpy as np
import pytest

from audiojigsaw.audio_io import AudioBuffer, read_wav, write_wav, synthesize_speechlike
from audiojigsaw.cli import main
from audiojigsaw.scrambler import load_keys


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
    files = sorted(out_dir.glob("*.pgm"))
    # one second of 4-segment frames at 40 ms: 6 frames, 4 pieces each
    assert len(files) == 24
    assert files[0].read_bytes().startswith(b"P5\n")


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
    code = main(["scramble", "--input", str(path), "--output", str(tmp_path / "out.wav")])
    assert code == 2


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

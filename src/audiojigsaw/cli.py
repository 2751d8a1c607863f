"""Command-line front end.

Subcommands: scramble, descramble, attack, sweep, spectrogram, keyspace.
Every flag can also live in a ``--config`` file of ``name = value`` lines
(same spelling, no leading dashes, '#' comments; switches take
1/true/yes/on or 0/false/no/off); explicit flags win.

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

from .audio_io import WavFormatError, read_wav, vad_trim, write_wav
from .estimator import RlsConfig
from .pipeline import (
    _BLOCK_FRAMES,
    AttackConfig,
    SweepSpec,
    attack,
    format_rows,
    frame_pieces,
    sweep,
    write_results_csv,
)
from .puzzle import DistanceConfig
from .scrambler import (
    ScramblerConfig,
    _split_frames,
    descramble,
    keyspace_bits,
    load_keys,
    make_key_schedule,
    save_keys,
    scramble,
)
from .spectrogram import StftConfig, write_pgm


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _flag(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{text!r} is not one of 1/true/yes/on or 0/false/no/off")


def _add_framing(p, list_valued=False):
    if list_valued:
        p.add_argument("--frame-size", type=_int_list, default=(8,), help="segments per frame (comma list)")
        p.add_argument("--segment-ms", type=_float_list, default=(40.0,), help="segment duration in ms (comma list)")
    else:
        p.add_argument("--frame-size", type=int, default=8, help="segments per frame")
        p.add_argument("--segment-ms", type=float, default=40.0, help="segment duration in ms")


def _add_analysis(p):
    p.add_argument("--win-size", type=int, default=60, help="analysis window length in samples")
    p.add_argument("--overlap", type=int, default=51, help="samples shared by consecutive windows")
    p.add_argument("--fft-size", type=int, default=256, help="FFT length (power of two)")
    p.add_argument("--rls-order", type=int, default=52, help="predictor order (taps minus one)")
    p.add_argument("--forgetting", type=float, default=0.97, help="RLS forgetting factor")
    p.add_argument("--alpha-max", type=int, default=3, help="max inward column offset at a seam")
    p.add_argument("--beta-max", type=int, default=7, help="max vertical slide in rows at a seam")


def _build():
    top = _Parser(prog="audiojigsaw", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("scramble", help="permute segments of a WAV with seeded keys")
    p.set_defaults(run=_cmd_scramble)
    p.add_argument("--input", required=True, help="plaintext PCM 16-bit mono WAV")
    p.add_argument("--output", required=True, help="scrambled WAV to write")
    p.add_argument("--key-seed", type=int, default=0, help="seed for the per-frame keys")
    _add_framing(p)
    p.add_argument("--vad", action="store_true", help="drop low-energy windows before framing")
    p.add_argument("--keys-out", help="also save the key schedule as text")

    p = sub.add_parser("descramble", help="invert scrambling given the key seed or file")
    p.set_defaults(run=_cmd_descramble)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--key-seed", type=int, default=None, help="seed that generated the keys")
    p.add_argument("--keys-in", help="key schedule file (overrides --key-seed)")
    _add_framing(p)

    p = sub.add_parser("attack", help="recover segment order from scrambled audio alone")
    p.set_defaults(run=_cmd_attack)
    p.add_argument("--input", required=True, help="scrambled WAV")
    p.add_argument("--output", required=True, help="plaintext estimate WAV to write")
    _add_framing(p)
    _add_analysis(p)
    p.add_argument("--no-rls", action="store_true", help="skip predictive border extension")
    p.add_argument("--key-seed", type=int, default=None, help="true key seed, to score accuracy")
    p.add_argument("--csv", help="write per-frame results here")

    p = sub.add_parser("sweep", help="grid of synthetic attacks, results as CSV")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--csv", required=True, help="results file to write")
    _add_framing(p, list_valued=True)
    p.add_argument("--snr-db", type=_float_list, default=(math.inf,),
                   help="SNR grid in dB (comma list; needs --noise-at)")
    p.add_argument("--noise-at", choices=("source", "channel"), default=None, help="where noise enters")
    p.add_argument("--trials", type=int, default=1, help="trials per grid point")
    p.add_argument("--seed", type=int, default=0, help="master seed for the whole sweep")
    p.add_argument("--duration", type=float, default=None,
                   help="seconds of synthetic audio per trial (default 10)")
    p.add_argument("--input", default=None, help="corpus WAV to attack instead of synthetic audio")
    p.add_argument("--vad", action="store_true", help="trim silence from the plaintext first")
    _add_analysis(p)

    p = sub.add_parser("spectrogram", help="dump per-segment piece images as PGM")
    p.set_defaults(run=_cmd_spectrogram)
    p.add_argument("--input", required=True, help="WAV to analyze")
    p.add_argument("--output", required=True, help="directory for frameNNN_pieceK.pgm files")
    _add_framing(p)
    _add_analysis(p)
    p.add_argument("--no-rls", action="store_true", help="skip predictive border extension")

    p = sub.add_parser("keyspace", help="print bits of work to try every key of each frame")
    p.set_defaults(run=_cmd_keyspace)
    p.add_argument("--minutes", type=float, default=5.0, help="conversation length")
    _add_framing(p)

    for p in sub.choices.values():
        p.add_argument("--config", help="file of 'name = value' option lines")
    return top, sub.choices


def _scan_config(tokens):
    for i, tok in enumerate(tokens):
        if tok == "--config" and i + 1 < len(tokens):
            return tokens[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _apply_config(parser, path):
    """Install file values as parser defaults so explicit flags still win."""
    by_name = {}
    for action in parser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                by_name[opt[2:].replace("-", "_")] = action
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'name = value'")
            name, value = (part.strip() for part in line.split("=", 1))
            action = by_name.get(name.replace("-", "_"))
            if action is None:
                raise ValueError(f"{path}:{lineno}: unknown option {name!r}")
            convert = _flag if isinstance(action, argparse._StoreTrueAction) else action.type
            if convert is None:
                parsed = value
            else:
                try:
                    parsed = convert(value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad value for {name!r}: {exc}") from exc
            parser.set_defaults(**{action.dest: parsed})
            action.required = False


def _analysis(ns) -> dict:
    """The STFT, RLS and seam settings of attack, sweep and spectrogram."""
    return dict(
        stft=StftConfig(ns.win_size, ns.overlap, ns.fft_size),
        rls=RlsConfig(ns.rls_order, ns.forgetting),
        distance=DistanceConfig(ns.alpha_max, ns.beta_max),
    )


def _attack_config(ns, rate) -> AttackConfig:
    return AttackConfig(
        scrambler=ScramblerConfig(ns.frame_size, ns.segment_ms, rate),
        use_estimation=not ns.no_rls,
        **_analysis(ns),
    )


def _cmd_scramble(ns) -> int:
    buf = read_wav(ns.input)
    if ns.vad:
        buf = vad_trim(buf)
    geom = ScramblerConfig(ns.frame_size, ns.segment_ms, buf.sample_rate)
    keys = make_key_schedule(ns.key_seed, geom.frame_count(len(buf)), ns.frame_size)
    write_wav(ns.output, scramble(buf, geom, keys))
    if ns.keys_out:
        save_keys(keys, ns.keys_out)
    print(f"scrambled {len(keys)} frames -> {ns.output}")
    return 0


def _cmd_descramble(ns) -> int:
    buf = read_wav(ns.input)
    geom = ScramblerConfig(ns.frame_size, ns.segment_ms, buf.sample_rate)
    n_frames = geom.frame_count(len(buf))
    if ns.keys_in:
        keys = load_keys(ns.keys_in)
    elif ns.key_seed is not None:
        keys = make_key_schedule(ns.key_seed, n_frames, ns.frame_size)
    else:
        raise _UsageError("descramble needs --keys-in or --key-seed")
    write_wav(ns.output, descramble(buf, geom, keys))
    print(f"descrambled {n_frames} frames -> {ns.output}")
    return 0


def _cmd_attack(ns) -> int:
    buf = read_wav(ns.input)
    cfg = _attack_config(ns, buf.sample_rate)
    truth = None
    if ns.key_seed is not None:
        truth = make_key_schedule(ns.key_seed, cfg.scrambler.frame_count(len(buf)), ns.frame_size)
    estimate, results = attack(buf, cfg, truth=truth)
    write_wav(ns.output, estimate)
    if ns.csv:
        write_results_csv(ns.csv, format_rows(results, 0, cfg, math.inf, "none"))
    line = f"attacked {len(results)} frames with {cfg.method} -> {ns.output}"
    if truth is not None:
        line += f", mean accuracy {statistics.fmean(r.accuracy for r in results):.3f}"
    print(line)
    return 0


def _cmd_sweep(ns) -> int:
    if ns.noise_at is None and any(snr != math.inf for snr in ns.snr_db):
        raise _UsageError("--snr-db needs --noise-at source or channel")
    spec = SweepSpec(
        frame_sizes=ns.frame_size,
        segment_ms_values=ns.segment_ms,
        snr_dbs=ns.snr_db,
        noise_at=ns.noise_at or "none",
        trials=ns.trials,
        seed=ns.seed,
        duration_s=ns.duration,
        corpus=(ns.input,) if ns.input else None,
        vad=ns.vad,
        **_analysis(ns),
    )
    sweep(spec, ns.csv)
    print(f"sweep results -> {ns.csv}")
    return 0


def _cmd_spectrogram(ns) -> int:
    buf = read_wav(ns.input)
    cfg = _attack_config(ns, buf.sample_rate)
    frames, _ = _split_frames(buf, cfg.scrambler)
    out_dir = Path(ns.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for first in range(0, len(frames), _BLOCK_FRAMES):
        block = frame_pieces(frames[first : first + _BLOCK_FRAMES], cfg)
        for f, pieces in enumerate(block, first):
            for k, piece in enumerate(pieces):
                write_pgm(piece, out_dir / f"frame{f:03d}_piece{k}.pgm")
                count += 1
    print(f"wrote {count} piece images -> {out_dir}")
    return 0


def _cmd_keyspace(ns) -> int:
    print(keyspace_bits(ns.minutes, ns.segment_ms, ns.frame_size))
    return 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    top, parsers = _build()
    try:
        command = args[0] if args and not args[0].startswith("-") else None
        config_path = _scan_config(args)
        if command in parsers and config_path:
            _apply_config(parsers[command], config_path)
        ns = top.parse_args(args)
        if ns.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        return ns.run(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (WavFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

#!/usr/bin/env python3
"""Attack a whole scrambled utterance without the keys and score the result.

Synthesizes speech-like audio, scrambles every frame with a secret
schedule, then reassembles the signal twice: once from raw segment
spectrograms and once with predictive border extension.  WAVs land in the
output directory so the three signals can be listened to side by side.
"""

import argparse
import statistics
from pathlib import Path

import numpy as np

from audiojigsaw import (
    AttackConfig,
    ScramblerConfig,
    attack,
    make_key_schedule,
    scramble,
    synthesize_speechlike,
    write_wav,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_out/full_attack")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=222)
    ap.add_argument("--key-seed", type=int, default=99)
    ap.add_argument("--frame-size", type=int, default=8)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    geom = ScramblerConfig(frame_size=args.frame_size)

    plain = synthesize_speechlike(args.seconds, args.seed)
    n_frames = geom.frame_count(len(plain))
    keys = make_key_schedule(args.key_seed, n_frames, geom.frame_size)
    cipher = scramble(plain, geom, keys)
    write_wav(out / "plain.wav", plain)
    write_wav(out / "scrambled.wav", cipher)

    print(f"{n_frames} frames, {args.seconds:g} s, frame size {geom.frame_size}")
    for use_estimation in (False, True):
        cfg = AttackConfig(scrambler=geom, use_estimation=use_estimation)
        estimate, results = attack(cipher, cfg, truth=keys)
        write_wav(out / f"estimate_{cfg.method.replace('+', '_')}.wav", estimate)
        scores = [r.accuracy for r in results]
        std = statistics.stdev(scores) if len(scores) > 1 else 0.0
        exact = scores.count(1.0)
        nodes = int(np.mean([r.solve_nodes for r in results]))
        print(f"{cfg.method:11s} mean accuracy {statistics.fmean(scores):.3f} (std {std:.3f}),"
              f" {exact}/{n_frames} frames perfect, ~{nodes} nodes/frame")
    print(f"WAVs in {out}/")


if __name__ == "__main__":
    main()

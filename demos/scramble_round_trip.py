#!/usr/bin/env python3
"""Scramble a synthetic utterance, then undo it with the shared key.

Writes plain.wav, scrambled.wav and restored.wav into the output
directory and verifies the round trip is bit-exact.  Also prints how many
bits of work an eavesdropper spends trying every key of each frame on its
own, the most a frame-by-frame attack can need.
"""

import argparse
from pathlib import Path

import numpy as np

from audiojigsaw import (
    ScramblerConfig,
    descramble,
    keyspace_bits,
    make_key_schedule,
    scramble,
    synthesize_speechlike,
    write_wav,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_out/round_trip", help="output directory")
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=7, help="synthesis seed")
    ap.add_argument("--key-seed", type=int, default=1234)
    ap.add_argument("--frame-size", type=int, default=8)
    ap.add_argument("--segment-ms", type=float, default=40.0)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    geom = ScramblerConfig(args.frame_size, args.segment_ms)

    plain = synthesize_speechlike(args.seconds, args.seed)
    n_frames = geom.frame_count(len(plain))
    keys = make_key_schedule(args.key_seed, n_frames, args.frame_size)
    cipher = scramble(plain, geom, keys)
    restored = descramble(cipher, geom, keys)

    write_wav(out / "plain.wav", plain)
    write_wav(out / "scrambled.wav", cipher)
    write_wav(out / "restored.wav", restored)

    print(f"{n_frames} frames of {args.frame_size} x {geom.segment_samples} samples")
    print(f"first frame key: {keys.keys[0]}")
    exact = np.array_equal(restored.samples, plain.samples)
    print(f"descramble(scramble(x)) == x: {exact}")
    minutes = 5.0
    bits = keyspace_bits(minutes, args.segment_ms, args.frame_size)
    print(f"trying every key of each frame of a {minutes:g}-minute call: {bits} bits")
    print(f"WAVs in {out}/")


if __name__ == "__main__":
    main()

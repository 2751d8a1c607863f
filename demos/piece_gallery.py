#!/usr/bin/env python3
"""Dump the puzzle pieces of one frame as PGM images, raw and extended.

The raw pieces are 29 columns wide; extending each segment 59 samples per
side widens them to 43 columns and fills in the washed-out borders.  Any
image viewer shows the difference; the seams the solver matches are the
left and right edges.
"""

import argparse
from pathlib import Path

from audiojigsaw import (
    AttackConfig,
    ScramblerConfig,
    frame_pieces,
    synthesize_speechlike,
    write_pgm,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_out/pieces")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--frame-size", type=int, default=8)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    geom = ScramblerConfig(frame_size=args.frame_size)

    plain = synthesize_speechlike(geom.frame_samples / geom.sample_rate, args.seed)
    segments = plain.samples.reshape(geom.frame_size, geom.segment_samples)

    raw = frame_pieces(segments, AttackConfig(scrambler=geom, use_estimation=False))
    extended = frame_pieces(segments, AttackConfig(scrambler=geom))
    for k in range(geom.frame_size):
        write_pgm(raw[k], out / f"raw_piece{k}.pgm")
        write_pgm(extended[k], out / f"extended_piece{k}.pgm")

    print(f"raw pieces      {raw.shape[1]} x {raw.shape[2]} pixels")
    print(f"extended pieces {extended.shape[1]} x {extended.shape[2]} pixels")
    print(f"{2 * geom.frame_size} PGM files in {out}/")


if __name__ == "__main__":
    main()

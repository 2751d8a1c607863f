#!/usr/bin/env python3
"""Break a single scrambled frame and show every step of the attack.

One frame of N segments is scrambled with a secret key, turned into
quantized spectrogram pieces, and reassembled by exact search over seam
distances.  The recovered key, the inverse of the solved order, is
compared with the secret one.
"""

import argparse
import time

import numpy as np

from audiojigsaw import (
    AttackConfig,
    ScramblerConfig,
    accuracy,
    build_distance_matrix,
    frame_pieces,
    invert_permutation,
    make_key_schedule,
    scramble,
    solve_bnb,
    synthesize_speechlike,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frame-size", type=int, default=8)
    ap.add_argument("--seed", type=int, default=24, help="synthesis seed")
    ap.add_argument("--key-seed", type=int, default=4)
    ap.add_argument("--no-rls", action="store_true", help="skip border extension")
    args = ap.parse_args()

    geom = ScramblerConfig(frame_size=args.frame_size)
    cfg = AttackConfig(scrambler=geom, use_estimation=not args.no_rls)

    plain = synthesize_speechlike(geom.frame_samples / geom.sample_rate, args.seed)
    keys = make_key_schedule(args.key_seed, 1, geom.frame_size)
    cipher = scramble(plain, geom, keys)
    true_key = keys.keys[0]
    print(f"secret key           {true_key}")

    segments = cipher.samples.reshape(geom.frame_size, geom.segment_samples)
    began = time.perf_counter()
    pieces = frame_pieces(segments, cfg)
    d = build_distance_matrix(pieces, cfg.distance)
    report = solve_bnb(d)
    elapsed = time.perf_counter() - began

    truth_order = invert_permutation(true_key)
    print(f"piece image size     {pieces.shape[1]} x {pieces.shape[2]}")
    with np.printoptions(precision=1, suppress=True, linewidth=120):
        print("seam distances (row follows to column):")
        print(d)
    print(f"true segment order   {truth_order}")
    print(f"solved order         {report.order}  cost {report.cost:.2f}"
          f"  nodes {report.nodes_expanded}  {elapsed * 1000.0:.0f} ms")
    print(f"recovered key        {invert_permutation(report.order)}")
    print(f"order score          {accuracy(report.order, truth_order):.3f}")


if __name__ == "__main__":
    main()

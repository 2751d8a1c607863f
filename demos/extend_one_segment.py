#!/usr/bin/env python3
"""Show what the adaptive border extension buys on one segment.

A 40 ms segment is cut out of a longer synthetic utterance, extended 59
samples into the past and the future, and the forecasts are compared with
the samples that actually sit there.  The null hypothesis is padding with
zeros, which is what a plain segment spectrogram effectively does.
"""

import argparse

import numpy as np

from audiojigsaw import RlsConfig, extend_segment, synthesize_speechlike


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--start", type=int, default=8800, help="segment start sample")
    ap.add_argument("--flank", type=int, default=59, help="samples forecast per side")
    ap.add_argument("--order", type=int, default=52)
    ap.add_argument("--forgetting", type=float, default=0.97)
    args = ap.parse_args()

    x = synthesize_speechlike(3.0, args.seed).samples
    a, b, l = args.start, args.start + 320, args.flank
    if a - l < 0 or b + l > len(x):
        raise SystemExit("segment (with flanks) falls outside the signal")

    ext = extend_segment(x[a:b], l, RlsConfig(args.order, args.forgetting))
    past_true, future_true = x[a - l : a], x[b : b + l]
    past_hat, future_hat = ext[:l], ext[-l:]

    print(f"segment [{a}:{b}), {l} forecast samples per side")
    print(f"segment rms                 {rms(x[a:b]):.4f}")
    print(f"past side:   forecast error {rms(past_hat - past_true):.4f}"
          f"  zero padding {rms(past_true):.4f}")
    print(f"future side: forecast error {rms(future_hat - future_true):.4f}"
          f"  zero padding {rms(future_true):.4f}")
    print("(smaller than the zero column means the extension moved the piece")
    print(" border toward what the neighboring audio really looked like)")


if __name__ == "__main__":
    main()

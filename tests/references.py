"""Slow, direct references that the tests hold the package's fast paths to.

The attack never calls these.  Each one states a stage's definition as
plainly as possible: the RLS recursion, the STFT of one signal, the
analysis-window coverage of a sample, the seam distance of one pair of
pieces, and the exhaustive frame solve.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from audiojigsaw.estimator import RlsConfig
from audiojigsaw.puzzle import DistanceConfig, arrangement_cost
from audiojigsaw.solver import SolveReport, _validated
from audiojigsaw.spectrogram import PieceImage, StftConfig, hamming_window


def rls_run(signal, cfg: RlsConfig = RlsConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Adapt a one-step-ahead RLS predictor over a signal.

    At step n the regressor is [x(n-1), ..., x(n-order-1)] and the desired
    response is x(n) itself.  Weights start at zero, P at I / init_reg.

    Returns
    -------
    weights : terminal tap vector, length order + 1
    errors : a-priori prediction errors, one per adapted sample
    """
    x = np.asarray(signal, dtype=np.float64)
    taps = cfg.order + 1
    if x.ndim != 1 or x.size < taps + 1:
        raise ValueError(f"need a 1-d signal longer than {taps} samples")
    lam = cfg.forgetting
    P = np.eye(taps) / cfg.init_reg
    w = np.zeros(taps)
    errors = np.empty(x.size - taps)
    for n in range(taps, x.size):
        u = x[n - taps : n][::-1]
        Pu = P @ u
        gain = Pu / (lam + u @ Pu)
        err = x[n] - w @ u
        w = w + gain * err
        P = (P - np.outer(gain, Pu)) / lam
        P = 0.5 * (P + P.T)
        errors[n - taps] = err
    return w, errors


def stft_magnitude(samples, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Magnitude spectrogram, shape (fft_size/2, n_columns).

    Column m holds |FFT| of the windowed slice starting at sample
    m * hop (0-based); n_columns = floor((len - overlap) / hop).  Row r is
    frequency bin r+1: the DC bin is dropped, bins 1..fft_size/2 kept.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size < cfg.window_size:
        raise ValueError(
            f"sequence of {x.size} samples is shorter than one {cfg.window_size}-sample window"
        )
    n_cols = (x.size - cfg.overlap) // cfg.hop
    slices = np.lib.stride_tricks.sliding_window_view(x, cfg.window_size)[:: cfg.hop][:n_cols]
    spectra = np.fft.rfft(slices * hamming_window(cfg.window_size), n=cfg.fft_size, axis=1)
    return np.abs(spectra[:, 1 : cfg.fft_size // 2 + 1]).T


def window_coverage(sample_pos: int, segment_len: int, window_size: int) -> int:
    """How many maximally-overlapped analysis windows contain a sample.

    With hop 1, a sample at 1-based position j of a segment of length L is
    seen by j windows near the left border, window_size windows in the
    interior, and L - j + 1 near the right border.  Border samples
    therefore influence fewer spectrogram columns, which is exactly the
    artifact predictive extension repairs.
    """
    if not 1 <= sample_pos <= segment_len:
        raise ValueError("sample_pos must lie in 1..segment_len")
    if window_size > segment_len:
        raise ValueError("window longer than segment")
    if sample_pos < window_size:
        return sample_pos
    if sample_pos <= segment_len - window_size:
        return window_size
    return segment_len - sample_pos + 1


def piece_distance(left: PieceImage, right: PieceImage, cfg: DistanceConfig = DistanceConfig()) -> float:
    """RMS pixel gap across the seam if ``right`` is placed after ``left``.

    For each inward offset a in 0..max_penetration, column (last - a) of
    the left piece meets column a of the right piece; for each vertical
    slide b in 0..max_slide the overlapping rows (shifting either piece up)
    are compared.  The minimum RMS difference over all offsets is the
    distance.  Directed: piece_distance(x, y) != piece_distance(y, x) in
    general.
    """
    li = left.pixels.astype(np.float64)
    ri = right.pixels.astype(np.float64)
    if li.shape != ri.shape:
        raise ValueError("pieces must share their matrix shape")
    n_rows, n_cols = li.shape
    if n_cols <= cfg.max_penetration:
        raise ValueError(
            f"pieces have {n_cols} columns, need more than max_penetration={cfg.max_penetration}"
        )
    best = math.inf
    for a in range(cfg.max_penetration + 1):
        col_l = li[:, n_cols - 1 - a]
        col_r = ri[:, a]
        for b in range(min(cfg.max_slide, n_rows - 1) + 1):
            span = n_rows - b
            diff = col_l[b:] - col_r[:span]
            best = min(best, math.sqrt(float(diff @ diff) / span))
            if b:
                diff = col_l[:span] - col_r[b:]
                best = min(best, math.sqrt(float(diff @ diff) / span))
    return best


_ORACLE_CHUNK = 40320


def solve_bruteforce(d, max_pieces: int = 10) -> SolveReport:
    """Enumerate every arrangement; ground truth for validating the search.

    Permutations stream in lexicographic order and ties keep the earliest,
    so equal-cost optima resolve to the lexicographically smallest order
    (the identity when every arrangement costs +inf).  Costs are summed
    left to right from 0.0, seam by seam, exactly as the search and
    :func:`~audiojigsaw.puzzle.arrangement_cost` sum them.  Refuses more
    than ``max_pieces`` pieces (the stream has n! entries).
    """
    d = _validated(d)
    n = d.shape[0]
    if n > max_pieces:
        raise ValueError(f"{n} pieces exceed the exhaustive limit of {max_pieces}")
    best_order = None
    best_cost = np.inf
    examined = 0
    stream = itertools.permutations(range(n))
    while True:
        chunk = np.array(list(itertools.islice(stream, _ORACLE_CHUNK)), dtype=np.intp)
        if chunk.size == 0:
            break
        examined += chunk.shape[0]
        costs = np.zeros(chunk.shape[0])
        for k in range(n - 1):
            costs = costs + d[chunk[:, k], chunk[:, k + 1]]
        pick = int(np.argmin(costs))
        if best_order is None or costs[pick] < best_cost:
            best_cost = float(costs[pick])
            best_order = tuple(int(v) for v in chunk[pick])
    return SolveReport(best_order, arrangement_cost(d, best_order), examined)

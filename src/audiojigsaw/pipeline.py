"""Ciphertext-only attack pipeline and the reproducible experiment sweep.

Per frame the attack never touches the key: segments are cut from the
scrambled signal, optionally continued past their borders by prediction,
rendered as quantized spectrogram pieces, and reassembled by exact search
over seam distances.  The permutation that falls out IS the recovered key
material; the audio estimate is the scrambled signal descrambled with the
recovered keys.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .audio_io import AudioBuffer, add_awgn, read_wav, synthesize_speechlike, vad_trim
# extend_segment is no longer called here, but perfbench/tracer.py wraps it by this name.
from .estimator import RlsConfig, extend_frame, extend_segment  # noqa: F401
from .evaluation import accuracy
from .puzzle import DistanceConfig, build_distance_matrix
from .scrambler import (
    KeySchedule,
    ScramblerConfig,
    _check_schedule,
    _split_frames,
    descramble,
    invert_permutation,
    make_key_schedule,
    scramble,
)
from .solver import recover_key, solve_bnb
from .spectrogram import StftConfig, quantize_frame, segmented_spectrogram


@dataclass(frozen=True)
class AttackConfig:
    """Everything one frame attack needs, defaults matching the reference setup."""

    scrambler: ScramblerConfig = ScramblerConfig()
    stft: StftConfig = StftConfig()
    rls: RlsConfig = RlsConfig()
    distance: DistanceConfig = DistanceConfig()
    use_estimation: bool = True


@dataclass(frozen=True)
class FrameAttackResult:
    frame_index: int
    arrangement: tuple[int, ...]
    cost: float
    solve_nodes: int
    solve_ms: float
    accuracy: float | None = None


# Frames that attack runs through its stages together.  Stacking amortises
# numpy's per-call cost in the forecast loop and the seam distances; the
# block bounds the memory of the distances' lag copies.
_BLOCK_FRAMES = 8


def frame_pieces(segments: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Quantized spectrogram pieces of one frame's ``(N, L)`` segments, as one
    ``(N, fft_size/2, cols)`` uint8 array, or of an ``(F, N, L)`` stack of
    frames, as an ``(F, N, fft_size/2, cols)`` array.

    With ``cfg.use_estimation`` every segment is first extended by
    ``window_size - 1`` forecast samples per side, the whole stack in one
    call; the STFT and the quantization then run frame by frame, each frame
    on its own grey scale.  The stages are looked up as this module's
    globals at call time, so a tracer that rebinds them here sees every
    call.
    """
    segments = np.asarray(segments, dtype=np.float64)
    if segments.ndim not in (2, 3):
        raise ValueError("segments must be an (N, L) frame or an (F, N, L) stack of frames")
    if cfg.use_estimation:
        segments = extend_frame(segments, cfg.stft.window_size - 1, cfg.rls)
    if segments.ndim == 2:
        return quantize_frame(segmented_spectrogram(segments, cfg.stft))
    return np.stack([quantize_frame(segmented_spectrogram(s, cfg.stft)) for s in segments])


def attack(
    cipher: AudioBuffer,
    cfg: AttackConfig = AttackConfig(),
    truth: KeySchedule | None = None,
) -> tuple[AudioBuffer, list[FrameAttackResult]]:
    """Reassemble every full frame of a scrambled signal without its keys.

    Returns the plaintext estimate, which is ``cipher`` descrambled with
    the keys recovered from each frame's arrangement (trailing partial
    frame passed through), and one result per frame.  When ``truth`` is supplied each result also
    carries the accuracy of the recovered order against the true one (the
    inverse of that frame's key).

    Frames go through the stages in blocks of ``_BLOCK_FRAMES``: one
    ``frame_pieces`` call and one distance call per block, then one solve
    per frame.  A frame's ``solve_ms`` is its own solve time plus an equal
    share of its block's pieces and distances.
    """
    geom = cfg.scrambler
    frames, _ = _split_frames(cipher, geom)
    if truth is not None:
        _check_schedule(truth, geom, len(frames))
    results = []
    for first in range(0, len(frames), _BLOCK_FRAMES):
        block = frames[first : first + _BLOCK_FRAMES]
        began = time.perf_counter()
        try:
            distances = build_distance_matrix(frame_pieces(block, cfg), cfg.distance)
        except ValueError as exc:
            raise ValueError(f"frame {first}: {exc}") from exc
        shared_ms = (time.perf_counter() - began) * 1000.0 / len(block)
        for f, d in enumerate(distances, first):
            began = time.perf_counter()
            report = solve_bnb(d)
            elapsed_ms = shared_ms + (time.perf_counter() - began) * 1000.0
            score = None
            if truth is not None:
                score = accuracy(report.order, invert_permutation(truth.keys[f]))
            results.append(
                FrameAttackResult(f, report.order, report.cost, report.nodes_expanded, elapsed_ms, score)
            )
    keys = KeySchedule(tuple(recover_key(r.arrangement) for r in results))
    return descramble(cipher, geom, keys), results


CSV_HEADER = (
    "trial",
    "frame",
    "N",
    "segment_ms",
    "snr_db",
    "noise_at",
    "method",
    "cost",
    "accuracy",
    "solve_nodes",
    "solve_ms",
)


def format_rows(
    results: Sequence[FrameAttackResult],
    trial: int,
    frame_size: int,
    segment_ms: float,
    snr_db: float,
    noise_at: str,
    method: str,
) -> list[list[str]]:
    """Render attack results as CSV rows; infinite SNR shows as an empty cell."""
    rows = []
    for r in results:
        rows.append(
            [
                str(trial),
                str(r.frame_index),
                str(frame_size),
                f"{segment_ms:g}",
                "" if math.isinf(snr_db) else f"{snr_db:g}",
                noise_at,
                method,
                f"{r.cost:.6f}",
                "" if r.accuracy is None else f"{r.accuracy:.6f}",
                str(r.solve_nodes),
                f"{r.solve_ms:.3f}",
            ]
        )
    return rows


def write_results_csv(path, rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of scrambler geometries and channel conditions to attack.

    Plaintext comes from :func:`synthesize_speechlike` at 8 kHz,
    ``duration_s`` long (10 s when None), unless ``corpus`` lists WAV paths
    (trial t reads corpus[t mod len]), which set their own length and so
    take no ``duration_s``; segments are framed at the plaintext's own
    sample rate.  Every grid point is
    attacked twice, with and without predictive extension.  All seeds
    derive from ``seed``, so two runs of the same spec produce the same
    science (the solve_ms timing column is wall clock and will differ).
    """

    frame_sizes: tuple[int, ...] = (8,)
    segment_ms_values: tuple[float, ...] = (40.0,)
    snr_dbs: tuple[float, ...] = (math.inf,)
    noise_at: str = "none"
    trials: int = 1
    seed: int = 0
    duration_s: float | None = None
    corpus: tuple[str, ...] | None = None
    vad: bool = False
    stft: StftConfig = StftConfig()
    rls: RlsConfig = RlsConfig()
    distance: DistanceConfig = DistanceConfig()

    def __post_init__(self):
        if not self.frame_sizes or not self.segment_ms_values:
            raise ValueError("grid must list at least one frame size and segment duration")
        if self.noise_at not in ("source", "channel", "none"):
            raise ValueError("noise_at must be 'source', 'channel' or 'none'")
        if self.noise_at != "none" and not self.snr_dbs:
            raise ValueError("noisy sweep needs at least one SNR value")
        if any(math.isnan(snr) or snr == -math.inf for snr in self.snr_grid):
            raise ValueError("snr_db must be finite or +inf")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.corpus is not None and not self.corpus:
            raise ValueError("corpus mode selected but no paths given")
        if self.corpus is not None and self.duration_s is not None:
            raise ValueError(
                "a corpus sweep attacks whole files; duration_s is for synthetic audio"
            )

    @property
    def snr_grid(self) -> tuple[float, ...]:
        return (math.inf,) if self.noise_at == "none" else self.snr_dbs


_METHODS = (("puzzle+rls", True), ("puzzle", False))
# Seconds of synthetic plaintext per trial when the spec names none.
_SYNTH_SECONDS = 10.0


def sweep(spec: SweepSpec, csv_path) -> None:
    """Attack the whole grid and write one CSV row per (trial, frame, method)."""
    rows = []
    grid = list(product(spec.frame_sizes, spec.segment_ms_values, spec.snr_grid))
    for grid_index, (frame_size, segment_ms, snr_db) in enumerate(grid):
        for trial in range(spec.trials):
            entropy = np.random.SeedSequence([spec.seed, grid_index, trial])
            synth_seed, key_seed, source_seed, channel_seed = (
                int(v) for v in entropy.generate_state(4)
            )
            if spec.corpus is not None:
                plain = read_wav(spec.corpus[trial % len(spec.corpus)])
            else:
                duration_s = _SYNTH_SECONDS if spec.duration_s is None else spec.duration_s
                plain = synthesize_speechlike(duration_s, synth_seed)
            if spec.vad:
                plain = vad_trim(plain)
            geom = ScramblerConfig(frame_size, segment_ms, plain.sample_rate)
            keys = make_key_schedule(key_seed, geom.frame_count(len(plain)), frame_size)
            if spec.noise_at == "source":
                plain = add_awgn(plain, snr_db, source_seed)
            cipher = scramble(plain, geom, keys)
            if spec.noise_at == "channel":
                cipher = add_awgn(cipher, snr_db, channel_seed)
            for method, use_estimation in _METHODS:
                cfg = AttackConfig(
                    scrambler=geom,
                    stft=spec.stft,
                    rls=spec.rls,
                    distance=spec.distance,
                    use_estimation=use_estimation,
                )
                _, results = attack(cipher, cfg, truth=keys)
                rows.extend(
                    format_rows(results, trial, frame_size, segment_ms, snr_db, spec.noise_at, method)
                )
    write_results_csv(csv_path, rows)

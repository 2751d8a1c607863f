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
    _split_frames,
    descramble,
    invert_permutation,
    make_key_schedule,
    scramble,
)
from .solver import recover_key, solve_bnb
from .spectrogram import PieceImage, StftConfig, quantize_frame, segmented_spectrogram


@dataclass(frozen=True)
class AttackConfig:
    """Everything one frame attack needs, defaults matching the reference setup."""

    scrambler: ScramblerConfig = ScramblerConfig()
    stft: StftConfig = StftConfig()
    rls: RlsConfig = RlsConfig()
    distance: DistanceConfig = DistanceConfig()
    use_estimation: bool = True
    quant_scale: str = "db"
    extension: int | None = None  # forecast samples per side; None = window_size - 1

    def __post_init__(self):
        if self.quant_scale not in ("db", "linear"):
            raise ValueError("quant_scale must be 'db' or 'linear'")
        if self.extension is not None and self.extension < 0:
            raise ValueError("extension must be non-negative")

    @property
    def extension_samples(self) -> int:
        return self.stft.window_size - 1 if self.extension is None else self.extension


@dataclass(frozen=True)
class FrameAttackResult:
    frame_index: int
    arrangement: tuple[int, ...]
    cost: float
    solve_nodes: int
    solve_ms: float
    accuracy: float | None = None


def frame_pieces(segments: np.ndarray, cfg: AttackConfig) -> list[PieceImage]:
    """Quantized spectrogram pieces of one frame's ``(N, L)`` segments.

    With ``cfg.use_estimation`` every segment is first extended by
    ``cfg.extension_samples`` forecast samples per side.  The stages are
    looked up as this module's globals at call time, so a tracer that
    rebinds them here sees every call.
    """
    if cfg.use_estimation:
        segments = extend_frame(segments, cfg.extension_samples, cfg.rls)
    return quantize_frame(segmented_spectrogram(segments, cfg.stft), cfg.quant_scale)


def _solve_frame(segments: np.ndarray, cfg: AttackConfig):
    """Order the cipher segments of one frame by spectro-temporal continuity."""
    if cfg.scrambler.frame_size == 1:
        return (0,), 0.0, 0
    distances = build_distance_matrix(frame_pieces(segments, cfg), cfg.distance)
    report = solve_bnb(distances)
    return report.order, report.cost, report.nodes_expanded


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
    """
    geom = cfg.scrambler
    frames, _ = _split_frames(cipher, geom)
    if len(frames) == 0:
        raise ValueError(f"signal of {len(cipher)} samples is shorter than one frame")
    if truth is not None:
        if truth.frame_size != geom.frame_size:
            raise ValueError("truth key width does not match frame_size")
        if len(truth) < len(frames):
            raise ValueError("truth schedule has fewer keys than frames")
    results = []
    for f, segments in enumerate(frames):
        began = time.perf_counter()
        try:
            order, cost, nodes = _solve_frame(segments, cfg)
        except ValueError as exc:
            raise ValueError(f"frame {f}: {exc}") from exc
        elapsed_ms = (time.perf_counter() - began) * 1000.0
        score = None
        if truth is not None:
            score = accuracy(order, invert_permutation(truth.keys[f]))
        results.append(FrameAttackResult(f, order, cost, nodes, elapsed_ms, score))
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

    Plaintext comes from :func:`synthesize_speechlike` unless ``corpus``
    lists WAV paths (trial t reads corpus[t mod len]).  Every grid point is
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
    duration_s: float = 10.0
    sample_rate: int = 8000
    corpus: tuple[str, ...] | None = None
    vad: bool = False
    stft: StftConfig = StftConfig()
    rls: RlsConfig = RlsConfig()
    distance: DistanceConfig = DistanceConfig()
    quant_scale: str = "db"

    def __post_init__(self):
        if not self.frame_sizes or not self.segment_ms_values:
            raise ValueError("grid must list at least one frame size and segment duration")
        if self.noise_at not in ("source", "channel", "none"):
            raise ValueError("noise_at must be 'source', 'channel' or 'none'")
        if self.noise_at != "none" and not self.snr_dbs:
            raise ValueError("noisy sweep needs at least one SNR value")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.corpus is not None and not self.corpus:
            raise ValueError("corpus mode selected but no paths given")

    @property
    def snr_grid(self) -> tuple[float, ...]:
        return (math.inf,) if self.noise_at == "none" else self.snr_dbs


_METHODS = (("puzzle+rls", True), ("puzzle", False))


def sweep(spec: SweepSpec, csv_path) -> None:
    """Attack the whole grid and write one CSV row per (trial, frame, method)."""
    rows = []
    grid = list(product(spec.frame_sizes, spec.segment_ms_values, spec.snr_grid))
    for grid_index, (frame_size, segment_ms, snr_db) in enumerate(grid):
        geom = ScramblerConfig(frame_size, segment_ms, spec.sample_rate)
        for trial in range(spec.trials):
            entropy = np.random.SeedSequence([spec.seed, grid_index, trial])
            synth_seed, key_seed, source_seed, channel_seed = (
                int(v) for v in entropy.generate_state(4)
            )
            if spec.corpus is not None:
                plain = read_wav(spec.corpus[trial % len(spec.corpus)])
            else:
                plain = synthesize_speechlike(spec.duration_s, synth_seed, spec.sample_rate)
            if spec.vad:
                plain = vad_trim(plain)
            n_frames = len(plain) // geom.frame_samples
            if n_frames == 0:
                raise ValueError(
                    f"plaintext too short for frame size {frame_size} at {segment_ms} ms"
                )
            keys = make_key_schedule(key_seed, n_frames, frame_size)
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
                    quant_scale=spec.quant_scale,
                )
                _, results = attack(cipher, cfg, truth=keys)
                rows.extend(
                    format_rows(results, trial, frame_size, segment_ms, snr_db, spec.noise_at, method)
                )
    write_results_csv(csv_path, rows)

"""Ciphertext-only attack pipeline and the reproducible experiment sweep.

Per frame the attack never touches the key: segments are cut from the
scrambled signal, optionally continued past their borders by prediction,
rendered as quantized spectrogram pieces, and reassembled by exact search
over seam distances.  The order that falls out IS the recovered key
material; the audio estimate is the scrambled signal's segments gathered
in that order.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .audio_io import (
    AudioBuffer, _positive, _snr_power_ratio, _whole, add_awgn, read_wav, synthesize_speechlike, vad_trim
)
from .estimator import RlsConfig, extend_segment
from .evaluation import accuracy
from .puzzle import DistanceConfig, build_distance_matrix
from .scrambler import (
    KeySchedule,
    ScramblerConfig,
    _check_schedule,
    _gather_segments,
    _split_frames,
    invert_permutation,
    make_key_schedule,
    scramble,
)
from .solver import solve_bnb
from .spectrogram import StftConfig, quantize_frame, segmented_spectrogram


@dataclass(frozen=True)
class AttackConfig:
    """Everything one frame attack needs, defaults matching the reference setup."""

    scrambler: ScramblerConfig = ScramblerConfig()
    stft: StftConfig = StftConfig()
    rls: RlsConfig = RlsConfig()
    distance: DistanceConfig = DistanceConfig()
    use_estimation: bool = True

    @property
    def method(self) -> str:
        """The attack's label in results: ``puzzle+rls`` with border extension, else ``puzzle``."""
        return "puzzle+rls" if self.use_estimation else "puzzle"


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
        segments = extend_segment(segments, cfg.stft.window_size - 1, cfg.rls)
    if segments.ndim == 2:
        return quantize_frame(segmented_spectrogram(segments, cfg.stft))
    return np.stack([quantize_frame(segmented_spectrogram(s, cfg.stft)) for s in segments])


def attack(
    cipher: AudioBuffer,
    cfg: AttackConfig = AttackConfig(),
    truth: KeySchedule | None = None,
) -> tuple[AudioBuffer, list[FrameAttackResult]]:
    """Reassemble every full frame of a scrambled signal without its keys.

    Returns the plaintext estimate, whose frame f holds ``cipher``'s
    segments of frame f in its recovered arrangement (trailing partial
    frame passed through), and one result per frame.  When ``truth`` is
    supplied each result also carries the accuracy of the recovered order
    against the true one (the inverse of that frame's key).

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
    orders = KeySchedule(tuple(r.arrangement for r in results))
    return _gather_segments(cipher, geom, orders), results


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
    cfg: AttackConfig,
    snr_db: float,
    noise_at: str,
) -> list[list[str]]:
    """Render the results of one ``attack(cipher, cfg)`` call as CSV rows, with
    N, segment_ms and method read from ``cfg``; infinite SNR shows as an empty cell."""
    rows = []
    for r in results:
        rows.append(
            [
                str(trial),
                str(r.frame_index),
                str(cfg.scrambler.frame_size),
                f"{cfg.scrambler.segment_ms:g}",
                "" if math.isinf(snr_db) else f"{snr_db:g}",
                noise_at,
                cfg.method,
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

    The grid is checked before any trial runs.  Frame sizes are whole
    numbers of at least 2, ``trials`` a positive and ``seed`` a
    non-negative whole number, all stored as ``int``; segment durations
    and ``duration_s`` are finite and positive, and every SNR passes
    :func:`add_awgn`'s rule.  Only the segment length in samples waits
    for each trial, since a corpus file sets its own sample rate.
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
        object.__setattr__(self, "frame_sizes", tuple(_whole(n, 2, "frame_size") for n in self.frame_sizes))
        for segment_ms in self.segment_ms_values:
            _positive(segment_ms, "segment_ms")
        if self.noise_at not in ("source", "channel", "none"):
            raise ValueError("noise_at must be 'source', 'channel' or 'none'")
        if self.noise_at != "none" and not self.snr_dbs:
            raise ValueError("noisy sweep needs at least one SNR value")
        for snr in self.snr_grid:
            _snr_power_ratio(snr)
        object.__setattr__(self, "trials", _whole(self.trials, 1, "trials"))
        object.__setattr__(self, "seed", _whole(self.seed, 0, "seed"))
        if self.corpus is not None and not self.corpus:
            raise ValueError("corpus mode selected but no paths given")
        if self.duration_s is not None:
            if self.corpus is not None:
                raise ValueError("a corpus sweep attacks whole files; duration_s is for synthetic audio")
            _positive(self.duration_s, "duration_s")

    @property
    def snr_grid(self) -> tuple[float, ...]:
        return (math.inf,) if self.noise_at == "none" else self.snr_dbs


_METHODS = (True, False)  # use_estimation per method, in CSV order
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
            for use_estimation in _METHODS:
                cfg = AttackConfig(
                    scrambler=geom,
                    stft=spec.stft,
                    rls=spec.rls,
                    distance=spec.distance,
                    use_estimation=use_estimation,
                )
                _, results = attack(cipher, cfg, truth=keys)
                rows.extend(format_rows(results, trial, cfg, snr_db, spec.noise_at))
    write_results_csv(csv_path, rows)

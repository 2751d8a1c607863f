"""Ciphertext-only cryptanalysis of hopping-window audio scramblers.

The scrambler permutes fixed-duration segments inside every frame with a
fresh key.  This package recovers those keys from the scrambled audio
alone: segments become quantized spectrogram pieces, seam distances say
which piece plausibly follows which, and exact branch-and-bound search
reassembles each frame.
"""

from .audio_io import (
    AudioBuffer,
    WavFormatError,
    add_awgn,
    read_wav,
    synthesize_speechlike,
    vad_trim,
    write_wav,
)
from .estimator import RlsConfig, extend_segment
from .evaluation import accuracy
from .pipeline import (
    AttackConfig,
    CSV_HEADER,
    FrameAttackResult,
    SweepSpec,
    attack,
    format_rows,
    frame_pieces,
    sweep,
    write_results_csv,
)
from .puzzle import DistanceConfig, arrangement_cost, build_distance_matrix
from .scrambler import (
    KeySchedule,
    ScramblerConfig,
    descramble,
    invert_permutation,
    keyspace_bits,
    load_keys,
    make_key_schedule,
    save_keys,
    scramble,
)
from .solver import SolveReport, solve_bnb
from .spectrogram import (
    StftConfig,
    quantize_frame,
    segmented_spectrogram,
    write_pgm,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AudioBuffer",
    "CSV_HEADER",
    "DistanceConfig",
    "FrameAttackResult",
    "KeySchedule",
    "RlsConfig",
    "ScramblerConfig",
    "SolveReport",
    "StftConfig",
    "SweepSpec",
    "WavFormatError",
    "accuracy",
    "add_awgn",
    "arrangement_cost",
    "attack",
    "build_distance_matrix",
    "descramble",
    "extend_segment",
    "format_rows",
    "frame_pieces",
    "invert_permutation",
    "keyspace_bits",
    "load_keys",
    "make_key_schedule",
    "quantize_frame",
    "read_wav",
    "save_keys",
    "scramble",
    "segmented_spectrogram",
    "solve_bnb",
    "sweep",
    "synthesize_speechlike",
    "vad_trim",
    "write_pgm",
    "write_results_csv",
    "write_wav",
]

"""Layer spans recorded from outside the package.

Installing a :class:`Tracer` rebinds the functions that
``audiojigsaw.pipeline`` calls into the other modules, the solver's
arborescence bound, and the package-level entry points the benchmark
calls, to wrappers that record one span per call.  A span holds its
layer, the frame it belongs to, its parent span and its start and end
times.  Nothing in the package is edited; :meth:`Tracer.uninstall` puts
the original functions back.

Frame ids: inside an ``attack`` call a new frame opens at the first
extension or STFT call after a solve, so the accuracy scoring that
follows a solve stays with that solve's frame.  Spans outside ``attack``
(synthesis, scrambling, the sweep's own work) carry frame -1.
"""

from __future__ import annotations

import time

import numpy as np

import audiojigsaw
from audiojigsaw import pipeline, solver

# Wrapped name -> layer it is charged to.
LAYERS = {
    "attack": "pipeline",
    "sweep": "pipeline",
    "extend_segment": "estimator.extend",
    "segmented_spectrogram": "spectrogram.stft",
    "quantize_frame": "spectrogram.quantize",
    "build_distance_matrix": "puzzle.distance",
    "solve_bnb": "solver.solve",
    "min_arborescence_weight": "solver.bound",
    "accuracy": "evaluation.accuracy",
    "synthesize_speechlike": "audio_io.synth",
    "scramble": "scrambler.scramble",
}

# Where each name is looked up at call time.
_TARGETS = (
    (pipeline, ("extend_segment", "segmented_spectrogram", "quantize_frame",
                "build_distance_matrix", "solve_bnb", "accuracy", "attack",
                "synthesize_speechlike", "scramble")),
    (solver, ("min_arborescence_weight",)),
    (audiojigsaw, ("attack", "sweep", "synthesize_speechlike", "scramble")),
)

_FRAME_OPENERS = ("estimator.extend", "spectrogram.stft")


class Tracer:
    """In-memory span recorder; one instance per traced run, installed around traced passes."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        # Span: [layer, frame, parent index, start, end]
        self.spans: list[list] = []
        # Solve captures: (attack call index, solve index in that call, D, report)
        self.solves: list[tuple[int, int, np.ndarray, object]] = []
        # Truth schedule passed to each attack call, by call index.
        self.truths: list[object] = []
        self._stack: list[int] = []
        self._frame = -1
        self._solved = True
        self._attack_depth = 0
        self._solves_in_call = 0

    def install(self) -> None:
        wrappers = {}
        for module, names in _TARGETS:
            for name in names:
                original = getattr(module, name)
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original)
                self._saved.append((module, name, original))
                setattr(module, name, wrappers[original])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        layer = LAYERS[name]
        is_attack = name == "attack"
        is_solve = name == "solve_bnb"
        opens_frame = layer in _FRAME_OPENERS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_attack:
                self.truths.append(kwargs.get("truth", args[2] if len(args) > 2 else None))
                self._attack_depth += 1
                self._solved = True
                self._solves_in_call = 0
            elif opens_frame and self._solved and self._attack_depth:
                self._frame += 1
                self._solved = False
            frame = self._frame if self._attack_depth and not is_attack else -1
            parent = self._stack[-1] if self._stack else -1
            span = [layer, frame, parent, clock(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self._stack.pop()
                if is_attack:
                    self._attack_depth -= 1
            if is_solve:
                self.solves.append(
                    (len(self.truths) - 1, self._solves_in_call, np.asarray(args[0]), out)
                )
                self._solves_in_call += 1
                self._solved = True
            return out

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Layer -> (calls, self seconds): span time minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for layer, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for i, (layer, _, _, start, end) in enumerate(self.spans):
            calls, secs = totals.get(layer, (0, 0.0))
            totals[layer] = (calls + 1, secs + (end - start) - child[i])
        return totals

    def root_seconds(self, first: int = 0) -> float:
        """Wall time covered by the top-level spans recorded from index ``first`` on."""
        return sum(end - start for _, _, parent, start, end in self.spans[first:] if parent < 0)

"""Seeded workloads, the loops that time them, and the checks on their outputs.

Two workloads, each loading a different layer of the attack:

* ``plain8`` -- N=8, 40 ms segments, ``puzzle``.  Frames go to ``attack``
  one at a time as their samples arrive (one caller, closed loop).  Every
  clip is a recording that starts and ends with one frame of digital
  silence.  Speech frames are dominated by the distance matrix; a silent
  frame has an all-zero distance matrix and takes the solver's tie-heavy
  path.
* ``sweep8`` -- ``sweep`` calls over several trials with N=8 and both
  methods, in batch, as the acceptance gate runs it.  RLS border extension
  takes most of its time.  Synthesis, scrambling, the trial loop and the CSV
  writer are inside the timed work here.

Timing.  On a shared host the core's speed switches between two levels,
1.4x to 1.9x apart, for seconds to minutes at a time.  A run therefore
cycles over its inputs for the whole of ``--seconds`` and reports medians
over every timing it took, so that each run averages over many switches.
The first pass only warms up and is not timed.

Inputs come only from ``--seed``: clip c of a streaming workload uses the
seeds drawn from ``SeedSequence([seed, c])``; sweep k of ``sweep8`` gets the
k-th value drawn from ``SeedSequence(seed)`` as its ``SweepSpec`` seed.  The
package sees only the generated audio.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import audiojigsaw as aj
from audiojigsaw import pipeline

from tracer import LAYERS, Tracer

clock = time.perf_counter

SAMPLE_RATE = 8000
MIN_REPEATS = 3  # timed repeats of every input per run
HARD_CAP_S = 120.0  # no pass starts after this, whatever --seconds says
SETUP_REPEATS = 3
PAIRED_PASSES = 2  # untraced passes timed next to traced ones in a trace run


# Every workload scrambles N=8 frames of 40 ms segments.
GEOM = aj.ScramblerConfig(8, 40.0, SAMPLE_RATE)
TAIL_SAMPLES = 800  # samples after the last full frame, passed through untouched


@dataclass(frozen=True)
class Stream:
    """A streaming workload: ``clips`` recordings, each fed frame by frame to ``puzzle``.

    Each recording is ``speech_frames`` frames of speech with one frame of
    digital silence before and after it, then a tail.
    """

    name: str
    clips: int
    speech_frames: int


@dataclass(frozen=True)
class Batch:
    """A batch workload: ``sweeps`` sweeps of ``trials`` trials; one ``sweep`` call per pass."""

    name: str
    sweeps: int
    trials: int
    duration_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Stream("plain8", clips=8, speech_frames=30),
        Batch("sweep8", sweeps=4, trials=2, duration_s=2.0),
    )
}


class ClampCounter(logging.Handler):
    """Counts the estimator's clamp warnings instead of letting them print."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        if str(record.msg).startswith("clamped"):
            self.count += 1
        else:
            sys.stderr.write(self.format(record) + "\n")


def install_clamp_counter() -> ClampCounter:
    counter = ClampCounter()
    log = logging.getLogger("audiojigsaw.estimator")
    log.addHandler(counter)
    log.propagate = False
    return counter


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Frame key -> ms of each timed repeat of that frame.
    frame_ms: dict = field(default_factory=dict)
    # Seconds of audio attacked per second, one value per timed pass.
    pass_xrt: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    exact: list[bool] = field(default_factory=list)
    orders: list[tuple[int, ...]] = field(default_factory=list)
    passes: int = 0
    setup_s: float = 0.0
    input_digest: str = ""
    layers: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    traced_frames: int = 0
    overhead: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def time_frame(self, key, ms: float) -> None:
        self.frame_ms.setdefault(key, []).append(ms)

    def all_frame_ms(self) -> list[float]:
        return [ms for v in self.frame_ms.values() for ms in v]

    def min_repeats(self) -> int:
        return min((len(v) for v in self.frame_ms.values()), default=0)

    def done(self, elapsed: float, seconds: float) -> bool:
        return elapsed >= HARD_CAP_S or (elapsed >= seconds and self.min_repeats() >= MIN_REPEATS)

    def fingerprint(self) -> str:
        """Hash of every recovered order of the first pass over each input."""
        text = ";".join(",".join(map(str, o)) for o in self.orders)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def add_overhead(self, untraced_s: float, traced_s: float, span_s: float, frames: int) -> None:
        for key, v in (("untraced_s", untraced_s), ("traced_s", traced_s),
                       ("span_s", span_s), ("frames", frames)):
            self.overhead[key] = self.overhead.get(key, 0) + v


# ---------------------------------------------------------------- checks


def check_attack(cipher, results, estimate, out: Outcome, where: str) -> list[bool]:
    """Per frame: the order is a permutation and the audio is that order replayed.

    The samples after the last full frame must come back untouched.
    """
    n, seg = GEOM.frame_size, GEOM.segment_samples
    body = (len(cipher) // GEOM.frame_samples) * GEOM.frame_samples
    segments = cipher.samples[:body].reshape(-1, n, seg)
    restored = estimate.samples[:body].reshape(-1, n * seg)
    if len(results) != len(segments):
        out.fail(f"{where}: {len(results)} results for {len(segments)} frames")
        return [False] * len(segments)
    ok = []
    for r, segs, got in zip(results, segments, restored):
        order = tuple(r.arrangement)
        if sorted(order) != list(range(n)):
            out.fail(f"{where}, result {r.frame_index}: {order} is not a permutation")
            ok.append(False)
        elif not np.array_equal(got, segs[list(order)].reshape(-1)):
            out.fail(f"{where}, result {r.frame_index}: audio is not the cipher in the recovered order")
            ok.append(False)
        else:
            ok.append(True)
    if not np.array_equal(estimate.samples[body:], cipher.samples[body:]):
        out.fail(f"{where}: tail was not passed through")
        ok[-1] = False
    return ok


def inexact_solves(tracer: Tracer, first: int, out: Outcome) -> set[tuple[int, int]]:
    """(attack call, frame) of captured solves that fail the exactness check.

    The reported cost must be the cost of the reported order under the
    captured distance matrix D, and no greater than the true order's cost.
    """
    bad = set()
    for call, k, d, report in tracer.solves[first:]:
        true_order = aj.invert_permutation(tracer.truths[call].keys[k])
        cost = aj.arrangement_cost(d, report.order)
        if report.cost != cost or report.cost > aj.arrangement_cost(d, true_order):
            out.fail(f"attack call {call} frame {k}: reported cost {report.cost}, "
                     f"order costs {cost}, not exact")
            bad.add((call, k))
    return bad


# ---------------------------------------------------------------- set-up


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter importing the package (thread pins inherited)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    began = clock()
    subprocess.run([sys.executable, "-c", "import audiojigsaw"], env=env, check=True, timeout=60)
    return clock() - began


def median_import_seconds(src: Path) -> float:
    return statistics.median(import_seconds(src) for _ in range(SETUP_REPEATS))


@dataclass(frozen=True)
class Clip:
    cipher: aj.AudioBuffer
    keys: aj.KeySchedule
    frames: tuple  # (AudioBuffer, one-key KeySchedule) per frame; the last carries the tail


def make_clip(w: Stream, seed: int, c: int) -> Clip:
    synth_seed, key_seed = (int(v) for v in np.random.SeedSequence([seed, c]).generate_state(2))
    speech_s = w.speech_frames * GEOM.frame_samples / SAMPLE_RATE
    speech = aj.synthesize_speechlike(speech_s, synth_seed, SAMPLE_RATE)
    silence = np.zeros(GEOM.frame_samples)
    plain = aj.AudioBuffer(
        np.concatenate([silence, speech.samples, silence, np.zeros(TAIL_SAMPLES)]), SAMPLE_RATE
    )
    n_frames = len(plain) // GEOM.frame_samples
    keys = aj.make_key_schedule(key_seed, n_frames, GEOM.frame_size)
    cipher = aj.scramble(plain, GEOM, keys)
    frames = []
    for f in range(n_frames):
        lo = f * GEOM.frame_samples
        hi = len(cipher) if f == n_frames - 1 else lo + GEOM.frame_samples
        truth = aj.KeySchedule((keys.keys[f],))
        frames.append((aj.AudioBuffer(cipher.samples[lo:hi], SAMPLE_RATE), truth))
    return Clip(cipher, keys, tuple(frames))


def input_digest(ciphers, key_lists) -> str:
    h = hashlib.sha256()
    for cipher, keys in zip(ciphers, key_lists):
        h.update(cipher.samples.tobytes())
        h.update(repr(keys).encode())
    return h.hexdigest()[:16]


def setup_stream(w: Stream, seed: int, src: Path, out: Outcome, tracer: Tracer | None):
    """Build the clips several times; every build must be byte-identical.

    Untraced, set-up time is a fresh import plus building the clips, each
    the median of its repeats.  Traced, only the first build is traced.
    """
    builds, seconds = [], []
    for i in range(SETUP_REPEATS if tracer is None else 2):
        if tracer and i == 0:
            tracer.install()
        began = clock()
        try:
            builds.append([make_clip(w, seed, c) for c in range(w.clips)])
        finally:
            seconds.append(clock() - began)
            if tracer:
                tracer.uninstall()
    digests = {input_digest([c.cipher for c in b], [c.keys.keys for c in b]) for b in builds}
    if len(digests) != 1:
        out.fail(f"seed {seed} gave {len(digests)} different inputs over {len(builds)} builds")
    out.input_digest = digests.pop()
    if tracer is None:
        out.setup_s = median_import_seconds(src) + statistics.median(seconds)
    return builds[0]


# ---------------------------------------------------------------- streaming


def stream_pass(w: Stream, clip: Clip, cfg, out: Outcome, where: str, tracer: Tracer | None):
    """Feed one clip to ``attack`` frame by frame.

    Returns pass wall seconds, per-frame ms, per-frame results (None where
    ``attack`` raised) and per-frame check outcomes.
    """
    frame_ms, results, ok = [], [], []
    if tracer:
        tracer.install()
    try:
        began_pass = clock()
        for f, (buf, truth) in enumerate(clip.frames):
            solves_before = len(tracer.solves) if tracer else 0
            began = clock()
            try:
                estimate, res = aj.attack(buf, cfg, truth=truth)
            except Exception as exc:  # boundary: count the frame as failed, keep going
                frame_ms.append((clock() - began) * 1000.0)
                out.fail(f"{where} frame {f}: {type(exc).__name__}: {exc}")
                results.append(None)
                ok.append(False)
                continue
            frame_ms.append((clock() - began) * 1000.0)
            good = check_attack(buf, res, estimate, out, f"{where} frame {f}")[0]
            if tracer and inexact_solves(tracer, solves_before, out):
                good = False
            results.append(res[0])
            ok.append(good)
        wall = clock() - began_pass
    finally:
        if tracer:
            tracer.uninstall()
    return wall, frame_ms, results, ok


def run_stream(w: Stream, seed: int, seconds: float, src: Path, trace: bool, clamps) -> Outcome:
    """Untraced: pass over the clips in turn until ``seconds`` and the minimums are met.

    Traced: one traced pass over every clip; the first clips are also run
    untraced, right before, to measure the tracing overhead.
    """
    out = Outcome()
    cfg = aj.AttackConfig(scrambler=GEOM, use_estimation=False)
    tracer = Tracer() if trace else None
    clips = setup_stream(w, seed, src, out, tracer)
    traced_clamps = 0
    first_orders: dict[int, list] = {}
    began_run = clock()
    while True:
        c = out.passes % len(clips)
        clip = clips[c]
        where = f"clip {c} pass {out.passes}"
        paired = tracer is not None and out.passes < PAIRED_PASSES
        if paired and out.passes % 2 == 0:  # alternate which of the pair runs first
            wall_u, _, _, ok_u = stream_pass(w, clip, cfg, out, where + " untraced", None)
        spans_before = len(tracer.spans) if tracer else 0
        clamps_before = clamps.count
        wall, frame_ms, results, ok = stream_pass(w, clip, cfg, out, where, tracer)
        traced_clamps += clamps.count - clamps_before
        if paired and out.passes % 2 == 1:
            wall_u, _, _, ok_u = stream_pass(w, clip, cfg, out, where + " untraced", None)
        if paired:
            out.attempted += len(ok_u)
            out.failed += ok_u.count(False)
            out.add_overhead(wall_u, wall, tracer.root_seconds(spans_before), len(ok))
        if out.passes > 0:  # the first pass warms up
            for f, ms in enumerate(frame_ms):
                out.time_frame((c, f), ms)
            out.pass_xrt.append(len(clip.cipher) / SAMPLE_RATE / (sum(frame_ms) / 1000.0))
        orders = [None if r is None else tuple(r.arrangement) for r in results]
        if c not in first_orders:
            first_orders[c] = orders
            for (_, truth), r, order in zip(clip.frames, results, orders):
                out.orders.append(order or ())
                if r is not None:
                    out.accuracies.append(r.accuracy)
                    out.exact.append(order == aj.invert_permutation(truth.keys[0]))
        elif orders != first_orders[c]:
            out.fail(f"{where}: orders differ from the first pass over this clip")
            ok = [g and a == b for g, a, b in zip(ok, orders, first_orders[c])]
        out.attempted += len(ok)
        out.failed += ok.count(False)
        out.passes += 1
        elapsed = clock() - began_run
        if tracer:
            if out.passes == len(clips):
                break
        elif out.done(elapsed, seconds):
            break
    if tracer:
        finish_trace(out, tracer, sum(len(c.frames) for c in clips), traced_clamps)
    return out


# ---------------------------------------------------------------- batch


class AttackCapture:
    """Records every ``attack`` call that ``sweep`` makes, for the output checks."""

    def __init__(self):
        self.calls = []
        self._original = None

    def install(self) -> None:
        self.calls = []
        original = self._original = pipeline.attack

        def capture(cipher, cfg=aj.AttackConfig(), truth=None):
            estimate, results = original(cipher, cfg, truth)
            self.calls.append((cipher, cfg, truth, estimate, results))
            return estimate, results

        pipeline.attack = capture

    def uninstall(self) -> None:
        pipeline.attack = self._original


def read_sweep_csv(path: Path, expected_rows: int, out: Outcome) -> list[list[str]]:
    """Parse the results CSV; header, row count and numeric fields must be right."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != aj.CSV_HEADER:
        out.fail(f"CSV header is {rows[:1]}")
        return []
    rows = rows[1:]
    if len(rows) != expected_rows:
        out.fail(f"CSV has {len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        try:
            if len(row) != len(aj.CSV_HEADER):
                raise ValueError(f"{len(row)} fields")
            int(row[0]), int(row[1]), int(row[9])
            float(row[7]), float(row[8]), float(row[10])
        except ValueError as exc:
            out.fail(f"CSV row {i} does not parse: {exc}")
    return rows


def run_batch(w: Batch, seed: int, seconds: float, root: Path, src: Path, trace: bool, clamps) -> Outcome:
    """Untraced: run the sweeps in turn until ``seconds`` and the minimums are met.

    Traced: the first sweep once untraced, for the overhead baseline, then
    once traced.  A repeated sweep must write the same CSV apart from the
    ``solve_ms`` column and attack byte-identical ciphers with identical keys.
    """
    out = Outcome()
    began = clock()
    sweep_seeds = np.random.SeedSequence(seed).generate_state(w.sweeps)
    specs = [
        aj.SweepSpec(frame_sizes=(GEOM.frame_size,), segment_ms_values=(GEOM.segment_ms,),
                     trials=w.trials, seed=int(s), duration_s=w.duration_s)
        for s in sweep_seeds
    ]
    spec_s = clock() - began
    if not trace:
        out.setup_s = median_import_seconds(src) + spec_s
    frames_per_trial = round(w.duration_s * SAMPLE_RATE) // GEOM.frame_samples
    expected_rows = w.trials * frames_per_trial * 2
    tracer = Tracer() if trace else None
    capture = AttackCapture()
    first: dict[int, tuple] = {}
    walls = []
    began_run = clock()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        csv_path = Path(tmp) / "sweep.csv"
        while True:
            k = 0 if tracer else out.passes % len(specs)
            traced = tracer is not None and out.passes == 1
            where = f"sweep {k} pass {out.passes}"
            capture.install()
            clamps_before = clamps.count
            if traced:
                tracer.install()
            try:
                began = clock()
                aj.sweep(specs[k], csv_path)
                wall = clock() - began
            except Exception as exc:  # boundary: the whole sweep failed
                out.fail(f"{where}: {type(exc).__name__}: {exc}")
                out.attempted += expected_rows
                out.failed += expected_rows
                break
            finally:
                if traced:
                    tracer.uninstall()
                capture.uninstall()
            walls.append(wall)
            rows = read_sweep_csv(csv_path, expected_rows, out)
            ok = check_sweep_pass(capture.calls, rows, out, where)
            if traced:
                bad = inexact_solves(tracer, 0, out)
                ok = [g and (i, f) not in bad for i, f, g in ok]
            else:
                ok = [g for _, _, g in ok]
            audio_s = sum(len(call[0]) for call in capture.calls) / SAMPLE_RATE
            if out.passes > 0:  # the first pass warms up
                out.pass_xrt.append(audio_s / wall)
            science = [row[:10] for row in rows]
            digest = input_digest([c[0] for c in capture.calls], [c[2].keys for c in capture.calls])
            if k not in first:
                first[k] = (science, digest)
                record_sweep_results(capture.calls, out)
            elif (science, digest) != first[k]:
                out.fail(f"{where}: sweep output or inputs differ from the first pass")
                ok = [False] * len(ok)
            if out.passes > 0:
                for (trial, frame), ms in sweep_frame_ms(rows).items():
                    out.time_frame((k, trial, frame), ms)
            out.attempted += len(ok)
            out.failed += ok.count(False)
            out.passes += 1
            elapsed = clock() - began_run
            if tracer:
                if out.passes == 2:
                    out.add_overhead(walls[0], walls[1], tracer.root_seconds(0), len(ok))
                    finish_trace(out, tracer, len(ok), clamps.count - clamps_before)
                    break
            elif out.done(elapsed, seconds):
                break
    out.input_digest = hashlib.sha256("".join(d for _, d in first.values()).encode()).hexdigest()[:16]
    return out


def check_sweep_pass(calls, rows, out: Outcome, where: str) -> list[tuple[int, int, bool]]:
    """(attack call, frame, ok) for every frame the sweep attacked."""
    ok = []
    for i, (cipher, cfg, truth, estimate, results) in enumerate(calls):
        flags = check_attack(cipher, results, estimate, out, f"{where} call {i}")
        ok.extend((i, k, g) for k, g in enumerate(flags))
    scored = [f"{r.accuracy:.6f}" for *_, results in calls for r in results]
    if [row[8] for row in rows] != scored:
        out.fail(f"{where}: CSV accuracy column differs from the attack results")
        ok = [(i, k, False) for i, k, _ in ok]
    return ok


def record_sweep_results(calls, out: Outcome) -> None:
    """Scores and orders of the first pass."""
    for cipher, cfg, truth, estimate, results in calls:
        for r in results:
            out.orders.append(tuple(r.arrangement))
            out.accuracies.append(r.accuracy)
            out.exact.append(tuple(r.arrangement) == aj.invert_permutation(truth.keys[r.frame_index]))


def sweep_frame_ms(rows) -> dict[tuple[str, str], float]:
    """Frame time of a sweep: both methods on the same (trial, frame), from ``solve_ms``."""
    per_frame: dict[tuple[str, str], float] = {}
    for row in rows:
        key = (row[0], row[1])
        per_frame[key] = per_frame.get(key, 0.0) + float(row[10])
    return per_frame


# ---------------------------------------------------------------- metrics


def finish_trace(out: Outcome, tracer: Tracer, frames: int, clamped: int) -> None:
    """Per-layer metrics of one traced pass over the inputs.

    Times are ms per attacked frame; counts are totals over the pass.
    ``solver.solve_ms`` is whole-solve time, bound included.  A layer that
    was never called reads 0 and is listed in ``out.missing``.  The tracing
    overhead is the traced span time minus the untraced wall time of the
    same passes.
    """
    times = tracer.self_times()

    def ms(layer):
        return times.get(layer, (0, 0.0))[1] * 1000.0 / frames

    nodes = [report.nodes_expanded for *_, report in tracer.solves]
    o = out.overhead
    out.traced_frames = frames
    out.missing = sorted(set(LAYERS.values()) - set(times))
    out.layers = {
        "estimator.extend_ms": (ms("estimator.extend"), "ms/frame"),
        "estimator.calls": (times.get("estimator.extend", (0, 0.0))[0], "count"),
        "estimator.clamped_sides": (clamped, "count"),
        "spectrogram.stft_ms": (ms("spectrogram.stft"), "ms/frame"),
        "spectrogram.quantize_ms": (ms("spectrogram.quantize"), "ms/frame"),
        "puzzle.distance_ms": (ms("puzzle.distance"), "ms/frame"),
        "puzzle.pairs": (sum(d.shape[0] * (d.shape[0] - 1) for _, _, d, _ in tracer.solves), "count"),
        "solver.solve_ms": (ms("solver.solve") + ms("solver.bound"), "ms/frame"),
        "solver.bound_ms": (ms("solver.bound"), "ms/frame"),
        "solver.nodes": (sum(nodes), "count"),
        "solver.nodes_max": (max(nodes, default=0), "count"),
        "solver.bound_calls": (times.get("solver.bound", (0, 0.0))[0], "count"),
        "evaluation.accuracy_ms": (ms("evaluation.accuracy"), "ms/frame"),
        "pipeline.self_ms": (ms("pipeline"), "ms/frame"),
        "scrambler.scramble_ms": (ms("scrambler.scramble"), "ms/frame"),
        "audio_io.synth_ms": (ms("audio_io.synth"), "ms/frame"),
        "trace.overhead_ms": ((o["span_s"] - o["untraced_s"]) * 1000.0 / o["frames"], "ms/frame"),
    }

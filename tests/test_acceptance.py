"""Acceptance gates for the attack toolkit.

Each test checks one headline requirement and writes a PASS or FAIL line
straight to the terminal (bypassing capture) so a full run reads as a
checklist.  The three statistical gates at the bottom run real sweeps and
take a few minutes together; their seeds are frozen, so the numbers they
print are reproducible.
"""

import csv
import itertools
import tempfile
import time
from pathlib import Path

import numpy as np

from audiojigsaw import solver
from audiojigsaw.audio_io import AudioBuffer, synthesize_speechlike
from audiojigsaw.estimator import RlsConfig
from audiojigsaw.evaluation import accuracy
from audiojigsaw.pipeline import AttackConfig, SweepSpec, attack, sweep
from audiojigsaw.scrambler import (
    ScramblerConfig,
    descramble,
    keyspace_bits,
    make_key_schedule,
    scramble,
)
from audiojigsaw.solver import solve_bnb
from audiojigsaw.spectrogram import StftConfig
from references import rls_run, solve_bruteforce, stft_magnitude, window_coverage


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_matrix(rng, n):
    d = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(d, np.inf)
    return d


def _sweep_rows(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        sweep(spec, path)
        with open(path) as handle:
            return list(csv.DictReader(handle))


def test_search_is_exact_on_200_random_instances(capsys):
    rng = np.random.Generator(np.random.PCG64(20200))
    began = time.perf_counter()
    mismatches = 0
    for i in range(200):
        n = 5 + i % 5
        d = _random_matrix(rng, n)
        exact = solve_bruteforce(d)
        found = solve_bnb(d)
        if found.order != exact.order or abs(found.cost - exact.cost) > 1e-9 * max(1.0, exact.cost):
            mismatches += 1
    elapsed = time.perf_counter() - began
    _report(
        capsys,
        "branch and bound equals exhaustive search on 200 instances, sizes 5..9",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_search_bounds_never_overshoot(capsys, monkeypatch):
    """Up to 12 pieces the order is read off the table, and the nodes it
    reports carry the optimum as their bound; with the table's cap patched
    to 0 the same instances are searched with the arborescence bound, whose
    nodes are checked too."""
    rng = np.random.Generator(np.random.PCG64(50507))
    violations = 0
    checked = 0
    for _ in range(50):
        d = _random_matrix(rng, 7)
        nodes = []
        solve_bnb(d, on_expand=lambda prefix, cost, bound: nodes.append((prefix, cost, bound)))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_TABLE_MAX_PIECES", 0)
            solve_bnb(d, on_expand=lambda prefix, cost, bound: nodes.append((prefix, cost, bound)))
        for prefix, cost, bound in nodes:
            remaining = [j for j in range(7) if j not in prefix]
            if not remaining:
                continue
            best = min(
                cost + sum(d[p[k], p[k + 1]] for k in range(len(p) - 1))
                for p in (tuple([prefix[-1]] + list(tail))
                          for tail in itertools.permutations(remaining))
            )
            checked += 1
            if bound > best + 1e-9:
                violations += 1
    _report(
        capsys,
        "every expanded node's lower bound is admissible (50 instances of 7 pieces, read and searched)",
        violations == 0 and checked > 0,
        f"{checked} nodes checked, {violations} violations",
    )


def test_order_score_closed_cases(capsys):
    ident = tuple(range(8))
    ok = (
        accuracy(ident, ident) == 1.0
        and accuracy(tuple(reversed(ident)), ident) == 8 / 120
        and accuracy(tuple(list(range(1, 8)) + [0]), ident) == 85 / 120
    )
    _report(capsys, "order score: identity 1.0, reversal 8/120, cyclic shift 85/120", ok)


def test_keyspace_bits_for_five_minute_conversation(capsys):
    expected = {6: 20, 8: 26, 10: 32, 12: 39, 14: 46}
    got = {n: keyspace_bits(5.0, 40.0, n) for n in expected}
    _report(capsys, "key enumeration bits match for sizes 6..14", got == expected, str(got))


def test_scrambler_round_trips_bit_exactly(capsys):
    rng = np.random.Generator(np.random.PCG64(808))
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        cfg = ScramblerConfig(n, float(rng.uniform(5.0, 60.0)), int(rng.choice([8000, 16000])))
        frames = int(rng.integers(1, 4))
        length = frames * cfg.frame_samples + int(rng.integers(0, cfg.frame_samples))
        buf = AudioBuffer(rng.uniform(-1, 1, size=length), cfg.sample_rate)
        ks = make_key_schedule(int(rng.integers(1 << 31)), frames, n)
        if not np.array_equal(descramble(scramble(buf, cfg, ks), cfg, ks).samples, buf.samples):
            failures += 1
    _report(capsys, "descramble inverts scramble on 100 random setups", failures == 0)


def test_border_sample_influence_counts(capsys):
    """A sample's perturbation must touch exactly as many spectrogram
    columns as there are analysis windows covering it; after padding both
    borders by window-1 samples every original sample reaches the full
    count."""
    length, win = 80, 16
    cfg = StftConfig(window_size=win, overlap=win - 1, fft_size=win)
    rng = np.random.Generator(np.random.PCG64(606))
    x = rng.standard_normal(length)
    base = stft_magnitude(x, cfg)
    bad_raw = 0
    for j in range(1, length + 1):
        bumped = x.copy()
        bumped[j - 1] += 0.731
        changed = int(np.sum(np.any(stft_magnitude(bumped, cfg) != base, axis=0)))
        if changed != window_coverage(j, length, win):
            bad_raw += 1
    flank = win - 1
    padded = np.concatenate([rng.standard_normal(flank), x, rng.standard_normal(flank)])
    base_ext = stft_magnitude(padded, cfg)
    bad_ext = 0
    for j in range(1, length + 1):
        bumped = padded.copy()
        bumped[flank + j - 1] += 0.731
        changed = int(np.sum(np.any(stft_magnitude(bumped, cfg) != base_ext, axis=0)))
        if changed != win:
            bad_ext += 1
    _report(
        capsys,
        "per-sample column influence matches the coverage count, and border "
        "padding restores the full count",
        bad_raw == 0 and bad_ext == 0,
        f"raw mismatches {bad_raw}, padded mismatches {bad_ext}",
    )


def test_true_neighbor_extension_matches_whole_signal_columns(capsys):
    """Extending a cut segment with its real neighbors must reproduce the
    spectrogram columns of the uncut signal."""
    cfg = StftConfig()
    flank = cfg.window_size - 1
    rng = np.random.Generator(np.random.PCG64(909))
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(1200)
        start = flank + cfg.hop * int(rng.integers(0, 20))
        piece = x[start - flank : start + 320 + flank]
        mag_piece = stft_magnitude(piece, cfg)
        mag_full = stft_magnitude(x, cfg)
        first_col = (start - flank) // cfg.hop
        ref = mag_full[:, first_col : first_col + mag_piece.shape[1]]
        err = np.abs(mag_piece - ref) / np.maximum(np.abs(ref), 1e-30)
        worst = max(worst, float(err.max()))
    _report(
        capsys,
        "true-neighbor extension reproduces whole-signal spectrogram columns",
        worst < 1e-9,
        f"worst relative error {worst:.2e}",
    )


def test_adaptive_predictor_converges_on_sinusoid(capsys):
    x = np.cos(2.0 * np.pi * 0.06 * np.arange(500))
    _, errors = rls_run(x, RlsConfig(order=2))
    tail_mse = float(np.mean(errors[-50:] ** 2))
    power = float(np.mean(x**2))
    _report(
        capsys,
        "predictor error on a sinusoid falls below 1e-6 of signal power "
        "within 500 samples",
        tail_mse < 1e-6 * power,
        f"terminal mse/power {tail_mse / power:.2e}",
    )


def test_single_frame_attack_is_fast(capsys):
    geom = ScramblerConfig(frame_size=8)
    plain = synthesize_speechlike(geom.frame_samples / 8000.0, seed=321)
    ks = make_key_schedule(99, 1, 8)
    cipher = scramble(plain, geom, ks)
    cfg = AttackConfig(scrambler=geom)
    attack(cipher, cfg)  # warm numpy caches
    began = time.perf_counter()
    attack(cipher, cfg)
    elapsed = time.perf_counter() - began
    _report(capsys, "one 8-piece frame attack finishes in under a second",
            elapsed < 1.0, f"{elapsed * 1000.0:.0f} ms")


def test_end_to_end_attack_beats_baseline_and_extension_helps(capsys):
    """32 ten-second synthetic utterances at default geometry, clean
    channel, attacked with and without predictive extension."""
    began = time.perf_counter()
    rows = _sweep_rows(SweepSpec(
        frame_sizes=(8,),
        segment_ms_values=(40.0,),
        noise_at="none",
        trials=32,
        seed=222,
        duration_s=10.0,
    ))
    elapsed = time.perf_counter() - began
    scores = {"puzzle+rls": [], "puzzle": []}
    for r in rows:
        scores[r["method"]].append(float(r["accuracy"]))
    mean_rls = float(np.mean(scores["puzzle+rls"]))
    mean_raw = float(np.mean(scores["puzzle"]))
    floor = 4.0 * (8.0 / 120.0)  # four times the random-arrangement score
    ok = mean_rls >= mean_raw and mean_rls > floor and mean_raw > floor and elapsed < 600.0
    _report(
        capsys,
        "32-trial attack: extension >= plain puzzle and both clear 4x the "
        "random baseline",
        ok,
        f"with extension {mean_rls:.3f}, without {mean_raw:.3f}, "
        f"floor {floor:.3f}, {elapsed:.0f}s",
    )
    soft_target = 0.6
    with capsys.disabled():
        print(
            f"REPORT: mean accuracy with extension {mean_rls:.3f} against "
            f"the soft target {soft_target:.1f} "
            f"({'met' if mean_rls >= soft_target else 'missed'})",
            flush=True,
        )


def _snr_means(rows, method):
    by_snr = {}
    for r in rows:
        if r["method"] == method:
            by_snr.setdefault(float(r["snr_db"]), []).append(float(r["accuracy"]))
    return {snr: float(np.mean(v)) for snr, v in by_snr.items()}


def test_noise_degrades_monotonically_and_placement_is_equivalent(capsys):
    snrs = (40.0, 30.0, 20.0, 15.0, 10.0)
    means = {}
    for placement in ("channel", "source"):
        rows = _sweep_rows(SweepSpec(
            frame_sizes=(8,),
            segment_ms_values=(40.0,),
            snr_dbs=snrs,
            noise_at=placement,
            trials=8,
            seed=1234,
            duration_s=10.0,
        ))
        means[placement] = _snr_means(rows, "puzzle+rls")
    ok = True
    for placement in ("channel", "source"):
        vals = [means[placement][s] for s in snrs]
        if not all(vals[i + 1] <= vals[i] + 0.02 for i in range(len(vals) - 1)):
            ok = False
    gaps = [abs(means["channel"][s] - means["source"][s]) for s in snrs]
    if max(gaps) >= 0.05:
        ok = False
    detail = (
        "channel " + "/".join(f"{means['channel'][s]:.2f}" for s in snrs)
        + ", source " + "/".join(f"{means['source'][s]:.2f}" for s in snrs)
        + f", max gap {max(gaps):.3f}"
    )
    _report(
        capsys,
        "accuracy falls with SNR (40..10 dB) and pre/post-scrambling noise "
        "behave alike",
        ok,
        detail,
    )


def test_larger_frames_are_harder(capsys):
    sizes = (6, 8, 12, 16)
    rows = _sweep_rows(SweepSpec(
        frame_sizes=sizes,
        segment_ms_values=(40.0,),
        noise_at="none",
        trials=6,
        seed=777,
        duration_s=10.0,
    ))
    by_n = {}
    for r in rows:
        if r["method"] == "puzzle+rls":
            by_n.setdefault(int(r["N"]), []).append(float(r["accuracy"]))
    vals = [float(np.mean(by_n[n])) for n in sizes]
    ok = all(vals[i + 1] <= vals[i] + 0.02 for i in range(len(vals) - 1))
    _report(
        capsys,
        "mean accuracy does not rise with frame size over 6/8/12/16",
        ok,
        "/".join(f"{v:.3f}" for v in vals),
    )

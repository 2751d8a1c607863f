"""Benchmark of the audiojigsaw key-recovery attack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plain8 --seed 1 --seconds 50 --trace 0

It builds seeded inputs, attacks them through the package's public API,
checks every output, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` (frames) and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json; with
``--trace 1`` a traced run gives the per-layer ones instead.  The line
before it is a JSON report: environment, behaviour fingerprint, sample
counts, tracing overhead and any failures.  Workloads are described in
``workloads.py`` and ``README.md``.
"""

import os

# Pin BLAS threading before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(out) -> dict:
    import numpy as np

    p50, p90 = np.percentile(out.all_frame_ms(), [50, 90])
    return {
        "throughput_xrt": (statistics.median(out.pass_xrt), "s/s"),
        "frame_ms_p50": (float(p50), "ms"),
        "frame_ms_p90": (float(p90), "ms"),
        "accuracy_mean": (statistics.fmean(out.accuracies), "ratio"),
        "key_exact_frac": (statistics.fmean(out.exact), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (out.setup_s, "s"),
    }


def layer_table(out) -> str:
    """Per-frame layer times in the units of the ROADMAP baseline table."""
    m = {k: v for k, (v, _) in out.layers.items()}
    lines = [
        "layer times, ms per attacked frame:",
        f"  extension        {m['estimator.extend_ms']:9.2f}",
        f"  STFT             {m['spectrogram.stft_ms']:9.2f}",
        f"  quantization     {m['spectrogram.quantize_ms']:9.2f}",
        f"  distance matrix  {m['puzzle.distance_ms']:9.2f}",
        f"  solve            {m['solver.solve_ms']:9.2f}   mean nodes {m['solver.nodes'] / out.traced_frames:.1f}",
        f"  tracing overhead {m['trace.overhead_ms']:9.2f}",
    ]
    if out.missing:
        lines.append(f"  never called: {', '.join(out.missing)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "audiojigsaw" / "__init__.py").is_file():
        print(f"no audiojigsaw sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    began = time.perf_counter()
    import workloads  # imports the package; timed separately as part of setup_s

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    clamps = workloads.install_clamp_counter()
    trace = bool(args.trace)
    if isinstance(w, workloads.Stream):
        out = workloads.run_stream(w, args.seed, args.seconds, SRC, trace, clamps)
    else:
        out = workloads.run_batch(w, args.seed, args.seconds, ROOT, SRC, trace, clamps)

    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "fingerprint": out.fingerprint(),
        "accuracy_mean": statistics.fmean(out.accuracies) if out.accuracies else None,
        "input_digest": out.input_digest,
        "passes": out.passes,
        "frames": len(out.frame_ms),
        "frame_samples": sum(len(v) for v in out.frame_ms.values()),
        "min_repeats": out.min_repeats(),
        "frame_fail_frac": out.failed / max(1, out.attempted),
        "clamped_sides": clamps.count,
        "wall_s": time.perf_counter() - began,
        "failures": out.failures[:20],
    }
    if trace:
        report.update(overhead=out.overhead, missing_layers=out.missing)
        print(layer_table(out), file=sys.stderr)
        metrics, wanted = out.layers, spec["per_layer"]
    else:
        metrics, wanted = end_to_end(out), spec["end_to_end"]

    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        print(f"metrics {got} do not match BENCHMARK.json {expected}", file=sys.stderr)
        return 3
    correct = out.failed == 0 and not out.failures and out.attempted > 0
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

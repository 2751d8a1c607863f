"""The benchmark's recovered orders are pinned.

``perfbench/run.py`` prints a fingerprint of every order it recovers.  A
change that moves one of them, on either workload, fails here instead of
only in a benchmark run.  Traced runs (``--trace 1``) also call the
tracer's wrappers and check every captured solve for exactness, so both
workloads run traced here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload, fingerprint", [("plain8", "8f4e808311b4e545"), ("sweep8", "7a3593e3d10c88dc")])
def test_benchmark_recovers_the_pinned_orders(workload, fingerprint):
    _assert_pinned_run(workload, fingerprint)


# A traced sweep8 run attacks only its first sweep, so its fingerprint differs.
@pytest.mark.parametrize("workload, fingerprint", [("plain8", "8f4e808311b4e545"), ("sweep8", "36cb97bcec14e5ce")])
def test_traced_benchmark_recovers_the_pinned_orders_with_exact_solves(workload, fingerprint):
    _assert_pinned_run(workload, fingerprint, "--trace", "1")


def _assert_pinned_run(workload, fingerprint, *flags):
    done = subprocess.run(
        [sys.executable, str(RUN_PATH), "--workload", workload, "--seed", "4242", "--seconds", "0.1", *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.splitlines()
    assert json.loads(report)["fingerprint"] == fingerprint
    result = json.loads(result)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

"""Smoke test: every demo script runs to completion on small arguments.

All demos run in one child interpreter, each as ``__main__`` with its own
``sys.argv``, so the test pays for importing numpy only once.  scipy is
made unimportable in that interpreter first, so the demos and the CLI
module prove that the package runs on numpy alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> (arguments, a line its output must contain); "{tmp}" is a scratch dir
DEMOS = {
    "break_one_frame.py": (["--frame-size", "6"], "order score"),
    "extend_one_segment.py": ([], "future side: forecast error"),
    "full_attack.py": (["--seconds", "1", "--out", "{tmp}/full"], "puzzle+rls  mean accuracy"),
    "noise_sweep.py": (
        ["--trials", "1", "--seconds", "0.7", "--snr-db", "20", "--csv", "{tmp}/rows.csv"],
        "rows in",
    ),
    "piece_gallery.py": (["--out", "{tmp}/pieces"], "extended pieces 128 x 43 pixels"),
    "scramble_round_trip.py": (
        ["--seconds", "1", "--out", "{tmp}/round_trip"],
        "descramble(scramble(x)) == x: True",
    ),
}

# Blocks scipy, imports the CLI module, runs each script as __main__ and
# prints {script: [failed, stdout, traceback]}.
_DRIVER = """
import sys
sys.modules["scipy"] = None
import contextlib, io, json, runpy, traceback
import audiojigsaw.cli
results = {}
for script, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    sys.argv = [script] + argv
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(script, run_name="__main__")
        results[script] = [False, out.getvalue(), ""]
    except BaseException:
        results[script] = [True, out.getvalue(), traceback.format_exc()]
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("demos")
    jobs = {
        str(ROOT / "demos" / script): [a.format(tmp=tmp) for a in args]
        for script, (args, _) in DEMOS.items()
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(jobs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    return {Path(path).name: result for path, result in results.items()}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script, demo_runs):
    failed, out, error = demo_runs[script]
    assert not failed, error
    assert DEMOS[script][1] in out

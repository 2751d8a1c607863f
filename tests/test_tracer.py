"""The benchmark's tracer still finds every package name it wraps.

``perfbench/tracer.py`` rebinds functions of the package by name.  A
refactor that drops or renames one of them would otherwise only show up
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    targets = [(module, name) for module, names in tracer_module._TARGETS for name in names]
    originals = [getattr(module, name) for module, name in targets]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(targets, originals):
            assert getattr(module, name) is not original, f"{module.__name__}.{name} not wrapped"
    finally:
        tracer.uninstall()
    for (module, name), original in zip(targets, originals):
        assert getattr(module, name) is original, f"{module.__name__}.{name} not restored"

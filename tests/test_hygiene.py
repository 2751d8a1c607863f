"""Source hygiene checks, run with the tests since the project has no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "audiojigsaw"

# Imported names that a module keeps without using them, with the reason.
KEPT_IMPORTS = {
    # perfbench's tracer wraps pipeline.extend_segment by this name.
    ("pipeline", "extend_segment"),
}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_modules_use_every_name_they_import(module):
    unused = _unused_imports((PACKAGE / f"{module}.py").read_text())
    assert [name for name in unused if (module, name) not in KEPT_IMPORTS] == []


def test_unused_import_check_sees_dangling_names():
    source = "import os\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n"
    assert _unused_imports(source) == ["inf", "os"]

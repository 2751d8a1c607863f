"""Source hygiene checks, run with the tests since the project has no linter."""

import ast
from pathlib import Path

import pytest

import audiojigsaw

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "audiojigsaw"


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
    assert _unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_unused_import_check_sees_dangling_names():
    source = "import os\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n"
    assert _unused_imports(source) == ["inf", "os"]


def test_all_lists_exactly_the_public_names_init_imports():
    """A name deleted from a module cannot linger in ``__all__`` or in the imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(set(audiojigsaw.__all__)) == len(audiojigsaw.__all__)
    assert set(audiojigsaw.__all__) == set(imported)
    for name in audiojigsaw.__all__:
        assert getattr(audiojigsaw, name) is not None

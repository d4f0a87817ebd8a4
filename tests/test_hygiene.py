"""Source hygiene of the package: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "helmlayer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never read anywhere in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert _unused_imports(source) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []

"""Source hygiene of the package: no module imports a name it never uses, and
only the sparse layer imports scipy, when it first builds or factors a system
(`solve_w1` and the reference solve; a c1 estimate on a cell whose Green's
table fits `_GreenTable.MAX_ENTRIES` never does)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "helmlayer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
SCIPY_MODULES = ("assemble.py", "solver.py")


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


def _scipy_imports(source: str) -> list[tuple[int, str]]:
    """(line, scope) of every import that names scipy, by name or as a module string.

    scope is "function" inside a function body, "TYPE_CHECKING" under a
    module-level `if TYPE_CHECKING:`, and "module" anywhere else.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if re.fullmatch(r"[\w.]+", node.value) else []
        else:
            names = []
        if any(name.partition(".")[0] == "scipy" for name in names):
            found.append((node.lineno, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = "function"
        for child in ast.iter_child_nodes(node):
            guarded = (scope == "module" and isinstance(node, ast.If) and child in node.body
                       and ast.unparse(node.test) == "TYPE_CHECKING")
            visit(child, "TYPE_CHECKING" if guarded else scope)

    visit(ast.parse(source), "module")
    return found


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert _unused_imports(source) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_scipy_import_scopes_are_found():
    source = ("import scipy\nfrom typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
              "    import scipy.sparse as sp\nelse:\n    from scipy import linalg\n"
              "def f():\n    import scipy.sparse.linalg as spla\n"
              "    return importlib.import_module('scipy.sparse')\n")
    assert _scipy_imports(source) == [(1, "module"), (4, "TYPE_CHECKING"), (6, "module"),
                                      (8, "function"), (9, "function")]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_by_the_sparse_layer_and_only_on_use(module):
    found = _scipy_imports(module.read_text(encoding="utf-8"))
    if module.name in SCIPY_MODULES:
        assert [(line, scope) for line, scope in found if scope == "module"] == []
    else:
        assert found == []


_GEOMETRY_THEN_SOLVE = """
import sys

from helmlayer import (CorrectorConfig, ExperimentConfig, LayerSpec, PointProcessParams,
                       check_hypotheses, estimate_c1, sample_matern, solve_w1)
from helmlayer.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


layer, process = LayerSpec(h=5.0, delta=0.05, width=12.0), PointProcessParams(rho=0.3)
realization = sample_matern(process, layer, seed=1)
check_hypotheses(process, layer, n_samples=2, m=5.0)
ExperimentConfig.from_dict({})
cfg = CorrectorConfig(layer=layer, process=process)
assert main(["--out", sys.argv[1], "sample"]) == 0
assert scipy_modules() == [], scipy_modules()
# the c1 estimate, the capacitance-matrix path, needs numpy only, on every
# realization of a table cell: at width 100 too, whose rings hold 700 nodes or more
assert estimate_c1(cfg, 3, master_seed=1).n_failures == 0
wide = CorrectorConfig(layer=LayerSpec(h=5.0, delta=0.05, width=100.0),
                       process=PointProcessParams(rho=0.4))
assert estimate_c1(wide, 2, master_seed=1).n_solve_w1 == 0
assert scipy_modules() == [], scipy_modules()
solve_w1(cfg, realization)
assert "scipy.sparse.linalg" in sys.modules
"""


def test_geometry_config_and_sample_paths_leave_scipy_unloaded(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _GEOMETRY_THEN_SOLVE, str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "particles.csv").is_file()

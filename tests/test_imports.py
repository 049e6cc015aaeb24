"""Every name a module of the package imports is used in that module, and
importing the CLI does not load numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "afkit"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import in the module -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, including inside string
    annotations such as ``"Formula"``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_cli_import_leaves_numpy_out():
    """numpy is imported only by the functions that build arrays, so verbs
    such as `af classify`, `af check` and `af atm verify` never load it."""
    code = "import sys, afkit.cli; print('numpy' in sys.modules)"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"

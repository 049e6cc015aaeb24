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


def test_check_and_atm_verify_leave_numpy_out(tmp_path):
    """`af check` on a small structure (with a predicate for
    `complete_signature` to add) and `af atm verify`, run in one process,
    load no numpy."""
    formula = tmp_path / "f.af"
    formula.write_text("forall x1 (p(x1) -> (q(x1) | r(x1)))\n")
    structure = tmp_path / "s.json"
    structure.write_text(
        '{"domain": ["a", "b"], "predicates": {"p/1": [["a"]], "q/1": [["a"]]}}')
    machine = SRC.parent.parent / "tests" / "data" / "hop.atm"
    code = ("import sys, afkit.cli as C\n"
            f"assert C.run(['check', {str(formula)!r}, {str(structure)!r}]) == 0\n"
            f"assert C.run(['atm', 'verify', {str(machine)!r}, '1']) == 0\n"
            "print('numpy' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    lines = out.stdout.splitlines()
    assert lines[0] == "true" and '"pass": true' in out.stdout
    assert lines[-1] == "False"

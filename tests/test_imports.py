"""Every name a module imports must be used in that module.

Package re-exports in __init__.py, names listed in __all__ and __future__
imports are exempt.  Every name a module lists in __all__ must exist there
and be re-exported by the package.  Importing the command-line module loads
none of the standard library's slow-to-import modules listed below.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import qforge

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qforge"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = {
        path.name: found
        for path in modules
        if (found := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_all_names_are_defined_and_reexported():
    stale = {}
    for name in ("formulas", "oracle"):
        module = importlib.import_module(f"qforge.{name}")
        assert module.__all__
        missing = [
            entry
            for entry in module.__all__
            if not hasattr(module, entry)
            or getattr(qforge, entry, None) is not getattr(module, entry)
        ]
        if missing:
            stale[name] = missing
    assert stale == {}


# dataclasses, the inspect it pulls in, and pathlib: about half of a fresh
# import of qforge.cli before the package stopped using them
SLOW_IMPORTS = ("dataclasses", "inspect", "pathlib")

FOOTPRINT_PROBE = (
    "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]);"
    " import qforge.cli; print(*sorted(set(sys.modules) - before))"
)


def test_cli_import_loads_no_slow_module():
    # an isolated interpreter without site, so no .pth file has loaded
    # pathlib before the probe records what is there
    probe = subprocess.run(
        [sys.executable, "-I", "-S", "-c", FOOTPRINT_PROBE, str(SOURCE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(probe.stdout.split())
    assert "qforge.cli" in loaded
    assert sorted(loaded.intersection(SLOW_IMPORTS)) == []

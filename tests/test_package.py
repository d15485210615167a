"""The package exports exactly what the README documents."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import macgain

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_public_surface_is_documented():
    undocumented = [n for n in macgain.__all__ if not re.search(rf"\b{n}\b", README)]
    assert undocumented == []
    for name in macgain.__all__:
        getattr(macgain, name)


def test_cli_import_leaves_numpy_unloaded():
    # Only `verify` needs numpy; every other command must start without it.
    code = "import sys, macgain.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], timeout=60)
    assert result.returncode == 0


def test_traced_names_resolve():
    # The benchmark's tracer looks these functions up by name; a dropped or
    # renamed one would only surface when the benchmark runs.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.COUNTED + tracing.SPANNED
    assert names
    for name in names:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"macgain.{module_name}")
        assert callable(getattr(module, attr, None)), name


def _bound_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [
        getattr(stmt, "target", None)
    ]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _names_used_in_src() -> set[str]:
    """Names read by src/ code outside the top-level statement defining them.

    Imports and comments do not count; a read as a bare name or as an
    attribute (solvers.MAX_ITER) does.
    """
    used = set()
    for path in (ROOT / "src" / "macgain").glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            bound = _bound_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name not in bound:
                    used.add(name)
    return used


def test_exported_names_are_used_or_documented():
    # Code that no src/ path calls is deleted, not kept for its own tests;
    # a name the README documents is public API and may stand alone.
    used = _names_used_in_src()
    for module_name in ("core", "solvers", "verify"):
        module = importlib.import_module(f"macgain.{module_name}")
        orphans = [
            name for name in module.__all__
            if name not in used and not re.search(rf"\b{name}\b", README)
        ]
        assert orphans == [], module_name

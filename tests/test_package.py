"""The package exports exactly what the README documents."""

from __future__ import annotations

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import macgain

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.COUNTED + tracing.SPANNED
    assert names
    for name in names:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"macgain.{module_name}")
        assert callable(getattr(module, attr, None)), name

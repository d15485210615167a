"""The package exports exactly what the README documents."""

from __future__ import annotations

import re
from pathlib import Path

import macgain

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_public_surface_is_documented():
    undocumented = [n for n in macgain.__all__ if not re.search(rf"\b{n}\b", README)]
    assert undocumented == []
    for name in macgain.__all__:
        getattr(macgain, name)

"""Every vfea name that README.md and docs/*.md quote in code resolves."""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
MODULES = {p.stem for p in (ROOT / "src" / "vfea").glob("*.py") if p.stem != "__init__"}
# a backticked dotted name, such as `solver.ANALYSES` or `synthesis.DebugContext.line`
_QUOTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def quoted_names() -> list[tuple[str, str]]:
    """(document, name) for each dotted name in code whose first part is a
    vfea module, file names (``sandbox.py``, ``simscript.md``) left out."""
    return [(doc.name, name) for doc in DOCS
            for name in _QUOTED.findall(doc.read_text(encoding="utf-8"))
            if name.split(".")[0] in MODULES and not name.endswith((".md", ".py"))]


def resolves(name: str) -> bool:
    """Whether each part after the module is an attribute of the one before,
    or the last part a field of a dataclass or NamedTuple."""
    first, *parts = name.split(".")
    value = importlib.import_module(f"vfea.{first}")
    for k, part in enumerate(parts):
        if hasattr(value, part):
            value = getattr(value, part)
            continue
        fields = ({f.name for f in dataclasses.fields(value)} if dataclasses.is_dataclass(value)
                  else set(getattr(value, "_fields", ())))
        return k == len(parts) - 1 and part in fields
    return True


def test_every_quoted_name_resolves():
    names = quoted_names()
    assert len({name for _, name in names}) >= 25  # the pattern finds the names
    assert [(doc, name) for doc, name in names if not resolves(name)] == []


def test_a_stale_name_does_not_resolve():
    assert resolves("synthesis.DebugContext.line") and resolves("failures.Failure.lesson")
    assert resolves("solver.ANALYSES")
    for stale in ("solver.DEFAULT_MODAL_SUBDIVISIONS", "synthesis.DebugContext.nope",
                  "synthesis.DebugContext.line.real"):
        assert not resolves(stale)

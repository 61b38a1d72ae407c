"""Persistent experience replay: structural signatures, error classification,
and retrieval of the newest records of a comparable structure.

The store is an append-only line-delimited file, one record per line, which
makes appends crash-safe and keeps insertion order as the recency order.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .failures import FAILURES
from .ir import (IRModel, _Defect, _Field, _array, _float, _int, _nullable,
                 _read_json, _record, _text)

DENSITY_RATIO_INTERVAL = (0.5, 2.0)

# most severe first: a batch of preflight violations takes the first category
# any of its kinds maps to
ERROR_CATEGORIES = ("type_iii_unsafe_state", "type_ii_hallucination",
                    "type_i_lifecycle", "other")

_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*")


class MemoryPersistError(Exception):
    stage, kind = "load", "memory"


@dataclass(frozen=True)
class StructuralSignature:
    n_nodes: int
    n_elements: int
    section_kinds: frozenset[str]
    n_loads: int
    n_bcs: int

    @property
    def density(self) -> float:
        return self.n_nodes / max(self.n_elements, 1)


@dataclass(frozen=True)
class ErrorSignature:
    category: str
    tokens: frozenset[str]
    line: int | None = None


@dataclass(frozen=True)
class ExperienceRecord:
    signature: StructuralSignature
    error: ErrorSignature | None
    lesson: str
    script_excerpt: str
    outcome: str  # failure | success
    created_at: float

    def __post_init__(self):
        if self.outcome == "failure" and self.error is None:
            raise ValueError("failure records must carry an error signature")
        if self.outcome == "success" and not self.script_excerpt:
            raise ValueError("success records must carry a script excerpt")
        if self.outcome not in ("failure", "success"):
            raise ValueError(f"unknown outcome {self.outcome!r}")


def compute_signature(model: IRModel) -> StructuralSignature:
    return StructuralSignature(
        n_nodes=len(model.nodes),
        n_elements=len(model.elements),
        section_kinds=frozenset(e.kind for e in model.elements),
        n_loads=len(model.loads),
        n_bcs=len(model.boundary_conditions),
    )


def classify_error(kind: str | Iterable[str], text: str, line: int | None) -> ErrorSignature:
    """Error signature of a failure: the category comes from the attempt row
    of ``failures.FAILURES`` of the failure kind (the most severe one for
    several kinds), the tokens from the message, the line from its first fault."""
    kinds = (kind,) if isinstance(kind, str) else kind
    category = min((FAILURES["attempt", k].category for k in kinds),
                   key=ERROR_CATEGORIES.index)
    return ErrorSignature(category=category,
                          tokens=frozenset(_TOKEN_RE.findall(text.lower())), line=line)


def _record_to_line(rec: ExperienceRecord) -> str:
    return json.dumps(_line_doc(rec), separators=(",", ":"))


def _line_doc(value):
    """The document form of a buffer line's value: a record's fields in
    ``_LINE`` order, None ones as null, and a set of names sorted."""
    fields = _LINE.get(type(value))
    if fields is not None:
        return {f.key: _line_doc(getattr(value, f.attr)) for f in fields}
    return sorted(value) if isinstance(value, frozenset) else value


def _number(value):
    """A JSON number as it is written, so an int stays an int."""
    return value if type(value) is int else _float(value)


_names = _array(_text)

# The fields of one buffer line (docs/memory-format.md), all required; a
# null error or line is written as null.
_LINE: dict[type, tuple[_Field, ...]] = {
    StructuralSignature: (_Field("n_nodes", "n_nodes", _int),
                          _Field("n_elements", "n_elements", _int),
                          _Field("section_kinds", "section_kinds",
                                 lambda v: frozenset(_names(v))),
                          _Field("n_loads", "n_loads", _int), _Field("n_bcs", "n_bcs", _int)),
    ErrorSignature: (_Field("category", "category", _text),
                     _Field("tokens", "tokens", lambda v: frozenset(_names(v))),
                     _Field("line", "line", _nullable(_int))),
}
_LINE[ExperienceRecord] = (
    _Field("signature", "signature", _record(_LINE, StructuralSignature)),
    _Field("error", "error", _nullable(_record(_LINE, ErrorSignature))),
    _Field("lesson", "lesson", _text), _Field("script_excerpt", "script_excerpt", _text),
    _Field("outcome", "outcome", _text), _Field("created_at", "created_at", _number))
_read_record = _record(_LINE, ExperienceRecord)


class ExperienceBuffer:
    """Replay buffer with optional file persistence.

    Appends are serialized through one lock; readers see a consistent
    prefix because records are only ever appended. Lines that do not decode
    to a record (a write torn by a crash) are skipped on load and counted in
    ``skipped_lines``, and so are lines with a missing, unknown or mistyped field.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._records: list[ExperienceRecord] = []
        self.skipped_lines = 0
        # a torn last line has no newline; the next append must not extend it
        self._torn_tail = False
        if self.path is not None and self.path.exists():
            try:
                text = self.path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                raise MemoryPersistError(f"cannot read buffer {self.path}: {exc}") from None
            self._torn_tail = bool(text) and not text.endswith("\n")
            for line in text.split("\n"):  # U+2028 and the like may stand in JSON strings
                if not line.strip():
                    continue
                try:
                    self._records.append(_read_json(_read_record, line))
                except (_Defect, ValueError):  # ValueError: a record invariant
                    self.skipped_lines += 1

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[ExperienceRecord, ...]:
        return tuple(self._records)

    def record(self, rec: ExperienceRecord) -> None:
        with self._lock:
            if self.path is not None:
                try:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    with open(self.path, "a", encoding="utf-8") as fh:
                        fh.write(("\n" if self._torn_tail else "") + _record_to_line(rec) + "\n")
                        fh.flush()
                    self._torn_tail = False
                except OSError as exc:
                    raise MemoryPersistError(f"cannot append to {self.path}: {exc}") from None
            self._records.append(rec)

    def retrieve(self, query_sig: StructuralSignature, k: int) -> list[ExperienceRecord]:
        """The k newest records whose structural density is commensurate
        with the query, newest first.

        The density-ratio filter keeps candidates inside [0.5, 2.0], which is
        closed under reciprocals, so filtering is symmetric between query and
        candidate. The scan starts at the newest record and stops at the k-th
        match.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        lo, hi = DENSITY_RATIO_INTERVAL
        qd = query_sig.density
        return list(itertools.islice(
            (rec for rec in reversed(self._records)
             if lo <= (rec.signature.density / qd if qd > 0 else float("inf")) <= hi), k))

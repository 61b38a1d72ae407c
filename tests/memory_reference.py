"""Reference copy of the error-ranked ``ExperienceBuffer.retrieve`` that
newest-first retrieval replaced: every record inside the density filter
scored by token Jaccard similarity and category match against an error
signature, then sorted. The retrieval property in test_memory.py checks
the buffer against it with no error signature, the only query synthesis
makes.
"""

from __future__ import annotations

from vfea.memory import (DENSITY_RATIO_INTERVAL, ErrorSignature, ExperienceRecord,
                         StructuralSignature)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def retrieve(records: list[ExperienceRecord], query_sig: StructuralSignature,
             query_err: ErrorSignature | None, k: int) -> list[ExperienceRecord]:
    """Top-k records whose structural density is commensurate with the query.

    Ranking: token Jaccard desc, category match desc, recency.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lo, hi = DENSITY_RATIO_INTERVAL
    qd = query_sig.density
    qtokens = query_err.tokens if query_err is not None else frozenset()
    qcat = query_err.category if query_err is not None else None
    scored = []
    for idx, rec in enumerate(records):
        ratio = rec.signature.density / qd if qd > 0 else float("inf")
        if not (lo <= ratio <= hi):
            continue
        rtokens = rec.error.tokens if rec.error is not None else frozenset()
        sim = jaccard(qtokens, rtokens)
        cat_match = 1 if (qcat is not None and rec.error is not None
                          and rec.error.category == qcat) else 0
        scored.append(((-sim, -cat_match, -idx), rec))
    scored.sort(key=lambda item: item[0])
    return [rec for _, rec in scored[:k]]

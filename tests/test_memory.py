"""Replay buffer: signatures, taxonomy classification, retrieval, persistence."""

from __future__ import annotations

import json
import time

import memory_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfea.failures import FAILURES
from vfea.memory import (DENSITY_RATIO_INTERVAL, ERROR_CATEGORIES,
                         ErrorSignature, ExperienceBuffer,
                         ExperienceRecord,
                         StructuralSignature, classify_error,
                         compute_signature)


def sig(n_nodes: int, n_elements: int) -> StructuralSignature:
    return StructuralSignature(n_nodes=n_nodes, n_elements=n_elements,
                               section_kinds=frozenset({"truss_bar"}),
                               n_loads=1, n_bcs=2)


def failure(signature: StructuralSignature, tokens: set[str],
            category: str = "other", lesson: str = "lesson",
            created_at: float = 0.0) -> ExperienceRecord:
    return ExperienceRecord(signature=signature,
                            error=ErrorSignature(category, frozenset(tokens)),
                            lesson=lesson, script_excerpt="model begin",
                            outcome="failure", created_at=created_at)


class TestSignature:
    def test_counts(self, truss):
        s = compute_signature(truss)
        assert (s.n_nodes, s.n_elements, s.n_loads, s.n_bcs) == (3, 2, 1, 2)
        assert s.section_kinds == frozenset({"truss_bar"})

    def test_no_loads(self):
        from conftest import modal_cantilever
        assert compute_signature(modal_cantilever()).n_loads == 0

    def test_mixed_kinds(self, truss, cantilever):
        from dataclasses import replace
        mixed = replace(truss, elements=truss.elements + (
            cantilever.elements[0].__class__(9, "frame_beam", (1, 2), 1),))
        assert compute_signature(mixed).section_kinds == frozenset(
            {"truss_bar", "frame_beam"})


# every failure kind's category and lesson, pinned
FAILURE_TABLE = {
    "parse": ("type_ii_hallucination", "use only statements documented for the "
              "simulation language; unknown statements fail to parse"),
    "lifecycle": ("type_i_lifecycle", "every script must contain an analyze execution "
                  "trigger, a write_results statement and an end termination signal"),
    "safety": ("type_iii_unsafe_state", "never delete the protected root model container"),
    "kernel-protection": ("type_iii_unsafe_state",
                          "never delete the protected root model container"),
    "isolation": ("other", "write all artifacts to paths inside the allocated task workspace"),
    "state": ("other", "declare the full model before analysis and write results only "
              "after a completed analysis"),
    "model": ("other", "declare the full model before analysis and write results only "
              "after a completed analysis"),
    "solver": ("other", "ensure the model is fully restrained and well posed before analysis"),
    "sandbox": ("other", "review the execution log and correct the failing statement"),
    "budget": ("other", "review the execution log and correct the failing statement"),
    "unverified": ("other", "review the execution log and correct the failing statement"),
}


class TestClassify:
    def test_lifecycle(self):
        s = classify_error("lifecycle", "no execution trigger: analyze statement absent",
                           None)
        assert s.category == "type_i_lifecycle"

    def test_hallucination_with_line(self):
        # the line is the one the fault blames, never one the message quotes
        s = classify_error("parse", "unknown statement 'mesh_edges' at line 12", 3)
        assert s.category == "type_ii_hallucination"
        assert s.line == 3
        assert "mesh_edges" in s.tokens
        assert classify_error("parse", "unknown statement 'mesh_edges' at line 12", None).line \
            is None

    def test_unsafe_state(self):
        s = classify_error("kernel-protection",
                           "kernel protection: deletion of protected root container", 2)
        assert s.category == "type_iii_unsafe_state"

    def test_other(self):
        assert classify_error("solver", "numerical overflow in step 3", 5).category == "other"

    def test_tokens_lowercase_deduplicated(self):
        s = classify_error("budget", "Missing MISSING missing trigger", None)
        assert s.tokens == frozenset({"missing", "trigger"})

    def test_category_ignores_message_text(self):
        # an isolation message quoting a marker-laden path stays "other"
        s = classify_error("isolation", "artifact path escapes workspace: ../protected root",
                           4)
        assert s.category == "other"
        assert classify_error("parse", "line 3: expected an integer", 3).category == \
            "type_ii_hallucination"

    def test_batch_takes_most_severe_kind(self):
        assert classify_error(["isolation", "lifecycle"], "", None).category == "type_i_lifecycle"
        assert classify_error(["lifecycle", "safety", "isolation"], "", None).category == \
            "type_iii_unsafe_state"
        assert classify_error(["isolation"], "", None).category == "other"

    @pytest.mark.parametrize("kind", sorted(FAILURE_TABLE))
    def test_failure_table_pinned(self, kind):
        category, lesson = FAILURE_TABLE[kind]
        assert FAILURES["attempt", kind][1:3] == (category, lesson)
        assert classify_error(kind, "any message", None).category == category

    def test_every_failure_has_a_kind_of_the_table(self):
        # a budget abort and an unverified run have kinds of their own, so
        # no failure is without a row
        assert {kind for stage, kind in FAILURES if stage == "attempt"} == set(FAILURE_TABLE)
        for kinds in ("no-such-kind", [None]):
            with pytest.raises(KeyError):
                classify_error(kinds, "unknown statement", 1)
        with pytest.raises(ValueError):
            classify_error([], "", None)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["parse", "safety", "budget", "unverified"]),
           st.text(min_size=1, max_size=120))
    def test_total_over_arbitrary_text(self, kind, text):
        assert classify_error(kind, text, None).category in ERROR_CATEGORIES


class TestRetrieve:
    def test_empty_buffer(self):
        buf = ExperienceBuffer()
        assert buf.retrieve(sig(3, 2), k=5) == []

    def test_density_filter_excludes_ratio_3(self):
        buf = ExperienceBuffer()
        buf.record(failure(sig(9, 2), {"x"}))   # density 4.5 against query 1.5
        assert buf.retrieve(sig(3, 2), 5) == []

    def test_density_filter_boundaries_inclusive(self):
        buf = ExperienceBuffer()
        buf.record(failure(sig(2, 2), {"a"}))    # density 1.0
        buf.record(failure(sig(4, 2), {"b"}))    # density 2.0
        buf.record(failure(sig(1, 2), {"c"}))    # density 0.5
        buf.record(failure(sig(5, 2), {"d"}))    # density 2.5: out
        buf.record(failure(sig(2, 5), {"e"}))    # density 0.4: out
        got = buf.retrieve(sig(2, 2), 10)
        tokens = {next(iter(r.error.tokens)) for r in got}
        assert tokens == {"a", "b", "c"}

    def test_newest_first(self):
        buf = ExperienceBuffer()
        buf.record(failure(sig(3, 2), {"a"}, lesson="older"))
        buf.record(failure(sig(3, 2), {"a"}, lesson="newer"))
        got = buf.retrieve(sig(3, 2), 2)
        assert [r.lesson for r in got] == ["newer", "older"]

    def test_never_more_than_k(self):
        buf = ExperienceBuffer()
        for i in range(10):
            buf.record(failure(sig(3, 2), {f"t{i}"}))
        assert len(buf.retrieve(sig(3, 2), 4)) == 4

    def test_filter_symmetry(self):
        lo, hi = DENSITY_RATIO_INTERVAL
        assert lo == pytest.approx(1 / hi)  # reciprocal-closed interval
        for a, b in [(sig(3, 2), sig(2, 2)), (sig(4, 2), sig(2, 2)), (sig(9, 2), sig(2, 2))]:
            fwd = lo <= (a.density / b.density) <= hi
            rev = lo <= (b.density / a.density) <= hi
            assert fwd == rev

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, k):
        buf = ExperienceBuffer()
        buf.record(failure(sig(3, 2), {"a"}))
        with pytest.raises(ValueError, match="k must be >= 1"):
            buf.retrieve(sig(3, 2), k)


@st.composite
def _retrieval_cases(draw):
    """A query signature (zero nodes or elements now and then), a buffer of
    success and failure records, many of them at or one step beyond a
    density bound of the query or repeating one signature, and a k from 1
    to two past the buffer's length."""
    qn, qe = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    # ratio 1, exactly 0.5 and 2.0 (a factor of 2 rounds exactly), and just past each
    near = [(qn, qe), (qn, 2 * qe), (2 * qn, qe), (qn, 2 * qe + 1), (2 * qn + 1, qe),
            (qn, max(2 * qe - 1, 0)), (max(2 * qn - 1, 0), qe), (0, qe)]
    sigs = st.one_of(st.sampled_from(near), st.tuples(st.integers(0, 20), st.integers(0, 20)))
    records = []
    for i in range(draw(st.integers(0, 24))):
        n, e = draw(sigs)
        signature = StructuralSignature(n, e, frozenset({"truss_bar"}), 1, 2)
        if draw(st.booleans()):
            records.append(ExperienceRecord(signature, None, "verified script", "model begin",
                                            "success", float(i)))
        else:
            records.append(failure(signature, draw(st.sets(st.sampled_from("abc"))),
                                   draw(st.sampled_from(ERROR_CATEGORIES)), created_at=float(i)))
    return sig(qn, qe), records, draw(st.integers(1, len(records) + 2))


@settings(max_examples=600, deadline=None)
@given(_retrieval_cases())
def test_newest_first_retrieval_equals_the_error_ranked_reference(case):
    """The same record objects, in the same order, as the ranking with no
    error signature."""
    query, records, k = case
    buf = ExperienceBuffer()
    for rec in records:
        buf.record(rec)
    got, expected = buf.retrieve(query, k), reference.retrieve(records, query, None, k)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


class TestRecords:
    def test_failure_without_error_rejected(self):
        with pytest.raises(ValueError):
            ExperienceRecord(signature=sig(3, 2), error=None, lesson="x",
                             script_excerpt="y", outcome="failure", created_at=0.0)

    def test_success_without_excerpt_rejected(self):
        with pytest.raises(ValueError):
            ExperienceRecord(signature=sig(3, 2), error=None, lesson="x",
                             script_excerpt="", outcome="success", created_at=0.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mem.jsonl"
        buf = ExperienceBuffer(path)
        rec = failure(sig(3, 2), {"kernel", "protection"},
                      category="type_iii_unsafe_state", created_at=123.5)
        buf.record(rec)
        reloaded = ExperienceBuffer(path)
        assert reloaded.records == (rec,)

    def test_insertion_order_preserved(self, tmp_path):
        path = tmp_path / "mem.jsonl"
        buf = ExperienceBuffer(path)
        for i in range(100):
            buf.record(failure(sig(3, 2), {f"t{i}"}, lesson=f"lesson-{i}",
                               created_at=float(i)))
        reloaded = ExperienceBuffer(path)
        assert len(reloaded) == 100
        assert [r.lesson for r in reloaded.records] == [f"lesson-{i}" for i in range(100)]

    def test_byte_exact_round_trip(self, tmp_path):
        from vfea.memory import _record_to_line
        path = tmp_path / "mem.jsonl"
        buf = ExperienceBuffer(path)
        buf.record(failure(sig(5, 4), {"b", "a"}, created_at=time.time()))
        buf.record(ExperienceRecord(signature=sig(2, 1), error=None, lesson="ok",
                                    script_excerpt="model begin\nend",
                                    outcome="success", created_at=1.25))
        original = path.read_bytes()
        reloaded = ExperienceBuffer(path)
        rewritten = "".join(_record_to_line(r) + "\n" for r in reloaded.records)
        assert rewritten.encode("utf-8") == original

    def test_integer_timestamp_round_trips_byte_exact(self, tmp_path):
        from vfea.memory import _record_to_line
        path = tmp_path / "mem.jsonl"
        line = _record_to_line(failure(sig(5, 4), {"a"})).replace('"created_at":0.0',
                                                                 '"created_at":7')
        path.write_text(line + "\n")
        assert _record_to_line(ExperienceBuffer(path).records[0]) == line

    @pytest.mark.parametrize("edit", [
        lambda d: d["signature"].update(n_nodes="5"),
        lambda d: d["signature"].update(n_bcs=True),
        lambda d: d["signature"].update(section_kinds="truss_bar"),
        lambda d: d["error"].update(tokens="abc"),
        lambda d: d["error"].update(line=2.0),
        lambda d: d.update(error=[]),
        lambda d: d.update(lesson=None),
        lambda d: d.update(created_at="now"),
        lambda d: d.update(outcome="maybe"),
        lambda d: d.pop("script_excerpt"),
        lambda d: d["signature"].update(n_beams=1),
    ], ids=["n_nodes-str", "n_bcs-bool", "section_kinds-str", "tokens-str", "line-float",
            "error-list", "lesson-null", "created_at-str", "outcome-unknown",
            "excerpt-missing", "signature-unknown-field"])
    def test_mistyped_line_skipped(self, tmp_path, edit):
        from vfea.memory import _record_to_line
        path = tmp_path / "mem.jsonl"
        ExperienceBuffer(path).record(failure(sig(3, 2), {"a"}, lesson="kept"))
        doc = json.loads(_record_to_line(failure(sig(5, 4), {"b"}, lesson="mistyped")))
        edit(doc)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        reloaded = ExperienceBuffer(path)
        assert [r.lesson for r in reloaded.records] == ["kept"]
        assert reloaded.skipped_lines == 1
        assert reloaded.retrieve(sig(5, 4), 3) == list(reloaded.records)

    def test_raw_line_separator_in_a_string_is_one_record(self, tmp_path):
        from vfea.memory import _record_to_line
        path = tmp_path / "mem.jsonl"
        line = _record_to_line(failure(sig(3, 2), {"a"}, lesson="first\u2028second"))
        line = line.replace("\\u2028", "\u2028")  # the separator raw, not escaped
        assert "\u2028" in line
        path.write_text(line + "\n", encoding="utf-8")
        reloaded = ExperienceBuffer(path)
        assert [r.lesson for r in reloaded.records] == ["first\u2028second"]
        assert reloaded.skipped_lines == 0

    def test_torn_last_line_skipped_and_not_extended(self, tmp_path):
        path = tmp_path / "mem.jsonl"
        buf = ExperienceBuffer(path)
        for i in range(3):
            buf.record(failure(sig(3, 2), {f"t{i}"}, lesson=f"lesson-{i}"))
        whole = path.read_text()
        path.write_text(whole[: len(whole) - 25])  # crash in the middle of the last append
        reloaded = ExperienceBuffer(path)
        assert [r.lesson for r in reloaded.records] == ["lesson-0", "lesson-1"]
        assert reloaded.skipped_lines == 1
        reloaded.record(failure(sig(3, 2), {"t3"}, lesson="lesson-3"))
        again = ExperienceBuffer(path)
        assert [r.lesson for r in again.records] == ["lesson-0", "lesson-1", "lesson-3"]
        assert again.skipped_lines == 1

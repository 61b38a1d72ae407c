"""Reflexive synthesis loop: reflection, debug context, verification,
the full retry/fallback state machine, and the generator implementations."""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import cantilever_model, ground_structure
from vfea import sandbox, synthesis
from vfea.ir import AnalysisSpec
from vfea.memory import (ExperienceBuffer, ExperienceRecord, classify_error,
                         compute_signature)
from vfea.sandbox import (Limits, allocate_workspace, execute,
                          read_results)
from vfea.simscript import lower_ir, parse_script
from vfea.synthesis import (ConfigError, ExternalGenerator, FaultyGenerator,
                            PerfectGenerator, SynthesisError,
                            make_generator, reflect, synthesize, verify_results)


class TestReflect:
    def test_lifecycle_lesson_mentions_trigger(self):
        lessons = reflect(["lifecycle"])
        assert len(lessons) == 1
        assert "analyze" in lessons[0]

    def test_one_lesson_per_distinct_kind(self):
        lessons = reflect(["safety", "isolation", "safety"])
        assert len(lessons) == 2

    def test_kernel_protection_lesson(self):
        lessons = reflect(["kernel-protection"])
        assert lessons == ["never delete the protected root model container"]

    def test_parse_error_lesson(self):
        lessons = reflect(["parse"])
        assert "unknown statements" in lessons[0]

    def test_budget_and_unverified_give_generic_lesson(self):
        generic = ["review the execution log and correct the failing statement"]
        assert reflect(["budget"]) == reflect(["unverified"]) == reflect(["sandbox"]) == generic
        for kind in (None, "no-such-kind"):
            with pytest.raises(KeyError):
                reflect([kind])


class TestComposeDebugContext:
    """The repair context that synthesize composes for a failed attempt."""

    @staticmethod
    def repair_contexts(model, script, tmp_path, K=1, buffer=None):
        """The contexts given to a generator that proposes ``script`` on every
        turn; the fallback then verifies."""
        seen = []

        class Recorder:
            def generate(self, model, memory_context):
                return script

            def repair(self, script, context):
                seen.append(context)
                return script

        synthesize(model, K, buffer if buffer is not None else ExperienceBuffer(), Recorder(),
                   tmp_path)
        return seen

    def test_fault_line_propagates(self, tmp_path, cantilever):
        script = lower_ir(cantilever).replace(
            "analyze static", "delete model root\nanalyze static")
        line = script.splitlines().index("delete model root") + 1
        (ctx,) = self.repair_contexts(cantilever, script, tmp_path, K=0)
        assert ctx.line == line
        assert f"line {line}" in ctx.raw_log
        assert ctx.category == "type_iii_unsafe_state"

    @pytest.mark.parametrize("K", [0, 3])
    def test_lessons_are_the_reflections_and_memory_is_read_once(self, tmp_path, cantilever,
                                                                 monkeypatch, K):
        # the buffer holds a success record and lessons of other kinds, all
        # of the same structure family; none of them reaches a repair
        buffer = ExperienceBuffer()
        sig = compute_signature(cantilever)
        for kind, message in [(None, ""), ("isolation", "path escapes the workspace"),
                              ("solver", "rigid body motion at line 9")]:
            buffer.record(ExperienceRecord(
                signature=sig, error=None if kind is None else classify_error(kind, message),
                lesson=reflect([kind])[0] if kind else "verified static script",
                script_excerpt="model begin", outcome="failure" if kind else "success",
                created_at=0.0))
        queries = []
        retrieve = buffer.retrieve
        monkeypatch.setattr(buffer, "retrieve", lambda *q: queries.append(q) or retrieve(*q))
        script = lower_ir(cantilever).replace("analyze static\n", "")
        contexts = self.repair_contexts(cantilever, script, tmp_path, K=K, buffer=buffer)
        assert [ctx.lessons for ctx in contexts] == [tuple(reflect(["lifecycle"]))] * (K + 1)
        assert queries == [(sig, synthesis.DEFAULT_RETRIEVAL_K)]


class TestVerifyResults:
    def run_one(self, model, tmp_path):
        ws = allocate_workspace(tmp_path, "verify")
        return execute(lower_ir(model), ws, Limits())

    def test_healthy_static(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        assert verify_results(out, AnalysisSpec(mode="static")) == read_results(out.results_path)

    def test_kind_mismatch(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        assert not verify_results(out, AnalysisSpec(mode="modal", modal_count=2))

    def test_nonfinite_displacement_rejected(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["displacements"]["2"][1] = float("nan")
        out.results_path.write_text(json.dumps(doc))
        assert not verify_results(out, AnalysisSpec(mode="static"))

    def test_perturbed_residual_rejected(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["equilibrium_residual"] = 1e-3
        out.results_path.write_text(json.dumps(doc))
        assert not verify_results(out, AnalysisSpec(mode="static"))

    def test_volume_violation_rejected(self, tmp_path):
        model = ground_structure(iters=3)
        out = self.run_one(model, tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["final_volume_fraction"] = 0.7
        out.results_path.write_text(json.dumps(doc))
        assert not verify_results(out, model.analysis)


class TestSynthesize:
    def test_perfect_generator_succeeds_immediately(self, tmp_path, cantilever):
        buf = ExperienceBuffer()
        script, results, trace = synthesize(cantilever, 3, buf, PerfectGenerator(),
                                            tmp_path)
        assert not trace.fallback_used
        assert len(trace.attempts) == 1 and trace.attempts[0].k == 0
        assert len(buf) == 1 and buf.records[0].outcome == "success"
        assert results.equilibrium_residual <= 1e-10

    @pytest.mark.parametrize("fault", ["type_i", "type_ii", "type_iii"])
    def test_fault_heeding_recovers_within_budget(self, tmp_path, cantilever, fault):
        buf = ExperienceBuffer()
        script, _, trace = synthesize(cantilever, 3, buf, FaultyGenerator(fault), tmp_path)
        assert not trace.fallback_used
        success_k = trace.attempts[-1].k
        assert success_k <= 3
        assert trace.attempts[-1].outcome.status == "COMPLETED"

    def test_stubborn_generator_triggers_fallback(self, tmp_path, cantilever):
        buf = ExperienceBuffer()
        script, results, trace = synthesize(
            cantilever, 3, buf, FaultyGenerator("type_ii", stubborn=True), tmp_path)
        assert trace.fallback_used
        assert trace.attempts[-1].script == script
        assert script == lower_ir(cantilever)
        neural = [a for a in trace.attempts if a.k <= 3]
        assert len(neural) == 4  # K+1 neural attempts before handover

    def test_fallback_disabled_raises_with_trace(self, tmp_path, cantilever):
        with pytest.raises(SynthesisError) as err:
            synthesize(cantilever, 2, ExperienceBuffer(),
                       FaultyGenerator("type_i", stubborn=True), tmp_path,
                       fallback_enabled=False)
        assert err.value.kind == "exhausted"
        assert len(err.value.trace.attempts) == 3
        assert all(a.faults and a.outcome is None for a in err.value.trace.attempts)

    def test_preflight_gating_keeps_sandbox_clean(self, tmp_path, cantilever):
        # static-detectable faults must never reach execution
        buf = ExperienceBuffer()
        _, _, trace = synthesize(cantilever, 3, buf, FaultyGenerator("type_iii"), tmp_path)
        for attempt in trace.attempts:
            if attempt.faults:
                assert attempt.outcome is None

    @pytest.mark.parametrize("spec", ["perfect", "faulty:type_ii", "faulty:type_iii",
                                      "solver-fault-once", "faulty:type_i:stubborn"])
    def test_each_attempt_parses_once(self, tmp_path, cantilever, monkeypatch, spec):
        # rejected by parse, by preflight, failed at run time, verified, and
        # the fallback: one parse each, shared by preflight and execution
        class SolverFaultOnce:
            def generate(self, model, memory_context):
                return lower_ir(model).replace("fix 1 ux,uy,rz", "fix 1 ux")

            def repair(self, script, context):
                return lower_ir(cantilever)

        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_script(text)

        for module in (synthesis, sandbox):
            monkeypatch.setattr(module, "parse_script", counted)
        generator = SolverFaultOnce() if spec == "solver-fault-once" else make_generator(spec)
        _, _, trace = synthesize(cantilever, 2, ExperienceBuffer(), generator, tmp_path)
        assert parsed == [a.script for a in trace.attempts]
        assert len(trace.attempts) > 1 or spec == "perfect"
        if spec == "solver-fault-once":
            assert trace.attempts[0].outcome.runtime_error.kind == "solver"

    def test_lessons_accumulate_monotonically(self, tmp_path, cantilever):
        # a generator whose fault changes per attempt: the run's accumulated
        # lessons must only ever grow
        clean = lower_ir(cantilever_model())

        class Shapeshifter:
            def __init__(self):
                self.turn = 0

            def generate(self, model, memory_context):
                return clean.replace("analyze static\n", "")  # type I first

            def repair(self, script, context):
                self.turn += 1
                if self.turn == 1:  # now a type III fault instead
                    return clean.replace("model begin", "model begin\ndelete model root")
                return clean

        with pytest.raises(SynthesisError) as err:
            synthesize(cantilever, 1, ExperienceBuffer(), Shapeshifter(), tmp_path,
                       fallback_enabled=False)
        assert err.value.kind == "exhausted"
        trace = err.value.trace
        assert len(trace.lessons_accumulated) == 2  # lifecycle lesson, then safety
        _, _, trace2 = synthesize(cantilever, 2, ExperienceBuffer(), Shapeshifter(),
                                  tmp_path)
        assert trace2.lessons_accumulated[:2] == trace.lessons_accumulated

    def test_runtime_failure_writes_failure_record(self, tmp_path, cantilever):
        # type_iii executed without preflight would be runtime; here preflight
        # catches it, so use a generator that writes results outside analyze
        class IdleGenerator:
            def generate(self, model, memory_context):
                clean = lower_ir(model)
                # keep lifecycle statements so preflight passes, but make the
                # run fail at execution: write_results before any analyze
                return clean.replace("analyze static\nwrite_results",
                                     "write_results early.res\nanalyze static\n"
                                     "write_results")

            def repair(self, script, context):
                return lower_ir(cantilever_model())

        buf = ExperienceBuffer()
        _, _, trace = synthesize(cantilever, 2, buf, IdleGenerator(), tmp_path)
        outcomes = [r.outcome for r in buf.records]
        assert outcomes.count("failure") == 1
        assert outcomes.count("success") == 1

    def test_memory_grows_once_per_successful_run(self, tmp_path, cantilever):
        buf = ExperienceBuffer()
        synthesize(cantilever, 1, buf, PerfectGenerator(), tmp_path)
        synthesize(cantilever, 1, buf, PerfectGenerator(), tmp_path)
        assert [r.outcome for r in buf.records] == ["success", "success"]


class TestMakeGenerator:
    def test_specs(self):
        assert isinstance(make_generator("perfect"), PerfectGenerator)
        g = make_generator("faulty:type_ii:stubborn")
        assert isinstance(g, FaultyGenerator) and g.stubborn
        assert isinstance(make_generator("external:http://localhost:1"), ExternalGenerator)

    def test_faulty_scripts_carry_the_fault(self, cantilever):
        assert "analyze" not in make_generator("faulty:type_i").generate(cantilever, [])
        assert "mesh_edges" in make_generator("faulty:type_ii").generate(cantilever, [])
        assert "delete model root" in make_generator("faulty:type_iii").generate(
            cantilever, [])

    def test_unknown_spec(self):
        for spec in ("fancy", "faulty:type_iv", "faulty:type_i:lazy", "external:"):
            with pytest.raises(ConfigError):
                make_generator(spec)


class _StubHandler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    script_queue: list[str] = []

    def do_POST(self):  # noqa: N802 - http.server API
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests.append(body)
        script = type(self).script_queue.pop(0)
        payload = json.dumps({"script": script}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.requests = []
    _StubHandler.script_queue = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


class TestExternalGenerator:
    def test_wire_protocol_end_to_end(self, tmp_path, cantilever, stub_server):
        endpoint, handler = stub_server
        broken = lower_ir(cantilever).replace("analyze static\n", "")
        handler.script_queue = [broken, lower_ir(cantilever)]
        buf = ExperienceBuffer()
        buf.record(ExperienceRecord(
            signature=compute_signature(cantilever), error=None, lesson="from the buffer",
            script_excerpt="model begin", outcome="success", created_at=0.0))
        _, results, trace = synthesize(cantilever, 3, buf,
                                       make_generator(f"external:{endpoint}"), tmp_path)
        assert not trace.fallback_used
        gen_req, repair_req = handler.requests
        assert set(gen_req) == set(repair_req) == {"ir_document", "memory_lessons",
                                                   "debug_context"}
        assert gen_req["debug_context"] is None
        assert '"nodes"' in gen_req["ir_document"]
        assert gen_req["memory_lessons"] == ["from the buffer"]
        # a repair repeats the generation's document and memory lessons
        assert repair_req["ir_document"] == gen_req["ir_document"]
        assert repair_req["memory_lessons"] == gen_req["memory_lessons"]
        context = repair_req["debug_context"]
        assert set(context) == {"error", "raw_log", "lessons", "script"}
        assert context["script"] == broken
        assert context["error"]["category"] == "type_i_lifecycle"
        assert set(context["error"]) == {"category", "message", "line"}
        assert context["lessons"] == reflect(["lifecycle"])

    def test_unreachable_endpoint(self, cantilever):
        gen = ExternalGenerator("http://127.0.0.1:9/none", timeout=0.2, retries=0)
        with pytest.raises(ConfigError):
            gen.generate(cantilever, [])

"""Reflexive synthesis loop: reflection, debug context, verification,
the full retry/fallback state machine, and the generator implementations."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import cantilever_model, ground_structure, modal_cantilever
from vfea import sandbox, synthesis
from vfea.memory import (ExperienceBuffer, ExperienceRecord, classify_error,
                         compute_signature)
from vfea.sandbox import (ExecutionOutcome, Limits, ResultsError, allocate_workspace, execute,
                          read_results)
from vfea.simscript import Fault, lower_ir, parse_script
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

    def test_the_replay_record_blames_the_line_the_context_does(self, tmp_path, cantilever):
        # faulty:type_iii puts "delete model root" on line 2, which preflight blames
        buffer, seen = ExperienceBuffer(), []

        class Heeding(FaultyGenerator):
            def repair(self, script, context):
                seen.append(context)
                return super().repair(script, context)

        synthesize(cantilever, 1, buffer, Heeding("type_iii"), tmp_path)
        assert [ctx.line for ctx in seen] == [2]
        assert buffer.records[0].error.line == seen[0].line == 2

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
                signature=sig, error=None if kind is None else classify_error(kind, message, 9),
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

    @staticmethod
    def reason(out, model) -> str:
        """What ``verify_results`` names after the results path when it raises."""
        with pytest.raises(ResultsError) as err:
            verify_results(out, model)
        assert err.value.kind == "unverified"
        assert str(err.value).startswith(f"{out.results_path}: ")
        return str(err.value).removeprefix(f"{out.results_path}: ")

    def test_healthy_static(self, tmp_path):
        model = cantilever_model()
        out = self.run_one(model, tmp_path)
        assert verify_results(out, model) == read_results(out.results_path)

    def test_kind_mismatch(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        assert self.reason(out, modal_cantilever(2)) == "static results, expected modal"
        assert self.reason(out, ground_structure()) == "static results, expected topo"

    def test_nonfinite_displacement_rejected(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["displacements"]["2"][1] = float("nan")
        out.results_path.write_text(json.dumps(doc))
        assert self.reason(out, cantilever_model()) == \
            "$.displacements.2[1]: expected a finite number, got nan"

    def test_perturbed_residual_rejected(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["equilibrium_residual"] = 1e-3
        out.results_path.write_text(json.dumps(doc))
        assert self.reason(out, cantilever_model()) == \
            "equilibrium residual 0.001 above 1e-08"

    def test_volume_violation_rejected(self, tmp_path):
        model = ground_structure(iters=3)
        out = self.run_one(model, tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["final_volume_fraction"] = 0.7
        out.results_path.write_text(json.dumps(doc))
        assert self.reason(out, model) == "final volume fraction 0.7 above 0.5"
        # the slack: a fraction within 1e-6 of the target passes
        doc["final_volume_fraction"] = 0.5 + 5e-7
        out.results_path.write_text(json.dumps(doc))
        assert verify_results(out, model).final_volume_fraction == 0.5 + 5e-7

    @pytest.mark.parametrize("frequencies,why", [
        ([], "no frequencies"),
        ([2.0, 1.0, 3.0], "frequency 1.0 after 2.0, not ascending"),
        ([0.0, 1.0], "lowest frequency 0.0 not above 0"),
        ([-1.0, 1.0], "lowest frequency -1.0 not above 0"),
    ], ids=["none", "descending", "zero", "negative"])
    def test_modal_check_names_the_failed_condition(self, tmp_path, frequencies, why):
        model = modal_cantilever(3)
        out = self.run_one(model, tmp_path)
        doc = json.loads(out.results_path.read_text())
        doc["frequencies_hz"] = frequencies
        out.results_path.write_text(json.dumps(doc))
        assert self.reason(out, model) == why
        doc["frequencies_hz"] = [1.0, 1.0, 2.0]  # a repeated frequency is ascending
        out.results_path.write_text(json.dumps(doc))
        assert verify_results(out, model).frequencies_hz == (1.0, 1.0, 2.0)

    @pytest.mark.parametrize("edit,why", [
        (lambda d: (d["frequencies_hz"].pop(1), d["mode_shapes"].pop(1)),
         "2 frequencies for a modal count of 3"),
        (lambda d: d["mode_shapes"].pop(1), "2 mode shapes for 3 frequencies"),
        (lambda d: d["mode_shapes"].append(d["mode_shapes"][0]), "4 mode shapes for 3 frequencies"),
        (lambda d: (d["frequencies_hz"].append(2 * d["frequencies_hz"][-1]),
                    d["mode_shapes"].append(d["mode_shapes"][0])),
         "4 frequencies for a modal count of 3"),
    ], ids=["mode-2-removed", "shape-removed", "shape-added", "mode-added"])
    def test_modal_check_counts_the_modes(self, tmp_path, edit, why):
        model = modal_cantilever(3)
        out = self.run_one(model, tmp_path)
        doc = json.loads(out.results_path.read_text())
        edit(doc)
        out.results_path.write_text(json.dumps(doc))
        assert self.reason(out, model) == why

    def test_fewer_modes_pass_only_under_the_solvers_note(self, tmp_path):
        model = modal_cantilever(10_000)  # more modes than free dofs
        out = self.run_one(model, tmp_path)
        rs = verify_results(out, model)
        assert rs.note and len(rs.frequencies_hz) == len(rs.mode_shapes) < 10_000
        doc = json.loads(out.results_path.read_text())
        del doc["note"]
        out.results_path.write_text(json.dumps(doc))
        assert self.reason(out, model) == \
            f"{len(rs.frequencies_hz)} frequencies for a modal count of 10000"

    def test_missing_file_says_it_is_missing(self, tmp_path):
        out = self.run_one(cantilever_model(), tmp_path)
        out.results_path.unlink()
        assert self.reason(out, cantilever_model()) == "no such file"

    @pytest.mark.parametrize("status", ["FAILED", "ABORTED", "COMPLETED"])
    def test_a_run_without_results_names_its_status(self, status):
        out = ExecutionOutcome(status, None, f"STATUS: {status}\n", None)
        with pytest.raises(ResultsError, match=f"^no results of a {status} run$"):
            verify_results(out, cantilever_model())


class TestUnverifiedAttempt:
    """A completed run whose results fail verification: its one fault, the
    repair context and the replay record name the results path and what
    failed, and the repair at K = 1 is verified."""

    @staticmethod
    def first_failure(model, script, tmp_path, mode, edit=None, monkeypatch=None):
        """Synthesize with a generator that proposes ``script`` once and the
        lowering on repair; ``edit``, when given, rewrites the first run's
        results document in this process. Returns the first attempt, the
        repair context and the buffer."""
        seen = []

        class OneShot:
            def generate(self, model, memory_context):
                return script

            def repair(self, script, context):
                seen.append(context)
                return lower_ir(model)

        if edit is not None:
            runs = []

            def edited(*args, **kwargs):
                out = execute(*args, **kwargs)
                if not runs:
                    edit(out.results_path)
                runs.append(out)
                return out

            monkeypatch.setattr(synthesis, "execute", edited)
        buffer = ExperienceBuffer()
        _, _, trace = synthesize(model, 1, buffer, OneShot(), tmp_path, execution_mode=mode)
        assert not trace.fallback_used and len(trace.attempts) == 2
        return trace.attempts[0], seen[0], buffer

    @staticmethod
    def assert_unverified(attempt, ctx, why):
        message = f"{attempt.outcome.results_path}: {why}"
        assert attempt.outcome.status == "COMPLETED"
        assert attempt.faults == (Fault("unverified", None, message),)
        assert (ctx.category, ctx.message, ctx.line) == ("other", message, None)
        assert ctx.lessons == tuple(reflect(["unverified"]))

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_another_modes_results(self, tmp_path, cantilever, mode):
        script = lower_ir(cantilever).replace("analyze static", "analyze modal count 1")
        attempt, ctx, _ = self.first_failure(cantilever, script, tmp_path, mode)
        self.assert_unverified(attempt, ctx, "modal results, expected static")

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_a_volume_fraction_above_the_target(self, tmp_path, mode):
        model = ground_structure(iters=3)
        script = lower_ir(model).replace("volfrac 0.5", "volfrac 0.9")
        attempt, ctx, _ = self.first_failure(model, script, tmp_path, mode)
        achieved = read_results(attempt.outcome.results_path).final_volume_fraction
        assert achieved > 0.5
        self.assert_unverified(attempt, ctx, f"final volume fraction {achieved} above 0.5")

    @staticmethod
    def set_residual(path):
        doc = json.loads(path.read_text())
        doc["equilibrium_residual"] = 1e-3
        path.write_text(json.dumps(doc))

    @staticmethod
    def set_nan(path):
        doc = json.loads(path.read_text())
        doc["reactions"]["1"][0] = float("nan")
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    @pytest.mark.parametrize("edit,why", [
        (set_residual, "equilibrium residual 0.001 above 1e-08"),
        (set_nan, "$.reactions.1[0]: expected a finite number, got nan"),
        (lambda path: path.unlink(), "no such file"),
    ], ids=["residual", "nan", "missing"])
    def test_edited_results(self, tmp_path, cantilever, monkeypatch, mode, edit, why):
        attempt, ctx, _ = self.first_failure(cantilever, lower_ir(cantilever), tmp_path, mode,
                                             edit, monkeypatch)
        self.assert_unverified(attempt, ctx, why)

    def test_a_decode_error_quoting_a_line_blames_no_script_line(self, tmp_path, cantilever,
                                                                 monkeypatch):
        attempt, ctx, buffer = self.first_failure(
            cantilever, lower_ir(cantilever), tmp_path, "inprocess",
            lambda path: path.write_text('{"result_kind": "static", '), monkeypatch)
        assert "line 1 column 27" in ctx.message and ctx.line is None
        self.assert_unverified(attempt, ctx, "$: invalid document syntax: Expecting property "
                               "name enclosed in double quotes: line 1 column 27 (char 26)")
        # nor does the stored error signature: its line is the fault's
        assert buffer.records[0].error.line is None

    def test_an_unverified_fallback_names_the_path_and_condition(self, tmp_path, cantilever,
                                                                 monkeypatch):
        def edited(*args, **kwargs):
            out = execute(*args, **kwargs)
            self.set_residual(out.results_path)
            return out

        monkeypatch.setattr(synthesis, "execute", edited)
        with pytest.raises(SynthesisError) as err:
            synthesize(cantilever, 0, ExperienceBuffer(), PerfectGenerator(), tmp_path)
        path = err.value.trace.attempts[-1].outcome.results_path
        assert (err.value.kind, str(err.value), err.value.subject) == (
            "fallback", "deterministic fallback failed with status COMPLETED: "
            f"{path}: equilibrium residual 0.001 above 1e-08", None)


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

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_script_utf8_cannot_encode_is_a_parse_fault(self, tmp_path, cantilever,
                                                         stub_server, mode):
        # the JSON escape \udc80 decodes to a lone surrogate, in a comment here
        endpoint, handler = stub_server
        clean = lower_ir(cantilever)
        broken = clean.replace("\n", " # \udc80\n", 1)
        handler.script_queue = [broken, clean]
        _, _, trace = synthesize(cantilever, 3, ExperienceBuffer(),
                                 make_generator(f"external:{endpoint}"), tmp_path,
                                 execution_mode=mode)
        first, second = trace.attempts
        assert first.outcome is None  # rejected before the sandbox
        assert first.faults == (Fault("parse", 1, "line 1: not UTF-8 text ('\\udc80')"),)
        assert second.faults == () and not trace.fallback_used
        context = handler.requests[1]["debug_context"]
        assert context["error"]["category"] == "type_ii_hallucination"
        assert context["script"] == broken

    def test_unreachable_endpoint(self, cantilever):
        gen = ExternalGenerator("http://127.0.0.1:9/none", timeout=0.2, retries=0)
        with pytest.raises(ConfigError):
            gen.generate(cantilever, [])

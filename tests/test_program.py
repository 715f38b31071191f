import random

import pytest

from sopflow.errors import GenerationParseError
from sopflow.sandbox import FaultType
from sopflow.tools import MAX_STATEMENTS, parse_program, run_program, validate_program
from sopflow.tools.program import CallStmt, CondStmt, FindingStmt

from conftest import fault_scenario, make_ctx, no_fault_scenario


class TestParsing:
    def test_all_statement_forms(self):
        program = parse_program(
            'let x = pod_analyze()\n'
            'collect_trace()\n'
            'if contains(x, "failed"): finding("saw failure", x)\n'
            'if above(x, 0.5): kubectl_logs(pod="frontend-0")\n'
            'finding("done")\n'
        )
        kinds = [type(s) for s in program.statements]
        assert kinds == [CallStmt, CallStmt, CondStmt, CondStmt, FindingStmt]

    def test_fenced_block_extracted(self):
        program = parse_program("Here is the program:\n```\npod_analyze()\n```\nenjoy")
        assert len(program.statements) == 1

    def test_comments_and_blanks_skipped(self):
        program = parse_program("# check pods\n\npod_analyze()\n")
        assert len(program.statements) == 1

    def test_quoted_strings_may_contain_commas(self):
        program = parse_program('finding("first, second, third")')
        stmt = program.statements[0]
        assert stmt.parts[0].value == "first, second, third"

    def test_no_statements_is_parse_error(self):
        with pytest.raises(GenerationParseError):
            parse_program("# nothing but comments\n")

    def test_malformed_line_is_parse_error(self):
        with pytest.raises(GenerationParseError):
            parse_program("let = broken(")
        with pytest.raises(GenerationParseError):
            parse_program("if sideways(x, 1): pod_analyze()")

    @pytest.mark.parametrize("text, complaint", [
        ("pod_analyze(pod=frontend-0)", "cannot parse value 'frontend-0'"),
        ('pod_analyze("frontend-0")', "argument '\"frontend-0\"' must be name=value"),
        ('pod_analyze(1pod="frontend-0")', "bad argument name '1pod'"),
        ("finding()", "finding() needs at least one part"),
        ("if above(x): finding(x)", "predicate needs two arguments"),
        ('if contains("x", "y"): finding("z")', "predicate variable '\"x\"' is not a name"),
        ("if contains(x, 3): finding(x)", "contains() needs a string literal"),
        ('if below(x, "low"): finding(x)', "below() needs a numeric literal"),
    ], ids=["value", "positional-argument", "argument-name", "empty-finding",
            "one-argument-predicate", "predicate-literal", "contains-number",
            "below-string"])
    def test_each_malformed_form_names_its_fault(self, text, complaint):
        with pytest.raises(GenerationParseError) as excinfo:
            parse_program(text)
        assert str(excinfo.value).startswith(complaint)


class TestValidation:
    def test_unknown_tool(self, registry):
        violations = validate_program(parse_program("frobnicate(a=1)"), registry)
        assert any("unknown tool 'frobnicate'" in v for v in violations)

    def test_unbound_variable(self, registry):
        violations = validate_program(parse_program("finding(y)"), registry)
        assert any("unbound variable 'y'" in v for v in violations)

    def test_variable_use_before_binding(self, registry):
        program = parse_program(
            'kubectl_logs(pod=x)\nlet x = pod_analyze()'
        )
        violations = validate_program(program, registry)
        assert any("unbound variable 'x'" in v for v in violations)

    def test_conditional_binding_stays_unbound(self, registry):
        program = parse_program(
            'let a = pod_analyze()\n'
            'if contains(a, "x"): let b = collect_trace()\n'
            'finding(b)'
        )
        violations = validate_program(program, registry)
        assert any("unbound variable 'b'" in v for v in violations)

    def test_orchestration_tools_not_callable(self, registry):
        for line in ("run_sop()", 'speak(causes="a|b")', 'match_sop(query="x")'):
            violations = validate_program(parse_program(line), registry)
            assert any("not callable from programs" in v for v in violations)

    def test_missing_required_arg(self, registry):
        violations = validate_program(parse_program("kubectl_logs()"), registry)
        assert any("missing required argument" in v for v in violations)

    def test_length_cap(self, registry):
        source = "\n".join(["pod_analyze()"] * (MAX_STATEMENTS + 1))
        violations = validate_program(parse_program(source), registry)
        assert any("max 50" in v for v in violations)

    def test_valid_program_has_no_violations(self, registry):
        program = parse_program(
            'let pods = pod_analyze()\n'
            'if contains(pods, "failed"): finding("failure", pods)\n'
        )
        assert validate_program(program, registry) == []


class TestExecution:
    def test_empty_findings_reports_no_findings(self, registry, quiet_ctx):
        program = parse_program("pod_analyze()\ncollect_trace()")
        result = run_program(program, quiet_ctx)
        assert result.success and result.findings == []
        assert result.findings_text == "no findings"

    def test_failure_index_and_trace_length(self, registry, quiet_ctx):
        program = parse_program(
            'let a = pod_analyze()\n'
            'let b = kubectl_logs(pod="ghost-0")\n'  # unknown pod: runtime failure
            'finding(a)'
        )
        assert validate_program(program, registry) == []
        result = run_program(program, quiet_ctx)
        assert not result.success
        assert result.failing_index == 1
        assert len(result.trace) == 2

    def test_trace_has_entry_per_executed_statement(self, registry, quiet_ctx):
        program = parse_program(
            'let a = pod_analyze()\n'
            'if contains(a, "nope-never"): finding("never", a)\n'
            'finding("always")'
        )
        result = run_program(program, quiet_ctx)
        assert result.success and len(result.trace) == 3
        assert "skipped" in result.trace[1]
        assert result.findings == ["always"]

    def test_predicate_numeric_comparison(self, registry):
        ctx = make_ctx(fault_scenario(FaultType.CpuStress))
        fault = ctx.telemetry.scenario.faults[0]
        # the verdict detail ends with the peak sample, which is the token
        # above/below compare against
        program = parse_program(
            f'let usage = whether_is_abnormal_metric(target="{fault.location_id}", '
            f'metric="cpu_usage", start_s={fault.start_s}, end_s={fault.end_s})\n'
            'if above(usage, 0.5): finding("peak breached", usage)\n'
            'if below(usage, -1000.0): finding("never fires")'
        )
        result = run_program(program, ctx)
        assert result.success
        assert len(result.findings) == 1

    def test_predicate_without_numeric_token_is_false(self, registry, quiet_ctx):
        program = parse_program(
            'let ns = get_all_namespace()\n'
            'if above(ns, 0.0): finding("no numeric token here")'
        )
        result = run_program(program, quiet_ctx)
        assert result.success and result.findings == []
        assert "no numeric token" in result.trace[1]

    def test_variable_feeds_tool_argument(self, registry, quiet_ctx):
        program = parse_program(
            'let q = get_relevant_metric(query="cpu")\n'
            'let again = get_relevant_metric(query=q)\n'
            'finding(again)'
        )
        result = run_program(program, quiet_ctx)
        assert result.success and result.findings


def _random_program(rng: random.Random, components: list[str]) -> str:
    """Valid-by-construction program with occasional runtime-failing args."""
    lines = []
    bound = []
    for i in range(rng.randint(1, 8)):
        choice = rng.random()
        if choice < 0.5 or not bound:
            var = f"v{i}"
            tool = rng.choice(["pod_analyze", "collect_trace", "get_all_namespace",
                               "kubectl_logs", "whether_is_abnormal_metric"])
            if tool == "kubectl_logs":
                pod = rng.choice(components + ["ghost-0"])  # sometimes unknown: runtime fail
                lines.append(f'let {var} = kubectl_logs(pod="{pod}")')
            elif tool == "whether_is_abnormal_metric":
                target = rng.choice(components + ["ghost-0"])
                lines.append(f'let {var} = whether_is_abnormal_metric(target="{target}", '
                             f'metric="cpu_usage")')
            else:
                lines.append(f"let {var} = {tool}()")
            bound.append(var)
        elif choice < 0.75:
            var = rng.choice(bound)
            kw = rng.choice(["failed", "anomalous", "zzz"])
            lines.append(f'if contains({var}, "{kw}"): finding("hit {kw}", {var})')
        else:
            lines.append(f'finding("note", {rng.choice(bound)})')
    return "\n".join(lines)


class TestGeneratedPrograms:
    def test_atomicity_and_soundness_over_generated_programs(self, registry):
        ctx = make_ctx(no_fault_scenario(), registry=registry)
        components = [p.id for p in ctx.telemetry.topology.pods]
        rng = random.Random(90125)
        for _ in range(300):
            program = parse_program(_random_program(rng, components))
            assert validate_program(program, registry) == []
            result = run_program(program, ctx)
            if result.success:
                assert len(result.trace) == len(program.statements)
            else:
                assert len(result.trace) == result.failing_index + 1
                # accepted programs never fail on validator-class errors
                assert "unbound variable" not in result.error
                assert "unknown tool" not in result.error

"""Scoring of operations and the span arithmetic behind the per-layer metrics."""

from types import SimpleNamespace

import pytest

import ddreg
import ddreg.cli
from ddreg.examples import fixture_text
from ddreg.fileio import parse_problem
from perfbench import workloads as wl
from perfbench.spans import Span, Tracer, installed_wrappers, self_times, totals


class _Result:
    def __init__(self, regulator):
        self.regulator = regulator


def _fake_program(informative: bool, verified: bool):
    """A stand-in for ddreg whose verdict and verification are injected."""
    synthesis = SimpleNamespace(
        synthesize=lambda problem: _Result(object() if informative else None),
        verify_regulator=lambda *a, **k: SimpleNamespace(passed=verified),
    )
    model = SimpleNamespace(compatible_set=lambda problem: None)
    return SimpleNamespace(synthesis=synthesis, model=model)


def _op(expected=True):
    problem = SimpleNamespace(known=None)
    return wl.Op("injected", problem, unknown_a3=False, expected=expected)


def test_a_correct_operation_is_not_a_failure():
    tally = wl.Tally()
    wl.run_op(_fake_program(informative=True, verified=True), _op(), tally)
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (1, 0, 0.0)


def test_an_injected_wrong_verdict_raises_fail_ratio():
    tally = wl.Tally()
    wl.run_op(_fake_program(informative=True, verified=True), _op(), tally)
    wl.run_op(_fake_program(informative=False, verified=True), _op(), tally)
    assert tally.fail_ratio == 0.5 and tally.kinds == {"verdict": 1}


def test_a_regulator_failing_verification_raises_fail_ratio():
    tally = wl.Tally()
    wl.run_op(_fake_program(informative=True, verified=False), _op(), tally)
    assert tally.fail_ratio == 1.0 and tally.kinds == {"verification": 1}


def test_an_exception_is_a_failure_and_unreferenced_verdicts_are_counted():
    tally = wl.Tally()
    broken = _fake_program(True, True)
    broken.synthesis.synthesize = lambda problem: 1 / 0
    wl.run_op(broken, _op(), tally)
    wl.run_op(_fake_program(informative=False, verified=None), _op(expected=None), tally)
    assert tally.kinds == {"exception": 1} and tally.failed == 1
    assert tally.verdicts["unreferenced_not_informative"] == 1


def test_a_nonzero_exit_code_raises_fail_ratio(tmp_path):
    tally = wl.Tally()
    ok = wl.CliCall("exit 0", ("-c", "print('via condition2')"), False, (0,), "via condition2")
    bad = wl.CliCall("exit 2", ("-c", "import sys; sys.exit(2)"), False, (0,))
    for call in (ok, bad):
        code, out, wall = wl.run_child(call, tmp_path, {})
        assert wall > 0
        tally.add(call.name, wl.score_cli(call, code, out))
    assert tally.fail_ratio == 0.5 and tally.kinds == {"exit-code": 1}


def test_a_missing_condition_line_is_a_failure():
    call = wl.CliCall("check", ("check", "x"), True, (0,), "via condition1")
    assert wl.score_cli(call, 0, "informative for regulator design via condition2\n") == "missing-line"
    assert wl.score_cli(call, 0, "informative for regulator design via condition1\n") is None
    unreferenced = wl.CliCall("synth", ("synth", "x"), True, (0, 2))
    assert wl.score_cli(unreferenced, 2, "") is None
    assert wl.score_cli(unreferenced, 1, "") == "exit-code"


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(3, "leaf", 20, 30, 1, "p"),
        Span(1, "a", 10, 40, 0, "p"),
        Span(2, "b", 50, 90, 0, "p"),
        Span(0, "root", 0, 100, None, "p"),
        Span(4, "b", 100, 104, None, "q"),
    ]
    assert self_times(spans) == {0: 30, 1: 20, 2: 40, 3: 10, 4: 4}
    table = totals(spans)
    assert table["b"]["calls"] == 2
    assert table["b"]["total_ms"] == pytest.approx(44e-6)
    assert table["root"]["self_ms"] == pytest.approx(30e-6)


def test_tracer_wraps_every_binding_and_restores_them():
    original = ddreg.synthesis.solve_lmi
    problem = parse_problem(fixture_text("scalar")).problem
    tracer = Tracer()
    tracer.install()
    try:
        assert ddreg.synthesis.solve_lmi is not original
        assert ddreg.cli.synthesize is ddreg.synthesis.synthesize
        tracer.problem = "scalar"
        result = ddreg.synthesis.synthesize(problem)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert ddreg.synthesis.solve_lmi is original
    by_id = {s.id: s for s in tracer.spans}
    lmi = [s for s in tracer.spans if s.name == "lmi.solve_lmi"]
    assert lmi and all(by_id[s.parent].name.startswith("synthesis.check_condition") for s in lmi)
    assert tracer.counters["lmi.iterations"] == result.report.lmi.iterations
    assert tracer.counters["synthesis.informative"] == 1
    assert {s.problem for s in tracer.spans} == {"scalar"}

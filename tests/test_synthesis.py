"""End-to-end informativity decisions and gain synthesis."""

import importlib
import re
import runpy
import tracemalloc
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ddreg
from ddreg import (
    AntiStabilityError,
    DimensionError,
    InconsistentDataError,
    KnownMatrices,
    LmiProblem,
    NonFiniteError,
    ProblemData,
    Regulator,
    build_problem,
    check_condition1,
    check_condition2,
    check_endo_stabilization,
    check_output_regulated,
    check_theta,
    compatible_set,
    compatible_set_unknown_a3,
    solve_classical_regulator,
    solve_lmi,
    spectral_info,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
    verify_regulator_unknown_a3,
    w_residual,
    w_system,
    w_system_unknown_a3,
)
from ddreg.analysis import _francis, _regulator_system, _solve_regulator, unvec
from ddreg.examples import EXAMPLE_NAMES, REFERENCE, fixture_text
from ddreg.fileio import parse_problem
from ddreg.lmi import _certified, _inverse_certificate, _riccati_gain, _right_inverses
from ddreg.model import within_tolerance

from _instances import (
    coupling_free_instance,
    inconsistent_problem,
    ladder_problems,
    long_run_instance,
    no_exosystem_problem,
    regulable_instance,
    scale_instance,
)
from _sampled_verifier import sampled_verdict


def fixture_problem(name):
    return parse_problem(fixture_text(name)).problem


def test_scalar_fixture_is_informative_via_condition2():
    problem = fixture_problem("scalar")
    result = synthesize(problem)
    assert result.regulator is not None
    assert result.report.chosen_condition == "condition2"
    assert result.regulator.provenance == "condition2"
    assert w_residual(problem, result.regulator.W) < 1e-8


def test_scalar_gains_follow_from_the_witnesses():
    problem = fixture_problem("scalar")
    regulator = synthesize(problem).regulator
    data = problem.data
    X_dagger, W = regulator.X2_dagger, regulator.W
    K2 = data.U_minus @ X_dagger
    K1 = data.U_minus @ (np.eye(problem.tau) - X_dagger @ data.X2_minus) @ W
    assert np.allclose(regulator.K2, K2, atol=1e-12)
    assert np.allclose(regulator.K1, K1, atol=1e-12)
    assert np.linalg.norm(data.X2_minus @ X_dagger - np.eye(problem.n2)) < 1e-8


def test_planar_fixture_reproduces_reference_gains():
    problem = fixture_problem("planar")
    result = synthesize(problem)
    ref = REFERENCE["planar"]
    assert result.report.chosen_condition == "condition1"
    regulator = result.regulator
    assert np.allclose(regulator.K2, ref["K2"], atol=1e-12)
    assert np.allclose(regulator.K1, ref["K1"], atol=1e-10)
    cset = compatible_set(problem)
    closed_loop = cset.A2_part + cset.B2_part @ regulator.K2
    assert np.allclose(closed_loop, ref["closed_loop"], atol=1e-10)
    eigs = spectral_info(closed_loop).eigenvalues
    assert np.allclose(
        np.sort_complex(eigs), np.sort_complex(ref["eigenvalues"]), atol=1e-10
    )


def test_try_order_does_not_change_the_decision():
    # Informative iff either condition holds, whichever is tried first.
    problems = [fixture_problem(name) for name in ("scalar", "planar")]
    problems += [regulable_instance(seed).problem for seed in range(4)]
    problems += [p.without_a3() for p in problems]
    verdicts = set()
    for problem in problems:
        run = synthesize_unknown_a3 if problem.known.A3 is None else synthesize
        family, known = compatible_set(problem), problem.known
        either = check_condition1(family, known).holds or check_condition2(family, known).holds
        assert (run(problem).regulator is not None) == either
        verdicts.add(either)
    assert verdicts == {True, False}


def test_regulable_instances_synthesize_and_verify():
    for seed in range(8):
        instance = regulable_instance(seed)
        result = synthesize(instance.problem)
        assert result.regulator is not None, result.report.messages
        cset = compatible_set(instance.problem)
        report = verify_regulator(
            result.regulator, cset, instance.problem.known, samples=5
        )
        assert report.passed


def test_ill_conditioned_ladder_problems_are_regulated_via_condition2():
    # cond(X2_minus) is 8.5e6-6.2e7 here.  The regulator equations are
    # solved on the compatible family, whose conditioning does not
    # depend on how the samples are scaled.
    problems = ladder_problems(16)
    assert len(problems) == 3
    for name, problem in problems:
        result = synthesize(problem)
        assert result.report.chosen_condition == "condition2", (name, result.report.messages)
        report = verify_regulator(result.regulator, result.family, problem.known)
        assert report.passed, (name, report.residuals)


def test_the_reconstructed_w_is_a_witness_of_the_data_equations():
    cases = [(regulable_instance(seed).problem, synthesize) for seed in range(100)]
    cases += [(coupling_free_instance(seed).problem, synthesize_unknown_a3) for seed in range(20)]
    checked = 0
    for problem, run in cases:
        regulator = run(problem).regulator
        if regulator is None or regulator.W is None:
            continue
        if run is synthesize_unknown_a3:
            problem = problem.without_a3()
        _, rhs = w_system(problem)
        bound = 1e-8 * (1.0 + float(np.linalg.norm(rhs)))
        assert w_residual(problem, regulator.W) <= bound, regulator.provenance
        checked += 1
    assert checked >= 50


def test_closed_loop_is_shared_across_members():
    # Every member maps the data columns the same way, so A2 + B2 K2 is
    # one matrix for the whole family.
    problem = fixture_problem("planar")
    regulator = synthesize(problem).regulator
    cset = compatible_set(problem)
    base = cset.A2_part + cset.B2_part @ regulator.K2
    rng = np.random.default_rng(7)
    for _ in range(10):
        N = rng.uniform(-5.0, 5.0, (cset.n2, cset.r))
        A2 = cset.A2_part + N @ cset.S1.T
        B2 = cset.B2_part + N @ cset.S2.T
        assert np.allclose(A2 + B2 @ regulator.K2, base, atol=1e-9)


def test_rank_deficient_data_is_not_informative():
    data = ProblemData(
        U_minus=np.array([[1.0, 0.0, 1.0]]),
        X1_minus=np.zeros((1, 3)),
        X2=np.array([[1.0, 0.5, 1.0, 0.5], [0.0, 0.0, 0.0, 0.0]]),
    )
    known = KnownMatrices(
        A1=np.array([[1.0]]),
        A3=np.zeros((2, 1)),
        D1=np.zeros((1, 1)),
        D2=np.ones((1, 2)),
        E=np.ones((1, 1)),
    )
    result = synthesize(build_problem(data, known))
    assert result.regulator is None
    assert "rank-deficient" in result.report.messages[0]
    assert result.report.rank_X2_minus == 1


def test_stable_exosystem_is_rejected():
    instance = regulable_instance(1)
    known = instance.problem.known
    shrunk = KnownMatrices(
        A1=0.5 * known.A1, A3=known.A3, D1=known.D1, D2=known.D2, E=known.E
    )
    problem = build_problem(instance.problem.data, shrunk)
    with pytest.raises(AntiStabilityError):
        synthesize(problem)


def test_every_layer_rejects_a_stable_exosystem_with_one_message():
    instance = regulable_instance(1)
    result = synthesize(instance.problem)
    known = replace(instance.problem.known, A1=0.5 * instance.problem.known.A1)
    system = instance.system
    calls = [
        lambda: synthesize(build_problem(instance.problem.data, known)),
        lambda: verify_regulator(result.regulator, result.family, known),
        lambda: check_output_regulated(known.A1, system.A2, system.A3, known.D1, known.D2),
        lambda: solve_classical_regulator(
            known.A1, system.A2, system.B2, system.A3, known.D1, known.D2, known.E
        ),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(AntiStabilityError) as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {
        "A1 must be anti-stable: stable exosystem modes decay on their own "
        "and make the data uninformative about regulation"
    }


@pytest.mark.parametrize("synth", [synthesize, synthesize_unknown_a3])
def test_data_no_system_could_have_produced_is_rejected(synth):
    # Condition 2 holds on the data alone, in both modes.
    with pytest.raises(InconsistentDataError, match="no system matches"):
        synth(inconsistent_problem())


@pytest.mark.parametrize(
    "synth, bound",
    [
        (synthesize, "(1 + ||X2_plus - A3 X1_minus||)"),
        (synthesize_unknown_a3, "(1 + ||X2_plus||)"),
    ],
)
def test_the_inconsistency_message_names_the_bound_it_used(synth, bound):
    with pytest.raises(InconsistentDataError) as info:
        synth(inconsistent_problem())
    assert str(info.value).endswith(bound)


def test_condition1_reports_image_inclusion_failure():
    problem = fixture_problem("scalar")
    outcome = check_condition1(compatible_set(problem), problem.known)
    assert not outcome.holds
    assert "im D1" in outcome.reasons[0]
    assert outcome.lmi is None


def test_condition2_carries_witnesses():
    problem = fixture_problem("scalar")
    outcome = check_condition2(compatible_set(problem), problem.known)
    assert outcome.holds
    regulator = outcome.regulator
    assert regulator.W is not None
    assert regulator.Theta is not None
    assert regulator.X2_dagger is not None
    assert outcome.diagnostics["w_residual"] < 1e-10


def test_endo_stabilization_stabilizes_every_member():
    problem = fixture_problem("planar")
    cset = compatible_set(problem)
    endo = check_endo_stabilization(cset)
    assert endo.informative
    rng = np.random.default_rng(9)
    for _ in range(10):
        N = rng.uniform(-5.0, 5.0, (cset.n2, cset.r))
        A2 = cset.A2_part + N @ cset.S1.T
        B2 = cset.B2_part + N @ cset.S2.T
        assert spectral_info(A2 + B2 @ endo.K2).spectral_radius < 1.0


def test_unknown_coupling_instance_synthesizes_and_verifies():
    instance = coupling_free_instance(3)
    result = synthesize_unknown_a3(instance.problem)
    assert result.regulator is not None, result.report.messages
    assert result.regulator.provenance.endswith("_unknown_a3")
    cset = compatible_set_unknown_a3(instance.problem)
    assert cset.r >= 1
    report = verify_regulator_unknown_a3(
        result.regulator, cset, instance.problem.known, samples=10
    )
    assert report.passed


def test_unknown_coupling_ignores_a_provided_a3():
    instance = coupling_free_instance(3)
    known = instance.problem.known
    rng = np.random.default_rng(0)
    with_guess = KnownMatrices(
        A1=known.A1,
        A3=rng.standard_normal((instance.problem.n2, instance.problem.n1)),
        D1=known.D1,
        D2=known.D2,
        E=known.E,
    )
    problem = build_problem(instance.problem.data, with_guess)
    base = synthesize_unknown_a3(instance.problem)
    guessed = synthesize_unknown_a3(problem)
    assert np.array_equal(base.regulator.K1, guessed.regulator.K1)
    assert np.array_equal(base.regulator.K2, guessed.regulator.K2)


def test_scalar_fixture_not_informative_without_coupling_knowledge():
    # Three samples cannot pin down regulation when A3 is also unknown.
    problem = fixture_problem("scalar")
    result = synthesize_unknown_a3(problem)
    assert result.regulator is None
    assert result.report.messages[-1] == "not informative for regulator design"


def test_verification_rejects_a_destabilizing_gain():
    instance = regulable_instance(2)
    result = synthesize(instance.problem)
    regulator = result.regulator
    bad = Regulator(
        K1=regulator.K1,
        K2=regulator.K2 + 100.0,
        provenance=regulator.provenance,
    )
    cset = compatible_set(instance.problem)
    report = verify_regulator(bad, cset, instance.problem.known, samples=3)
    assert not report.passed


def test_not_informative_report_explains_both_branches():
    problem = fixture_problem("scalar")
    result = synthesize_unknown_a3(problem)
    text = " ".join(result.report.messages)
    assert "condition1" in text
    assert "condition2" in text


def withheld_coupling(problem):
    known = problem.known
    return build_problem(
        problem.data,
        KnownMatrices(A1=known.A1, A3=None, D1=known.D1, D2=known.D2, E=known.E),
    )


def test_withheld_coupling_without_a_right_inverse_is_not_informative():
    # Both branches fail before any right-inverse is built, which once
    # sent synthesis into a fallback that demanded the missing A3.
    result = synthesize_unknown_a3(withheld_coupling(regulable_instance(23).problem))
    assert result.regulator is None
    text = " ".join(result.report.messages)
    assert "no right-inverse of X satisfies the constraints" in text
    assert "not informative for regulator design" in text


def test_condition1_names_the_mode_no_right_inverse_can_move():
    problem = regulable_instance(2).problem
    outcome = check_condition1(compatible_set(problem), problem.known)
    assert not outcome.holds
    lam = outcome.lmi.witness.eigenvalue
    assert abs(lam) >= 1.0
    assert outcome.lmi.min_eig == 0.0
    assert "is a mode of the closed loop for every admissible" in outcome.reasons[0]


def test_a_missed_margin_is_not_reported_as_infeasibility(monkeypatch):
    monkeypatch.setattr(LmiProblem, "margin", 1e9)
    problem = fixture_problem("scalar")
    outcome = check_condition2(compatible_set(problem), problem.known)
    assert not outcome.holds
    assert outcome.lmi.witness is None
    assert 0.0 < outcome.lmi.min_eig < 1e9
    assert "exists, but its certificate reaches min_eig" in outcome.reasons[0]
    assert "no stabilizing right-inverse exists" not in outcome.reasons[0]


def test_informative_decisions_never_run_the_pbh_test(monkeypatch):
    # A certificate that meets the margin proves "yes" on its own; the PBH
    # test only explains a failure.
    def stuck_mode(*args):
        raise AssertionError("the PBH test ran on an informative decision")

    monkeypatch.setattr(ddreg.lmi, "_stuck_mode", stuck_mode)
    problems = [fixture_problem("scalar"), fixture_problem("planar")]
    problems += [regulable_instance(seed).problem for seed in range(20)]
    for problem in problems:
        assert synthesize(problem).regulator is not None
    for seed in range(5):
        assert synthesize_unknown_a3(coupling_free_instance(seed).problem).regulator is not None


def _counting_stein_solves(monkeypatch) -> list:
    """Patch lmi._doubling to record the shape of A in each Stein doubling (G = None)."""
    stein_solves, doubling = [], ddreg.lmi._doubling

    def counting(A, G, rtol):
        if G is None:
            stein_solves.append(A.shape)
        return doubling(A, G, rtol)

    monkeypatch.setattr(ddreg.lmi, "_doubling", counting)
    return stein_solves


def test_the_riccati_solution_certifies_the_corpus_without_a_stein_solve(monkeypatch):
    # S - A_cl^T S A_cl = I + F^T F, so Theta = X^dagger S^-1 certifies
    # the Riccati closed loop with no second doubling.
    stein_solves, decided = _counting_stein_solves(monkeypatch), []

    def recording(problem):
        decided.append((problem, solve_lmi(problem)))
        return decided[-1][1]

    monkeypatch.setattr(ddreg.synthesis, "solve_lmi", recording)
    for seed in range(20):
        assert synthesize(regulable_instance(seed).problem).regulator is not None
    assert stein_solves == []
    found = [(problem, solution) for problem, solution in decided if solution.found]
    assert len(found) >= 20
    for problem, solution in found:
        assert check_theta(problem, solution.Theta).min_eig >= LmiProblem.margin


def test_the_stein_certificate_certifies_where_s_inverse_misses_the_margin(monkeypatch):
    # On ladder-n16-2 the block of X^dagger S^-1 reaches min_eig 1.2e-7,
    # below the margin; the gamma-scaled Stein certificate reaches 3.0e-4.
    (problem,) = [problem for name, problem in ladder_problems(16) if name == "ladder-n16-2"]
    family = compatible_set(problem)
    lmi = LmiProblem(family.G[: family.n2], family.Z)
    Xp, N = _right_inverses(lmi)
    F, S = _riccati_gain(lmi.Z @ Xp, lmi.Z @ N)
    Theta, min_eig = _certified(lmi, _inverse_certificate, Xp + N @ F, S)
    assert Theta is not None and min_eig < LmiProblem.margin
    stein_solves = _counting_stein_solves(monkeypatch)
    solution = solve_lmi(lmi)
    assert solution.found
    assert stein_solves == [(problem.n2, problem.n2)]
    assert check_theta(lmi, solution.Theta).min_eig >= LmiProblem.margin


def test_every_returned_regulator_passes_verification():
    # Each coupling-free instance also runs with its true coupling known.
    cases = [(regulable_instance(seed).problem, synthesize) for seed in range(100)]
    for seed in range(20):
        instance = coupling_free_instance(seed)
        known = replace(instance.problem.known, A3=instance.system.A3)
        cases.append((instance.problem, synthesize_unknown_a3))
        cases.append((build_problem(instance.problem.data, known), synthesize))
    for name in EXAMPLE_NAMES:
        cases += [(fixture_problem(name), synthesize), (fixture_problem(name), synthesize_unknown_a3)]
    returned = 0
    for problem, synth in cases:
        result = synth(problem)
        if result.regulator is not None:
            returned += 1
            report = verify_regulator(result.regulator, result.family, problem.known)
            assert report.passed, (synth.__name__, report.residuals)
    assert returned >= 100


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n2", [32, 64, 128])
def test_the_scale_family_is_informative_via_condition2_with_verified_gains(n2, k):
    # Decided in G's row space, condition 2 holds on each of these and
    # its gains pass whole-family and sampled verification; S(128, 2)
    # fell to condition-1 gains that missed the output residual when
    # the right-inverse was sought among all tau-wide ones.
    problem = scale_instance(n2, k).problem
    assert (problem.n1, problem.n2, problem.m, problem.p, problem.tau) == (3, n2, 4, 2, n2 + 6)
    result = synthesize(problem)
    assert result.family.r == 0
    assert result.regulator.provenance == "condition2"
    assert result.report.condition1 is None
    assert verify_regulator(result.regulator, result.family, problem.known).passed
    assert sampled_verdict(result.regulator, result.family, problem.known, 3)


@pytest.mark.parametrize("synth", [synthesize, synthesize_unknown_a3])
def test_a_long_run_is_decided_without_a_matrix_of_tau_squared_size(synth):
    # L(4000): sought among all tau-wide right-inverses, the decision
    # formed 4000 x 4000 factors and peaked at 366 MiB; in G's row space
    # nothing it forms is larger than a few tau-wide rows.
    problem = long_run_instance(4000).problem
    tracemalloc.start()
    try:
        result = synth(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.report.chosen_condition == "condition2"
    assert verify_regulator(result.regulator, result.family, problem.known).passed
    assert peak < 20 * 2**20


def test_an_overflowing_output_map_ends_in_a_named_non_finite_error():
    # Condition 1 constrains the right-inverse by D2 X2_minus + E U_minus,
    # which overflows on the planar data with D2 near the largest double.
    problem = fixture_problem("planar")
    known = replace(problem.known, D2=np.full_like(problem.known.D2, 1.7e308))
    message = "the output map D2 X2_minus + E U_minus contains non-finite entries"
    with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
        check_condition1(compatible_set(problem), known)


def test_synthesize_requires_the_coupling_matrix():
    problem = withheld_coupling(fixture_problem("scalar"))
    with pytest.raises(ValueError, match="--unknown-a3"):
        synthesize(problem)


@pytest.mark.parametrize("unknown", [False, True])
def test_the_result_carries_the_family_the_decision_used(unknown):
    problem = coupling_free_instance(3).problem if unknown else fixture_problem("planar")
    result = (synthesize_unknown_a3 if unknown else synthesize)(problem)
    family = (compatible_set_unknown_a3 if unknown else compatible_set)(problem)
    for name in ("A2_part", "B2_part", "A3_part", "S1", "S2", "S3"):
        assert np.array_equal(getattr(result.family, name), getattr(family, name))


def test_traced_names_are_distinct_functions():
    # The benchmark wraps each of these by identity wherever ddreg binds
    # it, so an alias would be wrapped twice.
    root = Path(__file__).resolve().parents[1]
    TARGETS = runpy.run_path(str(root / "perfbench" / "spans.py"))["TARGETS"]
    functions = [
        getattr(importlib.import_module(f"ddreg.{module}"), name)
        for module, name in TARGETS
    ]
    assert all(callable(f) for f in functions)
    assert len({id(f) for f in functions}) == len(TARGETS)


def _francis_system(A1, A2, B2, A3, D1, D2, E):
    """The regulator equations of (A2, B2, A3) for Y = [T; V], built as condition 2 builds them."""
    n2, m = B2.shape
    return _regulator_system(
        A1, np.eye(n2, n2 + m), np.hstack([A2, B2]), A3, np.hstack([D2, E]), D1
    )


def _square_identified(problem):
    """(lhs, rhs) of an identified family's square system (p = m), else None."""
    family, known = compatible_set(problem), problem.known
    lhs, rhs = _francis_system(
        known.A1, family.A2_part, family.B2_part, family.A3_part, known.D1, known.D2, known.E
    )
    if family.r or lhs.shape[0] != lhs.shape[1]:
        return None
    return lhs, rhs


def _assert_lu_agrees_with_least_squares(lhs, rhs, rows, Y, feasible):
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    Y_lstsq = unvec(sol, (rows, len(rhs) // rows))
    lstsq_residual = float(np.linalg.norm(lhs @ sol - rhs))
    assert feasible == within_tolerance(lstsq_residual, float(np.linalg.norm(rhs)))
    assert np.linalg.norm(Y - Y_lstsq) <= 1e-10 * np.linalg.norm(Y_lstsq)
    if feasible:  # the LU solution is the one returned
        assert np.array_equal(Y, unvec(np.linalg.solve(lhs, rhs), Y.shape))


def test_the_lu_route_agrees_with_least_squares():
    # Condition 2 on the identified family, and solve_classical_regulator
    # on the true system, take the LU route of the one solver.
    cases = [(i.problem, i.system) for i in map(regulable_instance, range(100))]
    cases += [(fixture_problem(name), None) for name in EXAMPLE_NAMES]
    checked = classical = 0
    for problem, system in cases:
        square = _square_identified(problem)
        if square is None:
            continue
        lhs, rhs = square
        rows = problem.n2 + problem.m
        Y, _, feasible = _solve_regulator(lhs, rhs, rows)
        _assert_lu_agrees_with_least_squares(lhs, rhs, rows, Y, feasible)
        checked += 1
        if system is None:
            continue
        known = problem.known
        true = (known.A1, system.A2, system.B2, system.A3, known.D1, known.D2, known.E)
        result = solve_classical_regulator(*true)
        lhs, rhs = _francis_system(*true)
        Y = np.vstack([result.T, result.V])
        _assert_lu_agrees_with_least_squares(lhs, rhs, rows, Y, result.feasible)
        assert result.feasible
        classical += 1
    assert checked >= 40 and classical >= 40


def test_condition2_solves_the_francis_equations_of_the_particular_member():
    # Known coupling, identified: the classical regulator of the particular
    # member, bitwise, and K1 = V - K2 T from its pair.
    identified = 0
    for seed in range(100):
        problem = regulable_instance(seed).problem
        family, known = compatible_set(problem), problem.known
        if family.r:
            continue
        outcome = check_condition2(family, known)
        classical = solve_classical_regulator(
            known.A1, family.A2_part, family.B2_part, family.A3_part, known.D1, known.D2, known.E
        )
        assert classical.feasible and outcome.holds
        assert _bits(outcome.diagnostics["w_residual"]) == _bits(classical.residual)
        K2 = outcome.regulator.K2
        assert _bits(outcome.regulator.K1) == _bits(-K2 @ classical.T + classical.V)
        identified += 1
    assert identified >= 50
    # r > 0: a Y that solves its equations meets its kernel rows
    # S1^T T + S2^T V + S3^T = 0, so [T; V (; I)] lies in im G.  A least
    # squares answer to infeasible equations (the planar fixture's) need not.
    problems = [fixture_problem("planar"), fixture_problem("planar").without_a3()]
    problems += [coupling_free_instance(seed).problem.without_a3() for seed in range(20)]
    solved = 0
    for problem in problems:
        family, known = compatible_set(problem), problem.known
        assert family.r > 0
        Y, residual, holds = _francis(
            known.A1, family.A2_part, family.B2_part, family.A3_part, known.D1, known.D2,
            known.E, (np.hstack([family.S1.T, family.S2.T]), -family.S3.T),
        )
        assert _bits(check_condition2(family, known).diagnostics["w_residual"]) == _bits(residual)
        kernel = family.S1.T @ Y[: problem.n2] + family.S2.T @ Y[problem.n2 :] + family.S3.T
        if holds:
            assert within_tolerance(float(np.linalg.norm(kernel)), float(np.linalg.norm(family.S3)))
            solved += 1
    assert solved >= 20


def _family_lqr_gain(problem, family):
    """K2 as the LQR gain of the family under the metric of the minimum-norm right-inverse.

    With Omega = (G G^T)^+ and its input blocks Omega_uu, Omega_ux, the
    unit-weight Riccati design on the data is the LQR design of the
    particular member shifted by K_p = -Omega_uu^-1 Omega_ux, with weights
    (I, Omega_uu): K2 = K_p + F.
    """
    U, s, _, k = family._svd
    Omega = (U[:, :k] / s[:k] ** 2) @ U[:, :k].T
    n2 = problem.n2
    Omega_uu, Omega_ux = Omega[n2:, n2:], Omega[n2:, :n2]
    K_p = -np.linalg.solve(Omega_uu, Omega_ux)
    A, B = family.A2_part + family.B2_part @ K_p, family.B2_part
    S = scipy.linalg.solve_discrete_are(A, B, np.eye(n2), Omega_uu)
    return K_p - np.linalg.solve(B.T @ S @ B + Omega_uu, B.T @ S @ A)


def test_condition2_gain_is_the_family_lqr_under_the_minimum_norm_metric():
    # Known coupling, identified (r = 0): today's K2 in family coordinates.
    problems = [fixture_problem("scalar")]
    problems += [regulable_instance(seed).problem for seed in range(100)]
    compared = 0
    for problem in problems:
        family = compatible_set(problem)
        outcome = check_condition2(family, problem.known)
        if family.r or not outcome.holds:
            continue
        K2 = outcome.regulator.K2
        gap = np.linalg.norm(_family_lqr_gain(problem, family) - K2)
        assert gap <= 1e-6 * np.linalg.norm(K2)
        compared += 1
    assert compared >= 90


def test_a_singular_square_system_reports_the_least_squares_residual():
    # With D2 = 0 and E = 0 the output rows of the square system vanish:
    # LU finds the operator singular, and D1 = 0 cannot hold.
    problem = next(
        p for p in (regulable_instance(seed).problem for seed in range(100))
        if _square_identified(p) is not None
    )
    known = problem.known
    silent = KnownMatrices(
        A1=known.A1, A3=known.A3, D1=known.D1,
        D2=np.zeros_like(known.D2), E=np.zeros_like(known.E),
    )
    problem = build_problem(problem.data, silent)
    lhs, rhs = _square_identified(problem)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(lhs, rhs)
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    residual = float(np.linalg.norm(lhs @ sol - rhs))
    assert residual == pytest.approx(np.linalg.norm(known.D1), rel=1e-9)
    outcome = check_condition2(compatible_set(problem), problem.known)
    assert not outcome.holds
    assert outcome.diagnostics["w_residual"] == pytest.approx(residual, rel=1e-12)
    assert f"regulator equations infeasible (residual {residual:.3e})" in outcome.reasons


def test_an_lu_solution_that_misses_the_residual_rule_falls_back(monkeypatch):
    # An LU answer off by one in every entry misses the rule, and least
    # squares decides instead.
    problem = fixture_problem("scalar")
    lhs, rhs = _square_identified(problem)
    rows = problem.n2 + problem.m
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    lstsq_residual = float(np.linalg.norm(lhs @ sol - rhs))
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1.0)
    Y, residual, feasible = _solve_regulator(lhs, rhs, rows)
    assert feasible
    assert residual == lstsq_residual
    assert np.array_equal(Y, unvec(sol, (rows, problem.n1)))


CHECKS = [check_endo_stabilization, check_condition1, check_condition2]


def _decide(check, family, known):
    """check on family, with known when check takes the known matrices."""
    return check(family) if check is check_endo_stabilization else check(family, known)


def test_a_built_family_cannot_be_edited_under_its_factorization():
    # However the family was made, every block is read-only: a write used
    # to change the family that verification reads and, through the G or
    # Z of a replaced family, leave the kept SVD of G stale.
    for problem in (fixture_problem("scalar"), fixture_problem("planar")):
        built = compatible_set(problem)
        for family in (built, compatible_set_unknown_a3(problem), replace(built)):
            for name in ddreg.model._BLOCKS:
                assert not getattr(family, name).flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                family.A2_part[0, 0] = 9.0


@pytest.mark.parametrize("check", CHECKS)
def test_every_check_rejects_data_no_system_could_have_produced(check):
    # With E = 1 condition 1 holds and the data closed loop is stable,
    # yet no system matches the transitions, so no family can be built
    # for a check to decide on: the checks used to read the data alone
    # and return a verdict.
    problem = inconsistent_problem()
    known = problem.known
    problem = build_problem(
        problem.data,
        KnownMatrices(A1=known.A1, A3=known.A3, D1=known.D1, D2=known.D2, E=[[1.0]]),
    )
    with pytest.raises(InconsistentDataError) as expected:
        synthesize(problem)
    with pytest.raises(InconsistentDataError) as raised:
        _decide(check, compatible_set(problem), problem.known)
    assert str(raised.value) == str(expected.value)
    assert "residual 3.065e+00" in str(raised.value)


def _bits(value):
    """value with every array and float spelled out exactly, for a bitwise comparison."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, dict) or is_dataclass(value):
        items = value.items() if isinstance(value, dict) else vars(value).items()
        return tuple((key, _bits(item)) for key, item in items)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(item) for item in value)
    return value


def test_the_conditions_read_the_coupling_mode_from_the_family():
    # known still holds A3, and the family of the problem without it
    # decides as synthesize_unknown_a3 does, bit for bit: 11 of these 30
    # hold, the rest fail with the same reasons and diagnostics.
    held = 0
    for seed in range(30):
        problem = regulable_instance(seed).problem
        assert problem.known.A3 is not None
        outcome = check_condition2(compatible_set(problem.without_a3()), problem.known)
        assert _bits(outcome) == _bits(synthesize_unknown_a3(problem).report.condition2)
        if outcome.holds:
            assert outcome.regulator.provenance == "condition2_unknown_a3"
            held += 1
    assert held == 11


@pytest.mark.parametrize("name", ["scalar", "planar", "coupling-free-0"])
def test_a_family_made_by_hand_factors_g_on_first_use(name):
    # dataclasses.replace keeps no SVD of G, so the right-inverse step and
    # condition 2's witness W read the family's own factorization, made on
    # first use; K1, K2 and W must equal the decided family's bit for bit.
    if name == "coupling-free-0":
        problem, synth = coupling_free_instance(0).problem, synthesize_unknown_a3
    else:
        problem, synth = fixture_problem(name), synthesize
    decided = synth(problem).family
    hand_made = replace(decided)
    assert "_svd" not in vars(hand_made)
    outcome = check_condition2(hand_made, problem.known)
    expected = check_condition2(decided, problem.known)
    assert _bits(outcome) == _bits(expected)
    # planar fails the regulator equations, so no witness is formed there.
    assert outcome.holds == (name != "planar")
    assert "_svd" in vars(hand_made)


@pytest.mark.parametrize("name", ["scalar", "planar"])
def test_the_unknown_coupling_w_system_is_that_of_the_problem_without_a3(name):
    problem = fixture_problem(name)
    for got, want in zip(w_system_unknown_a3(problem), w_system(problem.without_a3())):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("synth", [synthesize, synthesize_unknown_a3])
def test_without_an_exosystem_both_entry_points_report_known_coupling(synth):
    # With n1 = 0 there is no coupling to withhold.  The report's line
    # used to follow the known matrices' A3 and the provenance the row
    # count of G, so synthesize said known coupling and its regulator
    # said unknown.
    result = synth(no_exosystem_problem())
    assert result.family.X1_minus is None
    assert result.report.messages == ["informative for regulator design via condition2"]
    assert result.regulator.provenance == "condition2"


@pytest.mark.parametrize(
    "call",
    [
        compatible_set,
        synthesize,
        synthesize_unknown_a3,
        w_system,
        *[
            pytest.param(
                lambda problem, check=check: _decide(check, compatible_set(problem), problem.known),
                id=check.__name__,
            )
            for check in CHECKS
        ],
    ],
)
def test_no_call_writes_to_the_problem(call):
    problem = fixture_problem("planar")
    before = dict(vars(problem))
    call(problem)
    assert vars(problem).keys() == before.keys()
    assert all(vars(problem)[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", ["scalar", "corpus-0"])
def test_an_identified_decision_checks_each_matrix_once_and_factors_it_once(name, monkeypatch):
    # Both problems identify the endosystem (r = 0).  synthesize factors
    # G for the family and the right-inverse constraints for the LMI.  It
    # converts no matrix: LmiProblem and the Regulator take the arrays the
    # decision made or checked, and A1's spectrum was classified when the
    # problem was built, so the S^-1 certificate needs no eigenvalues.
    # Verification adds the Sylvester operator's SVD and the closed loop's
    # eigenvalues, and no conversion.
    problem = fixture_problem("scalar") if name == "scalar" else regulable_instance(0).problem
    counts = {"svd": 0, "eigvals": 0, "_as_matrix": 0}
    svd, eigvals, as_matrix = np.linalg.svd, np.linalg.eigvals, ddreg.model._as_matrix

    def counting(key, function):
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", eigvals))
    for module in (ddreg.model, ddreg.analysis, ddreg.lmi, ddreg.synthesis, ddreg.simulation):
        if hasattr(module, "_as_matrix"):
            monkeypatch.setattr(module, "_as_matrix", counting("_as_matrix", as_matrix))
    result = synthesize(problem)
    assert result.family.r == 0
    assert counts == {"svd": 2, "eigvals": 0, "_as_matrix": 0}
    verify_regulator(result.regulator, result.family, problem.known)
    assert counts == {"svd": 3, "eigvals": 1, "_as_matrix": 0}

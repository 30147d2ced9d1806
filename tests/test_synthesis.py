"""End-to-end informativity decisions and gain synthesis."""

import numpy as np
import pytest

from ddreg import (
    AntiStabilityError,
    InconsistentDataError,
    KnownMatrices,
    ProblemData,
    Regulator,
    SynthesisConfig,
    build_problem,
    check_condition1,
    check_condition2,
    check_endo_stabilization,
    compatible_set,
    compatible_set_unknown_a3,
    spectral_info,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
    verify_regulator_unknown_a3,
    w_residual,
)
from ddreg.examples import REFERENCE, fixture_text
from ddreg.fileio import parse_problem

from _instances import coupling_free_instance, inconsistent_problem, regulable_instance


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
    for name in ("scalar", "planar"):
        problem = fixture_problem(name)
        first = synthesize(problem, SynthesisConfig(try_order="condition2_first"))
        second = synthesize(problem, SynthesisConfig(try_order="condition1_first"))
        assert (first.regulator is None) == (second.regulator is None)


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


@pytest.mark.parametrize("synth", [synthesize, synthesize_unknown_a3])
def test_data_no_system_could_have_produced_is_rejected(synth):
    # check_condition2 reads only the data and holds on them in both modes.
    with pytest.raises(InconsistentDataError, match="no system matches"):
        synth(inconsistent_problem())


def test_condition1_reports_image_inclusion_failure():
    problem = fixture_problem("scalar")
    outcome = check_condition1(problem)
    assert not outcome.holds
    assert "im D1" in outcome.reasons[0]
    assert outcome.lmi is None


def test_condition2_carries_witnesses():
    problem = fixture_problem("scalar")
    outcome = check_condition2(problem)
    assert outcome.holds
    regulator = outcome.regulator
    assert regulator.W is not None
    assert regulator.Theta is not None
    assert regulator.X2_dagger is not None
    assert outcome.diagnostics["w_residual"] < 1e-10


def test_endo_stabilization_stabilizes_every_member():
    problem = fixture_problem("planar")
    endo = check_endo_stabilization(problem)
    assert endo.informative
    cset = compatible_set(problem)
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
    outcome = check_condition1(regulable_instance(2).problem)
    assert not outcome.holds
    lam = outcome.lmi.witness.eigenvalue
    assert abs(lam) >= 1.0
    assert outcome.lmi.min_eig == 0.0
    assert "is a mode of the closed loop for every admissible" in outcome.reasons[0]


def test_a_missed_margin_is_not_reported_as_infeasibility():
    config = SynthesisConfig(lmi_margin=1e9)
    outcome = check_condition2(fixture_problem("scalar"), config)
    assert not outcome.holds
    assert outcome.lmi.witness is None
    assert 0.0 < outcome.lmi.min_eig < 1e9
    assert "exists, but its certificate reaches min_eig" in outcome.reasons[0]
    assert "no stabilizing right-inverse exists" not in outcome.reasons[0]


def test_search_settings_are_accepted_and_ignored():
    problem = fixture_problem("planar")
    default = synthesize(problem).regulator
    tuned = synthesize(
        problem, SynthesisConfig(lmi_budget=5, lmi_starts=1, lmi_seed=9)
    ).regulator
    assert np.array_equal(default.K1, tuned.K1)
    assert np.array_equal(default.K2, tuned.K2)


def test_synthesis_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(try_order="fastest_first")
    with pytest.raises(ValueError):
        SynthesisConfig(lmi_budget=0)

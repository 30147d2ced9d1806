"""Whole-family verification against the sampled, simulated reference."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ddreg import (
    DimensionError,
    KnownMatrices,
    NonFiniteError,
    Regulator,
    build_problem,
    check_condition1,
    check_condition2,
    check_output_regulated,
    compatible_set,
    member_at,
    spectral_info,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
)
from ddreg.analysis import _regulated
from ddreg.examples import EXAMPLE_NAMES, fixture_text
from ddreg.fileio import parse_problem

from _instances import (
    PLANAR_GAIN_SHAPES,
    WRONG_GAIN_SHAPES,
    coupling_free_instance,
    ladder_problems,
    regulable_instance,
    wrong_shape_regulator,
)
from _sampled_verifier import sampled_verdict

CASES = (
    [("regulable", seed, synthesize) for seed in range(100)]
    + [("coupling_free", seed, synthesize_unknown_a3) for seed in range(20)]
    + [("regulable", seed, synthesize_unknown_a3) for seed in range(30)]
    + [("fixture", name, synthesize) for name in EXAMPLE_NAMES]
)


def _problem(kind, key):
    if kind == "fixture":
        return parse_problem(fixture_text(key)).problem
    return (regulable_instance if kind == "regulable" else coupling_free_instance)(key).problem


def test_exact_and_sampled_verdicts_agree():
    checked = 0
    for kind, key, synth in CASES:
        problem = _problem(kind, key)
        result = synth(problem)
        if result.regulator is None:
            continue
        exact = verify_regulator(result.regulator, result.family, problem.known)
        sampled = sampled_verdict(result.regulator, result.family, problem.known, 10)
        assert exact.passed == sampled, (kind, key, synth.__name__, exact.residuals)
        checked += 1
    assert checked >= 130


def _planar_without_output():
    problem = _problem("fixture", "planar")
    known = problem.known
    silent = KnownMatrices(
        A1=known.A1,
        A3=known.A3,
        D1=np.zeros_like(known.D1),
        D2=np.zeros_like(known.D2),
        E=np.zeros_like(known.E),
    )
    return build_problem(problem.data, silent)


def test_a_gain_failing_only_outside_the_sampled_ball_is_rejected():
    # With the output set to zero only the closed loop matters.  Shifting
    # K2 makes the closed loop depend on N, slowly enough that every
    # member in the radius-5 ball stays stable.
    problem = _planar_without_output()
    result = synthesize(problem)
    family, known = result.family, problem.known
    regulator = result.regulator
    shifted = Regulator(K1=regulator.K1, K2=regulator.K2 + 0.01, provenance=regulator.provenance)
    assert sampled_verdict(shifted, family, known, 25)
    A2, B2, _ = member_at(family, np.full((family.n2, family.r), 1000.0))
    assert spectral_info(A2 + B2 @ shifted.K2).spectral_radius > 1.0

    report = verify_regulator(shifted, family, known)
    assert not report.passed
    assert report.residuals["closed_loop_spread"] > 1e-3
    assert verify_regulator(regulator, family, known).passed


def test_the_output_residuals_are_those_of_explicit_members():
    # A K1 error moves the output of a coupling-free family (A3 unknown):
    # the offset is the particular member's output, and each direction
    # is the output change from one unit step in N.
    problem = coupling_free_instance(3).problem
    result = synthesize_unknown_a3(problem)
    family, known = result.family, problem.known
    K1, K2 = result.regulator.K1 + 1e-3, result.regulator.K2
    report = verify_regulator(Regulator(K1=K1, K2=K2, provenance="test"), family, known)

    def output(N):
        A2, B2, A3 = member_at(family, N)
        D1, D2 = known.D1 + known.E @ K1, known.D2 + known.E @ K2
        return D1 + D2 @ check_output_regulated(known.A1, A2 + B2 @ K2, A3 + B2 @ K1, D1, D2).T

    base = output(np.zeros((family.n2, family.r)))
    steps = []
    for index in np.ndindex(family.n2, family.r):
        N = np.zeros((family.n2, family.r))
        N[index] = 1.0
        steps.append(np.linalg.norm(output(N) - base))
    assert not report.passed
    assert report.residuals["output_offset"] == pytest.approx(np.linalg.norm(base), rel=1e-9)
    assert report.residuals["output_direction"] == pytest.approx(max(steps), rel=1e-6)
    assert min(report.residuals["output_offset"], max(steps)) > 1e-6


def test_a_coupling_that_moves_with_n_is_found_along_a_direction():
    # Moving S3 leaves the particular member alone, so only the unit
    # directions of N can show that the other members are not regulated.
    problem = coupling_free_instance(3).problem
    result = synthesize_unknown_a3(problem)
    family = replace(result.family, S3=result.family.S3 + 0.1)
    report = verify_regulator(result.regulator, family, problem.known)
    assert not report.passed
    assert report.residuals["output_offset"] < 1e-12
    assert report.residuals["output_direction"] > 1e-6
    assert not sampled_verdict(result.regulator, family, problem.known, 10)


@pytest.mark.parametrize("field, shape", WRONG_GAIN_SHAPES, ids=str)
def test_verification_rejects_a_gain_of_the_wrong_shape(field, shape):
    # Before the check numpy broadcast a 1 x 1 K1 and reported a residual.
    problem = _problem("fixture", "planar")
    family = synthesize(problem).family
    message = f"{field} must have shape {PLANAR_GAIN_SHAPES[field]}, got {shape}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        verify_regulator(wrong_shape_regulator(field, shape), family, problem.known)


def _family_of_another_shape(field):
    """A consistent family that misfits the planar fixture (n2 = 2, m = 1, n1 = 3) in field.

    The scalar fixture has n2 = 1; regulable instance 1 has n2 = 2 and
    m = 2, and instance 95 has n2 = 2, m = 1 and n1 = 2.
    """
    kind, key = {"A2_part": ("fixture", "scalar"), "B2_part": ("regulable", 1),
                 "A3_part": ("regulable", 95)}[field]
    return compatible_set(_problem(kind, key))


@pytest.mark.parametrize(
    "check, name",
    [
        pytest.param(verify_regulator, "cset", id="verify"),
        pytest.param(check_condition1, "family", id="condition1"),
        pytest.param(check_condition2, "family", id="condition2"),
    ],
)
@pytest.mark.parametrize(
    "field, message",
    [
        pytest.param("A2_part", "A2_part must have shape (n2, n2) = (2, 2), got (1, 1); "
                     "n2 is read from known.D2", id="A2_part"),
        pytest.param("B2_part", "B2_part must have shape (n2, m) = (2, 1), got (2, 2); "
                     "m is read from known.E", id="B2_part"),
        pytest.param("A3_part", "A3_part must have shape (n2, n1) = (2, 3), got (2, 2); "
                     "n1 is read from known.A1", id="A3_part"),
    ],
)
def test_verification_rejects_a_family_of_other_known_matrices(check, name, field, message):
    # The scalar fixture's family with the planar fixture's regulator and
    # known matrices used to fail on the internal closed loop M; the
    # conditions decide on a family and known matrices the same way.  Each
    # family is consistent in itself, so only its fit to known is at fault.
    problem = _problem("fixture", "planar")
    family, known = _family_of_another_shape(field), problem.known
    args = (synthesize(problem).regulator, family, known) if name == "cset" else (family, known)
    with pytest.raises(DimensionError, match=f"^{re.escape(f'{name}.{message}')}$"):
        check(*args)


@pytest.mark.parametrize(
    "gain, named",
    [
        pytest.param(
            "K2", "the closed loop cset.A2_part + cset.B2_part K2 contains non-finite entries",
            id="closed-loop",
        ),
        # corpus-0 is identified (r = 0), so no kernel term is formed.
        pytest.param(
            "K1", "the Sylvester right-hand side cset.A3_part + cset.B2_part K1 contains "
            "non-finite entries", id="sylvester-rhs",
        ),
    ],
)
def test_gains_that_overflow_end_in_a_named_non_finite_error(gain, named):
    # corpus-0 has m = 2 and a row of B2_part near (1, 1), so gains of
    # 1e308 overflow the matrix they multiply into; numpy's overflow
    # warning would fail the test (pyproject.toml).
    problem = _problem("regulable", 0)
    result = synthesize(problem)
    gains = {"K1": result.regulator.K1, "K2": result.regulator.K2}
    gains[gain] = np.full_like(gains[gain], 1e308)
    regulator = Regulator(provenance="condition2", **gains)
    assert result.family.r == 0
    with pytest.raises(NonFiniteError, match=f"^{re.escape(named)}$"):
        verify_regulator(regulator, result.family, problem.known)


def test_an_overflowing_right_hand_side_of_a_family_with_kernel_names_both_terms():
    # The planar family has r = 1.  Its B2_part, scaled by 1e10 against
    # a K2 scaled by 1e-10, keeps the closed loop stable and makes a K1
    # of 1e308 overflow the Sylvester right-hand sides.
    problem = _problem("fixture", "planar")
    result = synthesize(problem)
    assert result.family.r == 1
    family = replace(result.family, B2_part=result.family.B2_part * 1e10)
    regulator = Regulator(
        provenance="condition2",
        K1=np.full_like(result.regulator.K1, 1e308),
        K2=result.regulator.K2 * 1e-10,
    )
    message = (
        "the Sylvester right-hand sides cset.A3_part + cset.B2_part K1 and "
        "cset.S3^T + cset.S2^T K1 contain non-finite entries"
    )
    with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
        verify_regulator(regulator, family, problem.known)


def test_the_regulation_core_matches_scipy_on_every_member_direction():
    # Verification's Sylvester stack, at N = 0 and along each e_i c_j^T of
    # the kernel coordinate, against scipy's Bartels-Stewart solve of
    # -A_cl T + T A1 = R_k; the output norms follow from the same T.
    problems = [regulable_instance(seed).problem for seed in range(100)]
    for seed in range(20):
        instance = coupling_free_instance(seed)
        known = replace(instance.problem.known, A3=instance.system.A3)
        problems += [instance.problem, build_problem(instance.problem.data, known)]
    problems += [problem for _, problem in ladder_problems()]
    directions = 0
    for problem in problems:
        run = synthesize if problem.known.A3 is not None else synthesize_unknown_a3
        result = run(problem)
        if result.regulator is None:
            continue
        family, known = result.family, problem.known
        K1, K2 = result.regulator.K1, result.regulator.K2
        A_cl = family.A2_part + family.B2_part @ K2
        C = family.S3.T + family.S2.T @ K1
        rhs = [family.A3_part + family.B2_part @ K1]
        I2 = np.eye(problem.n2)
        rhs += [np.outer(I2[i], C[j]) for i in range(problem.n2) for j in range(family.r)]
        C_cl, offset = known.D2 + known.E @ K2, known.D1 + known.E @ K1
        T, norms = _regulated(known.A1, A_cl, np.array(rhs), C_cl, offset)
        assert T.shape == (len(rhs), problem.n2, problem.n1)
        for k, R_k in enumerate(rhs):
            reference = scipy.linalg.solve_sylvester(-A_cl, known.A1, R_k)
            assert np.linalg.norm(T[k] - reference) <= 1e-10 * np.linalg.norm(reference)
            output = C_cl @ reference + (offset if k == 0 else 0.0)
            scale = np.linalg.norm(C_cl) * np.linalg.norm(reference) + np.linalg.norm(offset)
            assert abs(norms[k] - np.linalg.norm(output)) <= 1e-10 * scale
        directions += len(rhs) - 1
    assert directions > 0

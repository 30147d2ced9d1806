"""Whole-family verification against the sampled, simulated reference."""

import re
from dataclasses import replace

import numpy as np
import pytest

from ddreg import (
    DimensionError,
    KnownMatrices,
    Regulator,
    build_problem,
    check_output_regulated,
    member_at,
    spectral_info,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
)
from ddreg.examples import EXAMPLE_NAMES, fixture_text
from ddreg.fileio import parse_problem

from _instances import (
    PLANAR_GAIN_SHAPES,
    WRONG_GAIN_SHAPES,
    coupling_free_instance,
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

"""Data containers, validation and the compatible family."""

import warnings

import numpy as np
import pytest

from ddreg import (
    CompatibleSet,
    DimensionError,
    InconsistentDataError,
    KnownMatrices,
    NonFiniteError,
    ProblemData,
    build_problem,
    compatible_set,
    compatible_set_unknown_a3,
    member_at,
)
from ddreg.examples import fixture_text
from ddreg.fileio import parse_problem

from _instances import inconsistent_problem, regulable_instance


def scalar_problem():
    return parse_problem(fixture_text("scalar")).problem


def truncated_problem(seed):
    """Consistent instance with fewer samples than n2 + m, so r > 0."""
    instance = regulable_instance(seed)
    d = instance.problem.data
    tau = d.n2
    data = ProblemData(
        U_minus=d.U_minus[:, :tau],
        X1_minus=d.X1_minus[:, :tau],
        X2=d.X2[:, : tau + 1],
    )
    return build_problem(data, instance.problem.known)


def test_problem_data_validates_column_counts():
    with pytest.raises(DimensionError):
        ProblemData(
            U_minus=np.ones((1, 3)),
            X1_minus=np.ones((2, 4)),
            X2=np.ones((1, 4)),
        )
    with pytest.raises(DimensionError):
        ProblemData(
            U_minus=np.ones((1, 3)),
            X1_minus=np.ones((2, 3)),
            X2=np.ones((1, 3)),
        )


def test_problem_data_rejects_non_finite():
    X2 = np.ones((1, 4))
    X2[0, 2] = np.nan
    with pytest.raises(NonFiniteError):
        ProblemData(U_minus=np.ones((1, 3)), X1_minus=np.ones((2, 3)), X2=X2)


def test_problem_data_needs_at_least_one_sample():
    with pytest.raises(DimensionError):
        ProblemData(
            U_minus=np.ones((1, 0)),
            X1_minus=np.ones((2, 0)),
            X2=np.ones((1, 1)),
        )


def test_build_problem_names_offending_pair():
    data = ProblemData(
        U_minus=np.ones((1, 3)), X1_minus=np.ones((2, 3)), X2=np.ones((1, 4))
    )
    known = KnownMatrices(
        A1=np.eye(3),
        A3=np.ones((1, 3)),
        D1=np.ones((1, 3)),
        D2=np.ones((1, 1)),
        E=np.ones((1, 1)),
    )
    with pytest.raises(DimensionError, match="X1_minus"):
        build_problem(data, known)


def test_known_matrices_validates_rows():
    with pytest.raises(DimensionError):
        KnownMatrices(
            A1=np.eye(2),
            A3=np.ones((1, 2)),
            D1=np.ones((1, 2)),
            D2=np.ones((2, 1)),
            E=np.ones((1, 1)),
        )


def test_arrays_are_read_only():
    problem = scalar_problem()
    assert not problem.data.X2.flags.writeable
    assert not problem.known.A1.flags.writeable


def test_kernel_basis_is_orthonormal():
    for seed in range(10):
        problem = regulable_instance(seed).problem
        cset = compatible_set(problem)
        S = np.vstack([cset.S1, cset.S2])
        assert S.shape[1] == cset.r
        if cset.r:
            assert np.linalg.norm(S.T @ S - np.eye(cset.r)) < 1e-12


def test_identifiable_instance_recovers_true_system():
    for seed in range(10):
        instance = regulable_instance(seed)
        cset = compatible_set(instance.problem)
        assert cset.r == 0
        assert np.linalg.norm(cset.A2_part - instance.system.A2) < 1e-8
        assert np.linalg.norm(cset.B2_part - instance.system.B2) < 1e-8


def test_members_match_the_data():
    rng = np.random.default_rng(11)
    for seed in range(5):
        problem = truncated_problem(seed)
        data, known = problem.data, problem.known
        cset = compatible_set(problem)
        assert cset.r == (problem.n2 + problem.m) - np.linalg.matrix_rank(
            np.vstack([data.X2_minus, data.U_minus])
        )
        assert cset.r >= problem.m
        Z = data.X2_plus - known.A3 @ data.X1_minus
        for _ in range(10):
            N = rng.uniform(-10.0, 10.0, (cset.n2, cset.r))
            A2, B2, _ = member_at(cset, N)
            residual = A2 @ data.X2_minus + B2 @ data.U_minus - Z
            assert np.linalg.norm(residual) < 1e-10 * (1.0 + np.linalg.norm(Z))


def test_member_at_rejects_wrong_coordinate_shape():
    cset = compatible_set(scalar_problem())
    with pytest.raises(DimensionError):
        member_at(cset, np.ones((cset.n2, cset.r + 1)))


def test_inconsistent_data_raises():
    problem = scalar_problem()
    X2 = problem.data.X2.copy()
    X2[0, -1] += 1.0
    data = ProblemData(
        U_minus=problem.data.U_minus, X1_minus=problem.data.X1_minus, X2=X2
    )
    bad = build_problem(data, problem.known)
    with pytest.raises(InconsistentDataError):
        compatible_set(bad)


@pytest.mark.parametrize("build", [compatible_set, compatible_set_unknown_a3])
@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_overflowing_samples_fail_the_consistency_check(build, scale):
    # ||X2_plus|| overflows to inf here, which would make any residual
    # look small next to the bound.
    problem = inconsistent_problem()
    data = problem.data
    scaled = build_problem(
        ProblemData(
            U_minus=scale * data.U_minus, X1_minus=scale * data.X1_minus, X2=scale * data.X2
        ),
        problem.known,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentDataError, match="cannot be checked"):
            build(scaled)


def test_unknown_coupling_family_contains_more_directions():
    problem = scalar_problem()
    cset = compatible_set(problem)
    cset3 = compatible_set_unknown_a3(problem)
    assert cset3.r >= cset.r
    S = np.vstack([cset3.S1, cset3.S2, cset3.S3])
    if cset3.r:
        assert np.linalg.norm(S.T @ S - np.eye(cset3.r)) < 1e-12
    data = problem.data
    rng = np.random.default_rng(5)
    for _ in range(10):
        N = rng.uniform(-5.0, 5.0, (cset3.n2, cset3.r))
        A2, B2, A3 = member_at(cset3, N)
        residual = (
            A2 @ data.X2_minus + B2 @ data.U_minus + A3 @ data.X1_minus
            - data.X2_plus
        )
        assert np.linalg.norm(residual) < 1e-10 * (1.0 + np.linalg.norm(data.X2_plus))


def test_known_coupling_family_has_a_fixed_coupling_block():
    rng = np.random.default_rng(7)
    for problem in [scalar_problem(), truncated_problem(2), truncated_problem(4)]:
        data, known = problem.data, problem.known
        cset = compatible_set(problem)
        assert np.array_equal(cset.S3, np.zeros((problem.n1, cset.r)))
        assert np.array_equal(cset.A3_part, known.A3)
        for _ in range(5):
            N = rng.uniform(-10.0, 10.0, (cset.n2, cset.r))
            A2, B2, A3 = member_at(cset, N)
            assert np.array_equal(A3, known.A3)
            residual = (
                A2 @ data.X2_minus + B2 @ data.U_minus + A3 @ data.X1_minus
                - data.X2_plus
            )
            assert np.linalg.norm(residual) < 1e-10 * (
                1.0 + np.linalg.norm(data.X2_plus)
            )


def test_stripping_a3_gives_the_unknown_coupling_family():
    fields = ("A2_part", "B2_part", "A3_part", "S1", "S2", "S3")
    for problem in [scalar_problem(), truncated_problem(3), regulable_instance(6).problem]:
        known = problem.known
        stripped = build_problem(
            problem.data,
            KnownMatrices(A1=known.A1, A3=None, D1=known.D1, D2=known.D2, E=known.E),
        )
        via_none = compatible_set(stripped)
        via_wrapper = compatible_set_unknown_a3(problem)
        for name in fields:
            assert np.array_equal(getattr(via_none, name), getattr(via_wrapper, name)), name
        assert via_none.residual == via_wrapper.residual


def test_family_is_affine_in_the_coordinate():
    problem = truncated_problem(4)
    cset = compatible_set(problem)
    assert cset.r > 0
    rng = np.random.default_rng(3)
    Na = rng.uniform(-1.0, 1.0, (cset.n2, cset.r))
    Nb = rng.uniform(-1.0, 1.0, (cset.n2, cset.r))
    A2a, B2a, _ = member_at(cset, Na)
    A2b, B2b, _ = member_at(cset, Nb)
    A2m, B2m, _ = member_at(cset, 0.5 * (Na + Nb))
    assert np.allclose(A2m, 0.5 * (A2a + A2b), atol=1e-12)
    assert np.allclose(B2m, 0.5 * (B2a + B2b), atol=1e-12)


def test_compatible_set_shapes():
    problem = scalar_problem()
    cset = compatible_set(problem)
    assert isinstance(cset, CompatibleSet)
    assert cset.A2_part.shape == (problem.n2, problem.n2)
    assert cset.B2_part.shape == (problem.n2, problem.m)
    assert cset.S1.shape == (problem.n2, cset.r)
    assert cset.S2.shape == (problem.m, cset.r)

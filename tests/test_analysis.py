"""Spectral classification, Sylvester solves and the gain identity."""

import numpy as np
import pytest
import scipy.linalg

from ddreg import (
    AntiStabilityError,
    DimensionError,
    NonFiniteError,
    SingularOperatorError,
    assemble_gains,
    check_output_regulated,
    solve_classical_regulator,
    solve_sylvester,
    spectral_info,
)
from ddreg.analysis import _regulator_system, kron, unvec, vec
from ddreg.examples import REFERENCE

from _instances import exosystem, regulable_instance


def test_vec_is_column_major():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(M), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(M), M.shape), M)


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        M = rng.standard_normal(shape)
        assert np.array_equal(unvec(vec(M), shape), M)


def test_spectral_info_matches_dense_eigenvalues():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        M = rng.standard_normal((n, n))
        info = spectral_info(M)
        reference = np.sort_complex(scipy.linalg.eigvals(M))
        assert np.allclose(np.sort_complex(info.eigenvalues), reference, atol=1e-10)
        expected = np.sort(np.abs(reference))
        assert abs(info.spectral_radius - expected[-1]) < 1e-10
        assert info.is_stable == (info.spectral_radius < 1.0 - 1e-9)


def test_spectral_info_complex_pair():
    angle = 0.7
    M = 0.9 * np.array(
        [[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]]
    )
    info = spectral_info(M)
    expected = 0.9 * np.exp(1j * angle)
    assert np.allclose(
        np.sort_complex(info.eigenvalues),
        np.sort_complex(np.array([expected, expected.conj()])),
        atol=1e-12,
    )
    assert info.is_stable


def test_spectral_info_classifies_exosystems():
    rng = np.random.default_rng(2)
    for n1 in (1, 2, 3, 4):
        A1 = exosystem(n1, rng)
        info = spectral_info(A1)
        assert info.is_anti_stable
        assert not info.is_stable
        assert abs(info.spectral_radius - 1.0) < 1e-9


def test_kron_equals_numpy_kron():
    rng = np.random.default_rng(7)
    shapes = [(0, 0), (0, 3), (2, 0), (1, 1)] + [
        tuple(int(d) for d in rng.integers(0, 6, size=2)) for _ in range(30)
    ]
    for a_shape, b_shape in zip(shapes, shapes[::-1]):
        A = rng.standard_normal(a_shape)
        B = rng.standard_normal(b_shape)
        for left, right in ((A, B), (A.T, B), (A, np.eye(b_shape[0]))):
            product = kron(left, right)
            assert product.shape == np.kron(left, right).shape
            assert np.array_equal(product, np.kron(left, right))


def test_sylvester_operator_matches_action():
    # The builder's first block is Y -> X Y A1 - Z Y on vec(Y): with X = I
    # the Sylvester operator, with X = [I 0] that of the Francis equations.
    rng = np.random.default_rng(3)
    for _ in range(10):
        n1, n2, m = (int(rng.integers(1, 5)) for _ in range(3))
        A1 = rng.standard_normal((n1, n1))
        for X in (np.eye(n2), np.eye(n2, n2 + m)):
            Z = rng.standard_normal((n2, X.shape[1]))
            Y = rng.standard_normal((X.shape[1], n1))
            C = rng.standard_normal((2, X.shape[1]))
            lhs, _ = _regulator_system(A1, X, Z, np.zeros((n2, n1)), C, np.zeros((2, n1)))
            action = unvec(lhs[: n1 * n2] @ vec(Y), (n2, n1))
            assert np.allclose(action, X @ Y @ A1 - Z @ Y, atol=1e-12)


def test_solve_sylvester_residual():
    rng = np.random.default_rng(4)
    for seed in range(10):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        A1 = exosystem(n1, rng)
        A2 = rng.standard_normal((n2, n2))
        A2 *= 0.5 / max(np.abs(np.linalg.eigvals(A2)).max(), 0.5)
        A3 = rng.standard_normal((n2, n1))
        T = solve_sylvester(A1, A2, A3)
        assert np.linalg.norm(T @ A1 - A2 @ T - A3) < 1e-9 * (
            1.0 + np.linalg.norm(A3)
        )


def test_solve_sylvester_solves_a_stack_slice_by_slice():
    rng = np.random.default_rng(5)
    A1 = exosystem(3, rng)
    A2 = 0.3 * rng.standard_normal((2, 2))
    stack = rng.standard_normal((4, 2, 3))
    T = solve_sylvester(A1, A2, stack)
    assert T.shape == stack.shape
    for k in range(4):
        assert np.allclose(T[k], solve_sylvester(A1, A2, stack[k]), atol=1e-13)
    assert solve_sylvester(A1, A2, stack[:0]).shape == (0, 2, 3)


def test_solve_sylvester_rejects_shared_spectra():
    with pytest.raises(SingularOperatorError):
        solve_sylvester(np.eye(2), np.eye(2), np.ones((2, 2)))


def test_an_empty_endosystem_has_the_unique_empty_solution():
    assert solve_sylvester(np.eye(1), np.zeros((0, 0)), np.zeros((0, 1))).shape == (0, 1)
    assert solve_sylvester(np.eye(2), np.zeros((0, 0)), np.zeros((3, 0, 2))).shape == (3, 0, 2)
    for D1, regulated in [(np.zeros((1, 1)), True), (np.ones((1, 1)), False)]:
        check = check_output_regulated(
            np.eye(1), np.zeros((0, 0)), np.zeros((0, 1)), D1, np.zeros((1, 0))
        )
        assert check.regulated == regulated
        assert check.T.shape == (0, 1)
        assert check.output_residual == np.linalg.norm(D1)


def test_solve_sylvester_checks_shapes():
    with pytest.raises(DimensionError):
        solve_sylvester(np.eye(2), np.eye(2), np.ones((3, 2)))


def test_output_regulation_detects_back_solved_interconnection():
    rng = np.random.default_rng(5)
    A1 = exosystem(2, rng)
    A2 = np.array([[0.3, 0.1], [0.0, -0.4]])
    T = rng.standard_normal((2, 2))
    A3 = T @ A1 - A2 @ T
    D2 = rng.standard_normal((1, 2))
    D1 = -D2 @ T
    check = check_output_regulated(A1, A2, A3, D1, D2)
    assert check.regulated
    assert np.linalg.norm(check.T - T) < 1e-8
    assert check.output_residual < 1e-10

    broken = check_output_regulated(A1, A2, A3, D1 + 0.1, D2)
    assert not broken.regulated
    assert broken.output_residual > 1e-3


def test_output_regulation_requires_stable_endosystem():
    A1 = np.array([[1.0]])
    check = check_output_regulated(
        A1, np.array([[1.5]]), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))
    )
    assert not check.regulated
    assert check.T is None


def test_output_regulation_requires_anti_stable_exosystem():
    with pytest.raises(AntiStabilityError):
        check_output_regulated(
            np.array([[0.5]]),
            np.array([[0.2]]),
            np.ones((1, 1)),
            np.ones((1, 1)),
            np.ones((1, 1)),
        )


def test_classical_regulator_solves_back_solved_instances():
    for seed in range(8):
        instance = regulable_instance(seed)
        known = instance.problem.known
        system = instance.system
        result = solve_classical_regulator(
            known.A1, system.A2, system.B2, system.A3, known.D1, known.D2, known.E
        )
        assert result.feasible
        lhs1 = result.T @ known.A1 - system.A2 @ result.T - system.B2 @ result.V
        assert np.linalg.norm(lhs1 - system.A3) < 1e-7
        lhs2 = known.D1 + known.D2 @ result.T + known.E @ result.V
        assert np.linalg.norm(lhs2) < 1e-7


def test_classical_regulator_reports_infeasible():
    # Unit-circle endosystem pole shared with the exosystem and an output
    # that cannot be zeroed: the stacked equations have no solution.
    A1 = np.array([[1.0]])
    A2 = np.array([[1.0]])
    B2 = np.zeros((1, 1))
    A3 = np.ones((1, 1))
    D1 = np.ones((1, 1))
    D2 = np.zeros((1, 1))
    E = np.zeros((1, 1))
    result = solve_classical_regulator(A1, A2, B2, A3, D1, D2, E)
    assert not result.feasible
    assert result.residual > 0.5


def test_classical_regulator_refuses_an_overflowing_right_hand_side():
    # The output row reads 1 = 0 at either coupling.  With A3 = 1e300
    # the norm of the right-hand side overflows, and a residual compared
    # with an infinite reference would pass any rule.
    matrices = dict(A1=[[1.0]], A2=[[0.5]], B2=[[1.0]], D1=[[1.0]], D2=[[0.0]], E=[[0.0]])
    result = solve_classical_regulator(A3=[[1.0]], **matrices)
    assert not result.feasible
    assert result.residual == pytest.approx(1.0)
    with pytest.raises(NonFiniteError, match="regulator equations"):
        solve_classical_regulator(A3=[[1e300]], **matrices)


def test_assemble_gains_matches_reference_pair():
    ref = REFERENCE["scalar"]
    K1 = assemble_gains(ref["T"], ref["V"], ref["K2"])
    assert np.allclose(K1, ref["K1"], atol=1e-12)


def test_assemble_gains_checks_shapes():
    with pytest.raises(DimensionError):
        assemble_gains(np.ones((2, 3)), np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(DimensionError):
        assemble_gains(np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 2)))

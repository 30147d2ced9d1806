"""Feasibility search for the stabilizing right-inverse certificate."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from ddreg import (
    DimensionError,
    LmiProblem,
    check_theta,
    solve_lmi,
    spectral_info,
)
from ddreg.lmi import _DARE_RTOL, _STEIN_RTOL, _doubling, _stuck_mode, block_matrix
from ddreg.examples import fixture_text
from ddreg.fileio import parse_problem

from _pbh_reference import stuck_mode_reference


def scalar_instance():
    problem = parse_problem(fixture_text("scalar")).problem
    data, known = problem.data, problem.known
    Z = data.X2_plus - known.A3 @ data.X1_minus
    return LmiProblem(X=data.X2_minus, Z=Z)


def test_block_matrix_layout():
    B = block_matrix(np.array([[2.0]]), np.array([[3.0]]), np.array([[1.0]]))
    assert np.array_equal(B, [[2.0, 3.0], [3.0, 2.0]])


def test_scalar_feasible_reaches_analytic_optimum():
    # For X = 1, Z = z with |z| < 1 the block at theta is
    # [[theta, z theta], [z theta, theta]] with smallest eigenvalue
    # theta (1 - |z|); the optimum on the theta = rho sphere is known.
    problem = LmiProblem(X=np.array([[1.0]]), Z=np.array([[0.5]]), rho=1e3)
    solution = solve_lmi(problem)
    assert solution.found
    assert abs(solution.min_eig - 0.5 * problem.rho) < 1e-6 * problem.rho
    assert np.allclose(solution.X_dagger, [[1.0]], atol=1e-9)


def test_scalar_infeasible_reports_nonpositive_margin():
    problem = LmiProblem(X=np.array([[1.0]]), Z=np.array([[2.0]]))
    solution = solve_lmi(problem)
    assert not solution.found
    assert solution.min_eig <= 0.0
    assert solution.Theta is None
    assert solution.X_dagger is None


def test_zero_z_accepts_identity_right_inverse():
    # Z = 0 leaves the block diagonal, so any Theta with X Theta
    # positive definite works; with X = I the right inverse is I.
    problem = LmiProblem(X=np.eye(2), Z=np.zeros((2, 2)))
    solution = solve_lmi(problem)
    assert solution.found
    assert np.allclose(solution.X_dagger, np.eye(2), atol=1e-9)


def test_check_theta_at_zero_is_not_positive():
    problem = LmiProblem(X=np.eye(2), Z=np.zeros((2, 2)))
    assert check_theta(problem, np.zeros((2, 2))).min_eig <= 0.0


def test_reported_margin_matches_recheck():
    solution = solve_lmi(scalar_instance())
    assert solution.found
    recheck = check_theta(scalar_instance(), solution.Theta)
    assert abs(recheck.min_eig - solution.min_eig) < 1e-10


def test_lyapunov_witness_passes_check():
    # With X = I and Z = A stable, the Schur complement of the block at
    # Theta = P is P - A P A^T, so the discrete Lyapunov solution is a
    # ready-made feasible point.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
    problem = LmiProblem(X=np.eye(3), Z=A)
    P = scipy.linalg.solve_discrete_lyapunov(A, np.eye(3))
    check = check_theta(problem, P)
    assert check.symmetry_residual < 1e-10
    assert check.min_eig > 0.0
    assert np.allclose(check.X_dagger, np.eye(3), atol=1e-9)


# Agreement required with scipy's Schur-based solvers, which serve as the
# reference; both sides are backward stable, so the gap is roundoff
# amplified by the conditioning of these well-scaled draws.
REFERENCE_RTOL = 1e-8


def test_doubling_matches_the_reference_riccati_solution():
    # A Gaussian B makes (A, B) controllable with probability one.
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n)) * rng.uniform(0.2, 1.5) / np.sqrt(n)
        B = rng.standard_normal((n, m))
        expected = scipy.linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
        S = _doubling(A, B @ B.T, _DARE_RTOL)
        assert np.linalg.norm(S - expected) <= REFERENCE_RTOL * np.linalg.norm(expected)


def test_doubling_matches_the_reference_stein_solution():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 17))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.05, 0.99) / np.abs(np.linalg.eigvals(A)).max()
        expected = scipy.linalg.solve_discrete_lyapunov(A, np.eye(n))
        P = _doubling(A.T, None, _STEIN_RTOL)
        assert np.linalg.norm(P - expected) <= REFERENCE_RTOL * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "A",
    [
        np.array([[1.5]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.diag([1.0 + 1e-9, 0.5]),
        np.diag([1e200, 0.5]),
    ],
    ids=["unstable", "rotation", "barely-unstable", "overflowing"],
)
def test_stein_doubling_rejects_a_matrix_that_is_not_stable(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _doubling(A.T, None, _STEIN_RTOL)


@pytest.mark.parametrize("moved, expected", [(0, 3.0), (1, 2.0), (None, 2.0)])
def test_pbh_returns_the_first_stuck_one_of_two_unstable_modes(moved, expected):
    # Z X^dagger = diag(2, 3) + Z N F, and Z N reaches only the mode moved.
    X = np.eye(2, 3)
    Z = np.diag([2.0, 3.0]) @ X
    if moved is not None:
        Z[moved, 2] = 1.0
    Xp, N = X.T, np.eye(3)[:, 2:]
    assert _stuck_mode(Z, Xp, N) == stuck_mode_reference(Z, Xp, N) == expected
    solution = solve_lmi(LmiProblem(X=X, Z=Z))
    assert not solution.found
    assert solution.witness.eigenvalue == expected


def test_solver_certifies_stable_closed_loop():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        tau = n + int(rng.integers(0, 3))
        X = rng.standard_normal((n, tau))
        A = rng.standard_normal((n, n))
        A *= 0.7 / max(np.abs(np.linalg.eigvals(A)).max(), 0.7)
        problem = LmiProblem(X=X, Z=A @ X)
        solution = solve_lmi(problem)
        assert solution.found
        assert np.allclose(X @ solution.X_dagger, np.eye(n), atol=1e-7)
        radius = spectral_info(problem.Z @ solution.X_dagger).spectral_radius
        assert radius < 1.0


def test_solver_respects_equality_constraints():
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    problem = LmiProblem(
        X=X, Z=0.4 * X, equality_constraints=(np.array([[0.0, 0.0, 1.0]]),)
    )
    solution = solve_lmi(problem)
    assert solution.found
    constraint_residual = np.linalg.norm(problem.equality_constraints[0] @ solution.Theta)
    assert constraint_residual < 1e-8 * np.linalg.norm(solution.Theta)
    assert np.allclose(X @ solution.X_dagger, np.eye(2), atol=1e-8)


def test_scaling_doubles_margin_and_keeps_right_inverse():
    problem = scalar_instance()
    solution = solve_lmi(problem)
    assert solution.found
    base = check_theta(problem, solution.Theta)
    doubled = check_theta(problem, 2.0 * solution.Theta)
    assert abs(doubled.min_eig - 2.0 * base.min_eig) < 1e-9 * abs(base.min_eig)
    assert np.allclose(doubled.X_dagger, base.X_dagger, atol=1e-9)


def test_convex_combination_stays_feasible():
    problem = scalar_instance()
    a = solve_lmi(problem, seed=0)
    b = solve_lmi(problem, seed=1)
    assert a.found and b.found
    mid = check_theta(problem, 0.5 * (a.Theta + b.Theta))
    assert mid.min_eig >= min(a.min_eig, b.min_eig) - 1e-9


def test_rank_deficient_x_cannot_be_feasible():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    solution = solve_lmi(LmiProblem(X=X, Z=0.5 * X))
    assert not solution.found
    assert solution.min_eig == float("-inf")


def test_budget_limits_iterations():
    problem = scalar_instance()
    solution = solve_lmi(problem, budget=300, n_starts=3)
    assert solution.iterations <= 300


def test_solution_norm_matches_rho():
    problem = scalar_instance()
    solution = solve_lmi(problem)
    assert solution.found
    assert abs(np.linalg.norm(solution.Theta) - problem.rho) < 1e-6 * problem.rho


def test_problem_validation():
    with pytest.raises(DimensionError):
        LmiProblem(X=np.ones((2, 1)), Z=np.ones((2, 1)))
    with pytest.raises(DimensionError):
        LmiProblem(X=np.ones((1, 2)), Z=np.ones((2, 2)))
    with pytest.raises(DimensionError):
        LmiProblem(
            X=np.ones((1, 2)),
            Z=np.ones((1, 2)),
            equality_constraints=(np.ones((1, 3)),),
        )
    with pytest.raises(ValueError):
        LmiProblem(X=np.ones((1, 1)), Z=np.ones((1, 1)), rho=0.0)


def test_check_theta_reports_constraint_violation():
    problem = LmiProblem(
        X=np.ones((1, 2)),
        Z=0.5 * np.ones((1, 2)),
        equality_constraints=(np.array([[1.0, 0.0]]),),
    )
    check = check_theta(problem, np.array([[1.0], [1.0]]))
    assert check.equality_residuals[0] == pytest.approx(1.0)

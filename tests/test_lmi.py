"""Feasibility search for the stabilizing right-inverse certificate."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from ddreg import (
    DimensionError,
    LmiProblem,
    TrueSystem,
    check_theta,
    generate_data,
    solve_lmi,
    spectral_info,
)
from ddreg.lmi import (
    _DARE_RTOL,
    _STEIN_RTOL,
    _block_min_eig,
    _certified,
    _doubling,
    _inverse_certificate,
    _riccati_gain,
    _right_inverses,
    _stein_certificate,
    _stuck_mode,
    block_matrix,
)
from ddreg.examples import fixture_text
from ddreg.fileio import parse_problem
from ddreg.model import RESIDUAL_RTOL

from _instances import moved_along_null_space
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
    problem = LmiProblem(X=np.array([[1.0]]), Z=np.array([[0.5]]))
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


def test_a_missed_margin_still_runs_the_pbh_test():
    # The data of `gen-data --tau 5 --seed 1` on A2 = [[2, 0], [0.5, 0.3]],
    # B2 = [[0], [1]]: the mode 2 is out of reach of the input, yet the
    # Riccati gain converges and both certificates, S^-1 and the Stein
    # one, miss the margin by a hair instead of failing to build.
    system = TrueSystem(
        A1=np.array([[1.0]]),
        A2=np.array([[2.0, 0.0], [0.5, 0.3]]),
        B2=np.array([[0.0], [1.0]]),
        A3=np.array([[1.0], [0.0]]),
    )
    inputs = np.random.default_rng(1).uniform(-1.0, 1.0, size=(1, 5))
    data = generate_data(system, np.ones(1), np.ones(2), inputs)
    problem = LmiProblem(X=data.X2_minus, Z=data.X2_plus - system.A3 @ data.X1_minus)
    Xp, N = _right_inverses(problem)
    F, S = _riccati_gain(problem.Z @ Xp, problem.Z @ N)
    X_dagger = Xp + N @ F
    certificates = ((_inverse_certificate, X_dagger, S), (_stein_certificate, problem.Z, X_dagger))
    for certificate, *args in certificates:
        Theta, _ = _certified(problem, certificate, *args)
        assert _block_min_eig(problem.X, problem.Z, Theta) < problem.margin
    solution = solve_lmi(problem)
    assert not solution.found
    assert solution.witness.eigenvalue == pytest.approx(2.0)
    assert solution.min_eig == 0.0


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
    # Two distinct feasible points: the solver's Theta and that Theta
    # moved along the null space of X.
    problem = scalar_instance()
    a = solve_lmi(problem)
    assert a.found
    Theta_b = moved_along_null_space(problem, a)
    b = check_theta(problem, Theta_b)
    assert not np.allclose(Theta_b, a.Theta)
    assert b.min_eig >= 0.5 * a.min_eig >= problem.margin
    assert b.symmetry_residual <= 1e-9 * np.linalg.norm(problem.X @ Theta_b)
    assert b.X_dagger is not None
    mid = check_theta(problem, 0.5 * (a.Theta + Theta_b))
    assert mid.min_eig >= min(a.min_eig, b.min_eig) - 1e-9


@pytest.mark.parametrize(
    "X, Z, found, min_eig",
    [
        (np.eye(1, 3), 1e200 * np.ones((1, 3)), False, 0.0),
        (1e-300 * np.eye(1, 3), 0.5e-300 * np.eye(1, 3), False, 5e-298),
        (1e200 * np.eye(1, 3), 0.5e200 * np.eye(1, 3), True, 5e202),
    ],
    ids=["gain-overflows", "certificate-overflows", "certificate-norm-underflows"],
)
def test_an_overflowing_certificate_is_decided_without_a_warning(X, Z, found, min_eig):
    # Finite data whose Riccati gain (B0 B0^T) overflows, or whose Theta
    # has entries of about 1e300 or 1e-200 (|X^dagger| ~ 1e300, 1e-200)
    # before it is rescaled.  Every pair is stabilizable, so the PBH test
    # names no mode.  A failed construction is reported with min_eig 0,
    # and a built one with its block margin (closed loop 0.5, rho = 1e3),
    # which at |X| = 1e-300 stays below the absolute margin; none warns or
    # gives NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve_lmi(LmiProblem(X=X, Z=Z))
    assert solution.witness is None
    assert solution.found == found
    assert solution.min_eig == pytest.approx(min_eig, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e170, 1e200, 1e300])
def test_the_certificate_is_rescaled_without_overflow_at_any_scale_of_the_data(scale):
    # X = s e1^T and Z = s/2 e1^T have closed loop 0.5 at every s, and
    # X^dagger = e1 / s.  The squares of Theta's entries, about 1/s^2,
    # underflow from s = 1e170 on unless Theta is first divided by its
    # largest entry.
    solution = solve_lmi(LmiProblem(X=scale * np.eye(1, 3), Z=0.5 * scale * np.eye(1, 3)))
    assert solution.found
    assert solution.min_eig == pytest.approx(0.5 * scale * LmiProblem.rho, rel=1e-9)
    assert np.linalg.norm(solution.Theta) == pytest.approx(LmiProblem.rho, rel=1e-12)


@pytest.mark.parametrize("fraction, exists", [(0.9, True), (1.1, False)])
def test_the_constraints_admit_a_right_inverse_by_the_residual_rule(fraction, exists):
    # [I; eps e1^T] X^dagger = [I; 0] has least-squares residual
    # eps / sqrt(1 + eps^2), held to within_tolerance of ||[I; 0]||_F = 2.
    eps = fraction * RESIDUAL_RTOL * (1.0 + 2.0)
    constraint = eps * np.eye(1, 4)
    problem = LmiProblem(X=np.eye(4), Z=0.5 * np.eye(4), equality_constraints=(constraint,))
    assert (_right_inverses(problem) is not None) == exists


def test_rank_deficient_x_cannot_be_feasible():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    solution = solve_lmi(LmiProblem(X=X, Z=0.5 * X))
    assert not solution.found
    assert solution.min_eig == float("-inf")


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


def test_check_theta_reports_constraint_violation():
    problem = LmiProblem(
        X=np.ones((1, 2)),
        Z=0.5 * np.ones((1, 2)),
        equality_constraints=(np.array([[1.0, 0.0]]),),
    )
    check = check_theta(problem, np.array([[1.0], [1.0]]))
    assert check.equality_residuals[0] == pytest.approx(1.0)

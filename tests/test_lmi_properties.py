"""Properties of the exact right-inverse decision on random instances."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg import LmiProblem, check_theta, solve_lmi, spectral_info
from ddreg.lmi import _right_inverses, _stuck_mode

from _pbh_reference import stuck_mode_reference

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


def _random_stable(rng, n):
    A = rng.standard_normal((n, n))
    return A * (rng.uniform(0.1, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3))


@st.composite
def lmi_problems(draw):
    """Full-row-rank X, compatible constraints and a Z of one of three kinds.

    "random" draws Z freely.  "stable" makes Z X^dagger = A stable for
    every admissible right-inverse.  "stuck" gives Z X^dagger an unstable
    mode that no admissible right-inverse moves: in coordinates T, the
    last row of Z vanishes on the free directions.
    """
    n = draw(st.integers(1, 4))
    c_rows = draw(st.integers(0, 2))
    free = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "stable", "stuck"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tau = n + c_rows + free
    X = rng.standard_normal((n, tau))
    C = rng.standard_normal((c_rows, tau))
    if kind == "random":
        Z = rng.standard_normal((n, tau))
    else:
        A = _random_stable(rng, n)
        Z = A @ X + rng.standard_normal((n, c_rows)) @ C
        if kind == "stuck":
            A[-1, :-1] = 0.0
            A[-1, -1] = rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 2.0)
            K = rng.standard_normal((n, 2))
            K[-1] = 0.0
            T = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            Z = T @ (
                A @ X
                + rng.standard_normal((n, c_rows)) @ C
                + K @ rng.standard_normal((2, tau))
            )
            X = T @ X
    constraints = (C,) if c_rows else ()
    return LmiProblem(X=X, Z=Z, equality_constraints=constraints)


def _admissible_family(problem):
    """Xp and N computed independently of the solver."""
    S = np.vstack((problem.X,) + problem.equality_constraints)
    rhs = np.zeros((S.shape[0], problem.n))
    rhs[: problem.n] = np.eye(problem.n)
    Xp, *_ = np.linalg.lstsq(S, rhs, rcond=None)
    return Xp, scipy.linalg.null_space(S)


@PROPERTY_SETTINGS
@given(lmi_problems())
def test_found_certificates_pass_the_independent_check(problem):
    solution = solve_lmi(problem)
    if not solution.found:
        return
    check = check_theta(problem, solution.Theta)
    size = np.linalg.norm(problem.X @ solution.Theta)
    assert check.symmetry_residual <= 1e-8 * size
    for C, residual in zip(problem.equality_constraints, check.equality_residuals):
        assert residual <= 1e-8 * np.linalg.norm(C) * problem.rho
    assert check.min_eig >= problem.margin
    assert np.allclose(problem.X @ solution.X_dagger, np.eye(problem.n), atol=1e-8)
    assert spectral_info(problem.Z @ solution.X_dagger).spectral_radius < 1.0


@PROPERTY_SETTINGS
@given(lmi_problems(), st.integers(0, 2**32 - 1))
def test_a_witnessed_mode_survives_every_admissible_right_inverse(problem, seed):
    solution = solve_lmi(problem)
    if solution.found or solution.witness is None:
        return
    lam = solution.witness.eigenvalue
    assert lam is not None  # the generated constraints always admit X^dagger
    assert abs(lam) >= 1.0 - 1e-9
    Xp, N = _admissible_family(problem)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        F = 3.0 * rng.standard_normal((N.shape[1], problem.n))
        eigenvalues = np.linalg.eigvals(problem.Z @ (Xp + N @ F))
        assert np.abs(eigenvalues - lam).min() <= 1e-6 * (1.0 + abs(lam))


@PROPERTY_SETTINGS
@given(lmi_problems())
def test_the_batched_pbh_test_returns_the_mode_of_the_per_eigenvalue_loop(problem):
    family = _right_inverses(problem)
    assert family is not None  # the generated constraints always admit X^dagger
    Xp, N = family
    assert _stuck_mode(problem.Z, Xp, N) == stuck_mode_reference(problem.Z, Xp, N)


@PROPERTY_SETTINGS
@given(lmi_problems())
def test_a_certificate_and_a_witness_never_disagree(problem):
    # The PBH test runs only when the construction fails; here it runs on
    # every instance, so a found certificate that PBH would contradict, or
    # a witness other than PBH's first stuck mode, shows.
    Xp, N = _right_inverses(problem)
    mode = _stuck_mode(problem.Z, Xp, N)
    solution = solve_lmi(problem)
    if solution.found:
        assert mode is None
    elif solution.witness is not None:
        assert solution.witness.eigenvalue == mode


@PROPERTY_SETTINGS
@given(lmi_problems(), st.floats(0.25, 4.0))
def test_the_decision_is_invariant_under_positive_scaling(problem, c):
    scaled = LmiProblem(
        X=c * problem.X,
        Z=c * problem.Z,
        equality_constraints=problem.equality_constraints,
    )
    assert solve_lmi(scaled).found == solve_lmi(problem).found


def test_the_generator_covers_every_outcome():
    # The properties above are vacuous unless both outcomes occur.
    outcomes = set()

    @PROPERTY_SETTINGS
    @given(lmi_problems())
    def collect(problem):
        solution = solve_lmi(problem)
        if solution.found:
            outcomes.add("found")
        elif solution.witness is not None and solution.witness.eigenvalue is not None:
            outcomes.add("stuck mode")

    collect()
    assert outcomes == {"found", "stuck mode"}

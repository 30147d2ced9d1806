"""Model-based analysis primitives.

Spectral classification, the Sylvester equation, the classical regulator
equations and the gain-assembly identity.  These operate on explicit
system matrices; the data-driven layer reduces to them once a member of
the compatible family is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import UNIT_CIRCLE_MARGIN, DimensionError, _as_matrix, _as_square, within_tolerance

__all__ = [
    "AntiStabilityError",
    "SingularOperatorError",
    "SpectralInfo",
    "spectral_info",
    "require_anti_stable",
    "vec",
    "unvec",
    "kron",
    "solve_sylvester",
    "RegulationCheck",
    "check_output_regulated",
    "ClassicalRegulator",
    "solve_classical_regulator",
    "assemble_gains",
]


class AntiStabilityError(ValueError):
    """The exosystem matrix is not anti-stable."""


class SingularOperatorError(np.linalg.LinAlgError):
    """The vectorized equation operator is singular within tolerance."""


# Singularity cutoff of the Sylvester operator, relative to max(1, sigma_max).
_SINGULAR_RTOL = 1e-9


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M).ravel(order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of vec for the given matrix shape."""
    return np.asarray(v).reshape(shape, order="F")


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-d arrays, equal to np.kron entry for entry.

    Forms the same products a_ij b_kl with one broadcast multiply and
    skips np.kron's general n-d bookkeeping.
    """
    (p, q), (r, s) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * r, q * s)


@dataclass(frozen=True, eq=False)
class SpectralInfo:
    """Eigenvalues and their position relative to the unit circle."""

    eigenvalues: np.ndarray
    spectral_radius: float
    is_stable: bool
    is_anti_stable: bool


def spectral_info(M) -> SpectralInfo:
    """Classify the spectrum of a square matrix.

    Eigenvalues come from LAPACK's general eigenvalue solver, which
    returns real eigenvalues with zero imaginary part and complex ones as
    exact conjugate pairs.  A matrix is stable when its spectral radius
    is below 1 - UNIT_CIRCLE_MARGIN and anti-stable when every eigenvalue
    modulus is at least 1 - UNIT_CIRCLE_MARGIN.
    """
    M, _ = _as_square("M", M, "n")
    if M.shape[0] == 0:
        return SpectralInfo(np.array([], dtype=complex), 0.0, True, True)
    eigenvalues = np.linalg.eigvals(M).astype(complex)
    moduli = np.abs(eigenvalues)
    radius = float(moduli.max())
    return SpectralInfo(
        eigenvalues=eigenvalues,
        spectral_radius=radius,
        is_stable=bool(radius < 1.0 - UNIT_CIRCLE_MARGIN),
        is_anti_stable=bool(moduli.min() >= 1.0 - UNIT_CIRCLE_MARGIN),
    )


def require_anti_stable(A1) -> None:
    """Raise AntiStabilityError unless the exosystem matrix A1 is anti-stable."""
    A1, _ = _as_square("A1", A1, "n1")
    if not spectral_info(A1).is_anti_stable:
        raise AntiStabilityError(
            "A1 must be anti-stable: stable exosystem modes decay on their own "
            "and make the data uninformative about regulation"
        )


def sylvester_operator(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Matrix of T -> T A1 - A2 T acting on vec(T)."""
    n1 = A1.shape[0]
    n2 = A2.shape[0]
    return kron(A1.T, np.eye(n2)) - kron(np.eye(n1), A2)


def solve_sylvester(A1, A2, A3) -> np.ndarray:
    """Solve T A1 - A2 T = A3 for T.

    The equation is vectorized to (A1^T kron I - I kron A2) vec(T) =
    vec(A3) and solved densely.  A3 may also be a stack of shape
    (k, n2, n1): the k right-hand sides share one solve and T has the
    same shape.  Raises SingularOperatorError when the spectra of A1 and
    A2 intersect within tolerance, which makes the operator singular.
    """
    A1, _ = _as_square("A1", A1, "n1")
    A2, _ = _as_square("A2", A2, "n2")
    A3 = np.asarray(A3, dtype=float)
    n1, n2 = A1.shape[0], A2.shape[0]
    if A3.ndim not in (2, 3) or A3.shape[-2:] != (n2, n1):
        raise DimensionError(
            f"A3 must have shape ({n2}, {n1}) or (k, {n2}, {n1}), got {A3.shape}"
        )
    L = sylvester_operator(A1, A2)
    s = np.linalg.svd(L, compute_uv=False)
    if s.size == 0 or s[-1] <= _SINGULAR_RTOL * max(1.0, s[0]):
        raise SingularOperatorError(
            "spectra of A1 and A2 intersect within tolerance; "
            "the Sylvester operator is singular"
        )
    # Column k of rhs is vec(A3[k]); row k of the solution is vec(T[k]).
    rhs = A3.reshape(-1, n2, n1).swapaxes(1, 2).reshape(-1, n1 * n2)
    T = np.linalg.solve(L, rhs.T).T.reshape(-1, n1, n2).swapaxes(1, 2)
    return T.reshape(A3.shape)


@dataclass(frozen=True, eq=False)
class RegulationCheck:
    """Outcome of the output-regulation test for a fixed closed loop."""

    regulated: bool
    T: np.ndarray | None
    output_residual: float | None


def _loop_matrices(A1, A2, A3, D1, D2) -> tuple:
    """The five matrices checked against n1 (from A1), n2 (from A2) and p (from D1)."""
    A1, n1 = _as_square("A1", A1, "n1")
    A2, n2 = _as_square("A2", A2, "n2")
    D1 = _as_matrix("D1", D1, ("p", None), n1)
    D2 = _as_matrix("D2", D2, ("p", D1.shape[0], "D1"), n2)
    return A1, A2, _as_matrix("A3", A3, n2, n1), D1, D2


def check_output_regulated(A1, A2, A3, D1, D2) -> RegulationCheck:
    """Decide output regulation for explicit matrices.

    Requires A1 anti-stable (see require_anti_stable).  The
    interconnection is regulated iff A2 is stable and the unique solution
    T of T A1 - A2 T = A3 satisfies D1 + D2 T = 0 within_tolerance of
    ||D1||.  Every matrix is checked for finiteness and shape first.
    """
    A1, A2, A3, D1, D2 = _loop_matrices(A1, A2, A3, D1, D2)
    require_anti_stable(A1)
    if not spectral_info(A2).is_stable:
        return RegulationCheck(regulated=False, T=None, output_residual=None)
    T = solve_sylvester(A1, A2, A3)
    residual = float(np.linalg.norm(D1 + D2 @ T))
    regulated = within_tolerance(residual, float(np.linalg.norm(D1)))
    return RegulationCheck(regulated=regulated, T=T, output_residual=residual)


@dataclass(frozen=True, eq=False)
class ClassicalRegulator:
    """Least-squares solution of the model-based regulator equations."""

    feasible: bool
    T: np.ndarray
    V: np.ndarray
    residual: float


def solve_classical_regulator(A1, A2, B2, A3, D1, D2, E) -> ClassicalRegulator:
    """Solve T A1 - A2 T - B2 V = A3,  D1 + D2 T + E V = 0 for (T, V).

    Both equations are vectorized, stacked and solved by least squares;
    the pair is reported infeasible when the residual fails
    within_tolerance of ||rhs||.  Requires A1 anti-stable; every matrix
    is checked for finiteness and shape first.
    """
    A1, A2, A3, D1, D2 = _loop_matrices(A1, A2, A3, D1, D2)
    B2 = _as_matrix("B2", B2, ("n2", A2.shape[0], "A2"), ("m", None))
    E = _as_matrix("E", E, ("p", D1.shape[0], "D1"), ("m", B2.shape[1], "B2"))
    require_anti_stable(A1)
    n1, n2, m = A1.shape[0], A2.shape[0], B2.shape[1]
    I1 = np.eye(n1)
    top = np.hstack([sylvester_operator(A1, A2), -kron(I1, B2)])
    bottom = np.hstack([kron(I1, D2), kron(I1, E)])
    lhs = np.vstack([top, bottom])
    rhs = np.concatenate([vec(A3), -vec(D1)])
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    residual = float(np.linalg.norm(lhs @ sol - rhs))
    T = unvec(sol[: n1 * n2], (n2, n1))
    V = unvec(sol[n1 * n2 :], (m, n1))
    feasible = within_tolerance(residual, float(np.linalg.norm(rhs)))
    return ClassicalRegulator(feasible=feasible, T=T, V=V, residual=residual)


def assemble_gains(T, V, K2) -> np.ndarray:
    """Exosystem gain K1 = -K2 T + V from a regulator-equation pair (T, V).

    T is n2 x n1 and V m x n1, where K2 is m x n2.
    """
    K2 = _as_matrix("K2", K2)
    T = _as_matrix("T", T, ("n2", K2.shape[1], "K2"), ("n1", None))
    V = _as_matrix("V", V, ("m", K2.shape[0], "K2"), ("n1", T.shape[1], "T"))
    return -K2 @ T + V

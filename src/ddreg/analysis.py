"""Model-based analysis primitives.

Spectral classification, the Sylvester equation, the regulator
equations and the gain-assembly identity.  These operate on explicit
system matrices; the data-driven layer reduces to them once a member of
the compatible family is fixed: condition 2 runs solve_classical_regulator's
core (_francis), and verification check_output_regulated's (_regulated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DimensionError,
    NonFiniteError,
    SpectralInfo,
    _as_matrix,
    _as_real,
    _as_square,
    _spectrum,
    within_tolerance,
)

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
    """The Sylvester operator is numerically singular: near spectra or bad scaling."""


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


def spectral_info(M) -> SpectralInfo:
    """Classify the spectrum of a square matrix.

    Eigenvalues come from LAPACK's general eigenvalue solver, which
    returns real eigenvalues with zero imaginary part and complex ones as
    exact conjugate pairs.  A matrix is stable when its spectral radius
    is below 1 - UNIT_CIRCLE_MARGIN and anti-stable when every eigenvalue
    modulus is at least 1 - UNIT_CIRCLE_MARGIN.  M is checked to be
    square and finite; the program's own callers pass matrices they have
    checked to _spectrum, which classifies without converting.
    """
    M, _ = _as_square("M", M, "n")
    return _spectrum(M)


def require_anti_stable(A1) -> None:
    """Raise AntiStabilityError unless the exosystem matrix A1 is anti-stable.

    A1 is converted and checked once; _require_anti_stable raises on a
    classification already made, such as KnownMatrices carries.
    """
    A1, _ = _as_square("A1", A1, "n1")
    _require_anti_stable(_spectrum(A1).is_anti_stable)


def _require_anti_stable(is_anti_stable: bool) -> None:
    if not is_anti_stable:
        raise AntiStabilityError(
            "A1 must be anti-stable: stable exosystem modes decay on their own "
            "and make the data uninformative about regulation"
        )


def solve_sylvester(A1, A2, A3) -> np.ndarray:
    """Solve T A1 - A2 T = A3 for T.

    The equation is vectorized to (A1^T kron I - I kron A2) vec(T) =
    vec(A3) and solved densely.  A3 may also be a stack of shape
    (k, n2, n1): the k right-hand sides share one solve and T has the
    same shape; with n2 = 0 the empty solution is returned.  Raises
    NonFiniteError when A3 has a non-finite entry and SingularOperatorError
    when the operator is numerically singular.  The checks run here;
    _regulated, with no output rows, solves for checked arguments.
    """
    A1, _ = _as_square("A1", A1, "n1")
    A2, _ = _as_square("A2", A2, "n2")
    A3 = _as_real("A3", A3)
    n1, n2 = A1.shape[0], A2.shape[0]
    if A3.ndim not in (2, 3) or A3.shape[-2:] != (n2, n1):
        raise DimensionError(
            f"A3 must have shape ({n2}, {n1}) or (k, {n2}, {n1}), got {A3.shape}"
        )
    if not np.isfinite(A3).all():
        raise NonFiniteError("A3 contains non-finite entries")
    T, _ = _regulated(A1, A2, A3 if A3.ndim == 3 else A3[None], np.empty((0, n2)), 0.0)
    return T.reshape(A3.shape)


def _regulated(A1, A_cl, rhs, C_cl, offset) -> tuple[np.ndarray, np.ndarray]:
    """(T, norms): T[k] A1 - A_cl T[k] = rhs[k], norms[k] = ||C_cl T[k] (+ offset at k = 0)||."""
    n1, n2 = A1.shape[0], A_cl.shape[0]
    L = _operator(A1, np.eye(n2), A_cl)
    s = np.linalg.svd(L, compute_uv=False)
    if s.size and s[-1] <= _SINGULAR_RTOL * max(1.0, s[0]):
        raise SingularOperatorError(
            "the Sylvester operator of A1 and A2 is numerically singular (sigma_min/max(1, "
            f"sigma_max) = {s[-1] / max(1.0, s[0]):.1e} <= {_SINGULAR_RTOL:.0e}); the spectra "
            "nearly intersect or the data are badly scaled"
        )
    # Column k of b is vec(rhs[k]); row k of the solution is vec(T[k]).
    b = rhs.swapaxes(1, 2).reshape(len(rhs), n1 * n2)
    T = np.linalg.solve(L, b.T).T.reshape(len(rhs), n1, n2).swapaxes(1, 2)
    outputs = C_cl @ T
    outputs[:1] += offset
    return T, np.linalg.norm(outputs, axis=(1, 2))


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

    Requires A1 anti-stable (see require_anti_stable).  Regulated iff A2
    is stable and the unique T of T A1 - A2 T = A3 meets D1 + D2 T = 0
    within_tolerance of ||D1||, by verify_regulator's solve, which raises
    SingularOperatorError.  Every matrix is checked for finiteness and shape first.
    """
    A1, A2, A3, D1, D2 = _loop_matrices(A1, A2, A3, D1, D2)
    _require_anti_stable(_spectrum(A1).is_anti_stable)
    if not _spectrum(A2).is_stable:
        return RegulationCheck(regulated=False, T=None, output_residual=None)
    (T,), (residual,) = _regulated(A1, A2, A3[None], D2, D1)
    regulated = within_tolerance(float(residual), float(np.linalg.norm(D1)))
    return RegulationCheck(regulated=regulated, T=T, output_residual=float(residual))


def _operator(A1, X, Z) -> np.ndarray:
    return kron(A1.T, X) - kron(np.eye(A1.shape[0]), Z)


def _regulator_system(A1, X, Z, R, C, D1, K=None, Q=None) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of X Y A1 - Z Y = R, (K Y = Q,) D1 + C Y = 0 on vec(Y), rows in that order."""
    I1 = np.eye(A1.shape[0])
    blocks, rhs = [_operator(A1, X, Z)], [vec(R)]
    if K is not None:
        blocks, rhs = blocks + [kron(I1, K)], rhs + [vec(Q)]
    return np.vstack(blocks + [kron(I1, C)]), np.concatenate(rhs + [-vec(D1)])


def _solve_regulator(lhs, rhs, rows: int) -> tuple[np.ndarray, float, bool]:
    """(Y, residual, holds): LU when square, kept if finite and it holds; else least squares.

    Raises NonFiniteError when ||rhs|| or the least-squares residual
    overflows: no residual rule can decide the equations then.
    """
    shape = (rows, lhs.shape[1] // rows)
    # Overflow is reported below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        reference = float(np.linalg.norm(rhs))
        if lhs.shape[0] == lhs.shape[1] and math.isfinite(reference):
            try:
                sol = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                sol = None
            if sol is not None and np.isfinite(sol).all():
                residual = float(np.linalg.norm(lhs @ sol - rhs))
                if within_tolerance(residual, reference):
                    return unvec(sol, shape), residual, True
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        residual = float(np.linalg.norm(lhs @ sol - rhs))
    if not (math.isfinite(reference) and math.isfinite(residual)):
        raise NonFiniteError(
            "the regulator equations cannot be checked: the norm of their "
            "right-hand side or their residual overflows double precision"
        )
    return unvec(sol, shape), residual, within_tolerance(residual, reference)


def _francis(A1, A2, B2, A3, D1, D2, E, kernel=()) -> tuple[np.ndarray, float, bool]:
    """(Y = [T; V], residual, holds) of T A1 - A2 T - B2 V = A3, (K Y = Q,) D1 + D2 T + E V = 0."""
    n2, m = B2.shape
    X, Z, C = np.eye(n2, n2 + m), np.hstack([A2, B2]), np.hstack([D2, E])
    return _solve_regulator(*_regulator_system(A1, X, Z, A3, C, D1, *kernel), n2 + m)


@dataclass(frozen=True, eq=False)
class ClassicalRegulator:
    """Solution of the model-based regulator equations and whether it holds."""

    feasible: bool
    T: np.ndarray
    V: np.ndarray
    residual: float


def solve_classical_regulator(A1, A2, B2, A3, D1, D2, E) -> ClassicalRegulator:
    """Solve T A1 - A2 T - B2 V = A3,  D1 + D2 T + E V = 0 for (T, V).

    The Francis equations for Y = [T; V], by condition 2's solve: LU
    when p = m makes them square, least squares otherwise; the pair is
    reported infeasible when the residual fails within_tolerance of
    ||rhs||, and NonFiniteError is raised when either overflows.
    Requires A1 anti-stable; every matrix is checked for finiteness and
    shape first.
    """
    A1, A2, A3, D1, D2 = _loop_matrices(A1, A2, A3, D1, D2)
    B2 = _as_matrix("B2", B2, ("n2", A2.shape[0], "A2"), ("m", None))
    E = _as_matrix("E", E, ("p", D1.shape[0], "D1"), ("m", B2.shape[1], "B2"))
    _require_anti_stable(_spectrum(A1).is_anti_stable)
    Y, residual, feasible = _francis(A1, A2, B2, A3, D1, D2, E)
    return ClassicalRegulator(feasible=feasible, T=Y[: len(A2)], V=Y[len(A2) :], residual=residual)


def assemble_gains(T, V, K2) -> np.ndarray:
    """Exosystem gain K1 = -K2 T + V from a regulator-equation pair (T, V).

    T is n2 x n1 and V m x n1, where K2 is m x n2.
    """
    K2 = _as_matrix("K2", K2)
    T = _as_matrix("T", T, ("n2", K2.shape[1], "K2"), ("n1", None))
    V = _as_matrix("V", V, ("m", K2.shape[0], "K2"), ("n1", T.shape[1], "T"))
    return -K2 @ T + V

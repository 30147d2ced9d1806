"""Exact decision of the stabilizing right-inverse condition.

A right-inverse of X making Z X^dagger stable exists iff some Theta with
X Theta symmetric makes the block matrix

    [[X Theta, Z Theta], [Theta^T Z^T, X Theta]]

positive definite; X^dagger is then Theta (X Theta)^{-1}.  Optional
equality constraints C_k Theta = 0 restrict the admissible right-inverses
(they carry requirements such as output zeroing or coupling rejection).

Every admissible right-inverse is Xp + N F, with Xp solving
[X; C_k] Xp = [I; 0] and N spanning the null space of [X; C_k], so
Z X^dagger = Z Xp + Z N F and a stabilizing one exists iff (Z Xp, Z N)
is stabilizable.  The decision constructs first: a discrete Riccati
design gives F, and the Lyapunov solution P of the closed loop gives the
certificate Theta = X^dagger P, whose block margin proves "yes".  Only
when that construction fails does a Popov-Belevitch-Hautus rank test
run, to name the unstable mode that no F moves.

Both equations are solved by one structure-preserving doubling
iteration: Anderson's doubling for the discrete Riccati equation
(Int. J. Control 28, 1978), which reduces to Smith's doubling for the
Stein equation (SIAM J. Appl. Math. 16, 1968) when the input term is
zero.  A Riccati step takes one linear solve and a few matrix products;
a Stein step needs no solve, only two products and a squaring of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .model import (
    UNIT_CIRCLE_MARGIN,
    DimensionError,
    _as_matrix,
    _assign,
    rank_from_singular_values,
)

__all__ = [
    "LmiProblem",
    "LmiSolution",
    "ThetaCheck",
    "Witness",
    "block_matrix",
    "solve_lmi",
    "check_theta",
]

# PBH rank cutoff, relative to the size of the data behind A0 and B0.  On
# the bundled test corpora uncontrollable modes sit below 3e-16 on this
# scale and controllable ones above 7e-10.
_PBH_RTOL = 1e-12
# Doubling steps before giving up; each squares the convergence factor,
# so a stable closed loop settles in far fewer.  The Riccati and Stein
# iterations stop once a step changes H by less than these fractions.
_DOUBLING_STEPS = 64
_DARE_RTOL = 1e-14
_STEIN_RTOL = 1e-16


@dataclass(frozen=True, eq=False)
class LmiProblem:
    """Data of one feasibility instance.

    X and Z are finite n x tau matrices with tau >= n; each equality
    constraint is a finite matrix C with tau columns imposing C Theta = 0.  The constant rho is
    the Frobenius norm of the returned Theta, and margin the acceptance
    threshold on the smallest block eigenvalue.
    """

    X: np.ndarray
    Z: np.ndarray
    equality_constraints: tuple[np.ndarray, ...] = ()
    rho: ClassVar[float] = 1e3
    margin: ClassVar[float] = 1e-6

    def __post_init__(self):
        X = _as_matrix("X", self.X)
        n, tau = X.shape
        if tau < n:
            raise DimensionError(f"X must have tau >= n, got shape {X.shape}")
        n, tau = ("n", n, "X"), ("tau", tau, "X")
        constraints = tuple(
            _as_matrix(f"equality_constraints[{k}]", C, ("rows", None), tau)
            for k, C in enumerate(self.equality_constraints)
        )
        _assign(self, X=X, Z=_as_matrix("Z", self.Z, n, tau), equality_constraints=constraints)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def tau(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Witness:
    """Why no admissible right-inverse makes Z X^dagger stable.

    eigenvalue is a mode, |eigenvalue| >= 1, of Z X^dagger for every
    admissible X^dagger; None means that no right-inverse of X satisfies
    the constraints.
    """

    eigenvalue: complex | None = None

    def __str__(self) -> str:
        lam = self.eigenvalue
        if lam is None:
            return "no right-inverse of X satisfies the constraints"
        text = f"{lam.real:.6g}" if lam.imag == 0 else f"{lam:.6g}"
        return (
            f"eigenvalue {text} (modulus {abs(lam):.6g}) is a mode of "
            "the closed loop for every admissible right-inverse"
        )


@dataclass(frozen=True, eq=False)
class LmiSolution:
    """Decision with its certificate.  min_eig is the block eigenvalue.

    When found is False, Theta and X_dagger are None.  A witness proves
    that no admissible right-inverse is stabilizing; min_eig is then 0
    (the supremum over admissible Theta), or -inf without any
    right-inverse.  Without a witness a stabilizing right-inverse exists
    but its certificate reached only min_eig, below the margin.
    iterations is always 0: nothing is searched.
    """

    found: bool
    Theta: np.ndarray | None
    min_eig: float
    X_dagger: np.ndarray | None
    iterations: int = 0
    witness: Witness | None = None


@dataclass(frozen=True, eq=False)
class ThetaCheck:
    """Verification of a candidate Theta against one instance."""

    symmetry_residual: float
    equality_residuals: tuple[float, ...]
    min_eig: float
    X_dagger: np.ndarray | None


def block_matrix(X, Z, Theta) -> np.ndarray:
    """Assemble the 2n x 2n feasibility block for a candidate Theta."""
    P = X @ Theta
    Q = Z @ Theta
    n = P.shape[0]
    B = np.empty((2 * n, 2 * n), dtype=np.result_type(P, Q))
    B[:n, :n] = B[n:, n:] = P
    B[:n, n:] = Q
    B[n:, :n] = Q.T
    return B


def _block_min_eig(X, Z, Theta) -> float:
    # The block is symmetric only up to the symmetry residual of X Theta;
    # symmetrizing keeps solver and checker numerically identical.
    B = block_matrix(X, Z, Theta)
    return float(np.linalg.eigvalsh(0.5 * (B + B.T))[0])


def _right_inverses(problem: LmiProblem) -> tuple[np.ndarray, np.ndarray] | None:
    """Xp and an orthonormal N with {Xp + N F} the admissible right-inverses.

    Returns None when [X; C_k] X^dagger = [I; 0] has no solution.
    """
    n = problem.n
    S = np.vstack((problem.X,) + problem.equality_constraints)
    rhs = np.zeros((S.shape[0], n))
    rhs[:n] = np.eye(n)
    U, s, Vh = np.linalg.svd(S)
    r = rank_from_singular_values(s, S.shape)
    # [I; 0] is in the range of S iff no left null vector of S reaches the
    # rows of X; on the test corpora such a part is below 1e-15 or above 0.1.
    if np.linalg.norm(U[:n, r:]) > 1e-8:
        return None
    Xp = Vh[:r].T @ ((U[:, :r].T @ rhs) / s[:r, None])
    return Xp, Vh[r:].T


def _stuck_mode(Z, Xp, N) -> complex | None:
    """The first eigenvalue |lambda| >= 1 of Z Xp that no Z N F moves (PBH test).

    Z N is scaled by |Xp| into the units of Z Xp.  |Z| |Xp| bounds both,
    so their roundoff is about eps times that, which sets the cutoff.
    """
    n = Z.shape[0]
    xp_norm = np.linalg.norm(Xp, 2)
    A0, B0 = Z @ Xp, xp_norm * (Z @ N)
    cutoff = _PBH_RTOL * max(1.0, np.linalg.norm(Z, 2) * xp_norm)
    eigenvalues = np.linalg.eigvals(A0)
    candidates = eigenvalues[np.abs(eigenvalues) >= 1.0 - UNIT_CIRCLE_MARGIN]
    if candidates.size == 0:
        return None
    # One batched SVD of [A0 - lambda I, B0] per candidate, in the
    # eigenvalues' dtype: real spectra stay real.
    pencils = np.empty((candidates.size, n, n + B0.shape[1]), dtype=candidates.dtype)
    pencils[:, :, :n] = A0 - candidates[:, None, None] * np.eye(n)
    pencils[:, :, n:] = B0
    s = np.linalg.svd(pencils, compute_uv=False)
    stuck = np.flatnonzero(s[:, n - 1] <= cutoff)
    return complex(candidates[stuck[0]]) if stuck.size else None


def _doubling(A: np.ndarray, G: np.ndarray | None, rtol: float) -> np.ndarray:
    """Limit of H in the structure-preserving doubling iteration from H = I.

    Each step sets W = I + G H and maps H to H + A^T H W^-1 A, G to
    G + A W^-1 G A^T and A to A W^-1 A.  With G = B B^T the limit is the
    stabilizing solution of the unit-weight discrete Riccati equation
    H = A^T H A - A^T H B (I + B^T H B)^-1 B^T H A + I.  G = None stands
    for G = 0, where the limit solves the Stein equation H - A^T H A = I:
    then W = I and G stays 0, so a step needs no solve (Smith's squaring
    H + A^T H A, A^2).  Raises LinAlgError when an iterate is not finite
    or H has not settled within _DOUBLING_STEPS steps.
    """
    n = A.shape[0]
    I = np.eye(n)
    H = I
    # An unstable A overflows; that is reported below, not as a warning.
    with np.errstate(all="ignore"):
        for _ in range(_DOUBLING_STEPS):
            if G is None:
                WA = A
            else:
                WAG = np.linalg.solve(I + G @ H, np.concatenate((A, G), axis=1))
                WA, WG = WAG[:, :n], WAG[:, n:]
                G = G + A @ WG @ A.T
            step = A.T @ H @ WA
            A = A @ WA
            H = H + step
            # numpy's own Frobenius norm of these C-contiguous arrays.
            h, d = H.ravel(), step.ravel()
            size = math.sqrt(h @ h)
            if not math.isfinite(size):
                break
            if math.sqrt(d @ d) <= rtol * size:
                # Symmetric up to roundoff; X Theta = P must be symmetric.
                return 0.5 * (H + H.T)
    raise np.linalg.LinAlgError("doubling iteration did not converge")


def _riccati_gain(A0: np.ndarray, B0: np.ndarray) -> np.ndarray:
    """F making A0 + B0 F stable: the LQR gain with unit weights."""
    n, m = B0.shape
    if m == 0:
        return np.zeros((0, n))
    S = _doubling(A0, B0 @ B0.T, _DARE_RTOL)
    return -np.linalg.solve(B0.T @ S @ B0 + np.eye(m), B0.T @ S @ A0)


def _not_found(min_eig: float, witness: Witness | None = None) -> LmiSolution:
    return LmiSolution(
        found=False, Theta=None, min_eig=min_eig, X_dagger=None, witness=witness
    )


def _certificate(Z, Xp, N, rho: float) -> np.ndarray:
    """Theta = X^dagger P for the Riccati right-inverse X^dagger, at norm rho.

    Raises LinAlgError or ValueError when a solve fails or Theta is not
    finite.
    """
    X_dagger = Xp + N @ _riccati_gain(Z @ Xp, Z @ N)
    A_cl = Z @ X_dagger
    # P solves the Lyapunov equation of A_cl / gamma with gamma halfway
    # between the spectral radius and 1.  Then
    # P - A_cl P A_cl^T = (1 - gamma^2) P + gamma^2 I, which keeps the
    # block well conditioned even when A_cl is far from normal.
    gamma = 0.5 * (1.0 + np.abs(np.linalg.eigvals(A_cl)).max())
    P = _doubling((A_cl / gamma).T, None, _STEIN_RTOL)
    Theta = X_dagger @ P
    size = np.linalg.norm(Theta)
    if not math.isfinite(size):
        raise np.linalg.LinAlgError("certificate is not finite")
    Theta *= rho / size
    return Theta


def solve_lmi(problem: LmiProblem, seed: int | None = None) -> LmiSolution:
    """Decide the instance exactly and construct a certificate.

    A certificate whose block margin reaches LmiProblem.margin proves
    "yes".  The PBH test runs only when the construction fails, and a
    stuck mode it finds is the witness of "no".  The returned Theta is
    rescaled to Frobenius norm rho, which leaves X_dagger unchanged and
    maximizes the eigenvalue margin within the bound.  seed is accepted
    for compatibility and ignored.
    """
    X, Z = problem.X, problem.Z
    family = _right_inverses(problem)
    if family is None:
        return _not_found(-np.inf, Witness())
    Xp, N = family
    try:
        Theta = _certificate(Z, Xp, N, problem.rho)
    except (np.linalg.LinAlgError, ValueError):
        min_eig = 0.0
    else:
        min_eig = _block_min_eig(X, Z, Theta)
        if min_eig >= problem.margin:
            X_dagger = np.linalg.solve((X @ Theta).T, Theta.T).T
            return LmiSolution(
                found=True, Theta=Theta, min_eig=min_eig, X_dagger=X_dagger
            )
    mode = _stuck_mode(Z, Xp, N)
    if mode is not None:
        return _not_found(0.0, Witness(mode))
    return _not_found(min_eig)


def check_theta(problem: LmiProblem, Theta) -> ThetaCheck:
    """Evaluate a candidate Theta: residuals, margin and right-inverse.

    X_dagger is returned only when X Theta is invertible; a candidate
    with min_eig <= 0 fails feasibility regardless.
    """
    Theta = _as_matrix("Theta", Theta, ("tau", problem.tau, "X"), ("n", problem.n, "X"))
    P = problem.X @ Theta
    symmetry_residual = float(np.linalg.norm(P - P.T))
    equality_residuals = tuple(
        float(np.linalg.norm(C @ Theta)) for C in problem.equality_constraints
    )
    min_eig = _block_min_eig(problem.X, problem.Z, Theta)
    s = np.linalg.svd(P, compute_uv=False)
    if s.size and s[-1] > 1e-12 * max(1.0, s[0]):
        X_dagger = np.linalg.solve(P.T, Theta.T).T
    else:
        X_dagger = None
    return ThetaCheck(
        symmetry_residual=symmetry_residual,
        equality_residuals=equality_residuals,
        min_eig=min_eig,
        X_dagger=X_dagger,
    )

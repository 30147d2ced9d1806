"""Domain types and the compatible-set construction.

The measured data are an input sequence, exosystem state samples and
endosystem state samples on a finite window.  Every endosystem that
reproduces the measured transitions is "compatible" with the data; the
set of compatible systems is an affine family, and a regulator counts as
data-driven only if it works for each member of that family.  This module
holds the data containers, the known-matrix container, the affine family
(particular solution plus orthonormal kernel parametrization), the
result types shared by the synthesis layer and the numerical policy of
every layer, which no function takes as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .synthesis import ConditionOutcome

__all__ = [
    "DimensionError",
    "NonFiniteError",
    "InconsistentDataError",
    "ProblemData",
    "KnownMatrices",
    "Problem",
    "build_problem",
    "CompatibleSet",
    "compatible_set",
    "compatible_set_unknown_a3",
    "member_at",
    "Regulator",
    "LmiReport",
    "SynthesisReport",
    "rank_from_singular_values",
    "RESIDUAL_RTOL",
    "UNIT_CIRCLE_MARGIN",
    "within_tolerance",
]

# An equation holds when its residual is within_tolerance of the norm of its
# right-hand side; an eigenvalue with |lambda| >= 1 - UNIT_CIRCLE_MARGIN is
# on or outside the unit circle.
RESIDUAL_RTOL = 1e-8
UNIT_CIRCLE_MARGIN = 1e-9


def within_tolerance(residual: float, reference: float) -> bool:
    """The relative-residual rule: residual <= RESIDUAL_RTOL * (1 + reference)."""
    return residual <= RESIDUAL_RTOL * (1.0 + reference)


class DimensionError(ValueError):
    """Two related matrices have incompatible shapes."""


class NonFiniteError(ValueError):
    """A matrix contains NaN or infinite entries."""


class InconsistentDataError(ValueError):
    """No endosystem reproduces the measured transitions within tolerance.

    Also raised when the samples are so large that the residual cannot be
    computed in double precision: the check fails closed.
    """


def _as_matrix(name: str, value) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def rank_from_singular_values(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank with cutoff max(shape) * eps * sigma_max."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(shape) * np.finfo(float).eps * s[0]
    return int(np.sum(s > tol))


@dataclass(frozen=True, eq=False)
class ProblemData:
    """Finite-window measurements of the interconnected system.

    U_minus is m x tau (inputs u(0..tau-1)), X1_minus is n1 x tau
    (exosystem states x1(0..tau-1)) and X2 is n2 x (tau+1) (endosystem
    states x2(0..tau)).  The split views X2_minus / X2_plus drop the last
    and first sample respectively.
    """

    U_minus: np.ndarray
    X1_minus: np.ndarray
    X2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U_minus", _as_matrix("U_minus", self.U_minus))
        object.__setattr__(self, "X1_minus", _as_matrix("X1_minus", self.X1_minus))
        object.__setattr__(self, "X2", _as_matrix("X2", self.X2))
        tau = self.U_minus.shape[1]
        if tau < 1:
            raise DimensionError("U_minus must contain at least one sample (tau >= 1)")
        if self.X1_minus.shape[1] != tau:
            raise DimensionError(
                f"X1_minus has {self.X1_minus.shape[1]} columns but U_minus has tau={tau}"
            )
        if self.X2.shape[1] != tau + 1:
            raise DimensionError(
                f"X2 has {self.X2.shape[1]} columns but needs tau+1={tau + 1} to match U_minus"
            )

    @property
    def tau(self) -> int:
        return self.U_minus.shape[1]

    @property
    def m(self) -> int:
        return self.U_minus.shape[0]

    @property
    def n1(self) -> int:
        return self.X1_minus.shape[0]

    @property
    def n2(self) -> int:
        return self.X2.shape[0]

    @property
    def X2_minus(self) -> np.ndarray:
        return self.X2[:, :-1]

    @property
    def X2_plus(self) -> np.ndarray:
        return self.X2[:, 1:]


@dataclass(frozen=True, eq=False)
class KnownMatrices:
    """Known part of the interconnection.

    A1 drives the exosystem, A3 couples it into the endosystem (None when
    the coupling is treated as unknown), and D1, D2, E form the regulated
    output z = D1 x1 + D2 x2 + E u.  Anti-stability of A1 is checked at
    the use sites (analysis.require_anti_stable), not here.
    """

    A1: np.ndarray
    A3: np.ndarray | None
    D1: np.ndarray
    D2: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A1", _as_matrix("A1", self.A1))
        if self.A3 is not None:
            object.__setattr__(self, "A3", _as_matrix("A3", self.A3))
        object.__setattr__(self, "D1", _as_matrix("D1", self.D1))
        object.__setattr__(self, "D2", _as_matrix("D2", self.D2))
        object.__setattr__(self, "E", _as_matrix("E", self.E))
        n1 = self.A1.shape[0]
        if self.A1.shape[1] != n1:
            raise DimensionError(f"A1 must be square, got {self.A1.shape}")
        if self.D1.shape[1] != n1:
            raise DimensionError(
                f"D1 has {self.D1.shape[1]} columns but A1 is {n1}x{n1}"
            )
        p = self.D1.shape[0]
        if self.D2.shape[0] != p:
            raise DimensionError(f"D2 has {self.D2.shape[0]} rows but D1 has {p}")
        if self.E.shape[0] != p:
            raise DimensionError(f"E has {self.E.shape[0]} rows but D1 has {p}")
        if self.A3 is not None:
            if self.A3.shape[1] != n1:
                raise DimensionError(
                    f"A3 has {self.A3.shape[1]} columns but A1 is {n1}x{n1}"
                )
            if self.A3.shape[0] != self.D2.shape[1]:
                raise DimensionError(
                    f"A3 has {self.A3.shape[0]} rows but D2 has {self.D2.shape[1]} columns"
                )

    @property
    def n1(self) -> int:
        return self.A1.shape[0]

    @property
    def n2(self) -> int:
        return self.D2.shape[1]

    @property
    def m(self) -> int:
        return self.E.shape[1]

    @property
    def p(self) -> int:
        return self.D1.shape[0]


@dataclass(frozen=True, eq=False)
class Problem:
    """Validated pairing of measurements with the known matrices."""

    data: ProblemData
    known: KnownMatrices

    @property
    def tau(self) -> int:
        return self.data.tau

    @property
    def n1(self) -> int:
        return self.data.n1

    @property
    def n2(self) -> int:
        return self.data.n2

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def p(self) -> int:
        return self.known.p

    def without_a3(self) -> Problem:
        """The same data and known matrices with the coupling A3 unknown."""
        return Problem(data=self.data, known=replace(self.known, A3=None))


def build_problem(data: ProblemData, known: KnownMatrices) -> Problem:
    """Cross-check data against known matrices and bind them.

    Raises DimensionError naming the offending pair on any mismatch.
    """
    if data.n1 != known.n1:
        raise DimensionError(
            f"X1_minus has {data.n1} rows but A1 is {known.n1}x{known.n1}"
        )
    if data.n2 != known.n2:
        raise DimensionError(
            f"X2 has {data.n2} rows but D2 has {known.n2} columns"
        )
    if data.m != known.m:
        raise DimensionError(
            f"U_minus has {data.m} rows but E has {known.m} columns"
        )
    return Problem(data=data, known=known)


@dataclass(frozen=True, eq=False)
class CompatibleSet:
    """Affine family of endosystems (A2, B2, A3) matching the data.

    Members are (A2_part + N @ S1.T, B2_part + N @ S2.T, A3_part + N @ S3.T)
    for free N of shape n2 x r, where [S1; S2; S3] is an orthonormal basis
    of the kernel of the stacked regressors [X2_minus; U_minus; X1_minus]
    transposed.  With a known coupling the X1_minus block drops out, so
    A3_part is the known A3 and S3 = 0.  r = 0 means the data identify
    the endosystem uniquely.
    """

    A2_part: np.ndarray
    B2_part: np.ndarray
    A3_part: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    S3: np.ndarray
    residual: float

    @property
    def r(self) -> int:
        return self.S1.shape[1]

    @property
    def n2(self) -> int:
        return self.A2_part.shape[0]


def _compatible_set(problem: Problem) -> CompatibleSet:
    data, known = problem.data, problem.known
    n2, m = data.n2, data.m
    if known.A3 is None:
        G = np.vstack([data.X2_minus, data.U_minus, data.X1_minus])
        Z, rhs = data.X2_plus, "||X2_plus||"
    else:
        G = np.vstack([data.X2_minus, data.U_minus])
        Z, rhs = data.X2_plus - known.A3 @ data.X1_minus, "||X2_plus - A3 X1_minus||"
    # One SVD gives the rank (with the cutoff of lstsq(rcond=None)), the
    # least-squares solution M = Z G^+ and the kernel basis S.
    U, s, Vh = np.linalg.svd(G)
    r = rank_from_singular_values(s, G.shape)
    S = U[:, r:]
    with np.errstate(over="ignore", invalid="ignore"):
        M = ((Z @ Vh[:r].T) / s[:r]) @ U[:, :r].T
        residual = float(np.linalg.norm(M @ G - Z))
        reference = float(np.linalg.norm(Z))
    if not np.isfinite(reference) or not np.isfinite(residual):
        raise InconsistentDataError(
            f"the consistency of the measured transitions cannot be checked: "
            f"{rhs} or the residual overflows double precision; rescale the samples"
        )
    if not within_tolerance(residual, reference):
        raise InconsistentDataError(
            f"no system matches the measured transitions: residual {residual:.3e} "
            f"exceeds {RESIDUAL_RTOL:.1e} * (1 + {rhs})"
        )
    if known.A3 is None:
        A3_part, S3 = M[:, n2 + m :], S[n2 + m :]
    else:
        A3_part, S3 = known.A3, np.zeros((data.n1, S.shape[1]))
    return CompatibleSet(
        A2_part=M[:, :n2],
        B2_part=M[:, n2 : n2 + m],
        A3_part=A3_part,
        S1=S[:n2],
        S2=S[n2 : n2 + m],
        S3=S3,
        residual=residual,
    )


def compatible_set(problem: Problem) -> CompatibleSet:
    """Build the affine family of systems compatible with the data.

    Solves [A2 B2] [X2_minus; U_minus] = X2_plus - A3 X1_minus when A3
    is known, and [A2 B2 A3] [X2_minus; U_minus; X1_minus] = X2_plus
    when it is None, in the least-squares sense, and attaches the kernel
    parametrization; one SVD of the stacked regressors gives their rank,
    the least-squares fit and the kernel basis.  Raises
    InconsistentDataError when the residual fails within_tolerance
    against ||right-hand side||_F.
    """
    return _compatible_set(problem)


def compatible_set_unknown_a3(problem: Problem) -> CompatibleSet:
    """The family of problem.without_a3(): any provided A3 is ignored."""
    return _compatible_set(problem.without_a3())


def member_at(cset: CompatibleSet, N) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member triple (A2, B2, A3) at kernel coordinate N (shape n2 x r)."""
    N = np.asarray(N, dtype=float)
    if N.shape != (cset.n2, cset.r):
        raise DimensionError(
            f"N must have shape ({cset.n2}, {cset.r}), got {N.shape}"
        )
    return (
        cset.A2_part + N @ cset.S1.T,
        cset.B2_part + N @ cset.S2.T,
        cset.A3_part + N @ cset.S3.T,
    )


@dataclass(frozen=True, eq=False)
class Regulator:
    """Synthesized feedback u = K1 x1 + K2 x2 with its certificates.

    provenance names the branch that produced the gains ("condition1",
    "condition2", or the same with "_unknown_a3" appended when A3 was
    unknown).  W, Theta and X2_dagger are the witnesses of that branch
    when it produces them.
    """

    K1: np.ndarray
    K2: np.ndarray
    provenance: str
    W: np.ndarray | None = None
    Theta: np.ndarray | None = None
    X2_dagger: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "K1", _as_matrix("K1", self.K1))
        object.__setattr__(self, "K2", _as_matrix("K2", self.K2))
        for name in ("W", "Theta", "X2_dagger"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_matrix(name, value))
        if self.K1.shape[0] != self.K2.shape[0]:
            raise DimensionError(
                f"K1 has {self.K1.shape[0]} rows but K2 has {self.K2.shape[0]}"
            )


@dataclass
class LmiReport:
    """Best certificate margin and its threshold (None if nothing was decided).

    iterations stays 0: the right-inverse condition is decided, not searched.
    """

    min_eigenvalue: float = float("-inf")
    iterations: int = 0
    margin: float | None = None


@dataclass
class SynthesisReport:
    """Full account of an informativity decision.

    condition1 and condition2 hold each branch's outcome, with its
    diagnostics, reasons and certificate; None when it was not attempted.
    """

    rank_X2_minus: int
    condition1: ConditionOutcome | None = None
    condition2: ConditionOutcome | None = None
    lmi: LmiReport = field(default_factory=LmiReport)
    chosen_condition: str | None = None
    messages: list[str] = field(default_factory=list)

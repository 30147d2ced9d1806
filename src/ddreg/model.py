"""Domain types and the compatible-set construction.

The measured data are an input sequence, exosystem state samples and
endosystem state samples on a finite window.  Every endosystem that
reproduces the measured transitions is "compatible" with the data; the
set of compatible systems is an affine family, and a regulator counts as
data-driven only if it works for each member of that family.  This module
holds the data containers, the known-matrix container, the affine family
(particular solution, orthonormal kernel parametrization and the
regression it was fitted from, with its SVD), the result types shared
by the synthesis layer and the numerical policy of every layer, which
no function takes as a parameter.  Nothing writes to a built Problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    "require_shape",
    "RESIDUAL_RTOL",
    "UNIT_CIRCLE_MARGIN",
    "within_tolerance",
]

# An equation holds when its residual is within_tolerance of the norm of its
# right-hand side; an eigenvalue with |lambda| >= 1 - UNIT_CIRCLE_MARGIN is
# on or outside the unit circle.
RESIDUAL_RTOL = 1e-8
UNIT_CIRCLE_MARGIN = 1e-9

_EPS = float(np.finfo(float).eps)


def within_tolerance(residual: float, reference: float) -> bool:
    """The relative-residual rule: residual <= RESIDUAL_RTOL * (1 + reference)."""
    return residual <= RESIDUAL_RTOL * (1.0 + reference)


class DimensionError(ValueError):
    """Two related matrices have incompatible shapes."""


class NonFiniteError(ValueError):
    """A matrix holds an entry that is not a finite real number, or cannot be read as numbers."""


class InconsistentDataError(ValueError):
    """No endosystem reproduces the measured transitions within tolerance.

    Also raised when the samples are so large that the residual cannot be
    computed in double precision: the check fails closed.
    """


def require_shape(name: str, arr: np.ndarray, *dims: tuple) -> None:
    """Raise DimensionError unless arr has one axis per dim, of the dim's size.

    A dim is (label, size), or (label, size, source) when the size is read
    off the matrix named source; a size of None leaves that axis free.  The
    message names, once, the source of each size that arr misses.
    """
    if arr.ndim == len(dims):
        for got, dim in zip(arr.shape, dims):
            if dim[1] is not None and dim[1] != got:
                break
        else:
            return
    # An axis that arr lacks shows its label when its size is free.
    shape = arr.shape + (None,) * (len(dims) - arr.ndim)
    sizes = [
        (dim[0] if got is None else got) if dim[1] is None else dim[1]
        for got, dim in zip(shape, dims)
    ]
    expected = ", ".join(map(str, sizes)) + ("," if len(sizes) == 1 else "")
    labels = ", ".join(dim[0] for dim in dims)
    sources = ", ".join(dict.fromkeys(
        f"{dim[0]} is read from {dim[2]}"
        for got, dim in zip(shape, dims)
        if dim[2:] and dim[2] != name and dim[1] not in (None, got)
    ))
    raise DimensionError(
        f"{name} must have shape ({labels}) = ({expected}), got {arr.shape}"
        + (f"; {sources}" if sources else "")
    )


def _as_real(name: str, value) -> np.ndarray:
    """The caller's value as a new float array; entries that are not real numbers are refused."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged rows
        arr = np.array(None)
    if arr.dtype.kind not in "biuf":  # complex, strings, objects: never cast
        raise NonFiniteError(f"{name} must hold real numbers, got {value!r:.60}")
    return arr.astype(float, copy=False)


def _as_matrix(name: str, value, *dims: tuple) -> np.ndarray:
    """The caller's value as a read-only float matrix, 2-d, finite and of shape dims."""
    arr = _as_real(name, value)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    if dims:
        require_shape(name, arr, *dims)
    arr.setflags(write=False)
    return arr


def _assign(obj, **fields) -> None:
    """Set attributes of a frozen dataclass, from its __post_init__ or from _made."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _made(cls, **fields):
    """An instance of cls of parts the program made and checked, which fit by construction.

    No conversion, copy or __post_init__; every array field is made read-only.
    """
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    _assign(obj, **fields)
    return obj


def _as_square(name: str, value, label: str) -> tuple[np.ndarray, tuple]:
    """_as_matrix for a square matrix; also returns its size as the dim (label, n, name)."""
    arr = _as_matrix(name, value)
    dim = (label, arr.shape[0], name)
    require_shape(name, arr, dim, dim)
    return arr, dim


def rank_from_singular_values(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank with cutoff max(shape) * eps * sigma_max."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(shape) * _EPS * s[0]))


@dataclass(frozen=True, eq=False)
class SpectralInfo:
    """Eigenvalues and their position relative to the unit circle."""

    eigenvalues: np.ndarray
    spectral_radius: float
    is_stable: bool
    is_anti_stable: bool


def _spectrum(M: np.ndarray) -> SpectralInfo:
    """Classify the spectrum of a checked square matrix (see analysis.spectral_info)."""
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
        U = _as_matrix("U_minus", self.U_minus)
        tau = U.shape[1]
        if tau < 1:
            raise DimensionError("U_minus must contain at least one sample (tau >= 1)")
        X1 = _as_matrix("X1_minus", self.X1_minus, ("n1", None), ("tau", tau, "U_minus"))
        X2 = _as_matrix("X2", self.X2, ("n2", None), ("tau+1", tau + 1, "U_minus"))
        _assign(self, U_minus=U, X1_minus=X1, X2=X2)

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
    output z = D1 x1 + D2 x2 + E u.  A1's spectrum is classified once,
    here; the decision and verification read the private flag
    _a1_anti_stable and raise AntiStabilityError at their use, so a
    matrix that is not anti-stable still builds.
    """

    A1: np.ndarray
    A3: np.ndarray | None
    D1: np.ndarray
    D2: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        A1, n1 = _as_square("A1", self.A1, "n1")
        D1 = _as_matrix("D1", self.D1, ("p", None), n1)
        p = ("p", D1.shape[0], "D1")
        D2 = _as_matrix("D2", self.D2, p, ("n2", None))
        E = _as_matrix("E", self.E, p, ("m", None))
        _assign(self, A1=A1, D1=D1, D2=D2, E=E, _a1_anti_stable=_spectrum(A1).is_anti_stable)
        if self.A3 is not None:
            _assign(self, A3=_as_matrix("A3", self.A3, ("n2", D2.shape[1], "D2"), n1))

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
    """Validated pairing of measurements with the known matrices.

    Raises DimensionError naming the data matrix and the known matrix
    its row count must match.
    """

    data: ProblemData
    known: KnownMatrices

    def __post_init__(self):
        data, known = self.data, self.known
        require_shape("X1_minus", data.X1_minus, ("n1", known.n1, "A1"), ("tau", None))
        require_shape("X2", data.X2, ("n2", known.n2, "D2"), ("tau+1", None))
        require_shape("U_minus", data.U_minus, ("m", known.m, "E"), ("tau", None))

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
        """The same data and known matrices with the coupling A3 unknown.

        Dropping A3 cannot invalidate the rest: both are built with _made
        from the checked parts, and nothing is converted or checked again.
        """
        known = _made(KnownMatrices, **{**vars(self.known), "A3": None})
        return _made(Problem, data=self.data, known=known)


def build_problem(data: ProblemData, known: KnownMatrices) -> Problem:
    """Problem(data, known), which cross-checks the data against the known matrices."""
    return Problem(data=data, known=known)


_BLOCKS = ("A2_part", "B2_part", "A3_part", "S1", "S2", "S3", "G", "Z")


@dataclass(frozen=True, eq=False)
class CompatibleSet:
    """Affine family of endosystems (A2, B2, A3) matching the data.

    Members are (A2_part + N @ S1.T, B2_part + N @ S2.T, A3_part + N @ S3.T)
    for free N of shape n2 x r, where [S1; S2; S3] is an orthonormal basis
    of the kernel of the stacked regressors [X2_minus; U_minus; X1_minus]
    transposed.  With a known coupling the X1_minus block drops out, so
    A3_part is the known A3 and S3 = 0.  r = 0 means the data identify
    the endosystem uniquely.  The members solve M G = Z, with
    G = [X2_minus; U_minus] and Z = X2_plus - A3 X1_minus, or X1_minus
    stacked under G and Z = X2_plus when A3 is None; the SVD of G that
    built the family is kept: the three checks decide in its row space.
    The family states its layout: X2_minus, U_minus and X1_minus are the
    row blocks of G, and X1_minus is None exactly when the coupling is
    known, the one rule for the coupling mode.  The conditions and
    verification decide on these fields alone.  compatible_set builds it
    with _made; the constructor and dataclasses.replace convert the
    eight matrix blocks as every container does and check each against
    the n2, m, n1, r and tau read from A2_part, B2_part, A3_part, S1 and
    G; DimensionError names the first block that misfits and the block
    its size is read from.  Every block is read-only.
    """

    A2_part: np.ndarray
    B2_part: np.ndarray
    A3_part: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    S3: np.ndarray
    residual: float
    G: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        _assign(self, **{name: _as_matrix(name, getattr(self, name)) for name in _BLOCKS})

        def dim(label, name, axis):
            return (label, getattr(self, name).shape[axis], name)

        n2, m = dim("n2", "A2_part", 0), dim("m", "B2_part", 1)
        n1, r = dim("n1", "A3_part", 1), dim("r", "S1", 1)
        blocks = ("A2_part", n2, n2), ("B2_part", n2, m), ("A3_part", n2, n1), ("S1", n2, r)
        for name, rows, cols in (*blocks, ("S2", m, r), ("S3", n1, r)):
            require_shape(name, getattr(self, name), rows, cols)
        rows = n2[1] + m[1]
        unknown = self.G.shape[0] == rows + n1[1]
        height = ("n2+m+n1", rows + n1[1]) if unknown else ("n2+m", rows)
        require_shape("G", self.G, height, ("tau", None))
        require_shape("Z", self.Z, n2, dim("tau", "G", 1))

    @property
    def r(self) -> int:
        return self.S1.shape[1]

    @property
    def n2(self) -> int:
        return self.A2_part.shape[0]

    @property
    def m(self) -> int:
        return self.B2_part.shape[1]

    @property
    def X2_minus(self) -> np.ndarray:
        return self.G[: self.n2]

    @property
    def U_minus(self) -> np.ndarray:
        return self.G[self.n2 : self.n2 + self.m]

    @property
    def X1_minus(self) -> np.ndarray | None:
        """The rows of G below U_minus; None under known coupling, and so when n1 = 0."""
        rows = self.n2 + self.m
        return self.G[rows:] if self.G.shape[0] > rows else None

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """_factor(G); compatible_set sets it, a family built by hand factors G on first use."""
        return _factor(self.G)

    def _pinv_apply(self, Y: np.ndarray) -> np.ndarray:
        """G^+ Y, the least-squares solution of G W = Y that lstsq(G, Y, rcond=None) returns."""
        U, s, Vh, k = self._svd
        return Vh.T @ ((U[:, :k].T @ Y) / s[:k, None])


def _factor(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(U, s, Vh[:k], k) of G = U diag(s) Vh, k its rank with the cutoff of lstsq(rcond=None).

    U is square, for the kernel; Vh is tau x tau only when G has more rows than columns.
    """
    U, s, Vh = np.linalg.svd(G, full_matrices=G.shape[0] > G.shape[1])
    k = rank_from_singular_values(s, G.shape)
    return U, s, Vh[:k].copy(), k


def _stack(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """(G, Z) of the regression M G = Z in problem's coupling mode (see CompatibleSet)."""
    data, A3 = problem.data, problem.known.A3
    if A3 is None:
        return np.vstack([data.X2_minus, data.U_minus, data.X1_minus]), data.X2_plus
    return np.vstack([data.X2_minus, data.U_minus]), data.X2_plus - A3 @ data.X1_minus


def _compatible_set(problem: Problem) -> CompatibleSet:
    data, known = problem.data, problem.known
    n2, m = data.n2, data.m
    G, Z = _stack(problem)
    rhs = "||X2_plus||" if known.A3 is None else "||X2_plus - A3 X1_minus||"
    # One SVD gives the rank (with the cutoff of lstsq(rcond=None)), the
    # least-squares solution M = Z G^+ and the kernel basis S.
    U, s, Vh, r = svd = _factor(G)
    S = U[:, r:]
    with np.errstate(over="ignore", invalid="ignore"):
        M = ((Z @ Vh.T) / s[:r]) @ U[:, :r].T
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
    return _made(
        CompatibleSet, residual=residual, _svd=svd, A2_part=M[:, :n2],
        B2_part=M[:, n2 : n2 + m], A3_part=A3_part, S1=S[:n2], S2=S[n2 : n2 + m],
        S3=S3, G=G, Z=Z,
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
    N = _as_matrix("N", N, ("n2", cset.n2), ("r", cset.r))
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
    when it produces them.  K1 and K2 must have the same number of rows.
    """

    K1: np.ndarray
    K2: np.ndarray
    provenance: str
    W: np.ndarray | None = None
    Theta: np.ndarray | None = None
    X2_dagger: np.ndarray | None = None

    def __post_init__(self):
        K1 = _as_matrix("K1", self.K1)
        _assign(self, K1=K1, K2=_as_matrix("K2", self.K2, ("m", K1.shape[0], "K1"), ("n2", None)))
        witnesses = {name: getattr(self, name) for name in ("W", "Theta", "X2_dagger")}
        _assign(self, **{k: _as_matrix(k, v) for k, v in witnesses.items() if v is not None})


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

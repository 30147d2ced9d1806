"""Informativity decisions and regulator synthesis from data.

Two routes can certify a problem informative.  The pointwise route
(condition 1) needs a stabilizing right-inverse that also zeroes the
endosystem-and-input part of the output, plus an exosystem gain solving
E K1 = -D1.  The equation route (condition 2) needs any stabilizing
right-inverse together with a solution W of the data-driven regulator
equations.  For [T; V] = [X2_minus; U_minus] W they are the Francis
equations of the family's particular member, plus the kernel rows
S1^T T + S2^T V + S3^T = 0 when r > 0, so the solve does not inherit
the conditioning of the samples; K1 = V - K2 T.  solve_classical_regulator's
core solves them: LU when they are square, least squares otherwise.  The
witness W is G^+ [T; V (; I)], through the family's SVD of G.  Either
route yields one gain pair that works for every member of the
compatible family, and verify_regulator checks any gain pair against
the whole family in closed form, by check_output_regulated's solve.

The conditions decide on the compatible family and the known matrices,
as verify_regulator does, and read no problem.  The family states its
data blocks and its coupling mode (CompatibleSet.X1_minus is None
exactly when A3 is known), and all three checks decide the
right-inverse through one shared step in G's row space.  Under unknown
coupling the family ranges over (A2, B2, A3) triples, the right-inverse
must also satisfy X1_minus Theta = 0 so the certified closed loop
X2_plus X^dagger does not depend on the coupling, and X1_minus W = I
appends I to [T; V], so S3 enters the kernel rows; the equations keep
A3_part.  synthesize requires A3; synthesize_unknown_a3 drops any
provided A3.

The decision is a function of the problem alone: it draws no random
numbers and takes no settings.  Both routes are exact, so trying
condition 2 before condition 1 only picks which route's gains come
back.  Equation residuals are held to model.within_tolerance, the rule
of the consistency check and of verification, and certificates to
LmiProblem.margin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import _francis, _regulated, _regulator_system, _require_anti_stable, vec
from .lmi import LmiProblem, LmiSolution, solve_lmi
from .model import (
    CompatibleSet,
    KnownMatrices,
    NonFiniteError,
    Problem,
    Regulator,
    SynthesisReport,
    _as_matrix,
    _made,
    _spectrum,
    _stack,
    compatible_set,
    rank_from_singular_values,
    require_shape,
    within_tolerance,
)

__all__ = [
    "EndoStabilization",
    "ConditionOutcome",
    "SynthesisResult",
    "VerificationReport",
    "w_system",
    "w_system_unknown_a3",
    "w_residual",
    "check_endo_stabilization",
    "check_condition1",
    "check_condition2",
    "synthesize",
    "synthesize_unknown_a3",
    "require_gain_shapes",
    "verify_regulator",
    "verify_regulator_unknown_a3",
]


@dataclass(frozen=True, eq=False)
class EndoStabilization:
    """Outcome of the endo-stabilization informativity test."""

    informative: bool
    K2: np.ndarray | None
    X_dagger: np.ndarray | None
    lmi: LmiSolution
    rank_X2_minus: int


@dataclass(frozen=True, eq=False)
class ConditionOutcome:
    """One branch's verdict with its certificates and residuals."""

    holds: bool
    regulator: Regulator | None
    lmi: LmiSolution | None
    diagnostics: dict[str, float]
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Regulator (None when not informative), report and compatible family."""

    regulator: Regulator | None
    report: SynthesisReport
    family: CompatibleSet


def _require_fit(name: str, family: CompatibleSet, known: KnownMatrices) -> None:
    """Raise DimensionError naming the first system block of family that misfits known."""
    n2, m = ("n2", known.n2, "known.D2"), ("m", known.m, "known.E")
    require_shape(f"{name}.A2_part", family.A2_part, n2, n2)
    require_shape(f"{name}.B2_part", family.B2_part, n2, m)
    require_shape(f"{name}.A3_part", family.A3_part, n2, ("n1", known.n1, "known.A1"))


def _rank_x2_minus(family: CompatibleSet) -> int:
    # X2_minus is a block of rows of G, so sigma_min(X2_minus) >=
    # sigma_min(G) > tol(G) >= tol(X2_minus) when G has full row rank
    # (r = 0): its rank is n2 without a second SVD.
    if not family.r:
        return family.n2
    X = family.X2_minus
    return rank_from_singular_values(np.linalg.svd(X, compute_uv=False), X.shape)


def _data_equations(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    (_, Z), known, data = _stack(problem), problem.known, problem.data
    output = known.D2 @ data.X2_minus + known.E @ data.U_minus
    if known.A3 is None:
        R, kernel = np.zeros((problem.n2, problem.n1)), (data.X1_minus, np.eye(problem.n1))
    else:
        R, kernel = known.A3, ()
    return _regulator_system(known.A1, data.X2_minus, Z, R, output, known.D1, *kernel)


def w_system(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Stacked linear system for W in the data-driven regulator equations.

    Rows encode X2_minus W A1 - (X2_plus - A3 X1_minus) W = A3 and
    D1 + (D2 X2_minus + E U_minus) W = 0 acting on vec(W), W of shape
    tau x n1.  When A3 is None the first block reads
    X2_minus W A1 - X2_plus W = 0 and X1_minus W = I follows it.
    """
    return _data_equations(problem)


def w_system_unknown_a3(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """The system of problem.without_a3(): any provided A3 is ignored."""
    return _data_equations(problem.without_a3())


def w_residual(problem: Problem, W) -> float:
    """Absolute residual of a candidate W (tau x n1) in the stacked system."""
    W = _as_matrix("W", W, ("tau", problem.tau, "U_minus"), ("n1", problem.n1, "A1"))
    lhs, rhs = w_system(problem)
    return float(np.linalg.norm(lhs @ vec(W) - rhs))


def _right_inverse(family: CompatibleSet, *constraints) -> tuple[LmiSolution, np.ndarray | None]:
    """The right-inverse decision the three checks share, with K2 = U_minus X^dagger.

    X^dagger is a right-inverse of X2_minus that makes Z X^dagger stable,
    with C X^dagger = 0 for each constraint and, under unknown coupling,
    for X1_minus; K2 is None when none is found.  It is decided in the row
    space of G, as X^dagger = V^T X' with V = Vh[:k] of the family's SVD:
    there Z V^T = M G V^T, so the decision sees the family and not the
    fit residual, and Theta = V^T Theta' keeps its norm and block margin.
    """
    constraints += () if family.X1_minus is None else (family.X1_minus,)
    V = family._svd[2].T
    X, Z, *rows = (C @ V for C in (family.X2_minus, family.Z, *constraints))
    lmi = solve_lmi(_made(LmiProblem, X=X, Z=Z, equality_constraints=tuple(rows)))
    if lmi.found:
        lmi = replace(lmi, X_dagger=V @ lmi.X_dagger, Theta=V @ lmi.Theta)
    return lmi, family.U_minus @ lmi.X_dagger if lmi.found else None


def check_endo_stabilization(family: CompatibleSet) -> EndoStabilization:
    """Decide whether the data pin down one stabilizing state feedback.

    Informative iff X2_minus has full row rank and some right-inverse
    makes the data-defined closed loop stable; K2 = U_minus X^dagger then
    stabilizes every compatible member.  The certificate must reach
    LmiProblem.margin; the decision is the one the conditions share.
    """
    lmi, K2 = _right_inverse(family)
    return EndoStabilization(
        informative=lmi.found,
        K2=K2,
        X_dagger=lmi.X_dagger,
        lmi=lmi,
        rank_X2_minus=_rank_x2_minus(family),
    )


def _fails(lmi: LmiSolution | None, diagnostics, *reasons: str) -> ConditionOutcome:
    return ConditionOutcome(
        holds=False, regulator=None, lmi=lmi, diagnostics=diagnostics, reasons=reasons
    )


def _holds(name: str, family, lmi: LmiSolution, diagnostics, **gains) -> ConditionOutcome:
    matrices = {**gains, "Theta": lmi.Theta, "X2_dagger": lmi.X_dagger}
    for key, arr in matrices.items():
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{key} contains non-finite entries")
    provenance = name + ("" if family.X1_minus is None else "_unknown_a3")
    regulator = _made(Regulator, provenance=provenance, **{"W": None, **matrices})
    return ConditionOutcome(holds=True, regulator=regulator, lmi=lmi, diagnostics=diagnostics)


def check_condition1(family: CompatibleSet, known: KnownMatrices) -> ConditionOutcome:
    """Pointwise route: output zeroing by constraint plus E K1 = -D1.

    The shared right-inverse decision is constrained so D2 + E K2
    vanishes on the data.  The image-inclusion test E K1 = -D1, held to
    within_tolerance of ||D1||, runs first; when it already fails the
    right-inverse is not decided.  Raises the errors of check_condition2.
    """
    _require_fit("family", family, known)
    K1, *_ = np.linalg.lstsq(known.E, -known.D1, rcond=None)
    inclusion = float(np.linalg.norm(known.E @ K1 + known.D1))
    diagnostics = {"image_inclusion": inclusion}
    if not within_tolerance(inclusion, float(np.linalg.norm(known.D1))):
        reason = f"im D1 is not contained in im E (residual {inclusion:.3e})"
        return _fails(None, diagnostics, reason)
    # An output map that overflows is reported below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        output_map = known.D2 @ family.X2_minus + known.E @ family.U_minus
    if not np.isfinite(output_map).all():
        raise NonFiniteError("the output map D2 X2_minus + E U_minus contains non-finite entries")
    lmi, K2 = _right_inverse(family, output_map)
    diagnostics["lmi_min_eig"] = lmi.min_eig
    if not lmi.found:
        sought = "stabilizing right-inverse that zeroes the output"
        return _fails(lmi, diagnostics, _lmi_failure(lmi, sought))
    return _holds("condition1", family, lmi, diagnostics, K1=K1, K2=K2)


def check_condition2(family: CompatibleSet, known: KnownMatrices) -> ConditionOutcome:
    """Equation route: stabilizing right-inverse plus regulator equations.

    The equations are those of the family's particular member for Y =
    [T; V] = [X2_minus; U_minus] W: T A1 - A2_part T - B2_part V =
    A3_part, in both coupling modes, and D1 + D2 T + E V = 0, with the
    kernel rows S1^T T + S2^T V + S3^T = 0 when r > 0.  LU solves them
    when square, least squares otherwise, and they must hold
    within_tolerance of ||rhs||; K2 = U_minus X^dagger, K1 = V - K2 T,
    and the witness W = G^+ [T; V (; I)] comes from the family's SVD of
    G.  The data and the coupling mode are the family's; known supplies
    A1, D1, D2 and E, and its A3 is not read.  Raises DimensionError
    naming family.A2_part, B2_part or A3_part when it misfits known, and
    NonFiniteError when the equations' right-hand side or residual
    overflows.
    """
    _require_fit("family", family, known)
    lmi, K2 = _right_inverse(family)
    # G W = [T; V (; I)] gives the equations of the particular member for
    # Y = [T; V]; when r > 0 the kernel rows keep [T; V (; I)] in im G.
    kernel = (np.hstack([family.S1.T, family.S2.T]), -family.S3.T) if family.r else ()
    member = (family.A2_part, family.B2_part, family.A3_part)
    Y, residual, w_ok = _francis(known.A1, *member, known.D1, known.D2, known.E, kernel)
    diagnostics = {"lmi_min_eig": lmi.min_eig, "w_residual": residual}
    reasons = []
    if not lmi.found:
        reasons.append(_lmi_failure(lmi, "stabilizing right-inverse"))
    if not w_ok:
        reasons.append(f"regulator equations infeasible (residual {residual:.3e})")
    if reasons:
        return _fails(lmi, diagnostics, *reasons)
    G_W = Y if family.X1_minus is None else np.vstack([Y, np.eye(known.n1)])
    K1, W = -K2 @ Y[: known.n2] + Y[known.n2 :], family._pinv_apply(G_W)
    return _holds("condition2", family, lmi, diagnostics, K1=K1, K2=K2, W=W)


def _fold(report: SynthesisReport, outcome: ConditionOutcome) -> None:
    if outcome.lmi is not None:
        report.lmi.margin = LmiProblem.margin
        report.lmi.min_eigenvalue = max(report.lmi.min_eigenvalue, outcome.lmi.min_eig)


def _lmi_failure(lmi: LmiSolution, sought: str) -> str:
    if lmi.witness is not None:
        return f"no {sought} exists: {lmi.witness}"
    return (
        f"a {sought} exists, but its certificate reaches min_eig "
        f"{lmi.min_eig:.3e}, below the margin {LmiProblem.margin:.3e}"
    )


def _informative(report, name, outcome, family) -> SynthesisResult:
    report.chosen_condition = name
    report.messages.append(
        f"informative for regulator design via {name}"
        + ("" if family.X1_minus is None else " (unknown coupling)")
    )
    return SynthesisResult(regulator=outcome.regulator, report=report, family=family)


def _synthesize(problem: Problem) -> SynthesisResult:
    family = compatible_set(problem)
    _require_anti_stable(problem.known._a1_anti_stable)
    rank = _rank_x2_minus(family)
    report = SynthesisReport(rank_X2_minus=rank)
    if rank < problem.n2:
        report.messages.append(
            f"X2_minus is rank-deficient (rank {rank} < n2 = {problem.n2}); "
            "the data cannot certify endo-stabilization"
        )
        return SynthesisResult(regulator=None, report=report, family=family)

    report.condition2 = second = check_condition2(family, problem.known)
    _fold(report, second)
    if second.holds:
        return _informative(report, "condition2", second, family)
    report.condition1 = first = check_condition1(family, problem.known)
    _fold(report, first)
    if first.holds:
        return _informative(report, "condition1", first, family)
    report.messages.append("condition2: " + "; ".join(second.reasons))
    report.messages.append("condition1: " + "; ".join(first.reasons))
    report.messages.append("not informative for regulator design")
    return SynthesisResult(regulator=None, report=report, family=family)


def synthesize(problem: Problem) -> SynthesisResult:
    """Decide informativity and synthesize gains, trying both routes.

    Condition 2 is tried first and condition 1 only when it fails.
    Raises ValueError when A3 is None, InconsistentDataError when no
    system matches the data and AntiStabilityError when the exosystem is
    not anti-stable.  On success the regulator carries its witnesses; on
    failure the report explains which requirement broke in each branch.
    """
    if problem.known.A3 is None:
        raise ValueError(
            "A3 is required to form the (A2, B2) family; treat the coupling "
            "as unknown (synthesize_unknown_a3, or --unknown-a3) without it"
        )
    return _synthesize(problem)


def synthesize_unknown_a3(problem: Problem) -> SynthesisResult:
    """Synthesis for problem.without_a3(): any provided A3 is ignored."""
    return _synthesize(problem.without_a3())


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Verdict over the whole compatible family and the residuals it used.

    rho_bound is the spectral radius of the data closed loop
    A2_part + B2_part K2.  residuals holds closed_loop_spread,
    ||S1^T + S2^T K2||, which is zero iff every member has that closed
    loop; when the loop is stable it also holds output_offset, the
    output residual of the particular member, and output_direction, the
    largest output residual along one kernel coordinate of N.
    """

    passed: bool
    rho_bound: float
    residuals: dict[str, float]


def require_gain_shapes(regulator: Regulator, known: KnownMatrices) -> None:
    """Raise DimensionError unless K1 is m x n1 and K2 is m x n2."""
    require_shape("K1", regulator.K1, ("m", known.m), ("n1", known.n1))
    require_shape("K2", regulator.K2, ("m", known.m), ("n2", known.n2))


def _verify_regulator(regulator, cset, known) -> VerificationReport:
    require_gain_shapes(regulator, known)
    _require_fit("cset", cset, known)
    _require_anti_stable(known._a1_anti_stable)
    K1, K2 = regulator.K1, regulator.K2
    # Gains that overflow end in NonFiniteError when the closed loop, or
    # for a stable closed loop a Sylvester right-hand side, is not
    # finite, and in a failed verdict otherwise; numpy warns of neither.
    with np.errstate(over="ignore", invalid="ignore"):
        A_cl = cset.A2_part + cset.B2_part @ K2
        if not np.isfinite(A_cl).all():
            raise NonFiniteError(
                "the closed loop cset.A2_part + cset.B2_part K2 contains non-finite entries"
            )
        spread = float(np.linalg.norm(cset.S1.T + cset.S2.T @ K2))
        loop = _spectrum(A_cl)
        residuals = {"closed_loop_spread": spread}
        passed = loop.is_stable and within_tolerance(spread, float(np.linalg.norm(K2)))
        if loop.is_stable:
            # The member at N has T(N) = T0 + sum_ij N_ij T_ij, where T_ij
            # solves the Sylvester equation for e_i c_j^T and c_j^T is row
            # j of S3^T + S2^T K1; the output is affine in N the same way.
            # An identified family (r = 0) has no directions.
            rhs = (cset.A3_part + cset.B2_part @ K1)[None]
            if cset.r:
                C = cset.S3.T + cset.S2.T @ K1
                directions = np.einsum("ik,jl->ijkl", np.eye(cset.n2), C)
                rhs = np.concatenate([rhs, directions.reshape(-1, cset.n2, known.n1)])
            if not np.isfinite(rhs).all():
                named = (
                    "right-hand sides cset.A3_part + cset.B2_part K1 and "
                    "cset.S3^T + cset.S2^T K1 contain" if cset.r else
                    "right-hand side cset.A3_part + cset.B2_part K1 contains"
                )
                raise NonFiniteError(f"the Sylvester {named} non-finite entries")
            C_cl, offset = known.D2 + known.E @ K2, known.D1 + known.E @ K1
            _, norms = _regulated(known.A1, A_cl, rhs, C_cl, offset)
            residuals["output_offset"] = float(norms[0])
            residuals["output_direction"] = float(norms[1:].max(initial=0.0))
            reference = float(np.linalg.norm(known.D1))
            passed = passed and bool(within_tolerance(norms.max(), reference))
    return VerificationReport(
        passed=passed, rho_bound=loop.spectral_radius, residuals=residuals
    )


def verify_regulator(
    regulator: Regulator,
    cset: CompatibleSet,
    known: KnownMatrices,
    samples: int | None = None,
) -> VerificationReport:
    """Decide whether (K1, K2) regulate every member of the family.

    Members are affine in the kernel coordinate N, so three conditions
    decide for all of them at once: S1^T + S2^T K2 = 0, so that every
    member has the closed loop A_cl = A2_part + B2_part K2; A_cl is
    stable; and the output D1 + E K1 + (D2 + E K2) T(N) vanishes for
    every N, where T(N) solves T A1 - A_cl T = A3(N) + B2(N) K1, checked
    at N = 0 and along each of the n2 * r unit directions of N, all
    with one Sylvester operator, by check_output_regulated's solve.  The
    closed-loop spread is held to within_tolerance of ||K2|| and each
    output residual to within_tolerance of ||D1||, as there.  cset
    supplies the family; known supplies A1 and the output matrices.
    Raises DimensionError, via require_gain_shapes, when a gain does not
    fit known, and naming cset.A2_part, cset.B2_part or cset.A3_part when
    the family's systems do not fit known; the family checked its own
    blocks against each other when it was made.  Raises
    NonFiniteError when the closed loop is not finite, or when it is
    stable and a Sylvester right-hand side is not, for instance because
    large gains overflow, and SingularOperatorError when that operator is
    numerically singular; an unstable closed loop fails without solving.
    samples is accepted for older callers and ignored.
    """
    return _verify_regulator(regulator, cset, known)


def verify_regulator_unknown_a3(regulator, cset, known, samples=None) -> VerificationReport:
    """verify_regulator under the name older unknown-coupling callers use."""
    return _verify_regulator(regulator, cset, known)

"""Informativity decisions and regulator synthesis from data.

Two routes can certify a problem informative.  The pointwise route
(condition 1) needs a stabilizing right-inverse that also zeroes the
endosystem-and-input part of the output, plus an exosystem gain solving
E K1 = -D1.  The equation route (condition 2) needs any stabilizing
right-inverse together with a solution W of the data-driven regulator
equations.  They are solved on the compatible family, for [T; V] =
[X2_minus; U_minus] W, so the solve does not inherit the conditioning
of the samples; K1 = V - K2 T.  Either route yields one gain
pair that works for every member of the compatible family, and
verify_regulator checks any gain pair against the whole family in
closed form.

The coupling A3 is unknown exactly when problem.known.A3 is None; every
function here reads the mode from the problem.  The compatible family
then ranges over (A2, B2, A3) triples, the right-inverse must also
satisfy X1_minus Theta = 0 so the certified closed loop X2_plus X^dagger
does not depend on the coupling, and the regulator equations replace A3
by X1_minus W = I.  synthesize requires A3; synthesize_unknown_a3 drops
any provided A3 and runs the same path.

The decision is a function of the problem alone: it draws no random
numbers and takes no settings.  Both routes are exact, so trying
condition 2 before condition 1 only picks which route's gains come
back.  Equation residuals are held to model.within_tolerance, the rule
of the consistency check and of verification, and certificates to
LmiProblem.margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import assemble_gains, kron, require_anti_stable, solve_sylvester, spectral_info, unvec, vec
from .lmi import LmiProblem, LmiSolution, solve_lmi
from .model import (
    CompatibleSet,
    KnownMatrices,
    Problem,
    Regulator,
    SynthesisReport,
    _as_matrix,
    _regression,
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


def _rank_x2_minus(problem: Problem) -> int:
    X = problem.data.X2_minus
    s = np.linalg.svd(X, compute_uv=False)
    return rank_from_singular_values(s, X.shape)


def _lmi_for(problem: Problem, constraints: tuple[np.ndarray, ...]) -> LmiProblem:
    if problem.known.A3 is None:
        constraints = constraints + (problem.data.X1_minus,)
    _, Z = _regression(problem)
    return LmiProblem(X=problem.data.X2_minus, Z=Z, equality_constraints=constraints)


def _provenance(name: str, problem: Problem) -> str:
    return name + ("_unknown_a3" if problem.known.A3 is None else "")


def _w_system(known: KnownMatrices, X2, U, X1, Z) -> tuple[np.ndarray, np.ndarray]:
    I1 = np.eye(known.n1)
    top = kron(known.A1.T, X2) - kron(I1, Z)
    if known.A3 is None:
        blocks = [top, kron(I1, X1)]
        first = [np.zeros(top.shape[0]), vec(I1)]
    else:
        blocks, first = [top], [vec(known.A3)]
    lhs = np.vstack(blocks + [kron(I1, known.D2 @ X2 + known.E @ U)])
    rhs = np.concatenate(first + [-vec(known.D1)])
    return lhs, rhs


def _data_w_system(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    G, Z = _regression(problem)
    n2, m = problem.n2, problem.m
    return _w_system(problem.known, G[:n2], G[n2 : n2 + m], G[n2 + m :], Z)


def w_system(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Stacked linear system for W in the data-driven regulator equations.

    Rows encode X2_minus W A1 - (X2_plus - A3 X1_minus) W = A3 and
    D1 + (D2 X2_minus + E U_minus) W = 0 acting on vec(W), W of shape
    tau x n1.  When A3 is None the first block reads
    X2_minus W A1 - X2_plus W = 0 and X1_minus W = I follows it.
    """
    return _data_w_system(problem)


def w_system_unknown_a3(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """The system of problem.without_a3(): any provided A3 is ignored."""
    return _data_w_system(problem.without_a3())


def w_residual(problem: Problem, W) -> float:
    """Absolute residual of a candidate W (tau x n1) in the stacked system."""
    W = _as_matrix("W", W, ("tau", problem.tau, "U_minus"), ("n1", problem.n1, "A1"))
    lhs, rhs = w_system(problem)
    return float(np.linalg.norm(lhs @ vec(W) - rhs))


def _solve_w(problem: Problem, family: CompatibleSet, rows: int):
    # G W ranges over im G, the range of P = I - S S^T; with G W = P Y
    # the data equations become those of the family's particular member.
    # The first rows of the family's blocks are those of G.
    known, n2, m = problem.known, problem.n2, problem.m
    S = np.vstack([family.S1, family.S2, family.S3])[:rows]
    M = np.hstack([family.A2_part, family.B2_part, family.A3_part])[:, :rows]
    P = np.eye(rows) - S @ S.T
    lhs, rhs = _w_system(known, P[:n2], P[n2 : n2 + m], P[n2 + m :], M @ P)
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    residual = float(np.linalg.norm(lhs @ sol - rhs))
    feasible = within_tolerance(residual, float(np.linalg.norm(rhs)))
    return P @ unvec(sol, (rows, problem.n1)), residual, feasible


def check_endo_stabilization(problem: Problem) -> EndoStabilization:
    """Decide whether the data pin down one stabilizing state feedback.

    Informative iff X2_minus has full row rank and some right-inverse
    makes the data-defined closed loop stable; K2 = U_minus X^dagger then
    stabilizes every compatible member.  The certificate must reach
    LmiProblem.margin.
    """
    lmi = solve_lmi(_lmi_for(problem, ()))
    return EndoStabilization(
        informative=lmi.found,
        K2=problem.data.U_minus @ lmi.X_dagger if lmi.found else None,
        X_dagger=lmi.X_dagger,
        lmi=lmi,
        rank_X2_minus=_rank_x2_minus(problem),
    )


def _fails(lmi: LmiSolution | None, diagnostics, *reasons: str) -> ConditionOutcome:
    return ConditionOutcome(
        holds=False, regulator=None, lmi=lmi, diagnostics=diagnostics, reasons=reasons
    )


def check_condition1(problem: Problem) -> ConditionOutcome:
    """Pointwise route: output zeroing by constraint plus E K1 = -D1.

    The right-inverse is constrained so D2 + E K2 vanishes on the data
    (and, when A3 is None, so the right-inverse annihilates X1_minus).
    The image-inclusion test E K1 = -D1, held to within_tolerance of
    ||D1||, runs first; when it already fails the right-inverse is not
    decided.
    """
    known, data = problem.known, problem.data
    K1, *_ = np.linalg.lstsq(known.E, -known.D1, rcond=None)
    inclusion = float(np.linalg.norm(known.E @ K1 + known.D1))
    diagnostics = {"image_inclusion": inclusion}
    if not within_tolerance(inclusion, float(np.linalg.norm(known.D1))):
        reason = f"im D1 is not contained in im E (residual {inclusion:.3e})"
        return _fails(None, diagnostics, reason)
    output_map = known.D2 @ data.X2_minus + known.E @ data.U_minus
    lmi = solve_lmi(_lmi_for(problem, (output_map,)))
    diagnostics["lmi_min_eig"] = lmi.min_eig
    if not lmi.found:
        sought = "stabilizing right-inverse that zeroes the output"
        return _fails(lmi, diagnostics, _lmi_failure(lmi, sought))
    K2 = data.U_minus @ lmi.X_dagger
    regulator = Regulator(
        K1=K1,
        K2=K2,
        provenance=_provenance("condition1", problem),
        Theta=lmi.Theta,
        X2_dagger=lmi.X_dagger,
    )
    return ConditionOutcome(
        holds=True, regulator=regulator, lmi=lmi, diagnostics=diagnostics
    )


def check_condition2(problem: Problem, family: CompatibleSet | None = None) -> ConditionOutcome:
    """Equation route: stabilizing right-inverse plus regulator equations.

    The regulator equations of the compatible family (built when family
    is None) are solved for [T; V (; I)] = G W in the image of
    G = [X2_minus; U_minus (; X1_minus)] and must hold within_tolerance
    of ||rhs||; K2 = U_minus X^dagger, K1 = V - K2 T, and W is
    reconstructed as the witness.
    """
    family = family or compatible_set(problem)
    lmi = solve_lmi(_lmi_for(problem, ()))
    G, _ = _regression(problem)
    Y, residual, w_ok = _solve_w(problem, family, len(G))
    diagnostics = {"lmi_min_eig": lmi.min_eig, "w_residual": residual}
    reasons = []
    if not lmi.found:
        reasons.append(_lmi_failure(lmi, "stabilizing right-inverse"))
    if not w_ok:
        reasons.append(f"regulator equations infeasible (residual {residual:.3e})")
    if reasons:
        return _fails(lmi, diagnostics, *reasons)
    W, *_ = np.linalg.lstsq(G, Y, rcond=None)
    n2, m = problem.n2, problem.m
    K2 = problem.data.U_minus @ lmi.X_dagger
    regulator = Regulator(
        K1=assemble_gains(Y[:n2], Y[n2 : n2 + m], K2),
        K2=K2,
        provenance=_provenance("condition2", problem),
        W=W,
        Theta=lmi.Theta,
        X2_dagger=lmi.X_dagger,
    )
    return ConditionOutcome(
        holds=True, regulator=regulator, lmi=lmi, diagnostics=diagnostics
    )


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


def _informative(problem, report, name, outcome, family) -> SynthesisResult:
    report.chosen_condition = name
    report.messages.append(
        f"informative for regulator design via {name}"
        + (" (unknown coupling)" if problem.known.A3 is None else "")
    )
    return SynthesisResult(regulator=outcome.regulator, report=report, family=family)


def _synthesize(problem: Problem) -> SynthesisResult:
    # The conditions read only the data, so data that no system could
    # have produced would pass them; raises InconsistentDataError.
    family = compatible_set(problem)
    require_anti_stable(problem.known.A1)
    rank = _rank_x2_minus(problem)
    report = SynthesisReport(rank_X2_minus=rank)
    if rank < problem.n2:
        report.messages.append(
            f"X2_minus is rank-deficient (rank {rank} < n2 = {problem.n2}); "
            "the data cannot certify endo-stabilization"
        )
        return SynthesisResult(regulator=None, report=report, family=family)

    report.condition2 = second = check_condition2(problem, family)
    _fold(report, second)
    if second.holds:
        return _informative(problem, report, "condition2", second, family)
    report.condition1 = first = check_condition1(problem)
    _fold(report, first)
    if first.holds:
        return _informative(problem, report, "condition1", first, family)
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
    require_anti_stable(known.A1)
    K1, K2 = regulator.K1, regulator.K2
    A_cl = cset.A2_part + cset.B2_part @ K2
    spread = float(np.linalg.norm(cset.S1.T + cset.S2.T @ K2))
    loop = spectral_info(A_cl)
    residuals = {"closed_loop_spread": spread}
    passed = loop.is_stable and within_tolerance(spread, float(np.linalg.norm(K2)))
    if loop.is_stable:
        # The member at N has T(N) = T0 + sum_ij N_ij T_ij, where T_ij
        # solves the Sylvester equation for e_i c_j^T and c_j^T is row j
        # of S3^T + S2^T K1; the output is affine in N the same way.
        C = cset.S3.T + cset.S2.T @ K1
        directions = np.einsum("ik,jl->ijkl", np.eye(cset.n2), C)
        rhs = np.concatenate(
            [[cset.A3_part + cset.B2_part @ K1], directions.reshape(-1, cset.n2, known.n1)]
        )
        outputs = (known.D2 + known.E @ K2) @ solve_sylvester(known.A1, A_cl, rhs)
        outputs[0] += known.D1 + known.E @ K1
        norms = np.linalg.norm(outputs, axis=(1, 2))
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
    with one Sylvester operator.  The closed-loop spread is held to
    within_tolerance of ||K2|| and each output residual to
    within_tolerance of ||D1||, as in check_output_regulated.  cset
    supplies the family; known supplies A1 and the output matrices.
    Raises DimensionError, via require_gain_shapes, when a gain does not
    fit known.  samples is accepted for older callers and ignored.
    """
    return _verify_regulator(regulator, cset, known)


def verify_regulator_unknown_a3(regulator, cset, known, samples=None) -> VerificationReport:
    """verify_regulator under the name older unknown-coupling callers use."""
    return _verify_regulator(regulator, cset, known)

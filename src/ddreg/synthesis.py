"""Informativity decisions and regulator synthesis from data.

Two routes can certify a problem informative.  The pointwise route
(condition 1) needs a stabilizing right-inverse that also zeroes the
endosystem-and-input part of the output, plus an exosystem gain solving
E K1 = -D1.  The equation route (condition 2) needs any stabilizing
right-inverse together with a solution W of the data-driven regulator
equations, from which both gains follow.  Either route yields one gain
pair that works for every member of the compatible family.

The unknown-coupling variants impose X1_minus Theta = 0 so the certified
closed loop X2_plus X^dagger does not depend on the coupling matrix, and
they swap in coupling-free regulator equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    AntiStabilityError,
    check_output_regulated,
    spectral_info,
    unvec,
    vec,
)
from .lmi import LmiProblem, LmiSolution, solve_lmi
from .model import (
    CompatibleSet,
    CompatibleSetUnknownA3,
    ConditionReport,
    KnownMatrices,
    Problem,
    Regulator,
    SynthesisReport,
    compatible_set,
    compatible_set_unknown_a3,
    rank_from_singular_values,
)
from .simulation import (
    TrueSystem,
    closed_loop_sim,
    decay_check,
    horizon_for_radius,
    sample_members,
    sample_members_unknown_a3,
)

__all__ = [
    "SynthesisConfig",
    "EndoStabilization",
    "ConditionOutcome",
    "SynthesisResult",
    "MemberVerification",
    "VerificationReport",
    "w_system",
    "w_system_unknown_a3",
    "w_residual",
    "check_endo_stabilization",
    "check_condition1",
    "check_condition2",
    "synthesize",
    "synthesize_unknown_a3",
    "verify_regulator",
    "verify_regulator_unknown_a3",
]

_TRY_ORDERS = ("condition2_first", "condition1_first")


@dataclass(frozen=True)
class SynthesisConfig:
    """Tolerances and certificate settings for one synthesis run.

    lmi_budget, lmi_starts and lmi_seed are still validated, so existing
    problem files keep loading, but they have no effect: the
    right-inverse condition is decided exactly.
    """

    residual_tol: float = 1e-8
    try_order: str = "condition2_first"
    lmi_rho: float = 1e3
    lmi_margin: float = 1e-6
    lmi_budget: int = 20000
    lmi_starts: int = 5
    lmi_seed: int = 0
    verify_samples: int = 25

    def __post_init__(self):
        if self.try_order not in _TRY_ORDERS:
            raise ValueError(f"try_order must be one of {_TRY_ORDERS}")
        if self.residual_tol <= 0 or self.lmi_rho <= 0 or self.lmi_margin <= 0:
            raise ValueError("tolerances must be positive")
        if self.lmi_budget < 1 or self.lmi_starts < 1 or self.verify_samples < 1:
            raise ValueError("budgets must be positive integers")


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
    """Regulator (None when not informative) plus the full report."""

    regulator: Regulator | None
    report: SynthesisReport


def _require_anti_stable(known: KnownMatrices) -> None:
    if not spectral_info(known.A1).is_anti_stable:
        raise AntiStabilityError(
            "A1 must be anti-stable: stable exosystem modes decay on their own "
            "and make the data uninformative about regulation"
        )


def _rank_x2_minus(problem: Problem) -> int:
    X = problem.data.X2_minus
    s = np.linalg.svd(X, compute_uv=False)
    return rank_from_singular_values(s, X.shape)


def _output_map(problem: Problem) -> np.ndarray:
    known, data = problem.known, problem.data
    return known.D2 @ data.X2_minus + known.E @ data.U_minus


def _closed_loop_data(problem: Problem, unknown_a3: bool) -> np.ndarray:
    data, known = problem.data, problem.known
    if unknown_a3:
        return data.X2_plus
    if known.A3 is None:
        raise ValueError("A3 is required unless running in unknown-coupling mode")
    return data.X2_plus - known.A3 @ data.X1_minus


def _lmi_for(
    problem: Problem,
    config: SynthesisConfig,
    constraints: tuple[np.ndarray, ...],
    unknown_a3: bool,
) -> LmiProblem:
    return LmiProblem(
        X=problem.data.X2_minus,
        Z=_closed_loop_data(problem, unknown_a3),
        equality_constraints=constraints,
        rho=config.lmi_rho,
        margin=config.lmi_margin,
    )


def w_system(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Stacked linear system for W in the data-driven regulator equations.

    Rows encode X2_minus W A1 - (X2_plus - A3 X1_minus) W = A3 and
    D1 + (D2 X2_minus + E U_minus) W = 0 acting on vec(W), W of shape
    tau x n1.
    """
    data, known = problem.data, problem.known
    Zc = _closed_loop_data(problem, unknown_a3=False)
    I1 = np.eye(problem.n1)
    top = np.kron(known.A1.T, data.X2_minus) - np.kron(I1, Zc)
    bottom = np.kron(I1, _output_map(problem))
    lhs = np.vstack([top, bottom])
    rhs = np.concatenate([vec(known.A3), -vec(known.D1)])
    return lhs, rhs


def w_system_unknown_a3(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Coupling-free variant of the regulator-equation system.

    Rows encode X2_minus W A1 - X2_plus W = 0, X1_minus W = I and
    D1 + (D2 X2_minus + E U_minus) W = 0.
    """
    data, known = problem.data, problem.known
    I1 = np.eye(problem.n1)
    top = np.kron(known.A1.T, data.X2_minus) - np.kron(I1, data.X2_plus)
    middle = np.kron(I1, data.X1_minus)
    bottom = np.kron(I1, _output_map(problem))
    lhs = np.vstack([top, middle, bottom])
    rhs = np.concatenate(
        [np.zeros(top.shape[0]), vec(I1), -vec(known.D1)]
    )
    return lhs, rhs


def w_residual(problem: Problem, W, unknown_a3: bool = False) -> float:
    """Absolute residual of a candidate W in the stacked system."""
    lhs, rhs = (
        w_system_unknown_a3(problem) if unknown_a3 else w_system(problem)
    )
    W = np.asarray(W, dtype=float)
    return float(np.linalg.norm(lhs @ vec(W) - rhs))


def _solve_w(problem: Problem, config: SynthesisConfig, unknown_a3: bool):
    lhs, rhs = (
        w_system_unknown_a3(problem) if unknown_a3 else w_system(problem)
    )
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    residual = float(np.linalg.norm(lhs @ sol - rhs))
    feasible = residual <= config.residual_tol * (1.0 + float(np.linalg.norm(rhs)))
    W = unvec(sol, (problem.tau, problem.n1))
    return W, residual, feasible


def check_endo_stabilization(
    problem: Problem, config: SynthesisConfig | None = None
) -> EndoStabilization:
    """Decide whether the data pin down one stabilizing state feedback.

    Informative iff X2_minus has full row rank and some right-inverse
    makes the data-defined closed loop stable; K2 = U_minus X^dagger then
    stabilizes every compatible member.
    """
    config = config or SynthesisConfig()
    lmi = solve_lmi(_lmi_for(problem, config, (), unknown_a3=False))
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


def check_condition1(
    problem: Problem,
    config: SynthesisConfig | None = None,
    unknown_a3: bool = False,
) -> ConditionOutcome:
    """Pointwise route: output zeroing by constraint plus E K1 = -D1.

    The right-inverse is constrained so D2 + E K2 vanishes on the data
    (and, in unknown-coupling mode, so the right-inverse annihilates
    X1_minus).  The image-inclusion test runs first; when it already
    fails the right-inverse is not decided.
    """
    config = config or SynthesisConfig()
    known, data = problem.known, problem.data
    K1, *_ = np.linalg.lstsq(known.E, -known.D1, rcond=None)
    inclusion = float(np.linalg.norm(known.E @ K1 + known.D1))
    diagnostics = {"image_inclusion": inclusion}
    if inclusion > config.residual_tol * (1.0 + float(np.linalg.norm(known.D1))):
        reason = f"im D1 is not contained in im E (residual {inclusion:.3e})"
        return _fails(None, diagnostics, reason)
    constraints: tuple[np.ndarray, ...] = (_output_map(problem),)
    if unknown_a3:
        constraints = constraints + (data.X1_minus,)
    lmi = solve_lmi(_lmi_for(problem, config, constraints, unknown_a3))
    diagnostics["lmi_min_eig"] = lmi.min_eig
    if not lmi.found:
        sought = "stabilizing right-inverse that zeroes the output"
        return _fails(lmi, diagnostics, _lmi_failure(lmi, sought, config))
    K2 = data.U_minus @ lmi.X_dagger
    provenance = "condition1_unknown_a3" if unknown_a3 else "condition1"
    regulator = Regulator(
        K1=K1,
        K2=K2,
        provenance=provenance,
        Theta=lmi.Theta,
        X2_dagger=lmi.X_dagger,
    )
    return ConditionOutcome(
        holds=True, regulator=regulator, lmi=lmi, diagnostics=diagnostics
    )


def check_condition2(
    problem: Problem,
    config: SynthesisConfig | None = None,
    unknown_a3: bool = False,
) -> ConditionOutcome:
    """Equation route: stabilizing right-inverse plus regulator equations.

    Both gains follow from the witnesses: K2 = U_minus X^dagger and
    K1 = U_minus (I - X^dagger X2_minus) W.
    """
    config = config or SynthesisConfig()
    data = problem.data
    constraints: tuple[np.ndarray, ...] = (data.X1_minus,) if unknown_a3 else ()
    lmi = solve_lmi(_lmi_for(problem, config, constraints, unknown_a3))
    W, residual, w_ok = _solve_w(problem, config, unknown_a3)
    diagnostics = {"lmi_min_eig": lmi.min_eig, "w_residual": residual}
    reasons = []
    if not lmi.found:
        reasons.append(_lmi_failure(lmi, "stabilizing right-inverse", config))
    if not w_ok:
        reasons.append(f"regulator equations infeasible (residual {residual:.3e})")
    if reasons:
        return _fails(lmi, diagnostics, *reasons)
    X_dagger = lmi.X_dagger
    K2 = data.U_minus @ X_dagger
    K1 = data.U_minus @ (np.eye(problem.tau) - X_dagger @ data.X2_minus) @ W
    provenance = "condition2_unknown_a3" if unknown_a3 else "condition2"
    regulator = Regulator(
        K1=K1,
        K2=K2,
        provenance=provenance,
        W=W,
        Theta=lmi.Theta,
        X2_dagger=X_dagger,
    )
    return ConditionOutcome(
        holds=True, regulator=regulator, lmi=lmi, diagnostics=diagnostics
    )


def _fold_condition(report_slot: ConditionReport, outcome: ConditionOutcome) -> None:
    report_slot.attempted = True
    report_slot.holds = outcome.holds
    report_slot.residuals.update(outcome.diagnostics)


def _fold_lmi(
    report: SynthesisReport, lmi: LmiSolution | None, config: SynthesisConfig
) -> None:
    if lmi is None:
        return
    report.lmi.margin = config.lmi_margin
    report.lmi.min_eigenvalue = max(report.lmi.min_eigenvalue, lmi.min_eig)


def _lmi_failure(lmi: LmiSolution, sought: str, config: SynthesisConfig) -> str:
    if lmi.witness is not None:
        return f"no {sought} exists: {lmi.witness}"
    return (
        f"a {sought} exists, but its certificate reaches min_eig "
        f"{lmi.min_eig:.3e}, below the margin {config.lmi_margin:.3e}"
    )


def _synthesize(
    problem: Problem, config: SynthesisConfig, unknown_a3: bool
) -> SynthesisResult:
    # The conditions read only the data, so data that no system could
    # have produced would pass them; raises InconsistentDataError.
    (compatible_set_unknown_a3 if unknown_a3 else compatible_set)(problem)
    _require_anti_stable(problem.known)
    rank = _rank_x2_minus(problem)
    report = SynthesisReport(rank_X2_minus=rank)
    if rank < problem.n2:
        report.messages.append(
            f"X2_minus is rank-deficient (rank {rank} < n2 = {problem.n2}); "
            "the data cannot certify endo-stabilization"
        )
        return SynthesisResult(regulator=None, report=report)

    order = (
        ("condition2", "condition1")
        if config.try_order == "condition2_first"
        else ("condition1", "condition2")
    )
    checks = {"condition1": check_condition1, "condition2": check_condition2}
    slots = {"condition1": report.condition1, "condition2": report.condition2}
    outcomes: dict[str, ConditionOutcome] = {}
    for name in order:
        outcome = checks[name](problem, config, unknown_a3)
        outcomes[name] = outcome
        _fold_condition(slots[name], outcome)
        _fold_lmi(report, outcome.lmi, config)
        if outcome.holds:
            report.chosen_condition = name
            report.messages.append(
                f"informative for regulator design via {name}"
                + (" (unknown coupling)" if unknown_a3 else "")
            )
            return SynthesisResult(regulator=outcome.regulator, report=report)

    for name in order:
        report.messages.append(f"{name}: " + "; ".join(outcomes[name].reasons))
    report.messages.append("not informative for regulator design")
    return SynthesisResult(regulator=None, report=report)


def synthesize(
    problem: Problem, config: SynthesisConfig | None = None
) -> SynthesisResult:
    """Decide informativity and synthesize gains, trying both routes.

    Raises InconsistentDataError when no system matches the data and
    AntiStabilityError when the exosystem is not anti-stable.  On
    success the regulator carries its witnesses; on failure the report
    explains which requirement broke in each branch.
    """
    return _synthesize(problem, config or SynthesisConfig(), unknown_a3=False)


def synthesize_unknown_a3(
    problem: Problem, config: SynthesisConfig | None = None
) -> SynthesisResult:
    """Synthesis when the coupling matrix is unknown.

    Any provided A3 is ignored; the compatible family then ranges over
    (A2, B2, A3) triples and the certificates are coupling-free.
    """
    return _synthesize(problem, config or SynthesisConfig(), unknown_a3=True)


@dataclass(frozen=True, eq=False)
class MemberVerification:
    """Checks for one sampled member under the candidate regulator."""

    index: int
    endo_stable: bool
    output_regulated: bool
    decay_passed: bool | None
    closed_loop_radius: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Aggregate verdict over the sampled members."""

    passed: bool
    members: list[MemberVerification]
    rho_bound: float

    @property
    def n_members(self) -> int:
        return len(self.members)


def _verify_members(
    regulator: Regulator,
    known: KnownMatrices,
    members,
    rho_bound: float,
    seed: int,
    check_decay: bool,
) -> VerificationReport:
    K1, K2 = regulator.K1, regulator.K2
    horizon = horizon_for_radius(rho_bound)
    rng = np.random.default_rng([seed, 987654321])
    results = []
    for index, (A2, B2, A3) in enumerate(members):
        A_cl = A2 + B2 @ K2
        radius = spectral_info(A_cl).spectral_radius
        endo_stable = radius < 1.0
        regulated = False
        if endo_stable:
            regulated = check_output_regulated(
                known.A1,
                A_cl,
                A3 + B2 @ K1,
                known.D1 + known.E @ K1,
                known.D2 + known.E @ K2,
            ).regulated
        decay_passed = None
        if check_decay and endo_stable:
            system = TrueSystem(A1=known.A1, A2=A2, B2=B2, A3=A3)
            x1_0 = rng.uniform(-1.0, 1.0, size=known.n1)
            x2_0 = rng.uniform(-1.0, 1.0, size=A2.shape[0])
            trajectory = closed_loop_sim(system, known, regulator, x1_0, x2_0, horizon)
            decay_passed = decay_check(trajectory, rho_bound).passes
        results.append(
            MemberVerification(
                index=index,
                endo_stable=endo_stable,
                output_regulated=regulated,
                decay_passed=decay_passed,
                closed_loop_radius=radius,
            )
        )
    passed = all(
        r.endo_stable and r.output_regulated and r.decay_passed is not False
        for r in results
    )
    return VerificationReport(passed=passed, members=results, rho_bound=rho_bound)


def verify_regulator(
    regulator: Regulator,
    cset: CompatibleSet,
    known: KnownMatrices,
    samples: int = 25,
    seed: int = 0,
    radius: float = 5.0,
    check_decay: bool = True,
) -> VerificationReport:
    """Check a regulator against sampled members of the family.

    Every member must be endo-stable under K2, output-regulated under
    (K1, K2) and, redundantly, show empirical output decay at the
    data-driven closed-loop rate.
    """
    if known.A3 is None:
        raise ValueError("A3 is required; use verify_regulator_unknown_a3 instead")
    pairs = sample_members(cset, samples, radius=radius, seed=seed)
    if cset.r > 0:
        pairs = [(cset.A2_part, cset.B2_part)] + pairs
    members = [(A2, B2, known.A3) for A2, B2 in pairs]
    rho_bound = spectral_info(
        cset.A2_part + cset.B2_part @ regulator.K2
    ).spectral_radius
    return _verify_members(regulator, known, members, rho_bound, seed, check_decay)


def verify_regulator_unknown_a3(
    regulator: Regulator,
    cset: CompatibleSetUnknownA3,
    known: KnownMatrices,
    samples: int = 10,
    seed: int = 0,
    radius: float = 5.0,
    check_decay: bool = True,
) -> VerificationReport:
    """Sample-and-verify over the coupling-free family of triples."""
    triples = sample_members_unknown_a3(cset, samples, radius=radius, seed=seed)
    if cset.r > 0:
        triples = [(cset.A2_part, cset.B2_part, cset.A3_part)] + triples
    rho_bound = spectral_info(
        cset.A2_part + cset.B2_part @ regulator.K2
    ).spectral_radius
    return _verify_members(regulator, known, triples, rho_bound, seed, check_decay)

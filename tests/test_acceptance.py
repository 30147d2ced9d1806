"""Acceptance checks for the shipped behavior guarantees.

Each test prints exactly one verdict line (visible with pytest -s) and
asserts the same condition, so the verdict survives both in the console
and in the test outcome.  Tolerances are stated inline next to each
check.
"""

import subprocess
import sys
import time

import numpy as np

from ddreg import (
    LmiProblem,
    TrueSystem,
    assemble_gains,
    check_condition2,
    check_output_regulated,
    check_theta,
    closed_loop_sim,
    compatible_set,
    compatible_set_unknown_a3,
    sample_members,
    solve_lmi,
    spectral_info,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
    verify_regulator_unknown_a3,
    w_residual,
)
from ddreg.examples import REFERENCE, fixture_text
from ddreg.fileio import parse_problem

from _instances import coupling_free_instance, moved_along_null_space, regulable_instance

N_RANDOM_INSTANCES = 100
_instance_cache: dict[int, tuple] = {}


def _verdict(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _synthesized(seed: int):
    if seed not in _instance_cache:
        instance = regulable_instance(seed)
        _instance_cache[seed] = (instance, synthesize(instance.problem))
    return _instance_cache[seed]


def _cli_check_reports(tmp_path, name: str, condition: str) -> bool:
    path = tmp_path / f"{name}.json"
    path.write_text(fixture_text(name))
    run = subprocess.run(
        [sys.executable, "-m", "ddreg.cli", "check", str(path)],
        capture_output=True,
        text=True,
    )
    return run.returncode == 0 and f"via {condition}" in run.stdout


def test_criterion_1_scalar_example_reproduction(tmp_path):
    t0 = time.perf_counter()
    problem = parse_problem(fixture_text("scalar")).problem
    data, known = problem.data, problem.known
    ref = REFERENCE["scalar"]

    result = synthesize(problem)
    chose_condition2 = result.report.chosen_condition == "condition2"
    cli_agrees = _cli_check_reports(tmp_path, "scalar", "condition2")

    # Reference witnesses in check-mode, all residuals below 1e-10.
    Zc = data.X2_plus - known.A3 @ data.X1_minus
    loop_ref = Zc @ ref["X_dagger"]
    regulation = check_output_regulated(
        known.A1,
        ref["true_A2"] + ref["true_B2"] @ ref["K2"],
        known.A3 + ref["true_B2"] @ ref["K1"],
        known.D1 + known.E @ ref["K1"],
        known.D2 + known.E @ ref["K2"],
    )
    residuals = {
        "W": w_residual(problem, ref["W"]),
        "X_dagger right-inverse": float(
            np.linalg.norm(data.X2_minus @ ref["X_dagger"] - np.eye(problem.n2))
        ),
        "X_dagger closed loop": float(
            np.linalg.norm(loop_ref - ref["closed_loop"])
        ),
        "gain regulation": regulation.output_residual,
    }
    witnesses_ok = all(v < 1e-10 for v in residuals.values())
    loop_stable = spectral_info(loop_ref).is_stable and regulation.regulated

    # The synthesized regulator must survive verification and drive the
    # output below 1e-6 by step 50 on the true system.
    verified = False
    terminal = float("inf")
    if result.regulator is not None:
        cset = compatible_set(problem)
        verified = verify_regulator(
            result.regulator, cset, known, samples=25
        ).passed
        true_system = TrueSystem(
            A1=known.A1, A2=ref["true_A2"], B2=ref["true_B2"], A3=known.A3
        )
        trajectory = closed_loop_sim(
            true_system, known, result.regulator, ref["x1_0"], ref["x2_0"], 50
        )
        terminal = float(np.linalg.norm(trajectory.z[:, 50]))
    elapsed = time.perf_counter() - t0

    ok = (
        chose_condition2
        and cli_agrees
        and witnesses_ok
        and loop_stable
        and verified
        and terminal < 1e-6
        and elapsed < 5.0
    )
    line = _verdict(
        1,
        ok,
        f"condition2={chose_condition2}, cli agrees={cli_agrees}, "
        f"max witness residual {max(residuals.values()):.2e} < 1e-10, "
        f"verified={verified}, |z(50)|={terminal:.2e} < 1e-6, "
        f"{elapsed:.2f}s < 5s",
    )
    assert ok, line + f"; residuals={residuals}"


def test_criterion_2_planar_example_reproduction(tmp_path):
    t0 = time.perf_counter()
    problem = parse_problem(fixture_text("planar")).problem
    ref = REFERENCE["planar"]

    result = synthesize(problem)
    chose_condition1 = result.report.chosen_condition == "condition1"
    cli_agrees = _cli_check_reports(tmp_path, "planar", "condition1")
    regulator = result.regulator
    assert regulator is not None, result.report.messages

    cset = compatible_set(problem)
    closed_loop = cset.A2_part + cset.B2_part @ regulator.K2
    loop_err = float(np.linalg.norm(closed_loop - ref["closed_loop"], np.inf))
    eigs = np.sort_complex(spectral_info(closed_loop).eigenvalues)
    eig_err = float(
        np.abs(eigs - np.sort_complex(ref["eigenvalues"])).max()
    )
    k2_err = float(np.abs(regulator.K2 - ref["K2"]).max())

    verified = verify_regulator(regulator, cset, problem.known, samples=25).passed
    member_spread = max(
        float(np.abs(A2 + B2 @ regulator.K2 - ref["closed_loop"]).max())
        for A2, B2, _ in sample_members(cset, 25, seed=0)
    )
    elapsed = time.perf_counter() - t0

    ok = (
        chose_condition1
        and cli_agrees
        and loop_err < 1e-10
        and eig_err < 1e-10
        and k2_err < 1e-12
        and verified
        and member_spread < 1e-9
        and elapsed < 5.0
    )
    line = _verdict(
        2,
        ok,
        f"condition1={chose_condition1}, cli agrees={cli_agrees}, "
        f"loop err {loop_err:.2e} < 1e-10, eig err {eig_err:.2e} < 1e-10, "
        f"K2 err {k2_err:.2e} < 1e-12, 25-member spread "
        f"{member_spread:.2e} < 1e-9, {elapsed:.2f}s < 5s",
    )
    assert ok, line


def test_criterion_3_randomized_round_trip():
    t0 = time.perf_counter()
    successes = 0
    budget_failures = []
    for seed in range(N_RANDOM_INSTANCES):
        instance, result = _synthesized(seed)
        if result.regulator is None:
            messages = " ".join(result.report.messages)
            diagnostics = (
                "no stabilizing right-inverse",
                "below the margin",
                "regulator equations infeasible",
            )
            assert any(d in messages for d in diagnostics), (
                f"seed {seed} failed without a right-inverse or "
                f"regulator-equation diagnostic: {messages}"
            )
            budget_failures.append(seed)
            continue
        successes += 1
        cset = compatible_set(instance.problem)
        report = verify_regulator(
            result.regulator, cset, instance.problem.known, samples=10
        )
        assert report.passed, f"seed {seed} returned a regulator that fails verification"
    elapsed = time.perf_counter() - t0

    ok = successes >= 95 and elapsed < 60.0
    line = _verdict(
        3,
        ok,
        f"{successes}/{N_RANDOM_INSTANCES} synthesized (>= 95), "
        f"budget failures {budget_failures}, every returned regulator "
        f"verified on the whole compatible family, {elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_criterion_4_oracle_equivalence_on_identifiable_instances():
    checked = 0
    worst_equation = 0.0
    worst_gain = 0.0
    for seed in range(N_RANDOM_INSTANCES):
        instance, result = _synthesized(seed)
        problem = instance.problem
        cset = compatible_set(problem)
        if cset.r != 0:
            continue
        regulator = result.regulator
        if regulator is None or regulator.W is None:
            outcome = check_condition2(cset, problem.known)
            if not outcome.holds:
                continue
            regulator = outcome.regulator
        W = regulator.W
        data, known = problem.data, problem.known
        T = data.X2_minus @ W
        V = data.U_minus @ W
        A2, B2 = cset.A2_part, cset.B2_part
        eq1 = float(
            np.linalg.norm(T @ known.A1 - A2 @ T - B2 @ V - known.A3)
        )
        eq2 = float(np.linalg.norm(known.D1 + known.D2 @ T + known.E @ V))
        gain_err = float(
            np.abs(assemble_gains(T, V, regulator.K2) - regulator.K1).max()
        )
        worst_equation = max(worst_equation, eq1, eq2)
        worst_gain = max(worst_gain, gain_err)
        assert eq1 < 1e-8 and eq2 < 1e-8, f"seed {seed}: ({eq1:.2e}, {eq2:.2e})"
        assert gain_err < 1e-8, f"seed {seed}: gain mismatch {gain_err:.2e}"
        checked += 1

    ok = checked > 0 and worst_equation < 1e-8 and worst_gain < 1e-8
    line = _verdict(
        4,
        ok,
        f"{checked} identifiable instances, worst regulator-equation "
        f"residual {worst_equation:.2e} < 1e-8, worst gain mismatch "
        f"{worst_gain:.2e} < 1e-8",
    )
    assert ok, line


def test_criterion_5_lmi_solver_properties():
    problem = parse_problem(fixture_text("scalar")).problem
    data, known = problem.data, problem.known
    scalar_lmi = LmiProblem(
        X=data.X2_minus, Z=data.X2_plus - known.A3 @ data.X1_minus
    )
    feasible = solve_lmi(scalar_lmi)
    feasible_ok = feasible.found and feasible.min_eig > 1e-6

    infeasible = solve_lmi(LmiProblem(X=np.array([[1.0]]), Z=np.array([[2.0]])))
    infeasible_ok = (not infeasible.found) and infeasible.min_eig <= 0.0

    # Convexity and positive scaling on two distinct feasible points: the
    # solver's Theta and that Theta moved along the null space of X.
    a = solve_lmi(scalar_lmi)
    Theta_b = moved_along_null_space(scalar_lmi, a)
    b = check_theta(scalar_lmi, Theta_b)
    invariance_ok = (
        a.found
        and not np.allclose(Theta_b, a.Theta)
        and b.min_eig >= 0.5 * a.min_eig >= scalar_lmi.margin
        and b.symmetry_residual <= 1e-9 * np.linalg.norm(scalar_lmi.X @ Theta_b)
        and b.X_dagger is not None
    )
    for Theta, solution in ((a.Theta, a), (Theta_b, b)):
        scaled = check_theta(scalar_lmi, 3.0 * Theta)
        invariance_ok = invariance_ok and (
            abs(scaled.min_eig - 3.0 * solution.min_eig)
            < 1e-9 * abs(solution.min_eig)
            and np.allclose(scaled.X_dagger, solution.X_dagger, atol=1e-9)
        )
    mid = check_theta(scalar_lmi, 0.5 * (a.Theta + Theta_b))
    invariance_ok = invariance_ok and mid.min_eig >= min(a.min_eig, b.min_eig) - 1e-9

    ok = feasible_ok and infeasible_ok and invariance_ok
    line = _verdict(
        5,
        ok,
        f"scalar feasible min_eig {feasible.min_eig:.2e} > 1e-6, forced "
        f"1x1 infeasible min_eig {infeasible.min_eig:.2e} <= 0, "
        f"convexity and scaling invariance hold",
    )
    assert ok, line


def test_criterion_6_unknown_coupling_variant():
    instance = coupling_free_instance(0)
    result = synthesize_unknown_a3(instance.problem)
    assert result.regulator is not None, result.report.messages
    cset = compatible_set_unknown_a3(instance.problem)
    report = verify_regulator_unknown_a3(
        result.regulator, cset, instance.problem.known, samples=10
    )
    ok = cset.r >= 1 and report.passed
    line = _verdict(
        6,
        ok,
        f"family has {cset.r} free direction(s), regulator from "
        f"{result.regulator.provenance} passed on the whole family "
        f"({', '.join(f'{k} {v:.2e}' for k, v in report.residuals.items())})",
    )
    assert ok, line

"""Command-line interface.

Subcommands: check (decide informativity and verify the gains against
the whole compatible family), synth (the same, then write a regulator
file that passed), simulate (verify a regulator file the same way, then
write a closed-loop CSV over sampled members), example (synth on a
bundled problem, then simulate its members) and gen-data (collect a
problem file from a true system).  Exit codes: 0 success or informative
with verified gains, 2 not informative or a failed verification, 1 usage
or input errors.  An error caused by a file names that file
(fileio.naming), whether it comes from reading, parsing or deciding on
its contents.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .examples import EXAMPLE_NAMES, REFERENCE, fixture_text
from .fileio import (
    ProblemFileError,
    load_problem,
    load_regulator,
    load_system,
    naming,
    parse_problem,
    problem_to_text,
    save_regulator,
    write_trajectories_csv,
    _atomic_write_text,
)
from .model import _made, _spectrum, build_problem, compatible_set, require_shape
from .simulation import (
    MAX_RADIUS,
    TrueSystem,
    closed_loop_sim,
    decay_check,
    generate_data,
    horizon_for_radius,
    sample_members,
)
from .synthesis import require_gain_shapes, synthesize, synthesize_unknown_a3, verify_regulator

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def _radius(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= MAX_RADIUS:
        raise argparse.ArgumentTypeError(f"must be a number from 0 to {MAX_RADIUS!r}, got {text!r}")
    return value


def _finite(values: np.ndarray, text: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"must hold finite numbers, got {text!r}")
    return values


def _vector(text: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}"
        ) from None
    return _finite(values, text)


def _matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        values = np.array(rows, dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be rows of comma-separated numbers joined by ';', got {text!r}"
        ) from None
    return _finite(values, text)


def _initial_state(flag: str, value, n: int):
    """The state given by flag, all ones when it is absent; it must have length n."""
    if value is None:
        return np.ones(n)
    if len(value) != n:
        raise ProblemFileError(f"{flag} must have length {n}, got {len(value)}")
    return value


def _fmt(matrix) -> str:
    return str(np.asarray(matrix).tolist())


def _residual_text(residuals) -> str:
    return "".join(f"; {k}={v:.3e}" for k, v in sorted(residuals.items()))


def _condition_line(name, outcome) -> str:
    if outcome is None:
        return f"{name}: not attempted"
    verdict = "holds" if outcome.holds else "fails"
    return f"{name}: {verdict}" + _residual_text(outcome.diagnostics)


def _print_verification(family, verification) -> None:
    print(
        f"verification over the whole family (r={family.r}): "
        f"{'PASS' if verification.passed else 'FAIL'}"
        + _residual_text(verification.residuals)
    )


def _print_report(doc, result) -> None:
    problem = doc.problem
    print(
        f"problem: {doc.origin} "
        f"(n1={problem.n1}, n2={problem.n2}, m={problem.m}, "
        f"p={problem.p}, tau={problem.tau})"
    )
    report = result.report
    print(f"rank(X2_minus): {report.rank_X2_minus} of {problem.n2}")
    print(_condition_line("condition2", report.condition2))
    print(_condition_line("condition1", report.condition1))
    if report.lmi.margin is not None:
        print(
            f"lmi: min_eig={report.lmi.min_eigenvalue:.3e} "
            f"margin={report.lmi.margin:.3e}"
        )
    for message in report.messages:
        print(message)


def _decide(doc, unknown_a3: bool):
    """Decide on doc's problem and verify an informative result over its family.

    Prints the report, then any gains with their verification; returns
    the result and that verification (None when not informative).
    """
    run = synthesize_unknown_a3 if unknown_a3 else synthesize
    with naming(doc.origin):
        result = run(doc.problem)
        _print_report(doc, result)
        regulator = result.regulator
        if regulator is None:
            return result, None
        verification = verify_regulator(regulator, result.family, doc.problem.known)
    print(f"K1 = {_fmt(regulator.K1)}")
    print(f"K2 = {_fmt(regulator.K2)}")
    print(f"closed-loop spectral radius: {verification.rho_bound:.6f}")
    _print_verification(result.family, verification)
    return result, verification


def _save_verified(path, doc, result, verification) -> bool:
    """Write the regulator to path when it passed verification; say which happened."""
    if verification is None:
        return False
    if not verification.passed:
        print(f"not writing {path}: the regulator fails verification")
        return False
    save_regulator(path, result.regulator, problem_sha256=doc.sha256)
    print(f"wrote {path}")
    return True


def cmd_check(args) -> int:
    _, verification = _decide(load_problem(args.problem), args.unknown_a3)
    return 0 if verification is not None and verification.passed else 2


def cmd_synth(args) -> int:
    doc = load_problem(args.problem)
    result, verification = _decide(doc, args.unknown_a3)
    return 0 if _save_verified(args.output, doc, result, verification) else 2


def _simulate_members(members, known, regulator, rho_bound, x1_0, x2_0, horizon, out) -> None:
    """Simulate the sampled members in closed loop, one line each, and write their CSV."""
    if horizon is None:
        horizon = horizon_for_radius(rho_bound)

    def blocks():
        # Simulated one member at a time, as the CSV writer asks for it.
        for index, (A2, B2, A3) in enumerate(members):
            system = _made(TrueSystem, A1=known.A1, A2=A2, B2=B2, A3=A3)
            trajectory = closed_loop_sim(system, known, regulator, x1_0, x2_0, horizon)
            result = decay_check(trajectory, rho_bound)
            radius = _spectrum(A2 + B2 @ regulator.K2).spectral_radius
            verdict = "PASS" if result.passes else "FAIL"
            print(
                f"member {index}: radius={radius:.6f} decay={verdict} "
                f"rate={result.fitted_rate:.4f} terminal={result.terminal_norm:.3e}"
            )
            yield index, trajectory

    write_trajectories_csv(out, blocks())
    print(f"wrote {out} ({len(members)} member blocks, horizon {horizon})")


def cmd_simulate(args) -> int:
    doc = load_problem(args.problem)
    reg_doc = load_regulator(args.regulator)
    regulator = reg_doc.regulator
    problem = doc.problem
    with naming(args.regulator):
        require_gain_shapes(regulator, problem.known)
    x1_0 = _initial_state("--x1-0", args.x1_0, problem.n1)
    x2_0 = _initial_state("--x2-0", args.x2_0, problem.n2)
    if reg_doc.problem_sha256 and reg_doc.problem_sha256 != doc.sha256:
        print(
            "warning: regulator was synthesized from a different problem file "
            "(content hash mismatch)",
            file=sys.stderr,
        )
    known = problem.known
    print(f"seed: {args.seed}")
    with naming(doc.origin):
        if regulator.provenance.endswith("_unknown_a3"):
            problem = problem.without_a3()
        family = compatible_set(problem)
        verification = verify_regulator(regulator, family, known)
    _print_verification(family, verification)
    _simulate_members(
        sample_members(family, args.members, args.radius, args.seed),
        known, regulator, verification.rho_bound, x1_0, x2_0, args.horizon, args.out,
    )
    return 0 if verification.passed else 2


def cmd_example(args) -> int:
    name = args.name
    outdir = Path(args.outdir)
    with naming(args.outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    problem_path = outdir / f"{name}_problem.json"
    _atomic_write_text(problem_path, fixture_text(name))
    print(f"wrote {problem_path}")

    doc = load_problem(problem_path)
    result, verification = _decide(doc, unknown_a3=False)
    if not _save_verified(outdir / f"{name}_regulator.json", doc, result, verification):
        return 2
    regulator, family, reference = result.regulator, result.family, REFERENCE[name]
    computed = {
        "K1": regulator.K1,
        "K2": regulator.K2,
        "X_dagger": regulator.X2_dagger,
        "W": regulator.W,
        "closed_loop": family.A2_part + family.B2_part @ regulator.K2,
    }
    for key, value in computed.items():
        if value is not None:
            if key in reference:
                print(f"reference {key}: {_fmt(reference[key])}")
            print(f"computed  {key}: {_fmt(value)}")

    print(f"seed: {args.seed}")
    _simulate_members(
        sample_members(family, 4, 5.0, args.seed),
        doc.problem.known, regulator, verification.rho_bound,
        reference["x1_0"], reference["x2_0"], None, outdir / f"{name}_trajectories.csv",
    )
    return 0


def cmd_gen_data(args) -> int:
    system, known = load_system(args.system)
    x1_0 = _initial_state("--x1-0", args.x1_0, system.n1)
    x2_0 = _initial_state("--x2-0", args.x2_0, system.n2)
    inputs = args.inputs
    if inputs is None:
        if args.tau is None:
            raise ProblemFileError("either --inputs or --tau is required")
        rng = np.random.default_rng(args.seed)
        inputs = rng.uniform(-1.0, 1.0, size=(system.m, args.tau))
    if args.tau is not None and inputs.shape[1] != args.tau:
        raise ProblemFileError(
            f"--tau {args.tau} does not match --inputs with {inputs.shape[1]} columns"
        )
    with naming(args.system):
        require_shape("--inputs", inputs, ("m", system.m, "B2"), ("tau", None))
        data = generate_data(system, x1_0, x2_0, inputs)
    print(f"seed: {args.seed}")
    problem = build_problem(data, known)
    # Read the text back before writing it, so no unreadable file is left.
    text = problem_to_text(problem)
    parse_problem(text, origin=args.output)
    _atomic_write_text(args.output, text)
    print(
        f"wrote {args.output} "
        f"(n1={problem.n1}, n2={problem.n2}, m={problem.m}, tau={problem.tau})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ddreg",
        description=(
            "Decide informativity of input/state data for regulator design "
            "and synthesize gains that work for every compatible system."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ddreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_synthesis_flags(p):
        p.add_argument("problem", help="problem file (JSON)")
        p.add_argument("--unknown-a3", action="store_true", help="treat the coupling matrix as unknown")

    p_check = sub.add_parser("check", help="decide informativity and print diagnostics")
    add_synthesis_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synth", help="synthesize gains and write a regulator file")
    add_synthesis_flags(p_synth)
    p_synth.add_argument("-o", "--output", required=True, help="regulator file to write")
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser(
        "simulate", help="verify a regulator file, then simulate sampled members"
    )
    p_sim.add_argument("problem", help="problem file (JSON)")
    p_sim.add_argument("regulator", help="regulator file (JSON)")
    p_sim.add_argument("--out", default="trajectories.csv", help="CSV output path")
    p_sim.add_argument("--members", type=_int_in(1, 100), default=4, help="number of members to sample (1 to 100)")
    p_sim.add_argument("--horizon", type=_int_in(19, 10_000), default=None, help="steps to simulate (19 to 10000)")
    p_sim.add_argument("--x1-0", dest="x1_0", type=_vector, default=None, help="initial exosystem state, comma-separated")
    p_sim.add_argument("--x2-0", dest="x2_0", type=_vector, default=None, help="initial endosystem state, comma-separated")
    p_sim.add_argument("--radius", type=_radius, default=5.0, help="kernel coordinate range for sampling")
    p_sim.add_argument("--seed", type=_int_in(0), default=0, help="sampling seed (default 0)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ex = sub.add_parser("example", help="run a bundled example end to end")
    p_ex.add_argument("name", choices=EXAMPLE_NAMES)
    p_ex.add_argument("--outdir", default=".", help="directory for the emitted files")
    p_ex.add_argument("--seed", type=_int_in(0), default=0, help="sampling seed (default 0)")
    p_ex.set_defaults(func=cmd_example)

    p_gen = sub.add_parser("gen-data", help="simulate a true system and emit a problem file")
    p_gen.add_argument("system", help="system file (JSON with A1, A2, B2, A3, D1, D2, E)")
    p_gen.add_argument("-o", "--output", required=True, help="problem file to write")
    p_gen.add_argument("--tau", type=_int_in(1), default=None, help="number of samples")
    p_gen.add_argument("--inputs", type=_matrix, default=None, help="input matrix, rows joined by ';'")
    p_gen.add_argument("--x1-0", dest="x1_0", type=_vector, default=None, help="initial exosystem state")
    p_gen.add_argument("--x2-0", dest="x2_0", type=_vector, default=None, help="initial endosystem state")
    p_gen.add_argument("--seed", type=_int_in(0), default=0, help="seed for random inputs (default 0)")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

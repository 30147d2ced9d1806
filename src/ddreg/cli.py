"""Command-line interface.

Subcommands: check (informativity verdict), synth (write a regulator
file), simulate (verify a regulator file against the whole compatible
family, then write a closed-loop CSV over sampled members), example (run
a bundled worked example end to end) and gen-data (collect a problem
file from a true system).  Exit codes: 0 success or informative, 2 not
informative or a failed verification, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import spectral_info
from .examples import EXAMPLE_NAMES, REFERENCE, fixture_text
from .fileio import (
    ProblemFileError,
    load_problem,
    load_regulator,
    load_system,
    merge_config,
    save_problem,
    save_regulator,
    write_trajectories_csv,
    _atomic_write_text,
)
from .model import build_problem, compatible_set
from .simulation import (
    TrueSystem,
    closed_loop_sim,
    decay_check,
    generate_data,
    horizon_for_radius,
    sample_members,
)
from .synthesis import synthesize, synthesize_unknown_a3, verify_regulator

_ORDER_CHOICES = ("condition2-first", "condition1-first")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _finite_nonnegative(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("DDREG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ProblemFileError(f"DDREG_SEED must be an integer, got {env!r}")
    return 0


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise ProblemFileError(f"{name} must be comma-separated numbers, got {text!r}")


def _parse_matrix(text: str, name: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        return np.array(rows, dtype=float)
    except ValueError:
        raise ProblemFileError(
            f"{name} must be rows of comma-separated numbers joined by ';', got {text!r}"
        )


@contextmanager
def _naming(origin: str):
    """Prefix a data error raised in the block with its problem file."""
    try:
        yield
    except ValueError as exc:
        raise ProblemFileError(f"{origin}: {exc}") from None


def _fmt(matrix) -> str:
    return str(np.asarray(matrix).tolist())


def _residual_text(residuals) -> str:
    return "".join(f"; {k}={v:.3e}" for k, v in sorted(residuals.items()))


def _condition_line(name, slot) -> str:
    if not slot.attempted:
        return f"{name}: not attempted"
    verdict = "holds" if slot.holds else "fails"
    return f"{name}: {verdict}" + _residual_text(slot.residuals)


def _print_report(doc, result, seed: int) -> None:
    problem = doc.problem
    print(
        f"problem: {doc.origin} "
        f"(n1={problem.n1}, n2={problem.n2}, m={problem.m}, "
        f"p={problem.p}, tau={problem.tau})"
    )
    print(f"seed: {seed}")
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


def _run_synthesis(doc, args):
    config = merge_config(
        doc.config_overrides,
        try_order=args.order.replace("-", "_") if args.order else None,
    )
    run = synthesize_unknown_a3 if args.unknown_a3 else synthesize
    with _naming(doc.origin):
        return run(doc.problem, config)


def cmd_check(args) -> int:
    doc = load_problem(args.problem)
    seed = _resolve_seed(args.seed)
    result = _run_synthesis(doc, args)
    _print_report(doc, result, seed)
    return 0 if result.regulator is not None else 2


def cmd_synth(args) -> int:
    doc = load_problem(args.problem)
    seed = _resolve_seed(args.seed)
    result = _run_synthesis(doc, args)
    _print_report(doc, result, seed)
    if result.regulator is None:
        return 2
    regulator = result.regulator
    family = result.family
    radius = spectral_info(family.A2_part + family.B2_part @ regulator.K2).spectral_radius
    print(f"K1 = {_fmt(regulator.K1)}")
    print(f"K2 = {_fmt(regulator.K2)}")
    print(f"closed-loop spectral radius: {radius:.6f}")
    save_regulator(args.output, regulator, problem_sha256=doc.sha256)
    print(f"wrote {args.output}")
    return 0


def cmd_simulate(args, family=None) -> int:
    doc = load_problem(args.problem)
    reg_doc = load_regulator(args.regulator)
    regulator = reg_doc.regulator
    if reg_doc.problem_sha256 and reg_doc.problem_sha256 != doc.sha256:
        print(
            "warning: regulator was synthesized from a different problem file "
            "(content hash mismatch)",
            file=sys.stderr,
        )
    problem = doc.problem
    known = problem.known
    seed = _resolve_seed(args.seed)
    with _naming(doc.origin):
        # cmd_example passes the family of its synthesis, whose report
        # has already echoed the seed.
        if family is None:
            print(f"seed: {seed}")
            if regulator.provenance.endswith("_unknown_a3"):
                problem = problem.without_a3()
            family = compatible_set(problem)
        verification = verify_regulator(regulator, family, known)
    print(
        f"verification over the whole family (r={family.r}): "
        f"{'PASS' if verification.passed else 'FAIL'}"
        + _residual_text(verification.residuals)
    )
    members = sample_members(family, args.members, args.radius, seed)
    rho_bound = verification.rho_bound
    horizon = args.horizon if args.horizon is not None else horizon_for_radius(rho_bound)
    x1_0 = (
        _parse_vector(args.x1_0, "--x1-0") if args.x1_0 else np.ones(problem.n1)
    )
    x2_0 = (
        _parse_vector(args.x2_0, "--x2-0") if args.x2_0 else np.ones(problem.n2)
    )
    blocks = []
    for index, (A2, B2, A3) in enumerate(members):
        system = TrueSystem(A1=known.A1, A2=A2, B2=B2, A3=A3)
        trajectory = closed_loop_sim(system, known, regulator, x1_0, x2_0, horizon)
        result = decay_check(trajectory, rho_bound)
        radius = spectral_info(A2 + B2 @ regulator.K2).spectral_radius
        verdict = "PASS" if result.passes else "FAIL"
        print(
            f"member {index}: radius={radius:.6f} decay={verdict} "
            f"rate={result.fitted_rate:.4f} terminal={result.terminal_norm:.3e}"
        )
        blocks.append((index, trajectory))
    write_trajectories_csv(args.out, blocks)
    print(f"wrote {args.out} ({len(blocks)} member blocks, horizon {horizon})")
    return 0 if verification.passed else 2


def _print_reference_comparison(name: str, computed: dict) -> None:
    reference = REFERENCE[name]
    for key, value in computed.items():
        if key in reference:
            print(f"reference {key}: {_fmt(np.asarray(reference[key]))}")
        print(f"computed  {key}: {_fmt(np.asarray(value))}")


def cmd_example(args) -> int:
    name = args.name
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = _resolve_seed(args.seed)
    text = fixture_text(name)
    problem_path = outdir / f"{name}_problem.json"
    _atomic_write_text(problem_path, text)
    print(f"wrote {problem_path}")

    check_args = argparse.Namespace(
        problem=str(problem_path), order=None, unknown_a3=False
    )
    doc = load_problem(problem_path)
    result = _run_synthesis(doc, check_args)
    _print_report(doc, result, seed)
    if result.regulator is None:
        return 2
    regulator = result.regulator
    regulator_path = outdir / f"{name}_regulator.json"
    save_regulator(regulator_path, regulator, problem_sha256=doc.sha256)
    print(f"wrote {regulator_path}")

    computed = {"K1": regulator.K1, "K2": regulator.K2}
    if regulator.X2_dagger is not None:
        computed["X_dagger"] = regulator.X2_dagger
    if regulator.W is not None:
        computed["W"] = regulator.W
    family = result.family
    computed["closed_loop"] = family.A2_part + family.B2_part @ regulator.K2
    _print_reference_comparison(name, computed)

    simulate_args = argparse.Namespace(
        problem=str(problem_path),
        regulator=str(regulator_path),
        out=str(outdir / f"{name}_trajectories.csv"),
        members=4,
        horizon=None,
        x1_0=",".join(repr(float(v)) for v in REFERENCE[name]["x1_0"]),
        x2_0=",".join(repr(float(v)) for v in REFERENCE[name]["x2_0"]),
        seed=seed,
        radius=5.0,
    )
    return cmd_simulate(simulate_args, family)


def cmd_gen_data(args) -> int:
    system, known = load_system(args.system)
    seed = _resolve_seed(args.seed)
    print(f"seed: {seed}")
    if args.inputs is not None:
        inputs = _parse_matrix(args.inputs, "--inputs")
    else:
        if args.tau is None:
            raise ProblemFileError("either --inputs or --tau is required")
        rng = np.random.default_rng(seed)
        inputs = rng.uniform(-1.0, 1.0, size=(system.m, args.tau))
    if args.tau is not None and inputs.shape[1] != args.tau:
        raise ProblemFileError(
            f"--tau {args.tau} does not match --inputs with {inputs.shape[1]} columns"
        )
    x1_0 = (
        _parse_vector(args.x1_0, "--x1-0") if args.x1_0 else np.ones(system.n1)
    )
    x2_0 = (
        _parse_vector(args.x2_0, "--x2-0") if args.x2_0 else np.ones(system.n2)
    )
    data = generate_data(system, x1_0, x2_0, inputs)
    problem = build_problem(data, known)
    save_problem(args.output, problem)
    load_problem(args.output)
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
        p.add_argument("--seed", type=int, default=None, help="seed echoed in the report; the decision draws no random numbers (fallback: DDREG_SEED, then 0)")
        p.add_argument("--order", choices=_ORDER_CHOICES, default=None, help="condition try order")
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
    p_sim.add_argument("--members", type=_int_at_least(1), default=4, help="number of members to sample")
    p_sim.add_argument("--horizon", type=_int_at_least(19), default=None, help="steps to simulate (min 19)")
    p_sim.add_argument("--x1-0", dest="x1_0", default=None, help="initial exosystem state, comma-separated")
    p_sim.add_argument("--x2-0", dest="x2_0", default=None, help="initial endosystem state, comma-separated")
    p_sim.add_argument("--radius", type=_finite_nonnegative, default=5.0, help="kernel coordinate range for sampling")
    p_sim.add_argument("--seed", type=int, default=None, help="sampling seed (fallback: DDREG_SEED, then 0)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ex = sub.add_parser("example", help="run a bundled example end to end")
    p_ex.add_argument("name", choices=EXAMPLE_NAMES)
    p_ex.add_argument("--outdir", default=".", help="directory for the emitted files")
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.set_defaults(func=cmd_example)

    p_gen = sub.add_parser("gen-data", help="simulate a true system and emit a problem file")
    p_gen.add_argument("system", help="system file (JSON with A1, A2, B2, A3, D1, D2, E)")
    p_gen.add_argument("-o", "--output", required=True, help="problem file to write")
    p_gen.add_argument("--tau", type=int, default=None, help="number of samples")
    p_gen.add_argument("--inputs", default=None, help="input matrix, rows joined by ';'")
    p_gen.add_argument("--x1-0", dest="x1_0", default=None, help="initial exosystem state")
    p_gen.add_argument("--x2-0", dest="x2_0", default=None, help="initial endosystem state")
    p_gen.add_argument("--seed", type=int, default=None, help="seed for random inputs")
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
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

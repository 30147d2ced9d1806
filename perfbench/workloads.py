"""The workloads, how each operation runs, and how it is scored.

Every workload has two parts:

* problems decided and verified in this process, one at a time
  (``Op``): synthesize, then verify the returned regulator against
  sampled members of the compatible family;
* ``ddreg`` command lines run as child processes on problem files
  written during set-up (``CliCall``).

Workloads (closed loop, one client, one problem at a time):

``corpus``
    The 100 known-coupling regulable instances, and ``ddreg check`` /
    ``ddreg synth`` on both bundled fixtures and four corpus files.  The
    right-inverse search dominates at small n, so a change to ``lmi`` or
    ``synthesis`` shows here first; start-up, import, file parsing and
    printing show in the command-line times.
``ladder``
    Three instances at each endosystem size n2 in {4, 8, 16} with n1=3,
    m=2, p=2, tau=n2+4.  Cost per search iteration grows with n, so a
    flop saving shows here and a Python-overhead saving shows on corpus.
    It is also where the search misses or returns regulators that
    fail verification (n2=16).
``unknown-a3``
    The 20 coupling-free instances plus 30 regulable instances with A3
    withheld: the unknown-coupling twin path, where most searches run
    out their budget instead of finding a point.

Command-line costs ride along in every workload rather than in a
workload of their own: a run has to be long enough to hold two ladder
passes, and three workloads of that length are what the measuring time
allows.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import instances as gen
from .reference import reference

VERIFY_SAMPLES = 10
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True, eq=False)
class Op:
    """One problem decided and verified in-process."""

    name: str
    problem: object
    unknown_a3: bool
    expected: bool | None  # reference verdict; None when there is none


@dataclass(frozen=True)
class CliCall:
    """One child process; ``ddreg`` is False for the interpreter baselines."""

    name: str
    argv: tuple[str, ...]
    ddreg: bool
    expect_codes: tuple[int, ...] = (0,)
    expect_text: str | None = None


@dataclass(eq=False)
class Workload:
    ops: list[Op]
    cli: list[CliCall]
    unconfirmed: list[str] = field(default_factory=list)

    @property
    def body(self) -> list:
        """One pass: the operations with the child processes spread evenly among them.

        Spreading the child processes over the pass keeps a burst of
        load on the machine from landing on all of them at once.
        """
        out: list = list(self.ops)
        step = len(self.ops) / (len(self.cli) + 1)
        for j, call in reversed(list(enumerate(self.cli))):
            out.insert(round((j + 1) * step), call)
        return out


# Interpreter start-up and import, measured in traced runs.
BASELINES = [
    CliCall("python -c pass", ("-c", "pass"), False),
    CliCall("python -c 'import ddreg'", ("-c", "import ddreg"), False),
]


# ---------------------------------------------------------------- scoring


def score_op(expected, informative, verified, error) -> str | None:
    """Failure kind for one in-process operation, or None when it passed."""
    if error is not None:
        return "exception"
    if expected is not None and informative != expected:
        return "verdict"
    if informative and not verified:
        return "verification"
    return None


def score_cli(call: CliCall, code: int, stdout: str) -> str | None:
    """Failure kind for one child process, or None when it passed."""
    if code not in call.expect_codes:
        return "exit-code"
    if code == 0 and call.expect_text is not None and call.expect_text not in stdout:
        return "missing-line"
    return None


@dataclass
class Tally:
    """Attempted and failed operations, failure kinds and verdict counts."""

    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    verdicts: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)

    def add(self, name: str, kind: str | None) -> None:
        self.attempted += 1
        if kind is not None:
            self.failed += 1
            self.kinds[kind] += 1
            if len(self.failures) < 50:
                self.failures.append(f"{name}: {kind}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------- set-up


def _ops(instances, solve_classical_regulator, unconfirmed) -> list[Op]:
    ops = []
    for inst in instances:
        ref = reference(inst, solve_classical_regulator)
        if not ref.confirmed:
            unconfirmed.append(f"{inst.name}: {ref.detail}")
        ops.append(
            Op(inst.name, gen.to_problem(inst), not inst.a3_known, ref.informative)
        )
    return ops


def _write(ddreg, workdir: Path, inst) -> str:
    path = workdir / f"{inst.name}.json"
    ddreg.fileio.save_problem(path, gen.to_problem(inst))
    return str(path)


def _synth_call(workdir: Path, inst, path: str, expected) -> CliCall:
    argv = ["synth", path, "-o", str(workdir / f"{inst.name}.regulator.json")]
    if not inst.a3_known:
        argv.append("--unknown-a3")
    if expected:
        return CliCall(f"synth {inst.name}", tuple(argv), True, (0,), "via condition")
    return CliCall(f"synth {inst.name}", tuple(argv), True, (0, 2))


def _fixture_calls(ddreg, workdir: Path) -> list[CliCall]:
    """``check`` and ``synth`` on both bundled fixtures, which name their condition."""
    calls = []
    for fixture in ddreg.examples.EXAMPLE_NAMES:
        path = workdir / f"{fixture}.json"
        path.write_text(ddreg.examples.fixture_text(fixture))
        line = f"via {ddreg.examples.REFERENCE[fixture]['condition']}"
        out = str(workdir / f"{fixture}.regulator.json")
        calls.append(CliCall(f"check {fixture}", ("check", str(path)), True, (0,), line))
        calls.append(CliCall(f"synth {fixture}", ("synth", str(path), "-o", out), True, (0,), line))
    return calls


def build(name: str, seed: int, ddreg, workdir: Path) -> Workload:
    """Generate a workload's problems, references and problem files."""
    workdir.mkdir(parents=True, exist_ok=True)
    classical = ddreg.analysis.solve_classical_regulator
    unconfirmed: list[str] = []
    if name == "corpus":
        insts = gen.corpus_set(seed)
        cli_insts = insts[:4]
    elif name == "ladder":
        insts = gen.ladder_set()
        cli_insts = insts[:: gen.LADDER_PER_SIZE]
    elif name == "unknown-a3":
        withheld = [
            replace(i, name=f"{i.name}-a3-unknown", a3_known=False, informative=None)
            for i in gen.corpus_set(seed)[:30]
        ]
        insts = gen.coupling_free_set(seed) + withheld
        cli_insts = insts[:2] + withheld[:1]
    else:
        raise ValueError(f"unknown workload {name!r}")
    ops = _ops(insts, classical, unconfirmed)
    expected = {op.name: op.expected for op in ops}
    cli = [
        _synth_call(workdir, i, _write(ddreg, workdir, i), expected[i.name])
        for i in cli_insts
    ]
    if name == "corpus":
        cli = _fixture_calls(ddreg, workdir) + cli
    return Workload(ops, cli, unconfirmed=unconfirmed)


# ---------------------------------------------------------------- running


def solve(ddreg, op: Op):
    """Decide one problem and verify the regulator; returns (informative, verified).

    Program functions are looked up on their modules at call time so
    that span wrappers, when installed, see these calls.
    """
    synthesis, model = ddreg.synthesis, ddreg.model
    if op.unknown_a3:
        result = synthesis.synthesize_unknown_a3(op.problem)
    else:
        result = synthesis.synthesize(op.problem)
    regulator = result.regulator
    if regulator is None:
        return False, None
    known = op.problem.known
    if op.unknown_a3:
        cset = model.compatible_set_unknown_a3(op.problem)
        report = synthesis.verify_regulator_unknown_a3(
            regulator, cset, known, samples=VERIFY_SAMPLES
        )
    else:
        cset = model.compatible_set(op.problem)
        report = synthesis.verify_regulator(regulator, cset, known, samples=VERIFY_SAMPLES)
    return True, report.passed


def run_op(ddreg, op: Op, tally: Tally) -> float:
    """Time and score one operation; returns its wall time in seconds."""
    informative = verified = error = None
    start = time.perf_counter()
    try:
        informative, verified = solve(ddreg, op)
    except Exception as exc:  # scored as a failed operation; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        tally.verdicts["informative" if informative else "not_informative"] += 1
        if op.expected is None:
            tally.verdicts[
                "unreferenced_informative" if informative else "unreferenced_not_informative"
            ] += 1
    kind = score_op(op.expected, informative, verified, error)
    tally.add(op.name if error is None else f"{op.name} ({error})", kind)
    return elapsed


def child_env(src: Path) -> dict[str, str]:
    """This environment with the checkout's source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(call: CliCall, root: Path, env) -> tuple[int, str, float]:
    """Run one child process; returns (exit code, stdout, wall seconds).

    A child that outlives CLI_TIMEOUT_S is killed and reported with exit
    code -1, which no call expects.
    """
    argv = [sys.executable] + (["-m", "ddreg.cli"] if call.ddreg else []) + list(call.argv)
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, capture_output=True, text=True, cwd=root, env=env, timeout=CLI_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, "", time.perf_counter() - start
    return done.returncode, done.stdout, time.perf_counter() - start


def run_main_inprocess(ddreg, call: CliCall) -> tuple[int, str, float]:
    """``ddreg.cli.main`` in this process, output captured.

    An exception that escapes ``main`` is reported as exit code -1, as a
    crashed child process would be.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ddreg.cli.main(list(call.argv))
        except Exception:  # scored as a failed operation; the run goes on
            code = -1
    return code, out.getvalue(), time.perf_counter() - start

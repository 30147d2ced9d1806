"""Benchmark of ddreg: time to a verified regulator, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 35 --trace 0

Workloads are ``corpus``, ``ladder`` and ``unknown-a3`` (see
``perfbench/workloads.py``); seed 0 reproduces the test corpora.
``--trace 0`` measures the end-to-end metrics with no instrumentation,
in whole passes over the workload for at most ``--seconds``.
``--trace 1`` runs every problem once untraced and once traced, with the
program's public functions wrapped in spans, and reports the per-layer
metrics, the exact counts of one pass and the tracing overhead; spans go
to ``perfbench/out/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report, also saved with the environment
stamp under ``perfbench/out/``.

``correct`` is false when the benchmark cannot trust its own scoring: a
reference verdict the true system does not confirm, or span wrappers
present in an untraced pass.  Operations the program gets wrong (an
exception, a verdict that differs from the reference, a regulator that
fails verification, an unexpected exit code or a missing ``via
conditionN`` line) are counted in ``failed``.

BLAS runs single-threaded in this process and in every child, so one
problem uses one core and runs do not compete for the second one.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3
BASELINE_REPEATS = 3
sys.path.insert(0, str(ROOT))

from perfbench.spans import Tracer, installed_wrappers, layer_metrics, total, totals  # noqa: E402

# Workload and metric names with their units, as the benchmark declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_program():
    """Import ddreg from this checkout's source tree, never from elsewhere."""
    if not (SRC / "ddreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ddreg source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import ddreg
    import ddreg.cli  # noqa: F401  (loads every module the spans wrap)

    if Path(ddreg.__file__).resolve().parent != (SRC / "ddreg").resolve():
        raise SystemExit(f"perfbench: ddreg imported from {ddreg.__file__}, not {SRC}")
    return ddreg


def set_up(workload: str, seed: int):
    """Import the program and build the workload; returns (ddreg, workload, seconds)."""
    start = time.perf_counter()
    ddreg = import_program()
    from perfbench import workloads  # imports numpy and scipy, so timed here

    built = workloads.build(workload, seed, ddreg, OUT / workload)
    return ddreg, built, time.perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    run = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if run.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{run.stderr}")
    return float(run.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    It weighs every order statistic by a beta density centred on rank
    q(n+1), so it moves smoothly when two problems of similar cost swap
    ranks, where the plain sample median jumps across the gap between
    them; the workloads mix problems whose costs differ by 100x.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc: report nothing rather than guess
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                found[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Run:
    """State of one measured run."""

    def __init__(self, ddreg, workload, seconds: float):
        from perfbench import workloads  # after set-up, which times its numpy import

        self.w = workloads
        self.ddreg = ddreg
        self.workload = workload
        self.seconds = seconds
        self.tally = workloads.Tally()
        self.env = workloads.child_env(SRC)
        self.integrity: list[str] = [f"unconfirmed reference {u}" for u in workload.unconfirmed]
        self.op_s: list[float] = []
        self.cli_s: list[float] = []
        self.baseline_s: dict[str, list[float]] = {}
        self.passes = 0

    def child(self, call) -> None:
        code, out, wall = self.w.run_child(call, ROOT, self.env)
        self.tally.add(call.name, self.w.score_cli(call, code, out))
        if call.ddreg:
            self.cli_s.append(wall)
        else:
            self.baseline_s.setdefault(call.name, []).append(wall)

    def op(self, op) -> float:
        elapsed = self.w.run_op(self.ddreg, op, self.tally)
        self.op_s.append(elapsed)
        return elapsed

    def expect_untraced(self, where: str) -> None:
        wrapped = installed_wrappers()
        if wrapped:
            self.integrity.append(f"span wrappers present {where}: {wrapped[:3]}")

    def untraced(self) -> dict:
        """Closed loop of whole passes over the workload for at most --seconds.

        Another pass starts only if one more pass as long as the last
        still ends within --seconds; the first always runs.  Counting
        whole passes keeps every problem equally represented in the
        percentiles, whatever the speed of the program.
        """
        w = self.workload
        self.expect_untraced("before the untraced run")
        body = w.body
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for item in body:
                self.op(item) if isinstance(item, self.w.Op) else self.child(item)
            self.passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > self.seconds:
                break
        self.expect_untraced("after the untraced run")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "solve_p50_ms": 1e3 * quantile(self.op_s, 0.5),
            "solve_p90_ms": 1e3 * quantile(self.op_s, 0.9),
            "problems_per_s": len(self.op_s) / sum(self.op_s),
            "cli_p50_ms": 1e3 * quantile(self.cli_s, 0.5),
            "cli_p90_ms": 1e3 * quantile(self.cli_s, 0.9),
            "peak_rss_mb": rss_mb,
        }

    def traced(self, spans_path: Path) -> dict:
        """Each problem and command once untraced and once traced.

        The two runs of a problem are back to back, in alternating
        order, so that drift in the machine's speed cancels out of the
        tracing overhead.  Per-layer metrics come from the traced runs.
        """
        w = self.workload
        for call in self.w.BASELINES:
            for _ in range(BASELINE_REPEATS):
                self.child(call)
        self.expect_untraced("before the traced run")
        cli_tracer, ops_tracer = Tracer(), Tracer()

        def paired(k, name, tracer, run):
            """(untraced, traced) wall seconds of one item."""
            walls = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.problem = name
                    tracer.install()
                try:
                    walls[traced] = run(traced)
                finally:
                    tracer.uninstall()
            return walls[False], walls[True]

        def main_call(call):
            def run(traced):
                code, out, wall = self.w.run_main_inprocess(self.ddreg, call)
                label = " (in-process, traced)" if traced else " (in-process)"
                self.tally.add(call.name + label, self.w.score_cli(call, code, out))
                return wall
            return run

        work_s = [
            paired(k, call.name, cli_tracer, main_call(call))[0]
            for k, call in enumerate(c for c in w.cli if c.ddreg)
        ]
        pairs = [
            paired(k, op.name, ops_tracer, lambda traced, op=op: self.op(op))
            for k, op in enumerate(w.ops)
        ]
        self.passes = 2  # one untraced, one traced
        untraced_s = sum(u for u, _ in pairs)
        traced_s = sum(t for _, t in pairs)
        self.expect_untraced("after the traced run")

        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as out:
            for phase, tracer in (("cli", cli_tracer), ("ops", ops_tracer)):
                tracer.write(out, phase)
        metrics = layer_metrics(totals(ops_tracer.spans), ops_tracer.counters)
        cli_totals = totals(cli_tracer.spans)
        startup = statistics.median(self.baseline_s["python -c pass"])
        imported = statistics.median(self.baseline_s["python -c 'import ddreg'"])
        metrics.update({
            "fileio.parse_ms": total(cli_totals, "fileio.parse_problem"),
            "fileio.save_ms": total(cli_totals, "fileio.save_problem", "fileio.save_regulator"),
            "fileio.bytes": cli_tracer.counters["fileio.bytes"],
            "cli.startup_ms": 1e3 * startup,
            "cli.import_ms": 1e3 * (imported - startup),
            "cli.work_ms": 1e3 * statistics.median(work_s) if work_s else 0.0,
            "fail_ratio": self.tally.fail_ratio,
            "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        })
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    ddreg, workload, own_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(own_setup)
        return 0

    run = Run(ddreg, workload, args.seconds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = run.traced(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = PER_LAYER
    else:
        metrics = run.untraced()
        units = END_TO_END
        samples = [own_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(samples)

    tally = run.tally
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": {"passes": run.passes, "problems": len(run.op_s), "cli_calls": len(run.cli_s)},
        "problem_ms": [round(1e3 * t, 3) for t in run.op_s],
        "cli_ms": [round(1e3 * t, 3) for t in run.cli_s],
        "verdicts": dict(tally.verdicts),
        "failure_kinds": dict(tally.kinds),
        "failures": tally.failures,
        "integrity": run.integrity,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    for key in ("environment", "samples", "verdicts", "failure_kinds", "failures", "integrity"):
        print(f"{key}: {json.dumps(report[key])}")
    counts = {"solve": len(run.op_s), "problems": len(run.op_s), "cli": len(run.cli_s),
              "setup": SETUP_SAMPLES}
    for name, entry in report["metrics"].items():
        n = counts.get(name.split("_")[0])
        print(f"{name}: {entry['value']:.6g} {entry['unit']}" + (f" (n={n})" if n else ""))
    print(json.dumps({
        "correct": not run.integrity,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

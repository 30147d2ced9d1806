"""In-memory spans around the program's public functions.

``Tracer.install`` wraps each function in ``TARGETS`` wherever a ddreg
module binds it (the defining module and every module that imported it
by name), so calls made inside the program are caught as well as the
benchmark's own calls.  Nothing in the program changes; ``uninstall``
restores every binding.  A span is (id, name, start, end, parent,
problem); self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function) pairs; the span name is "<module>.<function>".
TARGETS = (
    ("lmi", "solve_lmi"),
    ("synthesis", "synthesize"),
    ("synthesis", "synthesize_unknown_a3"),
    ("synthesis", "check_condition1"),
    ("synthesis", "check_condition2"),
    ("synthesis", "check_endo_stabilization"),
    ("synthesis", "w_system"),
    ("synthesis", "w_system_unknown_a3"),
    ("synthesis", "verify_regulator"),
    ("synthesis", "verify_regulator_unknown_a3"),
    ("model", "compatible_set"),
    ("model", "compatible_set_unknown_a3"),
    ("analysis", "spectral_info"),
    ("analysis", "check_output_regulated"),
    ("simulation", "closed_loop_sim"),
    ("simulation", "decay_check"),
    ("simulation", "sample_members"),
    ("simulation", "sample_members_unknown_a3"),
    ("fileio", "parse_problem"),
    ("fileio", "save_problem"),
    ("fileio", "save_regulator"),
    ("cli", "main"),
)

_MARK = "__perfbench_span__"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    problem: str | None


def _observe(counters, name, args, result) -> None:
    """Exact counts read from arguments and results at the boundary."""
    if name == "lmi.solve_lmi":
        counters["lmi.iterations"] += result.iterations
        if result.found:
            counters["lmi.found"] += 1
            headroom = result.min_eig / args[0].margin
            counters["lmi.margin_headroom_min"] = min(
                counters.get("lmi.margin_headroom_min", float("inf")), headroom
            )
    elif name.startswith("synthesis.synthesize"):
        counters["synthesis.informative" if result.regulator is not None
                 else "synthesis.not_informative"] += 1
    elif name == "simulation.closed_loop_sim":
        counters["simulation.sim_steps"] += result.x1.shape[1]
    elif name == "fileio.parse_problem":
        counters["fileio.bytes"] += len(args[0].encode())
    elif name in ("fileio.save_problem", "fileio.save_regulator"):
        counters["fileio.bytes"] += os.path.getsize(args[0])


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.problem: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, self.problem))
            counters[name + ".calls"] += 1
            _observe(counters, name, args, result)
            return result

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = ddreg_modules()
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"ddreg.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, out, phase: str) -> None:
        """Append the spans as JSON lines to an open text file."""
        for s in self.spans:
            out.write(json.dumps({"phase": phase, **s.__dict__}) + "\n")


def ddreg_modules():
    """Every loaded ddreg module, the package itself included."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ddreg" or name.startswith("ddreg."))
    ]


def installed_wrappers() -> list[str]:
    """Bindings in ddreg modules that are span wrappers (empty when untraced)."""
    return [
        f"{module.__name__}.{attr}"
        for module in ddreg_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus its direct children's."""
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self time in ms."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    )
    for s in spans:
        entry = out[s.name]
        entry["calls"] += 1
        entry["total_ms"] += (s.end - s.start) / 1e6
        entry["self_ms"] += selfs[s.id] / 1e6
    return dict(out)


def total(table, *names, key="total_ms") -> float:
    """Sum of one column of ``totals`` over the named spans."""
    return sum(table[n][key] for n in names if n in table)


def layer_metrics(table, counters) -> dict:
    """Per-layer metrics of the decision path from span totals and exact counts."""
    lmi_ms = total(table, "lmi.solve_lmi")
    synth_ms = total(table, "synthesis.synthesize", "synthesis.synthesize_unknown_a3")
    calls = counters["lmi.solve_lmi.calls"]
    iterations = counters["lmi.iterations"]
    verify = ("synthesis.verify_regulator", "synthesis.verify_regulator_unknown_a3")
    decision = [n for n in table if n.startswith("synthesis.") and n not in verify]
    return {
        "lmi.calls": calls,
        "lmi.iterations": iterations,
        "lmi.self_ms": total(table, "lmi.solve_lmi", key="self_ms"),
        "lmi.share": lmi_ms / synth_ms if synth_ms else 0.0,
        "lmi.us_per_iter": 1e3 * lmi_ms / iterations if iterations else 0.0,
        "lmi.found_ratio": counters["lmi.found"] / calls if calls else 0.0,
        "lmi.margin_headroom_min": counters.get("lmi.margin_headroom_min", 0.0),
        "synthesis.self_ms": total(table, *decision, key="self_ms"),
        "synthesis.w_system_ms": total(table, "synthesis.w_system", "synthesis.w_system_unknown_a3"),
        "synthesis.cond1_calls": counters["synthesis.check_condition1.calls"],
        "synthesis.cond2_calls": counters["synthesis.check_condition2.calls"],
        "synthesis.informative": counters["synthesis.informative"],
        "synthesis.not_informative": counters["synthesis.not_informative"],
        "synthesis.verify_ms": total(table, *verify),
        "model.compatible_set_ms": total(table, "model.compatible_set", "model.compatible_set_unknown_a3"),
        "analysis.spectral_calls": counters["analysis.spectral_info.calls"],
        "analysis.spectral_ms": total(table, "analysis.spectral_info"),
        "analysis.regulated_ms": total(table, "analysis.check_output_regulated"),
        "simulation.sim_ms": total(table, "simulation.closed_loop_sim"),
        "simulation.sim_steps": counters["simulation.sim_steps"],
        "simulation.decay_ms": total(table, "simulation.decay_check"),
        "simulation.sample_ms": total(table, "simulation.sample_members", "simulation.sample_members_unknown_a3"),
    }

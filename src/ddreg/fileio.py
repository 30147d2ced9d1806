"""Problem, regulator and trajectory file handling.

Problem and regulator files are JSON with named matrix fields stored as
arrays of row arrays; numbers round-trip at full double precision.
Writes are atomic (temp file then rename).  Regulator files carry the
tool version and the SHA-256 of the problem file they were produced
from, so a later simulation can flag mismatched inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    KnownMatrices,
    Problem,
    ProblemData,
    Regulator,
    build_problem,
)
from .simulation import Trajectory, TrueSystem
from .synthesis import SynthesisConfig

__all__ = [
    "ProblemFileError",
    "ProblemDocument",
    "RegulatorDocument",
    "parse_problem",
    "load_problem",
    "problem_to_text",
    "save_problem",
    "parse_regulator",
    "load_regulator",
    "regulator_to_text",
    "save_regulator",
    "load_system",
    "write_trajectories_csv",
    "merge_config",
]

_CONFIG_KEYS = {f.name for f in dataclasses.fields(SynthesisConfig)}
_PROBLEM_MATRICES = ("A1", "A3", "D1", "D2", "E", "U_minus", "X1_minus", "X2")
_WITNESS_FIELDS = ("W", "Theta", "X_dagger")


class ProblemFileError(ValueError):
    """A problem or regulator file failed to parse or validate."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_json(text: str, origin: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{origin}: top level must be a JSON object")
    return doc


def _matrix_field(doc: dict, key: str, origin: str, required: bool = True):
    if key not in doc or doc[key] is None:
        if required:
            raise ProblemFileError(f"{origin}: missing matrix field {key!r}")
        return None
    value = doc[key]
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        raise ProblemFileError(
            f"{origin}: field {key!r} must be an array of row arrays"
        )
    widths = {len(r) for r in value}
    if len(widths) != 1:
        raise ProblemFileError(f"{origin}: field {key!r} has ragged rows")
    for row in value:
        for entry in row:
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ProblemFileError(
                    f"{origin}: field {key!r} contains a non-numeric entry {entry!r}"
                )
    return np.array(value, dtype=float)


def _check_dims(doc: dict, origin: str, shapes: dict[str, int]) -> None:
    dims = doc.get("dims")
    if dims is None:
        return
    if not isinstance(dims, dict):
        raise ProblemFileError(f"{origin}: field 'dims' must be an object")
    for key, expected in shapes.items():
        if key not in dims:
            continue
        value = dims[key]
        integral = isinstance(value, int) or (
            isinstance(value, float) and value.is_integer()
        )
        if isinstance(value, bool) or not integral:
            raise ProblemFileError(
                f"{origin}: dims.{key} must be an integer, got {value!r}"
            )
        if int(value) != expected:
            raise ProblemFileError(
                f"{origin}: dims.{key} = {value} but the matrices imply {expected}"
            )


@dataclass(frozen=True, eq=False)
class ProblemDocument:
    """Parsed problem file with its raw-content hash."""

    problem: Problem
    config_overrides: dict
    sha256: str
    origin: str


def parse_problem(text: str, origin: str = "<string>") -> ProblemDocument:
    """Parse problem-file text, cross-checking any declared dims."""
    doc = _parse_json(text, origin)
    matrices = {}
    for key in _PROBLEM_MATRICES:
        matrices[key] = _matrix_field(doc, key, origin, required=(key != "A3"))
    try:
        data = ProblemData(
            U_minus=matrices["U_minus"],
            X1_minus=matrices["X1_minus"],
            X2=matrices["X2"],
        )
        known = KnownMatrices(
            A1=matrices["A1"],
            A3=matrices["A3"],
            D1=matrices["D1"],
            D2=matrices["D2"],
            E=matrices["E"],
        )
        problem = build_problem(data, known)
    except ValueError as exc:
        raise ProblemFileError(f"{origin}: {exc}") from None
    _check_dims(
        doc,
        origin,
        {
            "n1": problem.n1,
            "n2": problem.n2,
            "m": problem.m,
            "p": problem.p,
            "tau": problem.tau,
        },
    )
    overrides = doc.get("config", {})
    if not isinstance(overrides, dict):
        raise ProblemFileError(f"{origin}: field 'config' must be an object")
    unknown = set(overrides) - _CONFIG_KEYS
    if unknown:
        raise ProblemFileError(
            f"{origin}: unknown config keys {sorted(unknown)}; "
            f"valid keys are {sorted(_CONFIG_KEYS)}"
        )
    return ProblemDocument(
        problem=problem,
        config_overrides=dict(overrides),
        sha256=_sha256(text),
        origin=origin,
    )


def load_problem(path) -> ProblemDocument:
    """Read and parse a problem file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from None
    return parse_problem(text, origin=str(path))


def merge_config(overrides: dict, **cli_overrides) -> SynthesisConfig:
    """Config from file-level overrides, with CLI flags taking precedence."""
    merged = dict(overrides)
    merged.update({k: v for k, v in cli_overrides.items() if v is not None})
    try:
        return SynthesisConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"invalid config: {exc}") from None


def _rows(matrix: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.atleast_2d(matrix)]


def _format_value(value, indent: str) -> str:
    if isinstance(value, list) and value and all(isinstance(r, list) for r in value):
        inner = ",\n".join(f"{indent}  {json.dumps(row)}" for row in value)
        return "[\n" + inner + f"\n{indent}]"
    return json.dumps(value)


def _format_document(doc: dict) -> str:
    lines = ["{"]
    items = list(doc.items())
    for i, (key, value) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(f'  "{key}": {_format_value(value, "  ")}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def problem_to_text(problem: Problem, config_overrides: dict | None = None) -> str:
    """Serialize a problem to problem-file JSON."""
    known, data = problem.known, problem.data
    doc = {
        "dims": {
            "n1": problem.n1,
            "n2": problem.n2,
            "m": problem.m,
            "p": problem.p,
            "tau": problem.tau,
        },
        "A1": _rows(known.A1),
        "A3": None if known.A3 is None else _rows(known.A3),
        "D1": _rows(known.D1),
        "D2": _rows(known.D2),
        "E": _rows(known.E),
        "U_minus": _rows(data.U_minus),
        "X1_minus": _rows(data.X1_minus),
        "X2": _rows(data.X2),
    }
    if config_overrides:
        doc["config"] = config_overrides
    return _format_document(doc)


def save_problem(path, problem: Problem, config_overrides: dict | None = None) -> str:
    """Write a problem file atomically; returns its content hash."""
    text = problem_to_text(problem, config_overrides)
    _atomic_write_text(path, text)
    return _sha256(text)


@dataclass(frozen=True, eq=False)
class RegulatorDocument:
    """Parsed regulator file."""

    regulator: Regulator
    tool_version: str
    problem_sha256: str | None


def regulator_to_text(regulator: Regulator, problem_sha256: str | None = None) -> str:
    """Serialize a regulator with witnesses, version and input hash."""
    doc = {
        "K1": _rows(regulator.K1),
        "K2": _rows(regulator.K2),
        "provenance": regulator.provenance,
    }
    for key in _WITNESS_FIELDS:
        value = getattr(regulator, "X2_dagger" if key == "X_dagger" else key)
        doc[key] = None if value is None else _rows(value)
    doc["tool_version"] = __version__
    doc["problem_sha256"] = problem_sha256
    return _format_document(doc)


def save_regulator(path, regulator: Regulator, problem_sha256: str | None = None) -> None:
    _atomic_write_text(path, regulator_to_text(regulator, problem_sha256))


def parse_regulator(text: str, origin: str = "<string>") -> RegulatorDocument:
    doc = _parse_json(text, origin)
    K1 = _matrix_field(doc, "K1", origin)
    K2 = _matrix_field(doc, "K2", origin)
    provenance = doc.get("provenance")
    if not isinstance(provenance, str):
        raise ProblemFileError(f"{origin}: missing or non-string field 'provenance'")
    witnesses = {
        key: _matrix_field(doc, key, origin, required=False)
        for key in _WITNESS_FIELDS
    }
    try:
        regulator = Regulator(
            K1=K1,
            K2=K2,
            provenance=provenance,
            W=witnesses["W"],
            Theta=witnesses["Theta"],
            X2_dagger=witnesses["X_dagger"],
        )
    except ValueError as exc:
        raise ProblemFileError(f"{origin}: {exc}") from None
    return RegulatorDocument(
        regulator=regulator,
        tool_version=str(doc.get("tool_version", "")),
        problem_sha256=doc.get("problem_sha256"),
    )


def load_regulator(path) -> RegulatorDocument:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from None
    return parse_regulator(text, origin=str(path))


def load_system(path) -> tuple[TrueSystem, KnownMatrices]:
    """Read a true-system file (A1, A2, B2, A3, D1, D2, E)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from None
    origin = str(path)
    doc = _parse_json(text, origin)
    fields = {
        key: _matrix_field(doc, key, origin)
        for key in ("A1", "A2", "B2", "A3", "D1", "D2", "E")
    }
    try:
        system = TrueSystem(
            A1=fields["A1"], A2=fields["A2"], B2=fields["B2"], A3=fields["A3"]
        )
        known = KnownMatrices(
            A1=fields["A1"],
            A3=fields["A3"],
            D1=fields["D1"],
            D2=fields["D2"],
            E=fields["E"],
        )
    except ValueError as exc:
        raise ProblemFileError(f"{origin}: {exc}") from None
    return system, known


def write_trajectories_csv(path, blocks: list[tuple[int, Trajectory]]) -> None:
    """Write member trajectories as one CSV, one block per member.

    Columns: t, exosystem states, endosystem states, inputs, outputs and
    the sampled member id.
    """
    if not blocks:
        raise ValueError("no trajectories to write")
    first = blocks[0][1]
    n1, n2 = first.x1.shape[0], first.x2.shape[0]
    m, p = first.u.shape[0], first.z.shape[0]
    header = (
        ["t"]
        + [f"x1_{i + 1}" for i in range(n1)]
        + [f"x2_{i + 1}" for i in range(n2)]
        + [f"u_{i + 1}" for i in range(m)]
        + [f"z_{i + 1}" for i in range(p)]
        + ["member_id"]
    )
    lines = [",".join(header)]
    for member_id, trajectory in blocks:
        for t in range(trajectory.horizon + 1):
            values = np.concatenate(
                [
                    trajectory.x1[:, t],
                    trajectory.x2[:, t],
                    trajectory.u[:, t],
                    trajectory.z[:, t],
                ]
            )
            row = [str(t)] + [repr(float(v)) for v in values] + [str(member_id)]
            lines.append(",".join(row))
    _atomic_write_text(path, "\n".join(lines) + "\n")

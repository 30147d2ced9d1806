"""Problem, regulator, system and trajectory file handling.

Problem, regulator and system files are JSON with named matrix fields
stored as arrays of row arrays; numbers round-trip at full double
precision.  Every matrix is validated by the model type it builds, and
every error a file causes, from reading it to validating its matrices,
leaves through naming(), so its message starts with the file it came
from.  Writes are atomic (temp file then rename), and an error while
writing names the path written.  Regulator files carry the tool version
and the SHA-256 of the problem file they were produced from, so a later
simulation can flag mismatched inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from . import __version__
from .model import (
    DimensionError,
    KnownMatrices,
    Problem,
    ProblemData,
    Regulator,
    build_problem,
    require_shape,
)
from .simulation import Trajectory, TrueSystem

__all__ = [
    "ProblemFileError",
    "naming",
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
]

# The fields of each model type, in file order.  A problem file holds the
# known and the data matrices, a system file the true-system and the known ones.
_KNOWN_MATRICES = ("A1", "A3", "D1", "D2", "E")
_DATA_MATRICES = ("U_minus", "X1_minus", "X2")
_TRUE_SYSTEM_MATRICES = ("A1", "A2", "B2", "A3")
_DIMS = ("n1", "n2", "m", "p", "tau")
_WITNESS_FIELDS = ("W", "Theta", "X_dagger")


class ProblemFileError(ValueError):
    """A file or a command-line value failed to read, parse or validate."""


@contextlib.contextmanager
def naming(origin) -> Iterator[None]:
    """Raise an OSError or ValueError of the block as a ProblemFileError naming origin."""
    try:
        yield
    except OSError as exc:
        raise ProblemFileError(f"{origin}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ProblemFileError(f"{origin}: {exc}") from None


def _read(path) -> str:
    with naming(path):
        return Path(path).read_text()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _atomic_open(path) -> Iterator[TextIO]:
    """A text handle on a temp file that replaces path when the block ends cleanly.

    Any error, the block's included, leaves through naming(path) and no file.
    """
    path = Path(path)
    with naming(path):
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


def _atomic_write_text(path, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


# The helpers below raise plain ValueErrors; their callers run them
# inside naming(), which prefixes the file.
def _parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ValueError("top level must be a JSON object")
    return doc


def _matrix_field(doc: dict, key: str, required: bool = True):
    if key not in doc or doc[key] is None:
        if required:
            raise ValueError(f"missing matrix field {key!r}")
        return None
    value = doc[key]
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        raise ValueError(f"field {key!r} must be an array of row arrays")
    widths = {len(r) for r in value}
    if len(widths) != 1:
        raise ValueError(f"field {key!r} has ragged rows")
    for row in value:
        for entry in row:
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ValueError(f"field {key!r} contains a non-numeric entry {entry!r}")
    return np.array(value, dtype=float)


def _check_dims(doc: dict, shapes: dict[str, int]) -> None:
    dims = doc.get("dims")
    if dims is None:
        return
    if not isinstance(dims, dict):
        raise ValueError("field 'dims' must be an object")
    for key, expected in shapes.items():
        if key not in dims:
            continue
        value = dims[key]
        integral = isinstance(value, int) or (
            isinstance(value, float) and value.is_integer()
        )
        if isinstance(value, bool) or not integral:
            raise ValueError(f"dims.{key} must be an integer, got {value!r}")
        if int(value) != expected:
            raise ValueError(f"dims.{key} = {value} but the matrices imply {expected}")


@dataclass(frozen=True, eq=False)
class ProblemDocument:
    """Parsed problem file with its raw-content hash."""

    problem: Problem
    sha256: str
    origin: str


def parse_problem(text: str, origin: str = "<string>") -> ProblemDocument:
    """Parse problem-file text, cross-checking any declared dims."""
    with naming(origin):
        doc = _parse_json(text)
        if "config" in doc:
            raise ValueError(
                "field 'config' is no longer supported: the decision "
                "takes no settings; remove the field"
            )
        fields = {
            key: _matrix_field(doc, key, required=(key != "A3"))
            for key in _KNOWN_MATRICES + _DATA_MATRICES
        }
        data = ProblemData(**{key: fields[key] for key in _DATA_MATRICES})
        known = KnownMatrices(**{key: fields[key] for key in _KNOWN_MATRICES})
        problem = build_problem(data, known)
        _check_dims(doc, {key: getattr(problem, key) for key in _DIMS})
    return ProblemDocument(problem=problem, sha256=_sha256(text), origin=origin)


def load_problem(path) -> ProblemDocument:
    """Read and parse a problem file."""
    return parse_problem(_read(path), origin=str(path))


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


def problem_to_text(problem: Problem) -> str:
    """Serialize a problem to problem-file JSON."""
    doc = {"dims": {key: getattr(problem, key) for key in _DIMS}}
    for key in _KNOWN_MATRICES + _DATA_MATRICES:
        value = getattr(problem.data if key in _DATA_MATRICES else problem.known, key)
        doc[key] = None if value is None else _rows(value)
    return _format_document(doc)


def save_problem(path, problem: Problem) -> str:
    """Write a problem file atomically; returns its content hash."""
    text = problem_to_text(problem)
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
    with naming(origin):
        doc = _parse_json(text)
        K1 = _matrix_field(doc, "K1")
        K2 = _matrix_field(doc, "K2")
        provenance = doc.get("provenance")
        if not isinstance(provenance, str):
            raise ValueError("missing or non-string field 'provenance'")
        witnesses = {key: _matrix_field(doc, key, required=False) for key in _WITNESS_FIELDS}
        regulator = Regulator(
            K1=K1,
            K2=K2,
            provenance=provenance,
            W=witnesses["W"],
            Theta=witnesses["Theta"],
            X2_dagger=witnesses["X_dagger"],
        )
    return RegulatorDocument(
        regulator=regulator,
        tool_version=str(doc.get("tool_version", "")),
        problem_sha256=doc.get("problem_sha256"),
    )


def load_regulator(path) -> RegulatorDocument:
    return parse_regulator(_read(path), origin=str(path))


def load_system(path) -> tuple[TrueSystem, KnownMatrices]:
    """Read a true-system file (A1, A2, B2, A3, D1, D2, E).

    B2 and E must have the same number of columns, at least one: a
    problem file records at least one input.
    """
    text = _read(path)
    with naming(path):
        doc = _parse_json(text)
        fields = {key: _matrix_field(doc, key) for key in _TRUE_SYSTEM_MATRICES + _KNOWN_MATRICES}
        system = TrueSystem(**{key: fields[key] for key in _TRUE_SYSTEM_MATRICES})
        known = KnownMatrices(**{key: fields[key] for key in _KNOWN_MATRICES})
        require_shape("E", known.E, ("p", None), ("m", system.m, "B2"))
        if system.m == 0:
            raise DimensionError("B2 and E have no columns; the system needs at least one input")
    return system, known


def write_trajectories_csv(path, blocks: Iterable[tuple[int, Trajectory]]) -> None:
    """Write member trajectories as one CSV, one block per member.

    Columns: t, exosystem states, endosystem states, inputs, outputs and
    the sampled member id; the first block sets the header.  Each block
    is written as it arrives, so a generator of blocks keeps one
    trajectory in memory at a time.  Raises ValueError, and writes no
    file, when there are no blocks.
    """
    with _atomic_open(path) as handle:
        empty = True
        for member_id, trajectory in blocks:
            parts = (trajectory.x1, trajectory.x2, trajectory.u, trajectory.z)
            if empty:
                columns = ["t"]
                for name, part in zip(("x1", "x2", "u", "z"), parts):
                    columns += [f"{name}_{i + 1}" for i in range(part.shape[0])]
                handle.write(",".join(columns + ["member_id"]) + "\n")
                empty = False
            # tolist() yields Python floats, whose repr is the full-precision text.
            for t, row in enumerate(np.concatenate(parts).T.tolist()):
                handle.write(f"{t},{','.join(map(repr, row))},{member_id}\n")
        if empty:
            raise ValueError("no trajectories to write")

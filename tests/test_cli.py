"""Exit codes, output files and flag handling of the command line."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ddreg
from ddreg import KnownMatrices, build_problem
from ddreg.cli import main
from ddreg.examples import REFERENCE, fixture_text
from ddreg.fileio import (
    load_problem,
    load_regulator,
    parse_problem,
    save_problem,
    save_regulator,
)

from _instances import (
    PLANAR_GAIN_SHAPES,
    WRONG_GAIN_SHAPES,
    coupling_free_instance,
    inconsistent_problem,
    regulable_instance,
    wrong_shape_regulator,
)


@pytest.fixture()
def scalar_path(tmp_path):
    path = tmp_path / "scalar_problem.json"
    path.write_text(fixture_text("scalar"))
    return path


@pytest.fixture()
def planar_path(tmp_path):
    path = tmp_path / "planar_problem.json"
    path.write_text(fixture_text("planar"))
    return path


@pytest.fixture()
def system_path(tmp_path):
    """A true-system file with the scalar fixture's known matrices."""
    known = load_problem_from_fixture().known
    system_doc = {
        "A1": known.A1.tolist(),
        "A2": [[1.0]],
        "B2": [[1.0]],
        "A3": known.A3.tolist(),
        "D1": known.D1.tolist(),
        "D2": known.D2.tolist(),
        "E": known.E.tolist(),
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_doc))
    return path


def test_check_informative_exits_zero(scalar_path, capsys):
    assert main(["check", str(scalar_path)]) == 0
    out = capsys.readouterr().out
    assert "informative for regulator design via condition2" in out
    assert "rank(X2_minus): 1 of 1" in out
    assert "lmi: min_eig=" in out
    assert "margin=1.000e-06" in out


def test_check_not_informative_exits_two(scalar_path, capsys):
    assert main(["check", str(scalar_path), "--unknown-a3"]) == 2
    out = capsys.readouterr().out
    assert "not informative for regulator design" in out


def withheld_coupling_path(tmp_path, seed):
    problem = regulable_instance(seed).problem
    known = problem.known
    withheld = KnownMatrices(A1=known.A1, A3=None, D1=known.D1, D2=known.D2, E=known.E)
    path = tmp_path / f"regulable_{seed}_without_a3.json"
    save_problem(path, build_problem(problem.data, withheld))
    return path


def test_check_prints_the_witness_of_a_not_informative_branch(tmp_path, capsys):
    path = withheld_coupling_path(tmp_path, 6)
    assert main(["check", str(path), "--unknown-a3"]) == 2
    out = capsys.readouterr().out
    assert "is a mode of the closed loop for every admissible right-inverse" in out
    assert "lmi: min_eig=" in out
    assert "margin=1.000e-06" in out


def test_check_without_coupling_points_to_unknown_coupling_mode(tmp_path, capsys):
    path = withheld_coupling_path(tmp_path, 6)
    assert main(["check", str(path)]) == 1
    assert "--unknown-a3" in capsys.readouterr().err


def test_check_without_coupling_or_right_inverse_exits_two(tmp_path, capsys):
    path = withheld_coupling_path(tmp_path, 23)
    assert main(["check", str(path), "--unknown-a3"]) == 2
    out = capsys.readouterr().out
    assert "no right-inverse of X satisfies the constraints" in out
    assert "not informative for regulator design" in out


def test_usage_errors_exit_one(capsys):
    assert main(["check"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_problem_file_exits_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert f"ddreg {ddreg.__version__}" in capsys.readouterr().out


def test_the_seed_comes_from_the_flag_alone(system_path, tmp_path, capsys, monkeypatch):
    paths = tmp_path / "plain.json", tmp_path / "with_env.json"
    for path, env in zip(paths, (None, "7")):
        if env is not None:
            monkeypatch.setenv("DDREG_SEED", env)
        assert main(["gen-data", str(system_path), "-o", str(path), "--tau", "3"]) == 0
        assert capsys.readouterr().out.startswith("seed: 0\n")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_check_and_synth_take_no_seed(scalar_path, tmp_path, capsys, monkeypatch):
    # The decision draws no random numbers, so nothing echoes or reads a seed.
    monkeypatch.setenv("DDREG_SEED", "seven")
    assert main(["check", str(scalar_path)]) == 0
    assert main(["synth", str(scalar_path), "-o", str(tmp_path / "r.json")]) == 0
    assert "seed" not in capsys.readouterr().out
    for flag in (["--seed", "1"], ["--order", "condition1-first"]):
        assert main(["check", str(scalar_path)] + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


# --seed is the only source of the seed; the parameter keeps the test ids.
@pytest.mark.parametrize("source", ["flag"])
@pytest.mark.parametrize("command", ["simulate", "example", "gen-data"])
def test_a_negative_seed_fails_before_any_work(
    command, source, planar_path, system_path, tmp_path, capsys
):
    reg_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(reg_path)]) == 0
    capsys.readouterr()
    before = set(tmp_path.iterdir())
    argv = {
        "simulate": ["simulate", str(planar_path), str(reg_path), "--out", str(tmp_path / "t.csv")],
        "example": ["example", "planar", "--outdir", str(tmp_path / "example")],
        "gen-data": ["gen-data", str(system_path), "-o", str(tmp_path / "p.json"), "--tau", "3"],
    }[command]
    argv += ["--seed", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "argument --seed: must be at least 0, got -1" in captured.err
    assert captured.out == ""
    assert set(tmp_path.iterdir()) == before


def test_synth_writes_regulator_file(planar_path, tmp_path, capsys):
    out_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "closed-loop spectral radius" in out
    doc = load_regulator(out_path)
    assert np.allclose(doc.regulator.K2, REFERENCE["planar"]["K2"], atol=1e-12)
    assert doc.problem_sha256 == load_problem(planar_path).sha256


def test_synth_prints_the_verification_simulate_prints(planar_path, tmp_path, capsys):
    out_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(out_path)]) == 0
    synth_lines = capsys.readouterr().out.splitlines()
    assert "closed-loop spectral radius: 0.707107" in synth_lines
    main(["simulate", str(planar_path), str(out_path), "--out", str(tmp_path / "t.csv")])
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("verification"))
    assert line.startswith("verification over the whole family (r=1): PASS")
    assert line in synth_lines


def test_synth_writes_nothing_when_verification_fails(planar_path, tmp_path, monkeypatch, capsys):
    def failing(regulator, cset, known):
        return ddreg.synthesis.VerificationReport(
            passed=False, rho_bound=0.5, residuals={"output_offset": 1.0}
        )

    monkeypatch.setattr(ddreg.cli, "verify_regulator", failing)
    out_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(out_path)]) == 2
    assert not out_path.exists()
    out = capsys.readouterr().out
    assert "closed-loop spectral radius: 0.500000" in out
    assert "verification over the whole family (r=1): FAIL; output_offset=1.000e+00" in out


def test_synth_not_informative_writes_nothing(scalar_path, tmp_path, capsys):
    out_path = tmp_path / "regulator.json"
    code = main(
        ["synth", str(scalar_path), "--unknown-a3", "-o", str(out_path)]
    )
    assert code == 2
    assert not out_path.exists()
    capsys.readouterr()


@pytest.mark.parametrize("config", ['{"lmi_rho": "big"}', '{"lmi_margin": true}'])
def test_bad_config_value_exits_one_naming_file_and_field(config, tmp_path, capsys):
    path = tmp_path / "bad_config.json"
    path.write_text(
        fixture_text("scalar").replace('"U_minus"', f'"config": {config}, "U_minus"', 1)
    )
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: field 'config' is no longer supported")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "planar", "-o", "regulator.json"],
        ["synth", "coupling_free", "--unknown-a3", "-o", "regulator.json"],
        ["example", "planar", "--outdir", "."],
    ],
)
def test_each_command_builds_the_family_once(argv, tmp_path, monkeypatch, capsys):
    save_problem(tmp_path / "coupling_free", coupling_free_instance(3).problem)
    (tmp_path / "planar").write_text(fixture_text("planar"))
    monkeypatch.chdir(tmp_path)
    calls = []
    build = ddreg.model._compatible_set

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ddreg.model, "_compatible_set", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["check", "synth"])
def test_inconsistent_data_exit_one(command, tmp_path, capsys):
    path = tmp_path / "inconsistent.json"
    save_problem(path, inconsistent_problem())
    out_path = tmp_path / "regulator.json"
    argv = [command, str(path)] + (["-o", str(out_path)] if command == "synth" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "no system matches the measured transitions" in captured.err
    assert "informative" not in captured.out
    assert not out_path.exists()


def _scalar_fixture_with(**changes):
    doc = json.loads(fixture_text("scalar"))
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


_SCALAR_X2 = json.loads(fixture_text("scalar"))["X2"]
DATA_ERRORS = {
    "inconsistent": _scalar_fixture_with(X2=[_SCALAR_X2[0][:3] + [9.5]]),
    "overflowing": _scalar_fixture_with(X2=[[1e300 * x for x in _SCALAR_X2[0]]]),
    "stable-A1": _scalar_fixture_with(A1=(0.5 * np.eye(3)).tolist()),
    "missing-A3": _scalar_fixture_with(A3=None),
}


@pytest.mark.parametrize(
    "command, case",
    [
        (command, case)
        for case in DATA_ERRORS
        for command in ("check", "synth", "simulate")
        # Without A3, simulate verifies against the unknown-coupling family.
        if not (command == "simulate" and case == "missing-A3")
    ],
)
def test_data_errors_name_the_problem_file(command, case, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(DATA_ERRORS[case]))
    reg_path = tmp_path / "regulator.json"
    save_regulator(
        reg_path,
        ddreg.Regulator(K1=np.zeros((1, 3)), K2=np.zeros((1, 1)), provenance="condition2"),
    )
    argv = {
        "check": ["check", str(path)],
        "synth": ["synth", str(path), "-o", str(tmp_path / "out.json")],
        "simulate": ["simulate", str(path), str(reg_path), "--out", str(tmp_path / "t.csv")],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.out == ("seed: 0\n" if command == "simulate" else "")


_MATRIX_FIELDS = ("A1", "A3", "D1", "D2", "E", "U_minus", "X1_minus", "X2")


def _with_first_entry(value, entry):
    rows = [list(row) for row in value]
    rows[0][0] = entry
    return rows


_MALFORMED = {
    "string": lambda value: "[[1, 2]]",
    "number": lambda value: 1.5,
    "flat list": lambda value: [entry for row in value for entry in row],
    "empty": lambda value: [],
    "empty row": lambda value: [[]],
    "ragged": lambda value: value + [value[0][:-1]],
    "bool": lambda value: True,
    "null entry": lambda value: _with_first_entry(value, None),
    "3-d": lambda value: [value],
    "NaN": lambda value: _with_first_entry(value, float("nan")),
    "Infinity": lambda value: _with_first_entry(value, float("inf")),
    "object": lambda value: {"rows": value},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("field", _MATRIX_FIELDS)
def test_a_malformed_matrix_field_exits_one_naming_file_and_field(field, case, tmp_path, capsys):
    doc = json.loads(fixture_text("planar"))
    doc[field] = _MALFORMED[case](doc[field])
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert re.search(rf"\b{field}\b", err), err
    assert "Traceback" not in err


_SYSTEM_FIELDS = ("A1", "A2", "B2", "A3", "D1", "D2", "E")


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("field", _SYSTEM_FIELDS)
def test_a_malformed_system_field_exits_one_naming_file_and_field(
    field, case, system_path, tmp_path, capsys
):
    doc = json.loads(system_path.read_text())
    doc[field] = _MALFORMED[case](doc[field])
    system_path.write_text(json.dumps(doc))
    out_path = tmp_path / "p.json"
    assert main(["gen-data", str(system_path), "-o", str(out_path), "--tau", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {system_path}: "), captured.err
    assert re.search(rf"\b{field}\b", captured.err), captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_check_runs_without_importing_scipy(planar_path):
    # A fresh interpreter, so that modules imported by the tests do not count.
    script = (
        "import sys\n"
        "from ddreg.cli import main\n"
        f"code = main(['check', {str(planar_path)!r}])\n"
        "print('scipy modules:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(ddreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "via condition" in run.stdout
    assert "scipy modules: []" in run.stdout


@pytest.mark.parametrize("field, shape", WRONG_GAIN_SHAPES, ids=str)
def test_simulate_names_the_regulator_file_and_the_gain_of_the_wrong_shape(
    field, shape, planar_path, tmp_path, capsys
):
    reg_path, out_path = tmp_path / "regulator.json", tmp_path / "t.csv"
    save_regulator(reg_path, wrong_shape_regulator(field, shape))
    argv = ["simulate", str(planar_path), str(reg_path), "--out", str(out_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    message = f"{field} must have shape {PLANAR_GAIN_SHAPES[field]}, got {shape}"
    assert captured.err == f"error: {reg_path}: {message}\n"
    assert captured.out == ""
    assert not out_path.exists()


def test_simulate_end_to_end(planar_path, tmp_path, capsys):
    reg_path = tmp_path / "regulator.json"
    csv_path = tmp_path / "trajectories.csv"
    assert main(["synth", str(planar_path), "-o", str(reg_path)]) == 0
    code = main(
        [
            "simulate",
            str(planar_path),
            str(reg_path),
            "--out",
            str(csv_path),
            "--members",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verification over the whole family (r=1): PASS" in out
    assert "member 0:" in out
    assert "decay=PASS" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("t,x1_1")
    assert lines[0].endswith("member_id")


def test_simulate_warns_on_problem_hash_mismatch(planar_path, tmp_path, capsys):
    reg_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(reg_path)]) == 0
    planar_path.write_text(planar_path.read_text() + "\n")
    code = main(
        [
            "simulate",
            str(planar_path),
            str(reg_path),
            "--out",
            str(tmp_path / "t.csv"),
        ]
    )
    assert code == 0
    assert "hash mismatch" in capsys.readouterr().err


def test_simulate_flags_destabilizing_regulator(planar_path, tmp_path, capsys):
    problem = load_problem(planar_path).problem
    bad = ddreg.Regulator(
        K1=np.zeros((problem.m, problem.n1)),
        K2=np.zeros((problem.m, problem.n2)),
        provenance="condition1",
    )
    reg_path = tmp_path / "bad_regulator.json"
    save_regulator(reg_path, bad, problem_sha256=load_problem(planar_path).sha256)
    code = main(
        [
            "simulate",
            str(planar_path),
            str(reg_path),
            "--out",
            str(tmp_path / "t.csv"),
            "--horizon",
            "30",
        ]
    )
    assert code == 2
    assert "decay=FAIL" in capsys.readouterr().out


def test_simulate_rejects_a_regulator_that_fails_outside_the_sampled_members(tmp_path, capsys):
    # With the output set to zero every simulated member decays, but the
    # shifted K2 destabilizes members far out in the family.
    planar = parse_problem(fixture_text("planar")).problem
    known = planar.known
    problem = build_problem(
        planar.data,
        KnownMatrices(
            A1=known.A1,
            A3=known.A3,
            D1=np.zeros_like(known.D1),
            D2=np.zeros_like(known.D2),
            E=np.zeros_like(known.E),
        ),
    )
    problem_path, reg_path = tmp_path / "silent.json", tmp_path / "regulator.json"
    save_problem(problem_path, problem)
    assert main(["synth", str(problem_path), "-o", str(reg_path)]) == 0
    regulator = load_regulator(reg_path).regulator
    shifted = ddreg.Regulator(
        K1=regulator.K1, K2=regulator.K2 + 0.01, provenance=regulator.provenance
    )
    save_regulator(reg_path, shifted)
    capsys.readouterr()
    argv = ["simulate", str(problem_path), str(reg_path), "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "verification over the whole family (r=1): FAIL" in out
    assert "decay=FAIL" not in out


def test_simulate_reports_a_diverged_member_without_a_warning(tmp_path, capsys):
    # Without A3 the scalar data are not informative; a zero regulator
    # leaves some sampled members unstable, and one overflows.
    doc = json.loads(fixture_text("scalar"))
    doc["A3"] = None
    problem_path, reg_path = tmp_path / "scalar.json", tmp_path / "zero.json"
    problem_path.write_text(json.dumps(doc))
    problem = load_problem(problem_path).problem
    zero = ddreg.Regulator(
        K1=np.zeros((problem.m, problem.n1)),
        K2=np.zeros((problem.m, problem.n2)),
        provenance="condition2_unknown_a3",
    )
    save_regulator(reg_path, zero)
    argv = ["simulate", str(problem_path), str(reg_path), "--out", str(tmp_path / "t.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert "decay=FAIL rate=0.0000 terminal=inf" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--radius", "nan"),
        ("--radius", "inf"),
        ("--radius", "-1"),
        ("--horizon", "5"),
        ("--horizon", "1000000000"),
        ("--members", "0"),
        ("--members", "101"),
        ("--x1-0", "nan,0,1"),
        ("--x2-0", "1,inf"),
    ],
)
def test_bad_simulate_flags_exit_one_naming_the_flag(flag, value, planar_path, tmp_path, capsys):
    reg_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(reg_path)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "t.csv"
    argv = ["simulate", str(planar_path), str(reg_path), "--out", str(out_path), flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert "Traceback" not in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_overflowing_samples_exit_one_without_a_warning(scale, tmp_path, capsys):
    data = inconsistent_problem().data
    problem = build_problem(
        ddreg.ProblemData(
            U_minus=scale * data.U_minus, X1_minus=scale * data.X1_minus, X2=scale * data.X2
        ),
        inconsistent_problem().known,
    )
    path = tmp_path / "overflowing.json"
    save_problem(path, problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "consistency of the measured transitions cannot be checked" in captured.err
    assert "informative" not in captured.out


def test_example_commands_run_end_to_end(tmp_path, capsys):
    for name in ("scalar", "planar"):
        outdir = tmp_path / name
        assert main(["example", name, "--outdir", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "verification over" in out
        assert "PASS" in out
        assert (outdir / f"{name}_problem.json").exists()
        assert (outdir / f"{name}_regulator.json").exists()
        assert (outdir / f"{name}_trajectories.csv").exists()


def test_example_prints_the_seed_once(tmp_path, capsys):
    assert main(["example", "planar", "--outdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("seed:")] == ["seed: 0"]


def test_gen_data_reproduces_the_bundled_fixture(scalar_path, tmp_path, capsys):
    problem = load_problem(scalar_path).problem
    known = problem.known
    system_doc = {
        "A1": known.A1.tolist(),
        "A2": REFERENCE["scalar"]["true_A2"].tolist(),
        "B2": REFERENCE["scalar"]["true_B2"].tolist(),
        "A3": known.A3.tolist(),
        "D1": known.D1.tolist(),
        "D2": known.D2.tolist(),
        "E": known.E.tolist(),
    }
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(system_doc))
    out_path = tmp_path / "generated_problem.json"
    code = main(
        [
            "gen-data",
            str(system_path),
            "-o",
            str(out_path),
            "--inputs",
            "1,0,0",
            "--x1-0",
            "1,0,0.5",
            "--x2-0",
            "0",
        ]
    )
    assert code == 0
    capsys.readouterr()
    generated = load_problem(out_path).problem
    assert np.allclose(generated.data.X2, problem.data.X2, atol=1e-12)
    assert np.allclose(generated.data.X1_minus, problem.data.X1_minus, atol=1e-12)
    assert main(["check", str(out_path)]) == 0
    capsys.readouterr()


def test_gen_data_requires_tau_or_inputs(system_path, tmp_path, capsys):
    code = main(["gen-data", str(system_path), "-o", str(tmp_path / "p.json")])
    assert code == 1
    assert "either --inputs or --tau" in capsys.readouterr().err


def load_problem_from_fixture():
    from ddreg.fileio import parse_problem

    return parse_problem(fixture_text("scalar")).problem


def test_gen_data_random_inputs_are_seeded(system_path, tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a_path, b_path):
        code = main(
            [
                "gen-data",
                str(system_path),
                "-o",
                str(out),
                "--tau",
                "4",
                "--seed",
                "11",
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert a_path.read_text() == b_path.read_text()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tau", "-1"),
        ("--tau", "0"),
        ("--x1-0", "nan,0,1"),
        ("--x2-0", "inf"),
        ("--inputs", "1,nan,2"),
    ],
)
def test_bad_gen_data_flags_exit_one_naming_the_flag(flag, value, system_path, tmp_path, capsys):
    out_path = tmp_path / "p.json"
    argv = ["gen-data", str(system_path), "-o", str(out_path), "--tau", "3", flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("simulate", "--x1-0", "1,2", "--x1-0 must have length 3, got 2"),
        ("simulate", "--x2-0", "1,2,3", "--x2-0 must have length 2, got 3"),
        ("gen-data", "--x1-0", "1,2", "--x1-0 must have length 3, got 2"),
        ("gen-data", "--x2-0", "1,2", "--x2-0 must have length 1, got 2"),
    ],
)
def test_a_state_of_the_wrong_length_fails_before_any_output(
    command, flag, value, message, planar_path, system_path, tmp_path, capsys
):
    out_path = tmp_path / "out"
    if command == "simulate":
        reg_path = tmp_path / "regulator.json"
        assert main(["synth", str(planar_path), "-o", str(reg_path)]) == 0
        capsys.readouterr()
        argv = ["simulate", str(planar_path), str(reg_path), "--out", str(out_path)]
    else:
        argv = ["gen-data", str(system_path), "-o", str(out_path), "--tau", "4"]
    assert main(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out_path.exists()


def test_simulate_help_states_the_flag_ranges(capsys):
    assert main(["simulate", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(1 to 100)" in help_text
    assert "(19 to 10000)" in help_text


@pytest.mark.parametrize("command", ["synth", "gen-data", "simulate"])
def test_an_unwritable_output_path_exits_one_naming_the_path(
    command, planar_path, system_path, tmp_path, capsys
):
    out_path = tmp_path / "absent" / "out.json"
    if command == "simulate":
        reg_path = tmp_path / "regulator.json"
        assert main(["synth", str(planar_path), "-o", str(reg_path)]) == 0
        capsys.readouterr()
        argv = ["simulate", str(planar_path), str(reg_path), "--out", str(out_path)]
    elif command == "synth":
        argv = ["synth", str(planar_path), "-o", str(out_path)]
    else:
        argv = ["gen-data", str(system_path), "-o", str(out_path), "--tau", "4"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out_path}: No such file or directory\n"
    assert not out_path.parent.exists()


@pytest.mark.parametrize(
    "B2, E, message",
    [
        ([[]], [[]], "B2 and E have no columns; the system needs at least one input"),
        ([[]], [[1.0]], "E must have shape (p, m) = (1, 0), got (1, 1); m is read from B2"),
        ([[1.0]], [[]], "E must have shape (p, m) = (1, 1), got (1, 0); m is read from B2"),
    ],
    ids=["no inputs", "B2 without columns", "E without columns"],
)
def test_gen_data_refuses_a_system_without_inputs(B2, E, message, system_path, tmp_path, capsys):
    doc = json.loads(system_path.read_text())
    system_path.write_text(json.dumps(dict(doc, B2=B2, E=E)))
    out_path = tmp_path / "p.json"
    assert main(["gen-data", str(system_path), "-o", str(out_path), "--tau", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {system_path}: {message}\n"
    assert not out_path.exists()


def test_gen_data_writes_no_file_it_cannot_read_back(system_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ddreg.cli, "problem_to_text", lambda problem: "{}")
    out_path = tmp_path / "p.json"
    assert main(["gen-data", str(system_path), "-o", str(out_path), "--tau", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out_path}: missing matrix field 'A1'\n"
    assert not out_path.exists()

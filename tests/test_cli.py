"""Exit codes, output files and flag handling of the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddreg
from ddreg import KnownMatrices, build_problem
from ddreg.cli import main
from ddreg.examples import REFERENCE, fixture_text
from ddreg.fileio import load_problem, load_regulator, save_problem, save_regulator

from _instances import coupling_free_instance, inconsistent_problem, regulable_instance


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


def test_seed_env_fallback(scalar_path, capsys, monkeypatch):
    monkeypatch.setenv("DDREG_SEED", "7")
    assert main(["check", str(scalar_path)]) == 0
    assert "seed: 7" in capsys.readouterr().out
    monkeypatch.setenv("DDREG_SEED", "seven")
    assert main(["check", str(scalar_path)]) == 1


def test_synth_writes_regulator_file(planar_path, tmp_path, capsys):
    out_path = tmp_path / "regulator.json"
    assert main(["synth", str(planar_path), "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "closed-loop spectral radius" in out
    doc = load_regulator(out_path)
    assert np.allclose(doc.regulator.K2, REFERENCE["planar"]["K2"], atol=1e-12)
    assert doc.problem_sha256 == load_problem(planar_path).sha256


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
    key = config.split('"')[1]
    assert f"error: {path}: config.{key} must be a finite number" in capsys.readouterr().err


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


def test_gen_data_requires_tau_or_inputs(tmp_path, capsys):
    system_path = tmp_path / "system.json"
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
    system_path.write_text(json.dumps(system_doc))
    code = main(["gen-data", str(system_path), "-o", str(tmp_path / "p.json")])
    assert code == 1
    assert "either --inputs or --tau" in capsys.readouterr().err


def load_problem_from_fixture():
    from ddreg.fileio import parse_problem

    return parse_problem(fixture_text("scalar")).problem


def test_gen_data_random_inputs_are_seeded(tmp_path, capsys):
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
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(system_doc))
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

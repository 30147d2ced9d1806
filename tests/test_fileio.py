"""Problem, regulator and trajectory file round trips."""

import json
import re
import tracemalloc

import numpy as np
import pytest

import ddreg
from ddreg import closed_loop_sim, synthesize
from ddreg.examples import fixture_text
from ddreg.fileio import (
    ProblemFileError,
    load_problem,
    load_regulator,
    load_system,
    parse_problem,
    parse_regulator,
    problem_to_text,
    regulator_to_text,
    save_problem,
    save_regulator,
    write_trajectories_csv,
)

from _instances import no_exosystem_problem, regulable_instance


def test_problem_round_trip_is_exact():
    for seed in range(5):
        problem = regulable_instance(seed).problem
        parsed = parse_problem(problem_to_text(problem)).problem
        assert np.array_equal(parsed.data.X2, problem.data.X2)
        assert np.array_equal(parsed.data.U_minus, problem.data.U_minus)
        assert np.array_equal(parsed.data.X1_minus, problem.data.X1_minus)
        assert np.array_equal(parsed.known.A1, problem.known.A1)
        assert np.array_equal(parsed.known.A3, problem.known.A3)
        assert np.array_equal(parsed.known.D1, problem.known.D1)
        assert np.array_equal(parsed.known.D2, problem.known.D2)
        assert np.array_equal(parsed.known.E, problem.known.E)


def test_problem_round_trip_preserves_missing_coupling():
    problem = regulable_instance(0).problem
    stripped = ddreg.build_problem(
        problem.data,
        ddreg.KnownMatrices(
            A1=problem.known.A1,
            A3=None,
            D1=problem.known.D1,
            D2=problem.known.D2,
            E=problem.known.E,
        ),
    )
    parsed = parse_problem(problem_to_text(stripped)).problem
    assert parsed.known.A3 is None


def test_a_problem_without_an_exosystem_reads_back_bitwise(tmp_path):
    # With n1 = 0, A1 and X1_minus are written as empty row lists; they
    # used to be refused as "not an array of row arrays".
    problem = no_exosystem_problem()
    path = tmp_path / "no_exosystem.json"
    save_problem(path, problem)
    parsed = load_problem(path).problem
    for part in ("data", "known"):
        for key, value in vars(getattr(problem, part)).items():
            got = vars(getattr(parsed, part))[key]
            if isinstance(value, np.ndarray):
                assert got.shape == value.shape and got.tobytes() == value.tobytes(), key
            else:
                assert got == value, key


def test_save_problem_returns_the_loaded_hash(tmp_path):
    problem = regulable_instance(1).problem
    path = tmp_path / "problem.json"
    sha = save_problem(path, problem)
    doc = load_problem(path)
    assert doc.sha256 == sha
    assert doc.origin == str(path)


def test_parse_problem_reports_json_position():
    with pytest.raises(ProblemFileError, match="line"):
        parse_problem('{"A1": [[1.0]],')


def test_parse_problem_rejects_ragged_matrix():
    text = fixture_text("scalar").replace("[0, -1, 0]", "[0, -1]", 1)
    assert text != fixture_text("scalar")
    with pytest.raises(ProblemFileError):
        parse_problem(text)


def test_parse_problem_rejects_wrong_declared_dims():
    text = fixture_text("scalar").replace('"tau": 3', '"tau": 4')
    with pytest.raises(ProblemFileError, match="tau"):
        parse_problem(text)


@pytest.mark.parametrize("value", ['"three"', "true", "3.5", "null", "[3]", "Infinity"])
def test_parse_problem_names_a_non_integer_dim(value):
    text = fixture_text("scalar").replace('"tau": 3', f'"tau": {value}')
    with pytest.raises(ProblemFileError, match=r"^<string>: dims.tau must be an integer"):
        parse_problem(text)


SCALAR_DIMS = '"dims": {"n1": 3, "n2": 1, "m": 1, "p": 1, "tau": 3}'


def test_parse_problem_refuses_a_top_level_array():
    with pytest.raises(ProblemFileError, match=r"^<string>: top level must be a JSON object$"):
        parse_problem("[" + fixture_text("scalar") + "]")


@pytest.mark.parametrize(
    "dims", ['"dims": {"n1": 3, "n2": 1, "m": 1, "p": 1}', '"dims": null', '"no_dims": 0']
)
def test_parse_problem_checks_only_the_declared_dims(dims):
    assert SCALAR_DIMS in fixture_text("scalar")
    problem = parse_problem(fixture_text("scalar").replace(SCALAR_DIMS, dims)).problem
    assert (problem.n1, problem.n2, problem.m, problem.p, problem.tau) == (3, 1, 1, 1, 3)


def test_parse_problem_checks_the_declared_dims_that_remain():
    text = fixture_text("scalar").replace(SCALAR_DIMS, '"dims": {"n2": 2}')
    with pytest.raises(ProblemFileError, match=r"^<string>: dims.n2 = 2 but the matrices imply 1$"):
        parse_problem(text)


@pytest.mark.parametrize("value", ["[3, 1, 1, 1, 3]", '"n1=3"', "3"])
def test_parse_problem_refuses_dims_that_are_not_an_object(value):
    text = fixture_text("scalar").replace(SCALAR_DIMS, f'"dims": {value}')
    with pytest.raises(ProblemFileError, match=r"^<string>: field 'dims' must be an object$"):
        parse_problem(text)


def with_config(config: str) -> str:
    return fixture_text("scalar").replace('"U_minus"', f'"config": {config}, "U_minus"', 1)


NO_CONFIG = r"^p\.json: field 'config' is no longer supported: the decision takes no settings"


def test_parse_problem_rejects_unknown_config_key():
    with pytest.raises(ProblemFileError, match=NO_CONFIG):
        parse_problem(with_config('{"step_size": 2}'), origin="p.json")


def test_parse_problem_rejects_a_removed_search_setting():
    with pytest.raises(ProblemFileError, match=NO_CONFIG):
        parse_problem(with_config('{"lmi_budget": 5}'), origin="p.json")


# A file that asks for settings, valid or not, must not be decided
# without them and without a word.
@pytest.mark.parametrize(
    "key, value",
    [
        ("residual_tol", "1e-6"),
        ("lmi_rho", '"big"'),
        ("lmi_margin", "true"),
        ("residual_tol", "null"),
        ("lmi_rho", "[1]"),
        ("lmi_rho", "Infinity"),
        ("try_order", "2"),
        ("lmi_margin", "-1"),
        ("residual_tol", "0"),
        ("try_order", '"fastest_first"'),
    ],
)
def test_parse_problem_refuses_a_config_field(key, value):
    with pytest.raises(ProblemFileError, match=NO_CONFIG):
        parse_problem(with_config(f'{{"{key}": {value}}}'), origin="p.json")


def test_parse_problem_rejects_missing_field():
    text = fixture_text("scalar").replace('"E"', '"E_renamed"', 1)
    with pytest.raises(ProblemFileError, match="E"):
        parse_problem(text)


def test_regulator_round_trip_with_witnesses(tmp_path):
    problem = parse_problem(fixture_text("scalar")).problem
    regulator = synthesize(problem).regulator
    path = tmp_path / "regulator.json"
    save_regulator(path, regulator, problem_sha256="abc123")
    doc = load_regulator(path)
    assert np.array_equal(doc.regulator.K1, regulator.K1)
    assert np.array_equal(doc.regulator.K2, regulator.K2)
    assert np.array_equal(doc.regulator.W, regulator.W)
    assert np.array_equal(doc.regulator.Theta, regulator.Theta)
    assert np.array_equal(doc.regulator.X2_dagger, regulator.X2_dagger)
    assert doc.regulator.provenance == regulator.provenance
    assert doc.tool_version == ddreg.__version__
    assert doc.problem_sha256 == "abc123"


def test_regulator_round_trip_without_witnesses():
    regulator = ddreg.Regulator(
        K1=np.array([[0.5]]), K2=np.array([[-0.5]]), provenance="condition1"
    )
    doc = parse_regulator(regulator_to_text(regulator))
    assert doc.regulator.W is None
    assert doc.regulator.Theta is None
    assert doc.regulator.X2_dagger is None
    assert doc.problem_sha256 is None


def test_parse_regulator_requires_provenance():
    text = regulator_to_text(
        ddreg.Regulator(
            K1=np.array([[0.5]]), K2=np.array([[-0.5]]), provenance="condition1"
        )
    ).replace('"provenance": "condition1"', '"provenance": 7')
    with pytest.raises(ProblemFileError, match="provenance"):
        parse_regulator(text)


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("problem_sha256", 5, "a string or null, got 5"),
        ("tool_version", [1, 2], "a string, got [1, 2]"),
        ("tool_version", None, "a string, got None"),
    ],
)
def test_parse_regulator_requires_string_metadata(field, value, expected):
    # A numeric hash used to read as a mismatch, and a list as the version '[1, 2]'.
    doc = json.loads(regulator_to_text(ddreg.Regulator(K1=[[0.5]], K2=[[-0.5]], provenance="c")))
    doc[field] = value
    message = f"regulator.json: field '{field}' must be {expected}"
    with pytest.raises(ProblemFileError, match=f"^{re.escape(message)}$"):
        parse_regulator(json.dumps(doc), origin="regulator.json")


def test_load_system_round_trip(tmp_path):
    instance = regulable_instance(2)
    system, known = instance.system, instance.problem.known
    doc = {
        "A1": known.A1.tolist(),
        "A2": system.A2.tolist(),
        "B2": system.B2.tolist(),
        "A3": system.A3.tolist(),
        "D1": known.D1.tolist(),
        "D2": known.D2.tolist(),
        "E": known.E.tolist(),
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    loaded_system, loaded_known = load_system(path)
    assert np.array_equal(loaded_system.A2, system.A2)
    assert np.array_equal(loaded_system.B2, system.B2)
    assert np.array_equal(loaded_known.E, known.E)


def test_load_problem_missing_file():
    with pytest.raises(ProblemFileError):
        load_problem("/nonexistent/problem.json")


@pytest.mark.parametrize("load", [load_problem, load_regulator, load_system])
def test_a_file_that_is_not_utf8_is_named(load, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ProblemFileError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        load(path)


def test_trajectory_csv_layout(tmp_path):
    instance = regulable_instance(3)
    problem = instance.problem
    regulator = synthesize(problem).regulator
    trajectory = closed_loop_sim(
        instance.system,
        problem.known,
        regulator,
        np.ones(problem.n1),
        np.ones(problem.n2),
        horizon=25,
    )
    path = tmp_path / "trajectories.csv"
    write_trajectories_csv(path, [(0, trajectory), (1, trajectory)])
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-1] == "member_id"
    assert header[1] == "x1_1"
    expected_cols = 1 + problem.n1 + problem.n2 + problem.m + problem.p + 1
    assert len(header) == expected_cols
    assert len(lines) == 1 + 2 * 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == "0"
    assert float(first[1]) == trajectory.x1[0, 0]
    last = lines[-1].split(",")
    assert last[0] == "25"
    assert last[-1] == "1"


def test_trajectory_csv_rejects_empty_block_list(tmp_path):
    for blocks in ([], (block for block in [])):
        with pytest.raises(ValueError):
            write_trajectories_csv(tmp_path / "empty.csv", blocks)
    assert list(tmp_path.iterdir()) == []


def test_trajectory_csv_streams_a_generator_of_blocks(tmp_path):
    problem = regulable_instance(3).problem
    regulator = synthesize(problem).regulator
    system = regulable_instance(3).system
    x1_0, x2_0 = np.ones(problem.n1), np.ones(problem.n2)

    def blocks(count):
        for member_id in range(count):
            yield member_id, closed_loop_sim(
                system, problem.known, regulator, x1_0, x2_0, horizon=2000
            )

    def peak(count):
        tracemalloc.start()
        try:
            write_trajectories_csv(tmp_path / f"{count}.csv", blocks(count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, many = peak(1), peak(20)
    assert many <= 3 * one
    text = (tmp_path / "20.csv").read_text()
    assert text.count("\n") == 1 + 20 * 2001
    assert text.endswith(",19\n")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    problem = regulable_instance(4).problem
    path = tmp_path / "problem.json"
    save_problem(path, problem)
    save_problem(path, problem)
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]

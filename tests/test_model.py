"""Data containers, validation, the compatible family and the numerical policy."""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

from ddreg import (
    CompatibleSet,
    DimensionError,
    InconsistentDataError,
    KnownMatrices,
    NonFiniteError,
    Problem,
    ProblemData,
    build_problem,
    compatible_set,
    compatible_set_unknown_a3,
    member_at,
    sample_members,
)
from ddreg import analysis, lmi, model, simulation
from ddreg.examples import fixture_text
from ddreg.fileio import parse_problem
from ddreg.model import RESIDUAL_RTOL, rank_from_singular_values, within_tolerance

from _instances import coupling_free_instance, inconsistent_problem, regulable_instance


def scalar_problem():
    return parse_problem(fixture_text("scalar")).problem


def truncated_problem(seed):
    """Consistent instance with fewer samples than n2 + m, so r > 0."""
    instance = regulable_instance(seed)
    d = instance.problem.data
    tau = d.n2
    data = ProblemData(
        U_minus=d.U_minus[:, :tau],
        X1_minus=d.X1_minus[:, :tau],
        X2=d.X2[:, : tau + 1],
    )
    return build_problem(data, instance.problem.known)


def test_known_matrices_classify_a_huge_exosystem_without_a_warning():
    # A1's spectrum is classified when the known matrices are built.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        known = KnownMatrices(
            A1=1e300 * np.eye(2), A3=None, D1=np.ones((1, 2)), D2=np.ones((1, 1)), E=np.ones((1, 1))
        )
    assert known._a1_anti_stable


def test_problem_data_validates_column_counts():
    with pytest.raises(DimensionError):
        ProblemData(
            U_minus=np.ones((1, 3)),
            X1_minus=np.ones((2, 4)),
            X2=np.ones((1, 4)),
        )
    with pytest.raises(DimensionError):
        ProblemData(
            U_minus=np.ones((1, 3)),
            X1_minus=np.ones((2, 3)),
            X2=np.ones((1, 3)),
        )


def test_problem_data_rejects_non_finite():
    X2 = np.ones((1, 4))
    X2[0, 2] = np.nan
    with pytest.raises(NonFiniteError):
        ProblemData(U_minus=np.ones((1, 3)), X1_minus=np.ones((2, 3)), X2=X2)


def test_problem_data_needs_at_least_one_sample():
    with pytest.raises(DimensionError):
        ProblemData(
            U_minus=np.ones((1, 0)),
            X1_minus=np.ones((2, 0)),
            X2=np.ones((1, 1)),
        )


def test_build_problem_names_offending_pair():
    data = ProblemData(
        U_minus=np.ones((1, 3)), X1_minus=np.ones((2, 3)), X2=np.ones((1, 4))
    )
    known = KnownMatrices(
        A1=np.eye(3),
        A3=np.ones((1, 3)),
        D1=np.ones((1, 3)),
        D2=np.ones((1, 1)),
        E=np.ones((1, 1)),
    )
    with pytest.raises(DimensionError, match="X1_minus"):
        build_problem(data, known)


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"X2": 3}, "X2 must have shape (n2, tau+1) = (2, 5), got (3, 5); n2 is read from D2"),
        (
            {"X1_minus": 2},
            "X1_minus must have shape (n1, tau) = (1, 4), got (2, 4); n1 is read from A1",
        ),
        ({"U_minus": 2}, "U_minus must have shape (m, tau) = (1, 4), got (2, 4); m is read from E"),
    ],
    ids=["X2", "X1_minus", "U_minus"],
)
def test_problem_itself_cross_checks_data_against_known_matrices(rows, message):
    # n1 = m = 1 and n2 = 2 in the known matrices; one data matrix has
    # other rows.  Problem is checked without build_problem.
    sizes = {"U_minus": 1, "X1_minus": 1, "X2": 2} | rows
    data = ProblemData(
        U_minus=np.ones((sizes["U_minus"], 4)),
        X1_minus=np.ones((sizes["X1_minus"], 4)),
        X2=np.ones((sizes["X2"], 5)),
    )
    known = KnownMatrices(
        A1=np.eye(1), A3=np.ones((2, 1)), D1=np.eye(1), D2=np.ones((1, 2)), E=np.eye(1)
    )
    with pytest.raises(DimensionError, match=re.escape(message)):
        Problem(data=data, known=known)


def test_known_matrices_validates_rows():
    with pytest.raises(DimensionError):
        KnownMatrices(
            A1=np.eye(2),
            A3=np.ones((1, 2)),
            D1=np.ones((1, 2)),
            D2=np.ones((2, 1)),
            E=np.ones((1, 1)),
        )


def test_arrays_are_read_only():
    problem = scalar_problem()
    assert not problem.data.X2.flags.writeable
    assert not problem.known.A1.flags.writeable


def test_without_a3_keeps_the_checked_known_matrices(monkeypatch):
    problem = regulable_instance(0).problem
    calls = []

    def counting(function):
        def counted(name, *args):
            calls.append((function.__name__, name))
            return function(name, *args)
        return counted

    monkeypatch.setattr(model, "_as_matrix", counting(model._as_matrix))
    monkeypatch.setattr(model, "require_shape", counting(model.require_shape))
    withheld = problem.without_a3()
    assert calls == []
    assert withheld.known.A3 is None and problem.known.A3 is not None
    for name in ("A1", "D1", "D2", "E"):
        assert getattr(withheld.known, name) is getattr(problem.known, name)
    assert withheld.data is problem.data


@pytest.mark.parametrize("shape", [(2, 3), (3, 1), (1, 1)])
def test_a_zero_matrix_has_rank_zero(shape):
    s = np.linalg.svd(np.zeros(shape), compute_uv=False)
    assert rank_from_singular_values(s, shape) == 0


def test_kernel_basis_is_orthonormal():
    for seed in range(10):
        problem = regulable_instance(seed).problem
        cset = compatible_set(problem)
        S = np.vstack([cset.S1, cset.S2])
        assert S.shape[1] == cset.r
        if cset.r:
            assert np.linalg.norm(S.T @ S - np.eye(cset.r)) < 1e-12


def test_identifiable_instance_recovers_true_system():
    for seed in range(10):
        instance = regulable_instance(seed)
        cset = compatible_set(instance.problem)
        assert cset.r == 0
        assert np.linalg.norm(cset.A2_part - instance.system.A2) < 1e-8
        assert np.linalg.norm(cset.B2_part - instance.system.B2) < 1e-8


def test_members_match_the_data():
    rng = np.random.default_rng(11)
    for seed in range(5):
        problem = truncated_problem(seed)
        data, known = problem.data, problem.known
        cset = compatible_set(problem)
        assert cset.r == (problem.n2 + problem.m) - np.linalg.matrix_rank(
            np.vstack([data.X2_minus, data.U_minus])
        )
        assert cset.r >= problem.m
        Z = data.X2_plus - known.A3 @ data.X1_minus
        for _ in range(10):
            N = rng.uniform(-10.0, 10.0, (cset.n2, cset.r))
            A2, B2, _ = member_at(cset, N)
            residual = A2 @ data.X2_minus + B2 @ data.U_minus - Z
            assert np.linalg.norm(residual) < 1e-10 * (1.0 + np.linalg.norm(Z))


def test_member_at_rejects_wrong_coordinate_shape():
    cset = compatible_set(scalar_problem())
    with pytest.raises(DimensionError):
        member_at(cset, np.ones((cset.n2, cset.r + 1)))


# The planar family has n2 = 2, m = 1, n1 = 3, r = 1 and tau = 2; each
# edit makes one block disagree with the sizes read from the others.
FAMILY_EDITS = {
    "A2_part": lambda f: f.A2_part[:, :1],
    "B2_part": lambda f: f.B2_part[:1],
    "A3_part": lambda f: f.A3_part[:1],
    "S1": lambda f: f.S1[:1],
    "S2": lambda f: np.hstack([f.S2, f.S2]),
    "S3": lambda f: f.S3[:2],
    "G": lambda f: np.vstack([f.G, f.G[:1]]),  # neither n2+m nor n2+m+n1 rows
    "Z": lambda f: f.Z[:, :-1],
}
FAMILY_MISFITS = {
    "A2_part": "A2_part must have shape (n2, n2) = (2, 2), got (2, 1)",
    "B2_part": "B2_part must have shape (n2, m) = (2, 1), got (1, 1); n2 is read from A2_part",
    "A3_part": "A3_part must have shape (n2, n1) = (2, 3), got (1, 3); n2 is read from A2_part",
    "S1": "S1 must have shape (n2, r) = (2, 1), got (1, 1); n2 is read from A2_part",
    "S2": "S2 must have shape (m, r) = (1, 1), got (1, 2); r is read from S1",
    "S3": "S3 must have shape (n1, r) = (3, 1), got (2, 1); n1 is read from A3_part",
    "G": "G must have shape (n2+m, tau) = (3, 2), got (4, 2)",
    "Z": "Z must have shape (n2, tau) = (2, 2), got (2, 1); tau is read from G",
}


@pytest.mark.parametrize("route", ["replace", "constructor"])
@pytest.mark.parametrize("field", FAMILY_MISFITS)
def test_a_family_whose_blocks_disagree_is_refused_when_it_is_made(field, route):
    # The conditions and verification used to find these, each on its own
    # and only once it was asked to decide; member_at never did.
    family = compatible_set(parse_problem(fixture_text("planar")).problem)
    bad = FAMILY_EDITS[field](family)
    with pytest.raises(DimensionError, match=f"^{re.escape(FAMILY_MISFITS[field])}$"):
        if route == "replace":
            dataclasses.replace(family, **{field: bad})
        else:
            blocks = {f.name: getattr(family, f.name) for f in dataclasses.fields(family)}
            CompatibleSet(**{**blocks, field: bad})


def test_no_member_is_drawn_from_a_family_whose_blocks_disagree():
    # coupling_free_instance(0) has n2 = 3, m = 2, n1 = 2 and r = 2; a
    # one-row S2 used to broadcast over both input columns and move every
    # entry of the member's B2.
    family = compatible_set(coupling_free_instance(0).problem)
    message = "S2 must have shape (m, r) = (2, 2), got (1, 2); m is read from B2_part"
    for draw in (lambda f: member_at(f, np.ones((3, 2))), lambda f: sample_members(f, 4)):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            draw(dataclasses.replace(family, S2=family.S2[:1]))


def planar_family():
    return compatible_set(parse_problem(fixture_text("planar")).problem)


def test_a_family_converts_its_blocks_like_every_container():
    # A list of rows used to end in AttributeError on .ndim.
    family = planar_family()
    converted = dataclasses.replace(family, A2_part=family.A2_part.tolist())
    assert isinstance(converted.A2_part, np.ndarray)
    assert np.array_equal(converted.A2_part, family.A2_part)


@pytest.mark.parametrize("field", model._BLOCKS)
def test_a_family_with_a_non_finite_block_is_refused(field):
    # An all-NaN A2_part used to be accepted, and check_condition2 on it
    # ended in LAPACK's complaints on stderr and an SVD LinAlgError.
    family = planar_family()
    nan = np.full_like(getattr(family, field), np.nan)
    with pytest.raises(NonFiniteError, match=f"^{field} contains non-finite entries$"):
        dataclasses.replace(family, **{field: nan})


@pytest.mark.parametrize(
    "dims, message",
    [
        ((("n2", 2), ("n2", 2)), "A2_part must have shape (n2, n2) = (2, 2), got (2,)"),
        ((("n2", 2), ("tau", None)), "A2_part must have shape (n2, tau) = (2, tau), got (2,)"),
        (
            (("n2", 2), ("m", 3, "E")),
            "A2_part must have shape (n2, m) = (2, 3), got (2,); m is read from E",
        ),
    ],
)
def test_a_shape_error_writes_every_axis_the_array_lacks(dims, message):
    # The expected shape used to be cut to the axes the array has: (2,).
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        model.require_shape("A2_part", np.ones(2), *dims)


def test_inconsistent_data_raises():
    problem = scalar_problem()
    X2 = problem.data.X2.copy()
    X2[0, -1] += 1.0
    data = ProblemData(
        U_minus=problem.data.U_minus, X1_minus=problem.data.X1_minus, X2=X2
    )
    bad = build_problem(data, problem.known)
    with pytest.raises(InconsistentDataError):
        compatible_set(bad)


@pytest.mark.parametrize("build", [compatible_set, compatible_set_unknown_a3])
@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_overflowing_samples_fail_the_consistency_check(build, scale):
    # ||X2_plus|| overflows to inf here, which would make any residual
    # look small next to the bound.
    problem = inconsistent_problem()
    data = problem.data
    scaled = build_problem(
        ProblemData(
            U_minus=scale * data.U_minus, X1_minus=scale * data.X1_minus, X2=scale * data.X2
        ),
        problem.known,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentDataError, match="cannot be checked"):
            build(scaled)


def test_unknown_coupling_family_contains_more_directions():
    problem = scalar_problem()
    cset = compatible_set(problem)
    cset3 = compatible_set_unknown_a3(problem)
    assert cset3.r >= cset.r
    S = np.vstack([cset3.S1, cset3.S2, cset3.S3])
    if cset3.r:
        assert np.linalg.norm(S.T @ S - np.eye(cset3.r)) < 1e-12
    data = problem.data
    rng = np.random.default_rng(5)
    for _ in range(10):
        N = rng.uniform(-5.0, 5.0, (cset3.n2, cset3.r))
        A2, B2, A3 = member_at(cset3, N)
        residual = (
            A2 @ data.X2_minus + B2 @ data.U_minus + A3 @ data.X1_minus
            - data.X2_plus
        )
        assert np.linalg.norm(residual) < 1e-10 * (1.0 + np.linalg.norm(data.X2_plus))


def test_known_coupling_family_has_a_fixed_coupling_block():
    rng = np.random.default_rng(7)
    for problem in [scalar_problem(), truncated_problem(2), truncated_problem(4)]:
        data, known = problem.data, problem.known
        cset = compatible_set(problem)
        assert np.array_equal(cset.S3, np.zeros((problem.n1, cset.r)))
        assert np.array_equal(cset.A3_part, known.A3)
        for _ in range(5):
            N = rng.uniform(-10.0, 10.0, (cset.n2, cset.r))
            A2, B2, A3 = member_at(cset, N)
            assert np.array_equal(A3, known.A3)
            residual = (
                A2 @ data.X2_minus + B2 @ data.U_minus + A3 @ data.X1_minus
                - data.X2_plus
            )
            assert np.linalg.norm(residual) < 1e-10 * (
                1.0 + np.linalg.norm(data.X2_plus)
            )


def test_stripping_a3_gives_the_unknown_coupling_family():
    fields = ("A2_part", "B2_part", "A3_part", "S1", "S2", "S3")
    for problem in [scalar_problem(), truncated_problem(3), regulable_instance(6).problem]:
        known = problem.known
        stripped = build_problem(
            problem.data,
            KnownMatrices(A1=known.A1, A3=None, D1=known.D1, D2=known.D2, E=known.E),
        )
        via_none = compatible_set(stripped)
        via_wrapper = compatible_set_unknown_a3(problem)
        for name in fields:
            assert np.array_equal(getattr(via_none, name), getattr(via_wrapper, name)), name
        assert via_none.residual == via_wrapper.residual


def test_family_is_affine_in_the_coordinate():
    problem = truncated_problem(4)
    cset = compatible_set(problem)
    assert cset.r > 0
    rng = np.random.default_rng(3)
    Na = rng.uniform(-1.0, 1.0, (cset.n2, cset.r))
    Nb = rng.uniform(-1.0, 1.0, (cset.n2, cset.r))
    A2a, B2a, _ = member_at(cset, Na)
    A2b, B2b, _ = member_at(cset, Nb)
    A2m, B2m, _ = member_at(cset, 0.5 * (Na + Nb))
    assert np.allclose(A2m, 0.5 * (A2a + A2b), atol=1e-12)
    assert np.allclose(B2m, 0.5 * (B2a + B2b), atol=1e-12)


def test_compatible_set_shapes():
    problem = scalar_problem()
    cset = compatible_set(problem)
    assert isinstance(cset, CompatibleSet)
    assert cset.A2_part.shape == (problem.n2, problem.n2)
    assert cset.B2_part.shape == (problem.n2, problem.m)
    assert cset.S1.shape == (problem.n2, cset.r)
    assert cset.S2.shape == (problem.m, cset.r)


@pytest.mark.parametrize("reference", [0.0, 1.0, 3.7e5])
def test_within_tolerance_holds_exactly_at_its_bound(reference):
    bound = RESIDUAL_RTOL * (1.0 + reference)
    assert within_tolerance(bound, reference)
    assert not within_tolerance(np.nextafter(bound, np.inf), reference)


def test_no_tolerance_is_a_parameter():
    parameters = {
        compatible_set: ["problem"],
        compatible_set_unknown_a3: ["problem"],
        analysis.spectral_info: ["M"],
        analysis.solve_sylvester: ["A1", "A2", "A3"],
        analysis.check_output_regulated: ["A1", "A2", "A3", "D1", "D2"],
        analysis.solve_classical_regulator: ["A1", "A2", "B2", "A3", "D1", "D2", "E"],
        simulation.decay_check: ["trajectory", "rho_bound"],
        lmi.solve_lmi: ["problem"],
        lmi.LmiProblem: ["X", "Z", "equality_constraints"],
    }
    for function, names in parameters.items():
        assert list(inspect.signature(function).parameters) == names, function.__name__
    for name in ("rho", "margin"):
        with pytest.raises(TypeError):
            lmi.LmiProblem(X=np.eye(1), Z=np.eye(1), **{name: 1.0})

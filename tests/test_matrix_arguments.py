"""Every public function checks the matrices it is given, in one way.

A non-finite or non-real entry ends in NonFiniteError, and a wrong shape
or a 1-d array in DimensionError; either names the argument, and nothing
is printed (LAPACK's error handler prints "On entry to DLASCL ..." when
it is handed a NaN).
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from ddreg import (
    CompatibleSet,
    DimensionError,
    KnownMatrices,
    LmiProblem,
    NonFiniteError,
    ProblemData,
    Regulator,
    TrueSystem,
    assemble_gains,
    build_problem,
    check_output_regulated,
    check_theta,
    closed_loop_sim,
    generate_data,
    member_at,
    solve_classical_regulator,
    solve_sylvester,
    spectral_info,
)
from ddreg.analysis import require_anti_stable
from ddreg.model import require_shape
from ddreg.synthesis import w_residual


def _base():
    """Valid arguments of every entry point: n1 = 2, n2 = 3, m = 1, p = 2, tau = 5."""
    rng = np.random.default_rng(0)
    b = SimpleNamespace(
        A1=np.array([[0.0, 1.0], [-1.0, 0.0]]),  # eigenvalues +-i: anti-stable
        A2=np.diag([0.5, 0.3, 0.1]),
        B2=rng.normal(size=(3, 1)),
        A3=rng.normal(size=(3, 2)),
        D1=rng.normal(size=(2, 2)),
        D2=rng.normal(size=(2, 3)),
        E=rng.normal(size=(2, 1)),
    )
    b.system = TrueSystem(A1=b.A1, A2=b.A2, B2=b.B2, A3=b.A3)
    b.known = KnownMatrices(A1=b.A1, A3=b.A3, D1=b.D1, D2=b.D2, E=b.E)
    b.data = generate_data(b.system, np.ones(2), np.ones(3), rng.normal(size=(1, 5)))
    b.problem = build_problem(b.data, b.known)
    b.regulator = Regulator(K1=np.zeros((1, 2)), K2=np.zeros((1, 3)), provenance="condition2")
    b.cset = CompatibleSet(
        A2_part=b.A2, B2_part=b.B2, A3_part=b.A3, S1=np.zeros((3, 1)),
        S2=np.zeros((1, 1)), S3=np.zeros((2, 1)), residual=0.0,
        G=np.zeros((4, 5)), Z=np.zeros((3, 5)),
    )
    return b


# Entry point -> (function, its valid keyword arguments).
_ENTRY_POINTS = {
    "ProblemData": lambda b: (
        ProblemData, dict(U_minus=b.data.U_minus, X1_minus=b.data.X1_minus, X2=b.data.X2)
    ),
    "KnownMatrices": lambda b: (KnownMatrices, dict(A1=b.A1, A3=b.A3, D1=b.D1, D2=b.D2, E=b.E)),
    "member_at": lambda b: (member_at, dict(cset=b.cset, N=np.ones((3, 1)))),
    "Regulator": lambda b: (
        Regulator,
        dict(K1=np.zeros((1, 2)), K2=np.zeros((1, 3)), provenance="condition2",
             W=np.zeros((5, 2)), Theta=np.zeros((5, 3)), X2_dagger=np.zeros((5, 3))),
    ),
    "spectral_info": lambda b: (spectral_info, dict(M=b.A2)),
    "require_anti_stable": lambda b: (require_anti_stable, dict(A1=b.A1)),
    "solve_sylvester": lambda b: (solve_sylvester, dict(A1=b.A1, A2=b.A2, A3=b.A3)),
    "check_output_regulated": lambda b: (
        check_output_regulated, dict(A1=b.A1, A2=b.A2, A3=b.A3, D1=b.D1, D2=b.D2)
    ),
    "solve_classical_regulator": lambda b: (
        solve_classical_regulator,
        dict(A1=b.A1, A2=b.A2, B2=b.B2, A3=b.A3, D1=b.D1, D2=b.D2, E=b.E),
    ),
    "assemble_gains": lambda b: (
        assemble_gains, dict(T=np.ones((3, 2)), V=np.ones((1, 2)), K2=np.ones((1, 3)))
    ),
    "LmiProblem": lambda b: (
        LmiProblem,
        dict(X=b.data.X2_minus, Z=b.data.X2_plus, equality_constraints=(b.data.X1_minus,)),
    ),
    "check_theta": lambda b: (
        check_theta,
        dict(problem=LmiProblem(X=b.data.X2_minus, Z=b.data.X2_plus), Theta=np.ones((5, 3))),
    ),
    "TrueSystem": lambda b: (TrueSystem, dict(A1=b.A1, A2=b.A2, B2=b.B2, A3=b.A3)),
    "generate_data": lambda b: (
        generate_data,
        dict(system=b.system, x1_0=np.ones(2), x2_0=np.ones(3), inputs=b.data.U_minus),
    ),
    "closed_loop_sim": lambda b: (
        closed_loop_sim,
        dict(system=b.system, known=b.known, regulator=b.regulator,
             x1_0=np.ones(2), x2_0=np.ones(3), horizon=20),
    ),
    "w_residual": lambda b: (w_residual, dict(problem=b.problem, W=np.zeros((5, 2)))),
}

# (entry point, argument, the axis a wrong shape grows).  A grown axis is
# one the other arguments fix; "vector" arguments take a 1-d array and
# grow by one entry; None marks matrices that only have to be finite.
_ARGUMENTS = [
    ("ProblemData", "U_minus", 1), ("ProblemData", "X1_minus", 1), ("ProblemData", "X2", 1),
    ("KnownMatrices", "A1", 1), ("KnownMatrices", "A3", 1), ("KnownMatrices", "D1", 1),
    ("KnownMatrices", "D2", 1), ("KnownMatrices", "E", 0),
    ("member_at", "N", 1),
    ("Regulator", "K1", 0), ("Regulator", "K2", 0),
    ("Regulator", "W", None), ("Regulator", "Theta", None), ("Regulator", "X2_dagger", None),
    ("spectral_info", "M", 1), ("require_anti_stable", "A1", 1),
    ("solve_sylvester", "A1", 1), ("solve_sylvester", "A2", 1), ("solve_sylvester", "A3", 1),
    ("check_output_regulated", "A1", 1), ("check_output_regulated", "A2", 1),
    ("check_output_regulated", "A3", 1), ("check_output_regulated", "D1", 1),
    ("check_output_regulated", "D2", 1),
    ("solve_classical_regulator", "A1", 1), ("solve_classical_regulator", "A2", 1),
    ("solve_classical_regulator", "B2", 0), ("solve_classical_regulator", "A3", 1),
    ("solve_classical_regulator", "D1", 1), ("solve_classical_regulator", "D2", 1),
    ("solve_classical_regulator", "E", 1),
    ("assemble_gains", "T", 1), ("assemble_gains", "V", 1), ("assemble_gains", "K2", 1),
    ("LmiProblem", "X", 1), ("LmiProblem", "Z", 1), ("LmiProblem", "equality_constraints", 1),
    ("check_theta", "Theta", 1),
    ("TrueSystem", "A1", 1), ("TrueSystem", "A2", 1), ("TrueSystem", "B2", 0),
    ("TrueSystem", "A3", 1),
    ("generate_data", "inputs", 0), ("generate_data", "x1_0", "vector"),
    ("generate_data", "x2_0", "vector"),
    ("closed_loop_sim", "x1_0", "vector"), ("closed_loop_sim", "x2_0", "vector"),
    ("w_residual", "W", 1),
]


def _faults(axis) -> tuple[str, ...]:
    if axis is None:
        return ("non-finite", "not real")
    if axis == "vector":
        return ("non-finite", "not real", "wrong shape")
    return ("non-finite", "not real", "wrong shape", "1-d")


_CASES = [
    pytest.param(entry, argument, axis, fault, id=f"{entry}-{argument}-{fault}")
    for entry, argument, axis in _ARGUMENTS
    for fault in _faults(axis)
]


def _corrupt(value, fault: str, axis):
    if isinstance(value, tuple):  # equality constraints: corrupt the first
        return (_corrupt(value[0], fault, axis),) + value[1:]
    value = np.array(value, dtype=float)
    if fault == "non-finite":
        value.flat[0] = np.nan
        return value
    if fault == "not real":
        value = value.astype(complex)
        value.flat[0] += 1j
        return value
    if fault == "1-d":
        return value.ravel()
    if axis == "vector":
        return np.append(value, 1.0)
    return np.concatenate([value, np.take(value, [0], axis=axis)], axis=axis)


@pytest.mark.parametrize("entry, argument, axis, fault", _CASES)
def test_every_entry_point_names_the_matrix_it_refuses(entry, argument, axis, fault, capfd):
    function, kwargs = _ENTRY_POINTS[entry](_base())
    function(**kwargs)  # the arguments as given are accepted
    kwargs[argument] = _corrupt(kwargs[argument], fault, axis)
    entries = fault in ("non-finite", "not real")
    with pytest.raises(NonFiniteError if entries else DimensionError) as excinfo:
        function(**kwargs)
    assert re.search(rf"\b{argument}\b", str(excinfo.value)), str(excinfo.value)
    if fault == "not real":
        assert str(excinfo.value).startswith(argument), str(excinfo.value)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "value",
    [np.array([[2j]]), [[1j]], [["1.5"]], [[1.0, 2.0], [3.0]], {"M": [[1.0]]}],
    ids=["complex-array", "complex-list", "string", "ragged", "dict"],
)
@pytest.mark.parametrize("entry, argument", [("spectral_info", "M"), ("generate_data", "x1_0")])
def test_a_value_that_is_not_real_numbers_is_named_not_cast(entry, argument, value):
    # numpy used to read 2j as 0 (a stable matrix) and "1.5" as 1.5, and
    # to end the others in a ValueError or TypeError naming no argument.
    function, kwargs = _ENTRY_POINTS[entry](_base())
    kwargs[argument] = value
    with pytest.raises(NonFiniteError, match=f"^{argument} must hold real numbers, got "):
        function(**kwargs)


def test_a_size_read_off_another_matrix_names_that_matrix():
    b = _base()
    with pytest.raises(DimensionError) as excinfo:
        KnownMatrices(A1=b.A1, A3=b.A3, D1=b.D1, D2=np.zeros((2, 0)), E=b.E)
    assert str(excinfo.value) == (
        "A3 must have shape (n2, n1) = (0, 2), got (3, 2); n2 is read from D2"
    )
    with pytest.raises(DimensionError) as excinfo:
        require_shape("K1", np.zeros((1, 1)), ("m", 1), ("n1", 3))
    assert str(excinfo.value) == "K1 must have shape (m, n1) = (1, 3), got (1, 1)"


def _known(n1, n2, m):
    return KnownMatrices(
        A1=np.eye(n1), A3=None, D1=np.ones((2, n1)), D2=np.ones((2, n2)), E=np.ones((2, m))
    )


def _regulator(m, n1, n2):
    return Regulator(K1=np.zeros((m, n1)), K2=np.zeros((m, n2)), provenance="condition2")


@pytest.mark.parametrize(
    "argument, value, name",
    [
        pytest.param("known", _known(1, 3, 1), "known.D1", id="known-n1"),
        pytest.param("known", _known(2, 2, 1), "known.D2", id="known-n2"),
        pytest.param("known", _known(2, 3, 2), "known.E", id="known-m"),
        pytest.param("regulator", _regulator(1, 1, 3), "regulator.K1", id="regulator-n1"),
        pytest.param("regulator", _regulator(1, 2, 2), "regulator.K2", id="regulator-n2"),
        pytest.param("regulator", _regulator(2, 2, 3), "regulator.K1", id="regulator-m"),
    ],
)
def test_closed_loop_sim_requires_system_known_and_regulator_to_agree(argument, value, name):
    b = _base()
    kwargs = dict(system=b.system, known=b.known, regulator=b.regulator,
                  x1_0=np.ones(2), x2_0=np.ones(3), horizon=20)
    kwargs[argument] = value
    with pytest.raises(DimensionError, match=rf"^{re.escape(name)} must have shape"):
        closed_loop_sim(**kwargs)

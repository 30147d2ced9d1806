"""Invariances of the informativity decision that the theory guarantees.

A change of endosystem coordinates x2 -> S x2 and of input coordinates
u -> R u, with S and R orthogonal, maps the compatible family onto the
family of the transformed data, so the verdict stays and the gains map as
K1 -> R K1, K2 -> R K2 S^T.  Scaling every data matrix by c > 0 scales
each trajectory of a linear system, so the verdict stays; the gains may
move, because the Riccati design weighs the right-inverse with a unit
weight that does not scale with the data.  Every regulator synthesized
along the way must pass verification over its whole compatible family.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg import (
    KnownMatrices,
    ProblemData,
    SynthesisConfig,
    build_problem,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
)

from _instances import coupling_free_instance, regulable_instance

PROPERTY_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None
)

# (instance kind, coupling mode): coupling-free instances are run with
# their true coupling handed over, and regulable ones with it withheld.
CASES = [
    ("regulable", "known"),
    ("regulable", "unknown"),
    ("coupling_free", "known"),
    ("coupling_free", "unknown"),
]


def _problem(kind, mode, index):
    instance = (regulable_instance if kind == "regulable" else coupling_free_instance)(index)
    problem = instance.problem
    A3 = instance.system.A3 if mode == "known" else None
    known = problem.known
    return build_problem(
        problem.data, KnownMatrices(A1=known.A1, A3=A3, D1=known.D1, D2=known.D2, E=known.E)
    )


def _synthesize(problem, order):
    """Synthesize, and check that a returned regulator passes verification."""
    run = synthesize_unknown_a3 if problem.known.A3 is None else synthesize
    result = run(problem, SynthesisConfig(try_order=order))
    if result.regulator is not None:
        report = verify_regulator(result.regulator, result.family, problem.known)
        assert report.passed, report.residuals
    return result


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _transformed(problem, S, R, c):
    data, known = problem.data, problem.known
    return build_problem(
        ProblemData(
            U_minus=c * (R @ data.U_minus),
            X1_minus=c * data.X1_minus,
            X2=c * (S @ data.X2),
        ),
        KnownMatrices(
            A1=known.A1,
            A3=None if known.A3 is None else S @ known.A3,
            D1=known.D1,
            D2=known.D2 @ S.T,
            E=known.E @ R.T,
        ),
    )


# Trying condition 1 first lets its output-zeroing constraint decide too.
cases = st.tuples(
    st.sampled_from(CASES),
    st.integers(0, 9),
    st.sampled_from(["condition2_first", "condition1_first"]),
)


@PROPERTY_SETTINGS
@given(case=cases, seed=st.integers(0, 2**32 - 1))
def test_orthogonal_coordinate_changes_keep_the_verdict_and_map_the_gains(case, seed):
    (kind, mode), index, order = case
    problem = _problem(kind, mode, index)
    rng = np.random.default_rng(seed)
    S, R = _orthogonal(rng, problem.n2), _orthogonal(rng, problem.m)
    base = _synthesize(problem, order)
    moved = _synthesize(_transformed(problem, S, R, 1.0), order)
    assert (moved.regulator is None) == (base.regulator is None)
    assert moved.report.chosen_condition == base.report.chosen_condition
    if base.regulator is None:
        return
    for name, expected in [
        ("K1", R @ base.regulator.K1),
        ("K2", R @ base.regulator.K2 @ S.T),
    ]:
        got = getattr(moved.regulator, name)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected)), name


@PROPERTY_SETTINGS
@given(case=cases, c=st.floats(0.25, 4.0))
def test_scaling_all_data_keeps_the_verdict(case, c):
    (kind, mode), index, order = case
    problem = _problem(kind, mode, index)
    base = _synthesize(problem, order)
    scaled = _synthesize(
        _transformed(problem, np.eye(problem.n2), np.eye(problem.m), c), order
    )
    assert (scaled.regulator is None) == (base.regulator is None)
    assert scaled.report.chosen_condition == base.report.chosen_condition

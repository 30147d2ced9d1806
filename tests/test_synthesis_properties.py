"""Invariances of the informativity decision that the theory guarantees.

A change of endosystem coordinates x2 -> S x2 and of input coordinates
u -> R u, with S and R orthogonal, maps the compatible family onto the
family of the transformed data, so the verdict stays and the gains map as
K1 -> R K1, K2 -> R K2 S^T.  Scaling every data matrix by c > 0 scales
each trajectory of a linear system, so the verdict stays; the gains may
move, because the Riccati design weighs the right-inverse with a unit
weight that does not scale with the data.  Every regulator synthesized
along the way must pass verification over its whole compatible family.
Adding samples or giving the coupling A3 can only shrink the family, so
neither takes informativity away.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddreg import (
    InconsistentDataError,
    KnownMatrices,
    ProblemData,
    SingularOperatorError,
    build_problem,
    check_condition1,
    compatible_set,
    compatible_set_unknown_a3,
    synthesize,
    synthesize_unknown_a3,
    verify_regulator,
)
from ddreg.model import rank_from_singular_values

from _instances import (
    BADLY_SCALED,
    coupling_free_instance,
    ladder_problems,
    regulable_instance,
    scaled_experiment,
)

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


def _verified(regulator, family, problem):
    if regulator is not None:
        report = verify_regulator(regulator, family, problem.known)
        assert report.passed, report.residuals


def _synthesize(problem):
    """Synthesize, and check that a returned regulator passes verification."""
    run = synthesize_unknown_a3 if problem.known.A3 is None else synthesize
    result = run(problem)
    _verified(result.regulator, result.family, problem)
    return result


def _condition1(problem):
    """Condition 1 on its own, so its output-zeroing constraint decides too."""
    family = compatible_set(problem)
    outcome = check_condition1(family, problem.known)
    _verified(outcome.regulator, family, problem)
    return outcome


def _assert_gains_map(base, moved, S, R):
    for name, expected in [("K1", R @ base.K1), ("K2", R @ base.K2 @ S.T)]:
        got = getattr(moved, name)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected)), name


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


cases = st.tuples(st.sampled_from(CASES), st.integers(0, 9))


@PROPERTY_SETTINGS
@given(case=cases, seed=st.integers(0, 2**32 - 1))
def test_orthogonal_coordinate_changes_keep_the_verdict_and_map_the_gains(case, seed):
    (kind, mode), index = case
    problem = _problem(kind, mode, index)
    rng = np.random.default_rng(seed)
    S, R = _orthogonal(rng, problem.n2), _orthogonal(rng, problem.m)
    transformed = _transformed(problem, S, R, 1.0)
    base, moved = _synthesize(problem), _synthesize(transformed)
    assert (moved.regulator is None) == (base.regulator is None)
    assert moved.report.chosen_condition == base.report.chosen_condition
    if base.regulator is not None:
        _assert_gains_map(base.regulator, moved.regulator, S, R)
    base1, moved1 = _condition1(problem), _condition1(transformed)
    assert moved1.holds == base1.holds
    if base1.holds:
        _assert_gains_map(base1.regulator, moved1.regulator, S, R)


@PROPERTY_SETTINGS
@given(case=cases, c=st.floats(0.25, 4.0))
def test_scaling_all_data_keeps_the_verdict(case, c):
    (kind, mode), index = case
    problem = _problem(kind, mode, index)
    scaled_problem = _transformed(problem, np.eye(problem.n2), np.eye(problem.m), c)
    base, scaled = _synthesize(problem), _synthesize(scaled_problem)
    assert (scaled.regulator is None) == (base.regulator is None)
    assert scaled.report.chosen_condition == base.report.chosen_condition
    assert _condition1(scaled_problem).holds == _condition1(problem).holds


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1), n2=st.integers(1, 5), m=st.integers(1, 3),
    n1=st.integers(1, 3), extra=st.integers(0, 3), k=st.integers(0, 8),
)
def test_an_identified_family_has_a_full_rank_x2_minus(seed, n2, m, n1, extra, k):
    # The decision takes rank(X2_minus) = n2 without an SVD when r = 0:
    # X2_minus is a block of rows of G, so sigma_min(X2_minus) >=
    # sigma_min(G), and its cutoff is no larger than that of G.
    problem = scaled_experiment(seed, n2, m, n1, extra, k)
    X = problem.data.X2_minus
    rank = rank_from_singular_values(np.linalg.svd(X, compute_uv=False), X.shape)
    for build in (compatible_set, compatible_set_unknown_a3):
        try:
            family = build(problem)
        except InconsistentDataError:
            continue
        if family.r == 0:
            assert rank == n2


@pytest.mark.parametrize("args", BADLY_SCALED)
def test_a_singular_operator_is_named_for_what_was_measured(args):
    # The spectra lie well apart; the guard trips on the operator's
    # conditioning, and its message says so rather than that they intersect.
    problem = scaled_experiment(*args)
    result = synthesize(problem)
    family = result.family
    A_cl = family.A2_part + family.B2_part @ result.regulator.K2
    gap = np.abs(np.linalg.eigvals(problem.known.A1)[:, None] - np.linalg.eigvals(A_cl)).min()
    assert gap > 0.04
    message = (
        r"^the Sylvester operator of A1 and A2 is numerically singular "
        r"\(sigma_min/max\(1, sigma_max\) = \d\.\de-1[0-2] <= 1e-09\); "
        r"the spectra nearly intersect or the data are badly scaled$"
    )
    with pytest.raises(SingularOperatorError, match=message):
        verify_regulator(result.regulator, family, problem.known)


def _decisions():
    """(problem, decide) of 238 decisions.

    The regulable instances 0-99 and the ladder are decided in both
    coupling modes, the coupling-free instances 0-19 with it unknown.
    """
    for seed in range(100):
        problem = regulable_instance(seed).problem
        yield problem, synthesize
        yield problem, synthesize_unknown_a3
    for seed in range(20):
        yield coupling_free_instance(seed).problem, synthesize_unknown_a3
    for _, problem in ladder_problems():
        yield problem, synthesize
        yield problem, synthesize_unknown_a3


def _prefix(problem, tau):
    data = problem.data
    return build_problem(
        ProblemData(data.U_minus[:, :tau], data.X1_minus[:, :tau], data.X2[:, : tau + 1]),
        problem.known,
    )


def test_once_a_prefix_is_informative_every_longer_prefix_is():
    # A system consistent with the run is consistent with each prefix, so
    # the family shrinks as samples are added.
    prefixes = 0
    for problem, decide in _decisions():
        verdicts = [
            decide(_prefix(problem, tau)).regulator is not None
            for tau in range(1, problem.tau + 1)
        ]
        assert verdicts == sorted(verdicts), verdicts
        prefixes += len(verdicts)
    assert prefixes == 1401


def test_informative_with_the_coupling_withheld_implies_informative_with_it_known():
    # Giving A3 can only shrink the family; 33 of the 100 are informative
    # with it withheld.
    withheld = 0
    for seed in range(100):
        problem = regulable_instance(seed).problem
        if synthesize_unknown_a3(problem).regulator is not None:
            withheld += 1
            assert synthesize(problem).regulator is not None, seed
    assert withheld > 0


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-10])
def test_a_perturbation_of_x2_below_the_tolerance_keeps_the_decision(eps):
    # Two or more decades below RESIDUAL_RTOL: no verdict or chosen
    # condition moves, and no perturbed run is refused as inconsistent.
    rng = np.random.default_rng(0)
    for problem, decide in _decisions():
        data = problem.data
        X2 = data.X2 * (1.0 + eps * rng.standard_normal(data.X2.shape))
        moved = build_problem(ProblemData(data.U_minus, data.X1_minus, X2), problem.known)
        chosen = decide(problem).report.chosen_condition
        assert decide(moved).report.chosen_condition == chosen

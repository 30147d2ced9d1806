"""The benchmark's generators against the test suite's, and its reference verdicts."""

import numpy as np
import pytest

import ddreg
from perfbench import instances as gen
from perfbench.reference import pbh_stabilizable, reference

from _instances import coupling_free_instance, regulable_instance


def _matrices(problem, system):
    data, known = problem.data, problem.known
    return {
        "A1": known.A1, "A3": system.A3, "D1": known.D1, "D2": known.D2, "E": known.E,
        "U": data.U_minus, "X1": data.X1_minus, "X2": data.X2,
        "A2": system.A2, "B2": system.B2,
    }


def _assert_bitwise(inst, expected):
    mine = {
        "A1": inst.A1, "A3": inst.A3, "D1": inst.D1, "D2": inst.D2, "E": inst.E,
        "U": inst.U, "X1": inst.X1, "X2": inst.X2, "A2": inst.A2, "B2": inst.B2,
    }
    for key, value in expected.items():
        assert mine[key].shape == value.shape and np.array_equal(mine[key], value), (
            f"{inst.name}: {key} differs from the test generator"
        )


def test_corpus_matches_test_generator_bitwise_at_seed_0():
    corpus = gen.corpus_set(0)
    assert len(corpus) == 100
    for k, inst in enumerate(corpus):
        theirs = regulable_instance(k)
        _assert_bitwise(inst, _matrices(theirs.problem, theirs.system))
        assert theirs.problem.known.A3 is not None and inst.a3_known


def test_coupling_free_matches_test_generator_bitwise_at_seed_0():
    instances = gen.coupling_free_set(0)
    assert len(instances) == 20
    for k, inst in enumerate(instances):
        theirs = coupling_free_instance(k)
        _assert_bitwise(inst, _matrices(theirs.problem, theirs.system))
        assert theirs.problem.known.A3 is None and not inst.a3_known


@pytest.mark.parametrize("make", [gen.corpus_set, gen.coupling_free_set])
def test_nonzero_seed_moves_every_instance(make):
    for base, moved in zip(make(0), make(3)):
        assert base.name == moved.name
        for key in ("D1", "D2", "E"):
            a, b = getattr(base, key), getattr(moved, key)
            assert not np.allclose(a, b), f"{moved.name}: {key} did not move"
    first, again = make(3), make(3)
    assert all(np.array_equal(a.X2, b.X2) for a, b in zip(first, again))


def test_recoordinated_instance_is_the_same_experiment():
    base = gen.regulable(5)
    moved = gen.recoordinate(base, 7, 5)
    X2m, X2p = moved.X2[:, :-1], moved.X2[:, 1:]
    residual = X2p - (moved.A2 @ X2m + moved.B2 @ moved.U + moved.A3 @ moved.X1)
    assert np.abs(residual).max() < 1e-12

    def output(i):
        return i.D1 @ i.X1 + i.D2 @ i.X2[:, :-1] + i.E @ i.U

    # z -> P z with P orthogonal keeps the output norm at every sample.
    assert np.allclose(
        np.linalg.norm(output(base), axis=0), np.linalg.norm(output(moved), axis=0)
    )


def test_reference_verdicts_confirmed_on_every_constructed_instance():
    solver = ddreg.analysis.solve_classical_regulator
    for inst in gen.corpus_set(0) + gen.coupling_free_set(0) + gen.ladder_set():
        ref = reference(inst, solver)
        assert ref.informative is True and ref.confirmed, f"{inst.name}: {ref.detail}"


def test_pbh_flags_an_unreachable_unstable_mode():
    A = np.diag([2.0, 0.5])
    assert not pbh_stabilizable(A, np.array([[0.0], [1.0]]))
    assert pbh_stabilizable(A, np.array([[1.0], [0.0]]))

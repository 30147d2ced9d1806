"""Data collection, closed-loop runs and the decay check."""

import numpy as np
import pytest

from ddreg import (
    DimensionError,
    Trajectory,
    TrueSystem,
    closed_loop_sim,
    compatible_set,
    compatible_set_unknown_a3,
    decay_check,
    generate_data,
    horizon_for_radius,
    sample_members,
    sample_members_unknown_a3,
    synthesize,
)
from ddreg import ProblemData, build_problem

from _instances import coupling_free_instance, regulable_instance


def test_generated_data_match_the_recursions():
    instance = regulable_instance(0)
    data = instance.problem.data
    system = instance.system
    stepped = (
        system.A2 @ data.X2_minus
        + system.B2 @ data.U_minus
        + system.A3 @ data.X1_minus
    )
    assert np.allclose(stepped, data.X2_plus, atol=1e-12)
    for t in range(data.tau - 1):
        assert np.allclose(
            system.A1 @ data.X1_minus[:, t], data.X1_minus[:, t + 1], atol=1e-12
        )


def test_generate_data_validates_inputs():
    instance = regulable_instance(0)
    system = instance.system
    with pytest.raises(DimensionError):
        generate_data(
            system,
            np.ones(system.n1),
            np.ones(system.n2),
            np.ones((system.m + 1, 4)),
        )
    with pytest.raises(DimensionError):
        generate_data(
            system, np.ones(system.n1), np.ones(system.n2), np.ones((system.m, 0))
        )


def test_closed_loop_columns_are_consistent():
    instance = regulable_instance(1)
    problem = instance.problem
    regulator = synthesize(problem).regulator
    known = problem.known
    trajectory = closed_loop_sim(
        instance.system,
        known,
        regulator,
        np.ones(problem.n1),
        np.ones(problem.n2),
        horizon=30,
    )
    assert trajectory.horizon == 30
    u = regulator.K1 @ trajectory.x1 + regulator.K2 @ trajectory.x2
    assert np.allclose(trajectory.u, u, atol=1e-12)
    z = known.D1 @ trajectory.x1 + known.D2 @ trajectory.x2 + known.E @ trajectory.u
    assert np.allclose(trajectory.z, z, atol=1e-12)
    step = (
        instance.system.A2 @ trajectory.x2[:, :-1]
        + instance.system.B2 @ trajectory.u[:, :-1]
        + instance.system.A3 @ trajectory.x1[:, :-1]
    )
    assert np.allclose(step, trajectory.x2[:, 1:], atol=1e-10)


def test_horizon_for_radius_bounds_and_monotonicity():
    assert horizon_for_radius(0.0) == 20
    assert horizon_for_radius(0.99) == 500
    assert horizon_for_radius(2.0) == 500
    previous = 0
    for rho in np.linspace(0.1, 0.9, 9):
        steps = horizon_for_radius(float(rho))
        assert 20 <= steps <= 500
        assert steps >= previous
        previous = steps


def geometric_trajectory(rate, n_steps):
    z = rate ** np.arange(n_steps)
    zeros = np.zeros((1, n_steps))
    return Trajectory(x1=zeros, x2=zeros, u=zeros, z=z[None, :])


def test_decay_check_accepts_matching_rate():
    result = decay_check(geometric_trajectory(0.5, 60), rho_bound=0.5)
    assert result.passes
    assert abs(result.fitted_rate - 0.5) < 1e-6
    assert result.terminal_norm < 1e-12


def test_decay_check_rejects_slow_decay():
    result = decay_check(geometric_trajectory(0.9, 60), rho_bound=0.5)
    assert not result.passes
    assert result.fitted_rate > 0.55


def test_decay_check_rejects_nonvanishing_terminal():
    z = 0.5 ** np.arange(60) + 1e-3
    zeros = np.zeros((1, 60))
    trajectory = Trajectory(x1=zeros, x2=zeros, u=zeros, z=z[None, :])
    result = decay_check(trajectory, rho_bound=0.5)
    assert not result.passes


def test_decay_check_needs_enough_samples():
    with pytest.raises(DimensionError):
        decay_check(geometric_trajectory(0.5, 10), rho_bound=0.5)


def test_decay_check_handles_floored_tail():
    z = 0.5 ** np.arange(40)
    z[18:] = 0.0
    zeros = np.zeros((1, 40))
    trajectory = Trajectory(x1=zeros, x2=zeros, u=zeros, z=z[None, :])
    result = decay_check(trajectory, rho_bound=0.5)
    assert result.passes
    assert result.fitted_rate == 0.0


def output_trajectory(z):
    z = np.atleast_2d(z)
    zeros = np.zeros((1, z.shape[1]))
    return Trajectory(x1=zeros, x2=zeros, u=zeros, z=z)


def roundoff_floored(rate):
    # A slow loop whose output bottoms out at a roundoff floor of 2e-14.
    t = np.arange(horizon_for_radius(0.9) + 1)
    noise = 2e-14 * np.random.default_rng(0).uniform(0.5, 1.5, size=t.size)
    return output_trajectory(0.5 * rate**t + noise)


def damped_oscillation(n_steps=40):
    t = np.arange(n_steps)
    return 0.54**t * np.cos(0.49 * np.pi * t + 13 * np.pi / 18)


def test_decay_check_ignores_a_roundoff_floor_above_the_absolute_one():
    result = decay_check(roundoff_floored(0.9), rho_bound=0.9)
    assert result.passes
    assert abs(result.fitted_rate - 0.9) < 0.01


def test_decay_check_still_rejects_slow_decay_on_a_floor():
    assert not decay_check(roundoff_floored(0.96), rho_bound=0.9).passes


def test_decay_check_fits_the_envelope_of_an_oscillating_output():
    result = decay_check(output_trajectory(damped_oscillation()), rho_bound=0.54)
    assert result.passes
    assert abs(result.fitted_rate - 0.54) < 0.01


def test_decay_check_rejects_a_slow_mode_beside_an_oscillating_one():
    z = np.vstack([damped_oscillation(), 0.62 ** np.arange(40)])
    result = decay_check(output_trajectory(z), rho_bound=0.54)
    assert not result.passes
    assert result.fitted_rate > 0.6


def test_sampled_members_satisfy_the_data():
    instance = regulable_instance(3)
    d = instance.problem.data
    tau = d.n2
    data = ProblemData(
        U_minus=d.U_minus[:, :tau],
        X1_minus=d.X1_minus[:, :tau],
        X2=d.X2[:, : tau + 1],
    )
    problem = build_problem(data, instance.problem.known)
    cset = compatible_set(problem)
    assert cset.r > 0
    Z = data.X2_plus - problem.known.A3 @ data.X1_minus
    members = sample_members(cset, 7, seed=1)
    assert len(members) == 7
    for A2, B2 in members:
        residual = A2 @ data.X2_minus + B2 @ data.U_minus - Z
        assert np.linalg.norm(residual) < 1e-9 * (1.0 + np.linalg.norm(Z))
    spread = max(
        np.linalg.norm(members[i][0] - members[0][0]) for i in range(1, 7)
    )
    assert spread > 1e-3


def test_sampling_an_identified_family_returns_the_single_member():
    instance = regulable_instance(4)
    cset = compatible_set(instance.problem)
    assert cset.r == 0
    members = sample_members(cset, 9)
    assert len(members) == 1
    assert np.allclose(members[0][0], instance.system.A2, atol=1e-8)


def test_sampling_unknown_coupling_triples():
    instance = coupling_free_instance(1)
    data = instance.problem.data
    cset = compatible_set_unknown_a3(instance.problem)
    assert cset.r >= 1
    triples = sample_members_unknown_a3(cset, 6, seed=2)
    assert len(triples) == 6
    for A2, B2, A3 in triples:
        residual = (
            A2 @ data.X2_minus + B2 @ data.U_minus + A3 @ data.X1_minus
            - data.X2_plus
        )
        assert np.linalg.norm(residual) < 1e-9 * (
            1.0 + np.linalg.norm(data.X2_plus)
        )


def test_sample_members_rejects_nonpositive_count():
    instance = regulable_instance(5)
    cset = compatible_set(instance.problem)
    with pytest.raises(ValueError):
        sample_members(cset, 0)


def test_true_system_validates_shapes():
    with pytest.raises(DimensionError):
        TrueSystem(
            A1=np.eye(2),
            A2=np.eye(2),
            B2=np.ones((2, 1)),
            A3=np.ones((1, 2)),
        )

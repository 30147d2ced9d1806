"""Seeded generators for regulable test instances.

Instances are built backwards so that regulation is achievable by
construction: the endosystem and a target invariant pair are drawn
first, the coupling and output matrices are back-solved to make the
regulator equations hold, and the data come from a short open-loop run
of the resulting true system.
"""

from __future__ import annotations

import runpy
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from ddreg import (
    KnownMatrices,
    Problem,
    ProblemData,
    Regulator,
    TrueSystem,
    build_problem,
    generate_data,
)
from ddreg.analysis import unvec, vec


@dataclass(frozen=True, eq=False)
class Instance:
    """A generated problem with its ground truth attached."""

    problem: Problem
    system: TrueSystem
    T: np.ndarray
    V: np.ndarray


def exosystem(n1: int, rng) -> np.ndarray:
    """Random matrix with every eigenvalue on the unit circle."""
    blocks = []
    left = n1
    while left >= 2 and rng.uniform() < 0.7:
        angle = rng.uniform(0.2, np.pi - 0.2)
        c, s = np.cos(angle), np.sin(angle)
        blocks.append(np.array([[c, s], [-s, c]]))
        left -= 2
    while left > 0:
        blocks.append(np.array([[rng.choice([-1.0, 1.0])]]))
        left -= 1
    A = scipy.linalg.block_diag(*blocks)
    Q, _ = np.linalg.qr(rng.standard_normal((n1, n1)))
    return Q.T @ A @ Q


def regulable_instance(seed: int, extra_samples: int | None = None) -> Instance:
    """Known-coupling instance whose true system is regulable.

    T and V are drawn freely and A3, D1 are back-solved so (T, V) solves
    the regulator equations exactly.  With tau >= n2 + m and generic
    inputs the data identify the endosystem (r = 0).
    """
    rng = np.random.default_rng(seed)
    n2 = int(rng.integers(1, 5))
    n1 = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    A1 = exosystem(n1, rng)
    A2 = rng.uniform(-1.0, 1.0, (n2, n2))
    B2 = rng.uniform(-1.0, 1.0, (n2, m))
    T = rng.uniform(-1.0, 1.0, (n2, n1))
    V = rng.uniform(-1.0, 1.0, (m, n1))
    A3 = T @ A1 - A2 @ T - B2 @ V
    D2 = rng.uniform(-1.0, 1.0, (p, n2))
    E = rng.uniform(-1.0, 1.0, (p, m))
    D1 = -(D2 @ T + E @ V)
    system = TrueSystem(A1=A1, A2=A2, B2=B2, A3=A3)
    known = KnownMatrices(A1=A1, A3=A3, D1=D1, D2=D2, E=E)
    if extra_samples is None:
        extra_samples = int(rng.integers(0, 3))
    tau = n2 + m + extra_samples
    data = generate_data(
        system,
        rng.uniform(-1.0, 1.0, n1),
        rng.uniform(-1.0, 1.0, n2),
        rng.uniform(-1.0, 1.0, (m, tau)),
    )
    return Instance(problem=build_problem(data, known), system=system, T=T, V=V)


def _lqr_gain(A2, B2):
    n2, m = B2.shape
    try:
        P = scipy.linalg.solve_discrete_are(A2, B2, np.eye(n2), np.eye(m))
    except (np.linalg.LinAlgError, ValueError):
        return None
    F = -np.linalg.solve(B2.T @ P @ B2 + np.eye(m), B2.T @ P @ A2)
    if np.abs(np.linalg.eigvals(A2 + B2 @ F)).max() >= 0.999:
        return None
    return F


def moved_along_null_space(problem, solution) -> np.ndarray:
    """A second feasible Theta: the solver's plus t N 1, N spanning the null space of [X; C_k].

    X Theta and every C_k Theta are unchanged, and the block changes only
    off its diagonal, by t ||Z N 1||_2 = min_eig / 4 in norm, so by Weyl's
    inequality the block keeps at least three quarters of its margin.
    """
    N = scipy.linalg.null_space(np.vstack((problem.X,) + problem.equality_constraints))
    step = N @ np.ones((N.shape[1], problem.n))
    t = 0.25 * solution.min_eig / np.linalg.norm(problem.Z @ step, 2)
    return solution.Theta + t * step


def scale_instance(n2: int, k: int) -> Instance:
    """The scale family S(n2, k): n1 = 3, m = 4, p = 2, tau = n2 + 6, r = 0.

    Drawn from default_rng(1000 + k) in the order of regulable_instance:
    A2 is standard normal scaled to spectral radius 1.1, B2 standard
    normal, and A3, D1 are back-solved from uniform T, V, D2, E.  The
    pair (A2, B2) is stabilizable, so every instance is informative.
    """
    rng = np.random.default_rng(1000 + k)
    n1, m, p = 3, 4, 2
    A1 = exosystem(n1, rng)
    A2 = rng.standard_normal((n2, n2))
    A2 *= 1.1 / np.abs(np.linalg.eigvals(A2)).max()
    B2 = rng.standard_normal((n2, m))
    T = rng.uniform(-1.0, 1.0, (n2, n1))
    V = rng.uniform(-1.0, 1.0, (m, n1))
    A3 = T @ A1 - A2 @ T - B2 @ V
    D2 = rng.uniform(-1.0, 1.0, (p, n2))
    E = rng.uniform(-1.0, 1.0, (p, m))
    D1 = -(D2 @ T + E @ V)
    system = TrueSystem(A1=A1, A2=A2, B2=B2, A3=A3)
    known = KnownMatrices(A1=A1, A3=A3, D1=D1, D2=D2, E=E)
    data = generate_data(
        system,
        rng.uniform(-1.0, 1.0, n1),
        rng.uniform(-1.0, 1.0, n2),
        rng.uniform(-1.0, 1.0, (m, n2 + 6)),
    )
    return Instance(problem=build_problem(data, known), system=system, T=T, V=V)


LONG_RUNS = (10, 100, 500, 1000, 2000, 4000)


def long_run_instance(tau: int) -> Instance:
    """The long-run plant L(tau): n2 = 4, m = 2, n1 = 2, p = 1, r = 0.

    A1 is the rotation by 0.3 rad.  From default_rng(7): A2 standard
    normal scaled to spectral radius 0.9, B2 standard normal, T and V
    uniform with A3 back-solved, D2 and E uniform with D1 = -(D2 T + E V).
    Then, for each run of LONG_RUNS shorter than tau and for tau itself,
    the same generator draws the inputs (2 x tau), x1(0) and x2(0), all
    uniform in [-1, 1], and the data of the last run are returned.
    """
    rng = np.random.default_rng(7)
    c, s = np.cos(0.3), np.sin(0.3)
    A1 = np.array([[c, -s], [s, c]])
    A2 = rng.standard_normal((4, 4))
    A2 *= 0.9 / np.abs(np.linalg.eigvals(A2)).max()
    B2 = rng.standard_normal((4, 2))
    T = rng.uniform(-1.0, 1.0, (4, 2))
    V = rng.uniform(-1.0, 1.0, (2, 2))
    A3 = T @ A1 - A2 @ T - B2 @ V
    D2 = rng.uniform(-1.0, 1.0, (1, 4))
    E = rng.uniform(-1.0, 1.0, (1, 2))
    D1 = -(D2 @ T + E @ V)
    system = TrueSystem(A1=A1, A2=A2, B2=B2, A3=A3)
    known = KnownMatrices(A1=A1, A3=A3, D1=D1, D2=D2, E=E)
    for run in (*(run for run in LONG_RUNS if run < tau), tau):
        U = rng.uniform(-1.0, 1.0, (2, run))
        x1, x2 = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 4)
    data = generate_data(system, x1, x2, U)
    return Instance(problem=build_problem(data, known), system=system, T=T, V=V)


def coupling_free_instance(seed: int) -> Instance:
    """Unknown-coupling instance whose enlarged family has free directions.

    Inputs are collected under u = F x2 + G x1 with F stabilizing, so
    the input rows are linear in the state rows: the data stay exact
    while the family of (A2, B2, A3) triples keeps m kernel directions.
    W exists because the state feedback makes the closed-loop data
    coupling-free by construction, and D1 is back-solved from W.
    """
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n2 = int(rng.integers(1, 4))
        n1 = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        A1 = exosystem(n1, rng)
        A2 = rng.uniform(-1.0, 1.0, (n2, n2))
        B2 = rng.uniform(-1.0, 1.0, (n2, m))
        A3 = rng.uniform(-1.0, 1.0, (n2, n1))
        F = _lqr_gain(A2, B2)
        if F is None:
            continue
        G = 0.3 * rng.standard_normal((m, n1))
        tau = n2 + n1 + 2
        x1 = rng.uniform(-1.0, 1.0, n1)
        x2 = rng.uniform(-1.0, 1.0, n2)
        X1 = np.empty((n1, tau))
        X2 = np.empty((n2, tau + 1))
        U = np.empty((m, tau))
        X2[:, 0] = x2
        for t in range(tau):
            u = F @ x2 + G @ x1
            X1[:, t] = x1
            U[:, t] = u
            x2 = A2 @ x2 + B2 @ u + A3 @ x1
            x1 = A1 @ x1
            X2[:, t + 1] = x2
        X2m, X2p = X2[:, :-1], X2[:, 1:]
        if np.linalg.matrix_rank(np.vstack([X2m, X1])) < n2 + n1:
            continue
        I1 = np.eye(n1)
        lhs = np.vstack(
            [np.kron(A1.T, X2m) - np.kron(I1, X2p), np.kron(I1, X1)]
        )
        rhs = np.concatenate([np.zeros(n2 * n1), vec(I1)])
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        if np.linalg.norm(lhs @ sol - rhs) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
            continue
        W = unvec(sol, (tau, n1))
        D2 = rng.uniform(-1.0, 1.0, (p, n2))
        E = rng.uniform(-1.0, 1.0, (p, m))
        D1 = -(D2 @ X2m + E @ U) @ W
        data = ProblemData(U_minus=U, X1_minus=X1, X2=X2)
        known = KnownMatrices(A1=A1, A3=None, D1=D1, D2=D2, E=E)
        system = TrueSystem(A1=A1, A2=A2, B2=B2, A3=A3)
        return Instance(
            problem=build_problem(data, known),
            system=system,
            T=X2m @ W,
            V=U @ W,
        )
    raise RuntimeError(f"no coupling-free instance found for seed {seed}")


def scaled_experiment(seed, n2, m, n1, extra, k) -> Problem:
    """One open-loop run of a random system, every row rescaled by 10^e, |e| <= k.

    Rescaling the rows of x2, u and x1 is a change of coordinates, so the
    data stay consistent; tau = n2 + m + n1 + extra leaves room for r = 0
    in both coupling modes.
    """
    rng = np.random.default_rng(seed)
    tau = n2 + m + n1 + extra
    A2 = rng.standard_normal((n2, n2)) / np.sqrt(n2)
    B2, A3 = rng.standard_normal((n2, m)), rng.standard_normal((n2, n1))
    U, X1 = rng.standard_normal((m, tau)), rng.standard_normal((n1, tau))
    X2 = np.empty((n2, tau + 1))
    X2[:, 0] = rng.standard_normal(n2)
    for t in range(tau):
        X2[:, t + 1] = A2 @ X2[:, t] + B2 @ U[:, t] + A3 @ X1[:, t]
    s2, su, s1 = (10.0 ** rng.integers(-k, k + 1, size=n) for n in (n2, m, n1))
    known = KnownMatrices(
        A1=np.eye(n1), A3=s2[:, None] * A3 / s1, D1=np.ones((1, n1)),
        D2=np.ones((1, n2)), E=np.ones((1, m)),
    )
    data = ProblemData(U_minus=su[:, None] * U, X1_minus=s1[:, None] * X1, X2=s2[:, None] * X2)
    return build_problem(data, known)


# (seed, n2, m, n1, extra, k) of scaled_experiment whose synthesized
# closed loop A_cl keeps sigma(A1) and sigma(A_cl) 0.047-1.0 apart, while
# the Sylvester operator of A1 and A_cl has sigma_min/sigma_max of
# 4.5e-12-3.3e-10: verification's singularity guard refuses it.
BADLY_SCALED = [
    (982492895, 3, 1, 1, 3, 3),
    (3716098959, 5, 1, 2, 2, 3),
    (1978838861, 3, 1, 3, 1, 3),
    (2327356202, 4, 1, 3, 0, 3),
]


# (seed, n2, m, n1, extra, k) of scaled_experiment, known coupling: condition
# 2 holds, the closed loop is stable and the family is identified (r = 0),
# yet the output residual of the gains is about 1e-3, so verification fails.
UNVERIFIED = (3021645853, 5, 2, 3, 1, 4)


def ladder_problems(n2: int | None = None) -> list[tuple[str, Problem]]:
    """(name, problem) of the benchmark's ladder, of every size or of size n2."""
    gen = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"))
    return [
        (inst.name, gen["to_problem"](inst))
        for inst in gen["ladder_set"]()
        if n2 is None or inst.X2.shape[0] == n2
    ]


def inconsistent_problem() -> Problem:
    """Scalar data that no system could have produced.

    U_minus equals X2_minus, so [A2 B2] [X2_minus; U_minus] can only be
    a multiple of X2_minus, yet X2_plus is not one: the consistency
    residual is about 3.07.
    """
    data = ProblemData(
        U_minus=np.array([[1.0, 2.0, 0.5]]),
        X1_minus=np.array([[1.0, 1.0, 1.0]]),
        X2=np.array([[1.0, 2.0, 0.5, 3.0]]),
    )
    known = KnownMatrices(
        A1=np.array([[1.0]]),
        A3=np.array([[0.0]]),
        D1=np.array([[1.0]]),
        D2=np.array([[-1.0]]),
        E=np.array([[0.0]]),
    )
    return build_problem(data, known)


def no_exosystem_problem() -> Problem:
    """A known-coupling problem with n1 = 0, informative via condition 2."""
    A2, B2 = np.array([[1.2, 0.3], [0.0, 0.5]]), np.array([[1.0], [0.5]])
    U = np.array([[0.3, -1.1, 0.7, 0.2]])
    X2 = np.zeros((2, 5))
    X2[:, 0] = [1.0, -1.0]
    for t in range(4):
        X2[:, t + 1] = A2 @ X2[:, t] + B2 @ U[:, t]
    data = ProblemData(U_minus=U, X1_minus=np.zeros((0, 4)), X2=X2)
    known = KnownMatrices(
        A1=np.zeros((0, 0)), A3=np.zeros((2, 0)), D1=np.zeros((1, 0)), D2=[[1.0, 0.0]], E=[[0.0]]
    )
    return build_problem(data, known)


# Planar fixture: m = 1, n1 = 3, n2 = 2.  Each case gives the named gain
# the wrong shape; with m + 1 rows both gains change and K1 is named.
WRONG_GAIN_SHAPES = [("K1", (1, 1)), ("K1", (1, 4)), ("K2", (1, 1)), ("K2", (1, 3)), ("K1", (2, 3))]
PLANAR_GAIN_SHAPES = {"K1": "(m, n1) = (1, 3)", "K2": "(m, n2) = (1, 2)"}


def wrong_shape_regulator(field, shape):
    rows = shape[0]
    gains = {"K1": np.zeros((rows, 3)), "K2": np.zeros((rows, 2))}
    gains[field] = np.full(shape, 0.5)
    return Regulator(provenance="condition2", **gains)

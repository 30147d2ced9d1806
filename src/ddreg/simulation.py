"""Trajectory generation, closed-loop simulation and decay checks.

Dynamics: x1(t+1) = A1 x1(t), x2(t+1) = A2 x2(t) + B2 u(t) + A3 x1(t),
z(t) = D1 x1(t) + D2 x2(t) + E u(t).  Open-loop simulation collects the
data matrices a synthesis run consumes; closed-loop simulation applies a
regulator to a concrete member and the decay check validates the
regulated output empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CompatibleSet,
    DimensionError,
    KnownMatrices,
    NonFiniteError,
    ProblemData,
    Regulator,
    _as_matrix,
    _as_real,
    _as_square,
    _assign,
    _made,
    member_at,
    require_shape,
)

__all__ = [
    "TrueSystem",
    "Trajectory",
    "DecayResult",
    "generate_data",
    "closed_loop_sim",
    "decay_check",
    "horizon_for_radius",
    "sample_members",
    "sample_members_unknown_a3",
    "MAX_RADIUS",
]

# The largest sampling radius: the width 2 * radius of [-radius, radius] must be a double.
MAX_RADIUS = float(np.finfo(float).max) / 2

# Roundoff floor of ||z||: an absolute floor, and a floor relative to the
# peak that applies only within a factor of the final value.
_ZERO_FLOOR = 1e-14
_PEAK_FLOOR = 1e-12
_FLOOR_SPREAD = 10.0
# Allowed excess of the fitted rate over rho_bound; terminal ||z|| bound.
_RATE_SLACK = 0.05
_TERMINAL_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class TrueSystem:
    """A concrete interconnection used for simulation."""

    A1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    A3: np.ndarray

    def __post_init__(self):
        A1, n1 = _as_square("A1", self.A1, "n1")
        A2, n2 = _as_square("A2", self.A2, "n2")
        B2 = _as_matrix("B2", self.B2, n2, ("m", None))
        _assign(self, A1=A1, A2=A2, B2=B2, A3=_as_matrix("A3", self.A3, n2, n1))

    @property
    def n1(self) -> int:
        return self.A1.shape[0]

    @property
    def n2(self) -> int:
        return self.A2.shape[0]

    @property
    def m(self) -> int:
        return self.B2.shape[1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled closed-loop run, columns indexed by t = 0..horizon."""

    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray
    z: np.ndarray

    @property
    def horizon(self) -> int:
        return self.x1.shape[1] - 1


@dataclass(frozen=True, eq=False)
class DecayResult:
    """Outcome of the empirical decay test."""

    passes: bool
    fitted_rate: float
    terminal_norm: float


def _column(name: str, v, rows: tuple) -> np.ndarray:
    """The entries of v as a finite vector with the length of the dim rows."""
    return _as_matrix(name, _as_real(name, v).reshape(-1, 1), rows, ("1", 1))[:, 0]


def generate_data(system: TrueSystem, x1_0, x2_0, inputs) -> ProblemData:
    """Simulate the open-loop interconnection and collect data matrices.

    inputs is m x tau; the returned ProblemData holds the applied inputs,
    the exosystem samples x1(0..tau-1) and the endosystem samples
    x2(0..tau).  The inputs and the initial states must be finite; a
    system that diverges past double precision within the run raises
    NonFiniteError naming the first step whose state is not finite.
    """
    U = _as_matrix("inputs", inputs, ("m", system.m, "system.B2"), ("tau", None))
    tau = U.shape[1]
    if tau < 1:
        raise DimensionError("inputs must contain at least one sample")
    x1 = _column("x1_0", x1_0, ("n1", system.n1, "system.A1"))
    x2 = _column("x2_0", x2_0, ("n2", system.n2, "system.A2"))
    X1 = np.empty((system.n1, tau))
    X2 = np.empty((system.n2, tau + 1))
    X2[:, 0] = x2
    # A state that overflows is reported below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(tau):
            X1[:, t] = x1
            x2 = system.A2 @ x2 + system.B2 @ U[:, t] + system.A3 @ x1
            x1 = system.A1 @ x1
            X2[:, t + 1] = x2
    finite = np.isfinite(X2).all(axis=0)
    finite[:-1] &= np.isfinite(X1).all(axis=0)
    if not finite.all():
        raise NonFiniteError(
            f"the simulated state is not finite from step {int(np.argmin(finite))} "
            f"of {tau}: the system diverges past double precision"
        )
    return _made(ProblemData, U_minus=U, X1_minus=X1, X2=X2)


def closed_loop_sim(
    system: TrueSystem,
    known: KnownMatrices,
    regulator: Regulator,
    x1_0,
    x2_0,
    horizon: int,
) -> Trajectory:
    """Run u = K1 x1 + K2 x2 on a concrete member for the given horizon.

    The member supplies the dynamics (A2, B2 and its own A3); the output
    matrices D1, D2, E come from the known part.  Raises DimensionError
    unless system, known and regulator agree on n1, n2 and m.
    """
    m = ("m", system.m, "system.B2")
    n1, n2 = ("n1", system.n1, "system.A1"), ("n2", system.n2, "system.A2")
    require_shape("known.D1", known.D1, ("p", None), n1)
    require_shape("known.D2", known.D2, ("p", None), n2)
    require_shape("known.E", known.E, ("p", None), m)
    require_shape("regulator.K1", regulator.K1, m, n1)
    require_shape("regulator.K2", regulator.K2, m, n2)
    if horizon < 1:
        raise DimensionError("horizon must be at least 1")
    x1, x2 = _column("x1_0", x1_0, n1), _column("x2_0", x2_0, n2)
    K1, K2 = regulator.K1, regulator.K2
    D1, D2, E = known.D1, known.D2, known.E
    n_steps = horizon + 1
    X1 = np.empty((system.n1, n_steps))
    X2 = np.empty((system.n2, n_steps))
    U = np.empty((K1.shape[0], n_steps))
    Zout = np.empty((D1.shape[0], n_steps))
    # A member that diverges runs on to inf or nan; decay_check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps):
            u = K1 @ x1 + K2 @ x2
            X1[:, t] = x1
            X2[:, t] = x2
            U[:, t] = u
            Zout[:, t] = D1 @ x1 + D2 @ x2 + E @ u
            if t < horizon:
                x2 = system.A2 @ x2 + system.B2 @ u + system.A3 @ x1
                x1 = system.A1 @ x1
    return Trajectory(x1=X1, x2=X2, u=U, z=Zout)


def horizon_for_radius(rho: float) -> int:
    """Horizon long enough for a radius-rho loop to decay below 1e-9."""
    rate = rho + 0.05
    if rate >= 1.0:
        return 500
    if rate <= 0.0:
        return 20
    steps = math.ceil(math.log(1e-9) / math.log(rate))
    return int(min(500, max(20, steps)))


def decay_check(trajectory: Trajectory, rho_bound: float) -> DecayResult:
    """Fit a geometric rate to ||z(t)|| and compare against rho_bound.

    The rate is a least-squares fit of the log of the upper envelope
    max_{s >= t} ||z(s)|| over the tail half of the horizon, so the dips
    of an oscillating output do not bias it; steps whose envelope is at
    the floating-point floor are ignored.  The check passes when the
    fitted rate is at most rho_bound + 0.05 and the terminal norm is
    below 1e-6 * (1 + ||z(0)||).  The trajectory must hold at
    least 20 samples so the tail fit has support.
    """
    with np.errstate(over="ignore"):  # a diverged member's norm is inf
        norms = np.linalg.norm(trajectory.z, axis=0)
    n_steps = norms.shape[0]
    if n_steps < 20:
        raise DimensionError(
            f"trajectory must hold at least 20 samples for the tail fit, got {n_steps}"
        )
    z0 = norms[0]
    terminal = float(norms[-1])
    terminal_ok = terminal < _TERMINAL_RTOL * (1.0 + z0)
    envelope = np.maximum.accumulate(norms[::-1])[::-1]
    tail = envelope[n_steps // 2 :]
    t_tail = np.arange(n_steps // 2, n_steps)
    # A step is at the roundoff floor when its envelope is below an
    # absolute floor, or tiny next to the peak and no longer decaying
    # (within a factor of the final value).
    floor = min(_PEAK_FLOOR * envelope[0], _FLOOR_SPREAD * envelope[-1])
    mask = tail > max(_ZERO_FLOOR, floor)
    if mask.sum() < 2:
        # Output already at the floor on the tail: fully decayed.
        return DecayResult(passes=terminal_ok, fitted_rate=0.0, terminal_norm=terminal)
    slope = np.polyfit(t_tail[mask], np.log(tail[mask]), 1)[0]
    fitted_rate = float(np.exp(slope))
    passes = terminal_ok and fitted_rate <= rho_bound + _RATE_SLACK
    return DecayResult(passes=passes, fitted_rate=fitted_rate, terminal_norm=terminal)


def _sample_members(cset: CompatibleSet, count: int, radius: float, seed: int):
    if count < 1:
        raise ValueError("count must be at least 1")
    if not abs(radius) <= MAX_RADIUS:
        raise ValueError(f"radius must be a number of size at most {MAX_RADIUS!r}, got {radius!r}")
    if cset.r == 0:
        return [(cset.A2_part.copy(), cset.B2_part.copy(), cset.A3_part.copy())]
    rng = np.random.default_rng(seed)
    return [
        member_at(cset, rng.uniform(-radius, radius, size=(cset.n2, cset.r)))
        for _ in range(count)
    ]


def sample_members(
    cset: CompatibleSet, count: int, radius: float = 5.0, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw (A2, B2, A3) members of the family with uniform kernel coordinates.

    With r = 0 the family is a single system and only the particular
    solution is returned, regardless of count.  Raises ValueError when
    count is below 1 or radius is nan or larger in size than MAX_RADIUS.
    """
    return _sample_members(cset, count, radius, seed)


def sample_members_unknown_a3(
    cset: CompatibleSet, count: int, radius: float = 5.0, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Same draws as sample_members; kept for the unknown-coupling callers."""
    return _sample_members(cset, count, radius, seed)

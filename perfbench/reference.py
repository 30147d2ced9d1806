"""Reference verdicts, computed without the program's synthesis code.

An instance built for known coupling is informative when the data
identify the endosystem (rank [X2_minus; U_minus] = n2 + m) and the true
system is regulable.  A coupling-free instance is informative by
construction.  In both cases the construction's claim is confirmed on
the true system by a PBH stabilizability test of (A2, B2) and by the
classical regulator equations.  An instance whose claim the true system
does not confirm makes the whole run untrustworthy, so the caller
reports ``correct: false`` for it rather than scoring the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Instance


@dataclass(frozen=True)
class Reference:
    """Expected verdict (None: no reference) and whether it was confirmed."""

    informative: bool | None
    confirmed: bool
    detail: str


def pbh_stabilizable(A: np.ndarray, B: np.ndarray, rtol: float = 1e-9) -> bool:
    """PBH test: rank [A - lambda I, B] = n for every |lambda| >= 1."""
    n = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(np.hstack([A, B]))))
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1.0:
            continue
        s = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)
        if s[-1] <= rtol * scale:
            return False
    return True


def identifiable(instance: Instance) -> bool:
    """Whether [X2_minus; U_minus] has full row rank n2 + m."""
    G = np.vstack([instance.X2[:, :-1], instance.U])
    s = np.linalg.svd(G, compute_uv=False)
    tol = max(G.shape) * np.finfo(float).eps * s[0]
    return int(np.sum(s > tol)) == G.shape[0]


def reference(instance: Instance, solve_classical_regulator) -> Reference:
    """Reference verdict for one instance.

    ``solve_classical_regulator`` is ``ddreg.analysis.solve_classical_regulator``,
    passed in so this module imports nothing from the program.
    """
    if instance.informative is None:
        return Reference(None, True, "no reference: A3 withheld from a known-coupling build")
    if instance.a3_known and not identifiable(instance):
        return Reference(None, True, "no reference: data do not identify (A2, B2)")
    stabilizable = pbh_stabilizable(instance.A2, instance.B2)
    classical = solve_classical_regulator(
        instance.A1, instance.A2, instance.B2, instance.A3,
        instance.D1, instance.D2, instance.E,
    )
    confirmed = stabilizable and classical.feasible
    detail = (
        f"PBH stabilizable={stabilizable}, regulator equations residual "
        f"{classical.residual:.1e}"
    )
    return Reference(True, confirmed, detail)

"""Per-eigenvalue PBH test: the reference for the batched lmi._stuck_mode.

Runs one SVD of [Z Xp - lambda I, |Xp| Z N] for each eigenvalue of
Z Xp on or outside the unit circle, in eigenvalue order, with the
solver's scaling and cutoff.
"""

import numpy as np

from ddreg.lmi import _PBH_RTOL, _UNIT_CIRCLE_TOL


def stuck_mode_reference(Z, Xp, N):
    """The first eigenvalue |lambda| >= 1 of Z Xp that no Z N F moves, or None."""
    n = Z.shape[0]
    xp_norm = np.linalg.norm(Xp, 2)
    A0, B0 = Z @ Xp, xp_norm * (Z @ N)
    cutoff = _PBH_RTOL * max(1.0, np.linalg.norm(Z, 2) * xp_norm)
    for lam in np.linalg.eigvals(A0):
        if abs(lam) >= 1.0 - _UNIT_CIRCLE_TOL:
            s = np.linalg.svd(np.hstack([A0 - lam * np.eye(n), B0]), compute_uv=False)
            if s[n - 1] <= cutoff:
                return complex(lam)
    return None

"""Sampled, simulated verification: the reference for verify_regulator.

Draws members of the compatible family with kernel coordinates uniform
in [-radius, radius], and checks each one under the regulator: the
closed loop is stable, the model-based output-regulation test holds, and
a closed-loop simulation shows the output decaying at the data-driven
rate.  It sees only members inside the sampled ball, so it can accept
gains that fail on members outside it.
"""

import numpy as np

from ddreg import (
    TrueSystem,
    check_output_regulated,
    closed_loop_sim,
    decay_check,
    horizon_for_radius,
    sample_members,
    spectral_info,
)


def sampled_verdict(regulator, cset, known, samples, seed=0, radius=5.0, check_decay=True):
    """True when every sampled member (and the particular one) is regulated."""
    K1, K2 = regulator.K1, regulator.K2
    members = sample_members(cset, samples, radius=radius, seed=seed)
    if cset.r > 0:
        members = [(cset.A2_part, cset.B2_part, cset.A3_part)] + members
    rho_bound = spectral_info(cset.A2_part + cset.B2_part @ K2).spectral_radius
    horizon = horizon_for_radius(rho_bound)
    rng = np.random.default_rng([seed, 987654321])
    for A2, B2, A3 in members:
        A_cl = A2 + B2 @ K2
        if not spectral_info(A_cl).spectral_radius < 1.0:
            return False
        regulated = check_output_regulated(
            known.A1,
            A_cl,
            A3 + B2 @ K1,
            known.D1 + known.E @ K1,
            known.D2 + known.E @ K2,
        ).regulated
        if not regulated:
            return False
        if check_decay:
            system = TrueSystem(A1=known.A1, A2=A2, B2=B2, A3=A3)
            x1_0 = rng.uniform(-1.0, 1.0, size=known.n1)
            x2_0 = rng.uniform(-1.0, 1.0, size=A2.shape[0])
            trajectory = closed_loop_sim(system, known, regulator, x1_0, x2_0, horizon)
            if not decay_check(trajectory, rho_bound).passes:
                return False
    return True

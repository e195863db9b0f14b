"""Potential-based reward shaping with a transition model inside the potential term.

    R_shaped(s, a) = R(s, a) + gamma * E_model[phi(s') | s, a] - phi(s)

When the model equals the true kernel, this leaves soft advantages (and
therefore the soft-optimal policy) unchanged, and shifts soft Q values by
exactly phi(s). The two checks here compare soft fixed points already
solved, so a caller solves every reward it checks in one stacked
`soft_value_iteration`.
"""

from __future__ import annotations

import numpy as np

from .mdp import TabularMDP, _check_distribution
from .soft_dp import SoftValues

# Value-iteration tolerance of the invariance checks. A solve stopped at
# residual dp_tol can sit gamma / (1 - gamma) * dp_tol from its fixed point,
# about 1e-8 at gamma 0.99 and dp_tol 1e-10, which is the size of the
# checks' own tolerance; at 1e-12 it is a hundred times smaller.
INVARIANCE_DP_TOL = 1e-12


def shape_reward(mdp: TabularMDP, phi: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The (S, A) table mdp.reward shaped with potential phi under an (S, A, S)
    row-stochastic model kernel."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != mdp.kernel.shape:
        raise ValueError(f"kernel shape {kernel.shape} != {mdp.kernel.shape}")
    _check_distribution(kernel, "kernel")
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (mdp.n_states,):
        raise ValueError(f"phi shape {phi.shape} != ({mdp.n_states},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi entries must be finite")
    expected_phi = (kernel.reshape(-1, mdp.n_states) @ phi).reshape(mdp.n_states, mdp.n_actions)
    return mdp.reward + mdp.discount * expected_phi - phi[:, None]


def check_policy_invariance(values_a: SoftValues, values_b: SoftValues) -> float:
    """Sup-norm gap between the soft advantages of two solved rewards.

    Equal advantages mean equal soft-optimal policies, so this gap is the
    invariance verdict; Q and V absorb any potential shift and need not
    be close.
    """
    return float(np.abs(values_a.adv - values_b.adv).max())


def q_shift_identity_gap(base: SoftValues, shaped: SoftValues, phi: np.ndarray) -> float:
    """Sup-norm defect of Q_base = Q_shaped + phi for solved base and shaped rewards."""
    phi = np.asarray(phi, dtype=np.float64)
    return float(np.abs(base.q - shaped.q - phi[:, None]).max())

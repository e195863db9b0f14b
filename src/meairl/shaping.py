"""Potential-based reward shaping with a transition model inside the potential term.

    R_shaped(s, a) = R(s, a) + gamma * E_model[phi(s') | s, a] - phi(s)

When the model equals the true kernel, this leaves soft advantages (and
therefore the soft-optimal policy) unchanged, and shifts soft Q values by
exactly phi(s). Both facts have dedicated checkers here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import DIST_ATOL, TabularMDP
from .soft_dp import SoftValues, soft_value_iteration

# Value-iteration tolerance of the invariance checks. A solve stopped at
# residual dp_tol can sit gamma / (1 - gamma) * dp_tol from its fixed point,
# about 1e-8 at gamma 0.99 and dp_tol 1e-10, which is the size of the
# checks' own tolerance; at 1e-12 it is a hundred times smaller.
INVARIANCE_DP_TOL = 1e-12


@dataclass
class InvarianceReport:
    """Sup-norm gaps between the soft fixed points of two reward tables."""

    adv_gap: float
    q_gap: float
    v_gap: float
    tol: float
    passed: bool


def _as_kernel_array(dynamics) -> np.ndarray:
    kernel = getattr(dynamics, "kernel", dynamics)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
        raise ValueError(f"dynamics must have shape (S, A, S), got {kernel.shape}")
    sums = kernel.sum(axis=-1)
    if np.any(kernel < 0.0) or float(np.abs(sums - 1.0).max()) > DIST_ATOL:
        raise ValueError("dynamics rows must be probability distributions")
    return kernel


def shape_reward(mdp: TabularMDP, phi: np.ndarray, dynamics) -> np.ndarray:
    """The (S, A) table mdp.reward shaped with potential phi under the given model.

    `dynamics` is an (S, A, S) row-stochastic array or anything exposing
    one as `.kernel` (e.g. a fitted tabular model).
    """
    kernel = _as_kernel_array(dynamics)
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (mdp.n_states,):
        raise ValueError(f"phi shape {phi.shape} != ({mdp.n_states},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi entries must be finite")
    if kernel.shape != mdp.kernel.shape:
        raise ValueError(f"dynamics shape {kernel.shape} != {mdp.kernel.shape}")
    expected_phi = (kernel.reshape(-1, mdp.n_states) @ phi).reshape(mdp.n_states, mdp.n_actions)
    return mdp.reward + mdp.discount * expected_phi - phi[:, None]


def check_policy_invariance(mdp: TabularMDP, reward_a: np.ndarray, reward_b: np.ndarray,
                            tol: float = 1e-8,
                            dp_tol: float = INVARIANCE_DP_TOL) -> InvarianceReport:
    """Compare the soft fixed points of two reward tables on shared dynamics.

    The verdict is on the advantage gap: equal advantages mean equal
    soft-optimal policies. Q and V gaps are reported for diagnosis since
    they absorb any potential shift and need not be small.
    """
    vals_a = soft_value_iteration(mdp.with_reward(reward_a), tol=dp_tol)
    vals_b = soft_value_iteration(mdp.with_reward(reward_b), tol=dp_tol)
    adv_gap = advantage_gap(vals_a, vals_b)
    q_gap = float(np.abs(vals_a.q - vals_b.q).max())
    v_gap = float(np.abs(vals_a.v - vals_b.v).max())
    return InvarianceReport(adv_gap=adv_gap, q_gap=q_gap, v_gap=v_gap, tol=tol,
                            passed=bool(adv_gap <= tol))


def q_shift_identity_gap(mdp: TabularMDP, phi: np.ndarray,
                         dp_tol: float = INVARIANCE_DP_TOL) -> float:
    """Sup-norm defect of Q_R = Q_shaped + phi when shaping uses the true kernel."""
    shaped = shape_reward(mdp, phi, mdp.kernel)
    base = soft_value_iteration(mdp, tol=dp_tol)
    shaped_values = soft_value_iteration(mdp.with_reward(shaped), tol=dp_tol)
    return q_shift_gap(base, shaped_values, phi)


def advantage_gap(values_a: SoftValues, values_b: SoftValues) -> float:
    """Sup-norm gap between the soft advantages of two solved rewards."""
    return float(np.abs(values_a.adv - values_b.adv).max())


def q_shift_gap(base: SoftValues, shaped: SoftValues, phi: np.ndarray) -> float:
    """Sup-norm defect of Q_base = Q_shaped + phi for solved base and shaped rewards."""
    phi = np.asarray(phi, dtype=np.float64)
    return float(np.abs(base.q - shaped.q - phi[:, None]).max())

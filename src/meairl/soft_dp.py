"""Exact soft (entropy-regularized) and hard dynamic programming on tabular MDPs.

These solvers are the oracles everything else is checked against, so the
default tolerances are tight and non-convergence raises instead of
returning junk. The soft backup is

    Q(s,a) = R(s,a) + gamma * E_T[V(s')],   V(s) = logsumexp_a Q(s,a),

whose fixed point gives the soft-optimal policy pi(a|s) = exp(Q - V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import ConvergenceError, TabularMDP, TabularPolicy

ORACLE_TOL = 1e-10
ORACLE_MAX_ITERS = 10 ** 6


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted logsumexp, stable for large magnitudes."""
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


@dataclass
class SoftValues:
    """Soft fixed point: q, v = logsumexp_a q, adv = q - v, final sup-norm residual."""

    q: np.ndarray
    v: np.ndarray
    adv: np.ndarray
    residual: float


@dataclass
class HardValues:
    q: np.ndarray
    v: np.ndarray
    residual: float


def soft_backup(mdp: TabularMDP, q: np.ndarray) -> np.ndarray:
    """One application of the soft Bellman operator."""
    v = logsumexp(q, axis=1)
    return mdp.reward + mdp.discount * (mdp.kernel_2d @ v).reshape(q.shape)


def hard_backup(mdp: TabularMDP, q: np.ndarray) -> np.ndarray:
    v = q.max(axis=1)
    return mdp.reward + mdp.discount * (mdp.kernel_2d @ v).reshape(q.shape)


def _iterate(mdp, backup, tol, max_iters, q_init):
    q = np.zeros((mdp.n_states, mdp.n_actions)) if q_init is None else np.array(q_init, dtype=np.float64)
    res = np.inf
    for _ in range(max_iters):
        q_new = backup(mdp, q)
        res = float(np.abs(q_new - q).max())
        q = q_new
        if res <= tol:
            break
    else:
        raise ConvergenceError(
            f"value iteration: residual {res:.3e} > tol {tol:g} after {max_iters} sweeps",
            residual=res)
    return q, float(np.abs(backup(mdp, q) - q).max())


def soft_value_iteration(mdp: TabularMDP, tol: float = ORACLE_TOL,
                         max_iters: int = ORACLE_MAX_ITERS, q_init=None) -> SoftValues:
    q, residual = _iterate(mdp, soft_backup, tol, max_iters, q_init)
    v = logsumexp(q, axis=1)
    return SoftValues(q=q, v=v, adv=q - v[:, None], residual=residual)


def soft_optimal_policy(values: SoftValues) -> TabularPolicy:
    """pi(a|s) = exp(adv), renormalized so rows sum to one at full precision."""
    probs = np.exp(values.adv)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return TabularPolicy(probs)


def hard_value_iteration(mdp: TabularMDP, tol: float = ORACLE_TOL,
                         max_iters: int = ORACLE_MAX_ITERS, q_init=None) -> HardValues:
    q, residual = _iterate(mdp, hard_backup, tol, max_iters, q_init)
    return HardValues(q=q, v=q.max(axis=1), residual=residual)


def greedy_policy(values: HardValues) -> TabularPolicy:
    """Deterministic argmax policy; ties go to the lowest action index."""
    probs = np.zeros_like(values.q)
    probs[np.arange(values.q.shape[0]), np.argmax(values.q, axis=1)] = 1.0
    return TabularPolicy(probs)


def policy_value(mdp: TabularMDP, policy: TabularPolicy, tol: float = ORACLE_TOL,
                 max_iters: int = ORACLE_MAX_ITERS) -> np.ndarray:
    """Plain discounted value of a fixed policy (no entropy term)."""
    r_pi = np.einsum("sa,sa->s", policy.probs, mdp.reward)
    p_pi = np.einsum("sa,sap->sp", policy.probs, mdp.kernel)
    return _linear_fixed_point(r_pi, p_pi, mdp.discount, tol, max_iters)


def finite_horizon_policy_value(mdp: TabularMDP, policy: TabularPolicy,
                                horizon: int) -> np.ndarray:
    """Exact H-step discounted value of a fixed policy (no entropy term).

    Matches the truncated-episode evaluation protocol, so it is the right
    comparator for empirical returns measured over `horizon` steps.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    r_pi = np.einsum("sa,sa->s", policy.probs, mdp.reward)
    p_pi = np.einsum("sa,sap->sp", policy.probs, mdp.kernel)
    v = np.zeros_like(r_pi)
    for _ in range(horizon):
        v = r_pi + mdp.discount * (p_pi @ v)
    return v


def soft_policy_value(mdp: TabularMDP, policy: TabularPolicy, tol: float = ORACLE_TOL,
                      max_iters: int = ORACLE_MAX_ITERS) -> np.ndarray:
    """Value of a fixed policy including its entropy bonus at every step."""
    probs = policy.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    r_pi = np.einsum("sa,sa->s", probs, mdp.reward) - plogp.sum(axis=1)
    p_pi = np.einsum("sa,sap->sp", probs, mdp.kernel)
    return _linear_fixed_point(r_pi, p_pi, mdp.discount, tol, max_iters)


def _linear_fixed_point(r, p, gamma, tol, max_iters):
    v = np.zeros_like(r)
    res = np.inf
    for _ in range(max_iters):
        v_new = r + gamma * (p @ v)
        res = float(np.abs(v_new - v).max())
        v = v_new
        if res <= tol:
            return v
    raise ConvergenceError(
        f"policy evaluation: residual {res:.3e} > tol {tol:g} after {max_iters} iterations",
        residual=res)

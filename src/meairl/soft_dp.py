"""Exact soft (entropy-regularized) and hard dynamic programming on tabular MDPs.

These solvers are the oracles everything else is checked against, so the
default tolerances are tight and non-convergence raises instead of
returning junk. The soft backup is

    Q(s,a) = R(s,a) + gamma * E_T[V(s')],   V(s) = logsumexp_a Q(s,a),

whose fixed point gives the soft-optimal policy pi(a|s) = exp(Q - V).

`soft_value_iteration`, `hard_value_iteration` and `policy_value` take a
list of (kernel, reward, discount) instances, `discounted_occupancy` a
list of (kernel, init_dist, discount) instances, and a single MDP is a
list of one. Every solver runs one stacked kernel, `_iterate`, over the
instances that share (S, A): a sweep is one `soft_backup` or `hard_backup`
of the whole stack, so each numpy call serves every instance. Each
instance stops at its own sweep, and stacking changes
neither its arithmetic nor its result: an instance solved in a stack
gets, bit for bit, what it gets in a stack of one. Instances are plain
arrays, not validated `TabularMDP`s, so a verifier pays no validation per
instance. Policy evaluation and the discounted occupancy are the
one-action case of the hard backup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mdp import ConvergenceError, TabularMDP, TabularPolicy

ORACLE_TOL = 1e-10
ORACLE_MAX_ITERS = 10 ** 6


def logsumexp(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Max-subtracted logsumexp, stable for large magnitudes.

    The ufunc reductions are what `np.max` and `np.sum` run, minus their
    Python wrappers, which cost as much as the arithmetic on small tables.
    """
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    out = m + np.log(np.add.reduce(np.exp(x - m), axis=axis, keepdims=True))
    return out if keepdims else out.squeeze(axis)


@dataclass
class SoftValues:
    """Soft fixed point: q, v = logsumexp_a q, adv = q - v."""

    q: np.ndarray
    v: np.ndarray
    adv: np.ndarray


@dataclass
class HardValues:
    q: np.ndarray
    v: np.ndarray


class _Stack(NamedTuple):
    """Instances of one (S, A): kernels (B, S*A, S), rewards (B, S, A) and
    discounts (B, S*A, 1), each repeated down its rows so that the product
    with the kernel needs no broadcasting."""

    kernel_2d: np.ndarray
    reward: np.ndarray
    discount: np.ndarray

    def keep(self, rows) -> "_Stack":
        """The stack without the rows not kept, for a stack that owns its kernels.

        Kernels move down inside their own buffer (a row is never read
        after a lower one is written), because a fancy-indexed copy would
        hold the largest array twice.
        """
        kept = np.flatnonzero(rows)
        for dst, src in enumerate(kept):
            if dst != src:
                self.kernel_2d[dst] = self.kernel_2d[src]
        return _Stack(self.kernel_2d[:len(kept)], self.reward[rows], self.discount[rows])


def soft_backup(stack: _Stack, q: np.ndarray) -> np.ndarray:
    """One application of the soft Bellman operator to every instance of a
    stack, q of shape (B, S, A)."""
    v = logsumexp(q, axis=-1, keepdims=True)
    return stack.reward + (stack.discount * (stack.kernel_2d @ v)).reshape(q.shape)


def hard_backup(stack: _Stack, q: np.ndarray) -> np.ndarray:
    v = np.maximum.reduce(q, axis=-1, keepdims=True)
    return stack.reward + (stack.discount * (stack.kernel_2d @ v)).reshape(q.shape)


def _iterate(backup, stack: _Stack, q: np.ndarray, tol, max_iters, what):
    """Sweep every instance of the stack from q until its residual is <= tol.

    An instance's result is its first iterate within tol of the one before,
    and it leaves the stack on that sweep, so the stack is compacted only
    on sweeps where some instance converges. Returns q, ordered like the stack.
    """
    q_out = np.empty_like(q)
    live = np.arange(len(q))
    res = np.full(len(q), np.inf)
    for _ in range(max_iters):
        q_new = backup(stack, q)
        res = np.maximum.reduce(np.abs(q_new - q), axis=(1, 2))
        q = q_new
        if res[res.argmin()] <= tol:  # a third the cost of a ufunc reduction
            done = res <= tol
            q_out[live[done]] = q[done]
            if done.all():
                return q_out
            keep = ~done
            stack, q, live = stack.keep(keep), q[keep], live[keep]
    worst = float(res.max())
    raise ConvergenceError(
        f"{what}: residual {worst:.3e} > tol {tol:g} after {max_iters} sweeps",
        residual=worst)


def _by_shape(arrays) -> list:
    """Indices of the arrays grouped by shape, groups in first-seen order."""
    groups = {}
    for i, array in enumerate(arrays):
        groups.setdefault(array.shape, []).append(i)
    return list(groups.values())


def _solve(backup, instances, q_inits, tol, max_iters, what) -> list:
    """The q of every (kernel, reward, discount) instance, solved in stacks of one (S, A).

    A kernel is (S, A, S), or already flattened to (S*A, S). S is never
    padded to stack unequal instances: a padded kernel changes the BLAS
    reduction and so the last bits.
    """
    out = [None] * len(instances)
    for idx in _by_shape([reward for _, reward, _ in instances]):
        kernels = np.stack([instances[i][0] for i in idx])
        kernels = kernels.reshape(len(idx), -1, kernels.shape[-1])
        discounts = np.array([instances[i][2] for i in idx], dtype=np.float64)
        stack = _Stack(kernels, np.stack([instances[i][1] for i in idx]),
                       np.repeat(discounts[:, None, None], kernels.shape[1], axis=1))
        q = np.zeros(stack.reward.shape) if q_inits is None \
            else np.stack([np.asarray(q_inits[i], dtype=np.float64) for i in idx])
        q = _iterate(backup, stack, q, tol, max_iters, what)
        for j, i in enumerate(idx):
            out[i] = q[j]
    return out


def soft_value_iteration(instances, tol: float = ORACLE_TOL,
                         max_iters: int = ORACLE_MAX_ITERS) -> list:
    """Soft fixed points of (kernel, reward, discount) instances, in their order."""
    out = []
    for q in _solve(soft_backup, instances, None, tol, max_iters, "value iteration"):
        v = logsumexp(q, axis=1)
        out.append(SoftValues(q=q, v=v, adv=q - v[:, None]))
    return out


def soft_optimal_policy(values: SoftValues) -> TabularPolicy:
    """pi(a|s) = exp(adv), renormalized so rows sum to one at full precision."""
    probs = np.exp(values.adv)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return TabularPolicy(probs)


def hard_value_iteration(instances, tol: float = ORACLE_TOL,
                         max_iters: int = ORACLE_MAX_ITERS) -> list:
    """Hard (max) fixed points of (kernel, reward, discount) instances, in their order."""
    return [HardValues(q=q, v=q.max(axis=1))
            for q in _solve(hard_backup, instances, None, tol, max_iters, "value iteration")]


def greedy_policy(values: HardValues) -> TabularPolicy:
    """Deterministic argmax policy; ties go to the lowest action index."""
    probs = np.zeros_like(values.q)
    probs[np.arange(values.q.shape[0]), np.argmax(values.q, axis=1)] = 1.0
    return TabularPolicy(probs)


def policy_value(instances, policies, tol: float = ORACLE_TOL,
                 max_iters: int = ORACLE_MAX_ITERS) -> list:
    """Plain discounted values (no entropy term) of fixed policies.

    policies[i] is the (S, A) probability table evaluated on instances[i].
    Each value is the fixed point of v = r_pi + gamma * P_pi v, the
    one-action hard backup with P_pi as its (S*A, S) = (S, S) kernel.
    """
    evaluations = [(np.einsum("sa,sap->sp", probs, kernel),
                    np.einsum("sa,sa->s", probs, reward)[:, None], gamma)
                   for (kernel, reward, gamma), probs in zip(instances, policies)]
    return [q[:, 0] for q in _solve(hard_backup, evaluations, None, tol, max_iters,
                                    "policy evaluation")]


def discounted_occupancy(instances, policies, tol: float = ORACLE_TOL,
                         max_iters: int = ORACLE_MAX_ITERS) -> list:
    """State-action occupancies d(s,a), each normalized to sum to one.

    instances[i] is a (kernel, init_dist, discount) triple and policies[i]
    the (S, A) probability table run on it. Each state marginal solves
    d = (1-gamma) rho0 + gamma P_pi^T d, the one-action hard backup on the
    transposed kernel, iterated from rho0; then d(s,a) = pi(a|s) d(s).
    """
    flows, starts = [], []
    for (kernel, init_dist, gamma), probs in zip(instances, policies):
        rho0 = np.asarray(init_dist, dtype=np.float64)[:, None]
        flows.append((np.einsum("sa,sap->sp", probs, kernel).T, (1.0 - gamma) * rho0, gamma))
        starts.append(rho0)
    return [probs * d for probs, d in
            zip(policies, _solve(hard_backup, flows, starts, tol, max_iters,
                                 "occupancy iteration"))]


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

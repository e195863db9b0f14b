"""Exact soft (entropy-regularized) and hard dynamic programming on tabular MDPs.

These solvers are the oracles everything else is checked against, so the
default tolerances are tight and non-convergence raises instead of
returning junk. The soft backup is

    Q(s,a) = R(s,a) + gamma * E_T[V(s')],   V(s) = logsumexp_a Q(s,a),

whose fixed point gives the soft-optimal policy pi(a|s) = exp(Q - V).

`soft_value_iteration`, `hard_value_iteration` and `policy_value` take a
list of (kernel, reward, discount) instances, `discounted_occupancy` a
list of (kernel, init_dist, discount) instances, and a single MDP is a
list of one. Every solver runs one engine, `_iterate`, over each class of
instances that share an action count A, swept in lockstep: a sweep is one
`soft_backup` or `hard_backup` of the whole class, whatever its mix of
state counts, so each numpy call serves every instance but the kernel
products, one matmul per (S, A) group. Convergence is checked once per
block of SWEEP_BLOCK sweeps, and each instance's result is still its
first iterate within tol. Grouping changes neither an instance's
arithmetic nor its result: solved among others it gets, bit for bit, what
it gets alone, for A < 8 (see `_solve`). A kernel that does not fit its
reward is a ValueError. Instances are plain arrays, not validated
`TabularMDP`s, so a verifier pays no validation per instance. Policy
evaluation and the discounted occupancy are the one-action case of the
hard backup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import ConvergenceError, TabularMDP, TabularPolicy

ORACLE_TOL = 1e-10
ORACLE_MAX_ITERS = 10 ** 6
SWEEP_BLOCK = 4  # sweeps between convergence checks


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


class _Lockstep:
    """The instances of one action count A, swept side by side.

    The iterate is action-major, (A, N) with N the live instances' total
    state count: instance j owns the columns starts[j]:starts[j] + S_j, and
    the instances of one (S, A) group sit next to each other, so each
    group is one contiguous block with its own (B, S*A, S) kernel stack.
    `ring` holds SWEEP_BLOCK + 1 iterates, slot 0 the one a block starts
    from. Every buffer is allocated once, for the first N, and
    viewed at the live N as converged instances leave.
    """

    def __init__(self, instances, groups, q_inits):
        self.ids = np.array([i for idx in groups for i in idx])
        self.sizes = np.array([instances[i][1].shape[0] for i in self.ids])
        # each instance's (S, A) group, named by its first instance
        self.leaders = np.repeat([idx[0] for idx in groups], [len(idx) for idx in groups])
        self.kernels = [np.stack([instances[i][0].reshape(-1, len(instances[i][1]))
                                  for i in idx], dtype=np.float64) for idx in groups]
        self.reward = np.ascontiguousarray(
            np.concatenate([instances[i][1] for i in self.ids], dtype=np.float64).T)
        self.discount = np.repeat(np.array([instances[i][2] for i in self.ids],
                                           dtype=np.float64), self.sizes)
        n_actions, n = self.reward.shape
        self._ring = np.empty((SWEEP_BLOCK + 1) * n_actions * n)
        self._diff = np.empty(SWEEP_BLOCK * n_actions * n)
        self._ev = np.empty(n * n_actions)
        self._v = np.empty(n)
        self._views()
        if q_inits is None:
            self.ring[0] = 0.0
        else:
            self.ring[0] = np.concatenate(
                [np.asarray(q_inits[i], dtype=np.float64) for i in self.ids]).T

    def _views(self) -> None:
        """Views of the buffers at the live N, and each group's matmul operands."""
        n_actions, n = self.reward.shape
        self.ring = self._ring[:(SWEEP_BLOCK + 1) * n_actions * n].reshape(-1, n_actions, n)
        self.diff = self._diff[:SWEEP_BLOCK * n_actions * n].reshape(-1, n_actions, n)
        self.ev = self._ev[:n * n_actions].reshape(n, n_actions)
        self.v = self._v[:n]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.products, lo = [], 0
        for kernels in self.kernels:
            count, rows, n_states = kernels.shape
            hi = lo + count * n_states
            self.products.append((kernels, self.v[lo:hi].reshape(count, n_states, 1),
                                  self.ev[lo:hi].reshape(count, rows, 1)))
            lo = hi

    def residuals(self, k: int) -> np.ndarray:
        """(k, B): each instance's max |change| at each of the block's k sweeps."""
        diff = self.diff[:k]
        np.subtract(self.ring[1:k + 1], self.ring[:k], out=diff)
        np.abs(diff, out=diff)
        return np.maximum.reduceat(np.maximum.reduce(diff, axis=1), self.starts, axis=1)

    def result(self, j: int, slot: int) -> np.ndarray:
        """Instance j's (S, A) iterate in that slot, copied out of the ring."""
        lo = self.starts[j]
        return self.ring[slot, :, lo:lo + self.sizes[j]].T.copy()

    def keep(self, kept, k: int) -> None:
        """Only the kept instances, from the iterate in slot k, in slot 0.

        Kernels move down inside their own stack (a row is never read after
        a lower one is written), because a fancy-indexed copy would hold the
        largest arrays twice.
        """
        columns = np.repeat(kept, self.sizes)
        last = self.ring[k][:, columns]
        self.reward, self.discount = self.reward[:, columns], self.discount[columns]
        stacks, first = [], 0
        for kernels in self.kernels:
            rows = np.flatnonzero(kept[first:first + len(kernels)])
            first += len(kernels)
            for dst, src in enumerate(rows):
                if dst != src:
                    kernels[dst] = kernels[src]
            if len(rows):
                stacks.append(kernels[:len(rows)])
        self.kernels = stacks
        self.ids, self.sizes = self.ids[kept], self.sizes[kept]
        self.leaders = self.leaders[kept]
        self._views()
        self.ring[0] = last


def _expect(lockstep: _Lockstep, out: np.ndarray) -> None:
    """out = reward + discount * E_T[v] for the v in lockstep.v, one matmul per (S, A) group."""
    for kernels, v, ev in lockstep.products:
        np.matmul(kernels, v, out=ev)
    np.multiply(lockstep.discount, lockstep.ev.T, out=out)
    np.add(lockstep.reward, out, out=out)


def soft_backup(lockstep: _Lockstep, q: np.ndarray, out: np.ndarray) -> None:
    """One soft Bellman backup of every instance of a class, q and out (A, N).

    The action sum runs left to right down axis 0 (see `_solve` on A >= 8).
    """
    m = np.maximum.reduce(q, axis=0)
    np.add(m, np.log(np.add.reduce(np.exp(q - m), axis=0)), out=lockstep.v)
    _expect(lockstep, out)


def hard_backup(lockstep: _Lockstep, q: np.ndarray, out: np.ndarray) -> None:
    np.maximum.reduce(q, axis=0, out=lockstep.v)
    _expect(lockstep, out)


def _iterate(backup, lockstep: _Lockstep, tol, max_iters, out: list) -> dict:
    """Sweep every instance of the class from slot 0 until its residual is <= tol.

    The class is swept in lockstep, SWEEP_BLOCK sweeps to a block, and
    convergence is checked once per block from the ring of its iterates.
    An instance's result, copied into out, is its first iterate within tol
    of the one before, the one a check after every sweep would return;
    converged instances leave at the block's end. Returns, for every
    (S, A) group with an instance still out of tol after max_iters sweeps,
    its leader's index -> the group's largest last residual.
    """
    res = np.full((1, len(lockstep.ids)), np.inf)
    swept = 0
    while swept < max_iters:
        k = min(SWEEP_BLOCK, max_iters - swept)
        ring = lockstep.ring
        for t in range(k):
            backup(lockstep, ring[t], ring[t + 1])
        swept += k
        res = lockstep.residuals(k)
        within = res <= tol
        done = np.logical_or.reduce(within, axis=0)
        if not done.any():
            ring[0] = ring[k]
            continue
        first = within.argmax(axis=0)
        for j in np.flatnonzero(done):
            out[lockstep.ids[j]] = lockstep.result(j, first[j] + 1)
        if done.all():
            return {}
        kept = ~done
        res = res[:, kept]
        lockstep.keep(kept, k)
    leaders = lockstep.leaders
    bounds = np.flatnonzero(np.r_[True, leaders[1:] != leaders[:-1]])
    return dict(zip(leaders[bounds].tolist(),
                    np.maximum.reduceat(res[-1], bounds).tolist()))


def _shape(i: int, kernel, reward) -> tuple:
    """The (S, A) of instance i, whose kernel must be (S, A, S) or (S*A, S)."""
    if reward.ndim == 2 and reward.size:
        n_states, n_actions = reward.shape
        if kernel.shape in ((n_states, n_actions, n_states), (n_states * n_actions, n_states)):
            return reward.shape
    raise ValueError(f"instance {i}: kernel shape {kernel.shape} does not fit reward "
                     f"shape {reward.shape}; want (S, A, S) or (S*A, S) for an (S, A) reward")


def _solve(backup, instances, q_inits, tol, max_iters, what) -> list:
    """The q of every (kernel, reward, discount) instance, solved a class of one A at a time.

    The instances of one action count are swept in lockstep by `_iterate`:
    one backup call per sweep serves every (S, A) group of the class. S
    is never padded and kernel rows are never reordered, so each group's
    matmul gives every row the bits a stack of one gives it, and the
    action reductions run left to right over axis 0, as numpy reduces an
    action axis shorter than 8. From A = 8 up, numpy sums a last axis
    pairwise, so there the soft backup's action sum is left to right
    where a per-instance (S, A) logsumexp would not be. An instance out of
    sweeps raises ConvergenceError for the first (S, A) group, in order of
    first appearance, that has one.
    """
    instances = [(np.asarray(kernel), np.asarray(reward), discount)
                 for kernel, reward, discount in instances]
    groups = {}
    for i, (kernel, reward, _) in enumerate(instances):
        groups.setdefault(_shape(i, kernel, reward), []).append(i)
    classes = {}
    for (_, n_actions), idx in groups.items():
        classes.setdefault(n_actions, []).append(idx)
    out = [None] * len(instances)
    failed = {}
    for class_groups in classes.values():
        failed.update(_iterate(backup, _Lockstep(instances, class_groups, q_inits),
                               tol, max_iters, out))
    if failed:
        worst = failed[min(failed)]
        raise ConvergenceError(
            f"{what}: residual {worst:.3e} > tol {tol:g} after {max_iters} sweeps",
            residual=worst)
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

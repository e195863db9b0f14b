"""Closed-form error bounds for reward transfer under a wrong kernel,
plus brute-force verifiers that check them on random instances.

The construction used throughout: given a value witness V and a support
pattern pi, the reward

    R(s, a) = V(s) - gamma * sum_s' T(s, a, s') V(s') - xi * [a unsupported]

makes every supported action exactly greedy with optimal value V, so the
same witness parameterizes the recovered reward under the true kernel and
under a perturbed one. The sup-norm gap between the two rewards, and the
sup-norm gap between the optimal values of the two reward/kernel pairs,
are both checked against the closed-form bounds with the kernel error
measured as the worst per-row total variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import tv_distance
from .mdp import TabularMDP
from .seeding import as_generator
from .soft_dp import hard_value_iteration

BOUND_DP_SLACK = 1e-8  # absorbs value-iteration tolerance in the pass rule
GAMMA_CHOICES = (0.5, 0.9, 0.99)

SWEEP_CSV_HEADER = "instance_id,gamma,n_states,eps_T,observed_gap,bound,ratio"


def reward_error_bound(gamma: float, n_states: int, eps_t: float, r_max: float) -> float:
    """Sup-norm bound on the recovered-reward gap from kernel error eps_t."""
    return gamma / (1.0 - gamma) * n_states * eps_t * r_max


def performance_difference_bound(gamma: float, n_states: int, eps_t: float,
                                 r_max: float) -> float:
    """Bound on the true-MDP return lost by optimizing under the wrong pair."""
    one = 1.0 - gamma
    return eps_t * (gamma / one ** 2 * r_max + (1.0 + gamma) / one ** 2 * r_max * n_states)


@dataclass
class FeasibleRewardWitness:
    """Value table, per-state supported-action mask, and the penalty margin."""

    v: np.ndarray
    support: np.ndarray  # (S, A) bool, each row has at least one True
    xi: float

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        self.support = np.asarray(self.support, dtype=bool)
        if self.support.ndim != 2 or self.support.shape[0] != self.v.shape[0]:
            raise ValueError(f"support shape {self.support.shape} does not match "
                             f"v shape {self.v.shape}")
        if not self.support.any(axis=1).all():
            raise ValueError("every state needs at least one supported action")
        if self.xi < 0.0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")


def feasible_reward(kernel: np.ndarray, witness: FeasibleRewardWitness,
                    gamma: float) -> np.ndarray:
    """Reward whose hard-optimal values equal the witness under this kernel."""
    kernel = np.asarray(kernel, dtype=np.float64)
    expected_v = kernel @ witness.v  # (S, A)
    reward = witness.v[:, None] - gamma * expected_v
    return reward - witness.xi * (~witness.support)


def perturb_kernel(kernel: np.ndarray, rate: float, rng) -> np.ndarray:
    """Mix each row with an independent flat-Dirichlet draw at the given rate."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    rng = as_generator(rng)
    kernel = np.asarray(kernel, dtype=np.float64)
    n_states, n_actions, _ = kernel.shape
    noise = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    return (1.0 - rate) * kernel + rate * noise


@dataclass
class IrlProblem:
    """A true MDP, a perturbed kernel standing in for a learned model, and
    the witness that generates feasible rewards for both."""

    mdp: TabularMDP
    model_kernel: np.ndarray
    witness: FeasibleRewardWitness
    r_max: float

    @property
    def eps_t(self) -> float:
        return tv_distance(self.mdp.kernel, self.model_kernel)[0]


def random_problem(rng, n_states: int = None, n_actions: int = None,
                   gamma: float = None, r_max: float = 1.0,
                   perturb_rate: float = None) -> IrlProblem:
    rng = as_generator(rng)
    if n_states is None:
        n_states = int(rng.integers(2, 11))
    if n_actions is None:
        n_actions = int(rng.integers(2, 5))
    if gamma is None:
        gamma = float(rng.choice(GAMMA_CHOICES))
    if perturb_rate is None:
        perturb_rate = float(rng.uniform(0.0, 0.3))
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    init_dist = rng.dirichlet(np.ones(n_states))
    v_scale = r_max / (1.0 - gamma)
    v = rng.uniform(-v_scale, v_scale, size=n_states)
    support = rng.random((n_states, n_actions)) < 0.5
    # guarantee one supported action per state
    forced = rng.integers(0, n_actions, size=n_states)
    support[np.arange(n_states), forced] = True
    witness = FeasibleRewardWitness(v=v, support=support,
                                    xi=float(rng.uniform(0.5, 2.0)))
    reward = feasible_reward(kernel, witness, gamma)
    mdp = TabularMDP(kernel, reward, gamma, init_dist)
    model_kernel = perturb_kernel(kernel, perturb_rate, rng)
    return IrlProblem(mdp=mdp, model_kernel=model_kernel, witness=witness, r_max=r_max)


@dataclass
class BoundCheckRow:
    instance_id: int
    gamma: float
    n_states: int
    eps_t: float
    observed_gap: float
    bound: float
    ratio: float
    passed: bool


def verify_reward_error_bound(problem: IrlProblem, instance_id: int = 0) -> BoundCheckRow:
    """Sup-norm gap between rewards recovered under the two kernels.

    The same witness parameterizes both constructions, so the penalty
    term cancels and the gap isolates the kernel error. `random_problem`
    draws the witness inside the premise max|v| <= r_max / (1 - gamma).
    """
    gamma = problem.mdp.discount
    n_states = problem.mdp.n_states
    eps_t = problem.eps_t
    bound = reward_error_bound(gamma, n_states, eps_t, problem.r_max)
    r_true = feasible_reward(problem.mdp.kernel, problem.witness, gamma)
    r_model = feasible_reward(problem.model_kernel, problem.witness, gamma)
    observed = float(np.max(np.abs(r_true - r_model)))
    ratio = observed / bound if bound > 0.0 else 0.0
    return BoundCheckRow(instance_id, gamma, n_states, eps_t, observed, bound,
                         ratio, passed=observed <= bound + 1e-9)


def verify_performance_difference_bound(problems, instance_ids) -> list:
    """Gap between the optimal value vectors of the two reward/kernel pairs,
    one row per problem, with all value iterations stacked.

    Both pairs are built from a shared witness, whose value solves the
    hard Bellman equation exactly in each, so the observed gap sits at
    the solver tolerance; the pass rule carries a small slack for that.
    `problems` may be a generator: only each problem's arrays are kept,
    which keeps the sweep's peak memory down.
    """
    instances, inputs = [], []
    for problem in problems:
        gamma = problem.mdp.discount
        for kernel in (problem.mdp.kernel, problem.model_kernel):
            instances.append((kernel, feasible_reward(kernel, problem.witness, gamma), gamma))
        inputs.append((gamma, problem.mdp.n_states, problem.eps_t, problem.r_max))
    values = hard_value_iteration(instances)
    rows = []
    for i, (gamma, n_states, eps_t, r_max) in enumerate(inputs):
        observed = float(np.max(np.abs(values[2 * i].v - values[2 * i + 1].v)))
        bound = performance_difference_bound(gamma, n_states, eps_t, r_max)
        ratio = observed / bound if bound > 0.0 else 0.0
        rows.append(BoundCheckRow(instance_ids[i], gamma, n_states, eps_t, observed,
                                  bound, ratio, passed=observed <= bound + BOUND_DP_SLACK))
    return rows


def run_bound_sweep(kind: str, n_instances: int, seed: int = 0) -> list:
    """kind is 'reward' or 'performance'; returns one row per instance.

    The performance sweep draws every problem first, in the same order,
    then solves them all at once.
    """
    if kind not in ("reward", "performance"):
        raise ValueError(f"kind must be 'reward' or 'performance', got {kind!r}")
    rng = as_generator(seed)
    if kind == "reward":
        return [verify_reward_error_bound(random_problem(rng), instance_id=i)
                for i in range(n_instances)]
    return verify_performance_difference_bound(
        (random_problem(rng) for _ in range(n_instances)), range(n_instances))


def sweep_csv_text(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.instance_id), repr(r.gamma), str(r.n_states), repr(r.eps_t),
            repr(r.observed_gap), repr(r.bound), repr(r.ratio)]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sweep_csv_text(rows))

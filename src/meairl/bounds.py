"""Closed-form error bounds for reward transfer under a wrong kernel,
plus brute-force verifiers that check them on random instances.

The construction used throughout: given a value witness V and a support
pattern pi, the reward

    R(s, a) = V(s) - gamma * sum_s' T(s, a, s') V(s') - xi * [a unsupported]

makes every supported action exactly greedy with optimal value V, so one
witness gives the reward recovered under the true kernel, r_true, and
under the model kernel, r_model; eps_T is the worst per-row total
variation between the kernels. `run_bound_sweep` draws each random problem
once and checks it against both bounds. The reward gap is
max |r_true - r_model|. The performance gap deploys pi_hat, greedy for
hard value iteration on (T_true, r_model), and is
max_s (V*_true - V^pi_hat_true), both values on (T_true, r_true); it is
evaluated as pi_hat's value under the loss V*_true - Q*_true.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import tv_distance
from .mdp import TabularMDP
from .seeding import as_generator
from .soft_dp import greedy_policy, hard_value_iteration, policy_value

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
    eps_t: float = field(init=False)  # worst-row TV error of the model kernel

    def __post_init__(self):
        self.eps_t = tv_distance(self.mdp.kernel, self.model_kernel)[0]


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
    """The true-MDP value lost by deploying pi_hat, one row per problem,
    with all solves stacked.

    pi_hat is `greedy_policy` of hard value iteration on (T_true, r_model);
    the gap is max_s (V*_true - V^pi_hat_true), both on (T_true, r_true).
    The feasible reward makes Q*_true(s, a) = V(s) - xi * [a unsupported],
    so by the performance difference lemma V*_true - V^pi_hat_true is the
    value of pi_hat under the per-step loss xi * [a unsupported], which one
    `policy_value` evaluates: no two values of size r_max / (1 - gamma) are
    subtracted, and a policy that loses nothing has a gap of exactly zero.
    `problems` may be a generator: only each problem's arrays are kept,
    which keeps the sweep's peak memory down.
    """
    deploy, losses, inputs = [], [], []
    for problem in problems:
        mdp, witness = problem.mdp, problem.witness
        gamma = mdp.discount
        deploy.append((mdp.kernel, feasible_reward(problem.model_kernel, witness, gamma), gamma))
        losses.append((mdp.kernel, witness.xi * ~witness.support, gamma))
        inputs.append((gamma, mdp.n_states, problem.eps_t, problem.r_max))
    policies = [greedy_policy(values).probs for values in hard_value_iteration(deploy)]
    rows = []
    for instance_id, gap, (gamma, n_states, eps_t, r_max) in zip(
            instance_ids, policy_value(losses, policies), inputs):
        observed = float(np.max(gap))
        bound = performance_difference_bound(gamma, n_states, eps_t, r_max)
        ratio = observed / bound if bound > 0.0 else 0.0
        rows.append(BoundCheckRow(instance_id, gamma, n_states, eps_t, observed,
                                  bound, ratio, passed=observed <= bound + BOUND_DP_SLACK))
    return rows


def run_bound_sweep(n_instances: int, seed: int = 0) -> tuple:
    """(reward_rows, performance_rows) of n problems, each drawn once: its
    reward row is taken as it is drawn, its performance row in one stacked
    solve of all of them."""
    rng = as_generator(seed)
    reward_rows = []

    def problems():
        for i in range(n_instances):
            problem = random_problem(rng)
            reward_rows.append(verify_reward_error_bound(problem, instance_id=i))
            yield problem

    performance_rows = verify_performance_difference_bound(problems(), range(n_instances))
    return reward_rows, performance_rows


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

"""Batch verification suites over randomized MDP instances.

Two families: shaping invariance (advantage preservation plus the Q-shift
identity) on rewards shaped through the true kernel, and the identity
between the tabular discriminator's gradient and the MaxEnt-IRL gradient,
against a random expert, under model shaping (the verdict) and under
sample shaping (its defect). Both are driven by a single seed and report
the worst case seen, so the CLI and the acceptance tests share one code
path. Each suite draws every case first, then solves all of them in
stacked value iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adversarial import gradient_alignment_gap
from .bounds import GAMMA_CHOICES
from .mdp import TabularMDP
from .seeding import as_generator
from .shaping import (INVARIANCE_DP_TOL, check_policy_invariance, q_shift_identity_gap,
                      shape_reward)
from .soft_dp import soft_value_iteration


def random_mdp(rng, max_states: int = 10, max_actions: int = 4,
               reward_scale: float = 1.0) -> TabularMDP:
    rng = as_generator(rng)
    n_states = int(rng.integers(2, max_states + 1))
    n_actions = int(rng.integers(2, max_actions + 1))
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(-reward_scale, reward_scale, size=(n_states, n_actions))
    init_dist = rng.dirichlet(np.ones(n_states))
    gamma = float(rng.choice(GAMMA_CHOICES))
    return TabularMDP(kernel, reward, gamma, init_dist)


@dataclass
class InvarianceSuiteReport:
    n_cases: int
    max_adv_gap: float
    max_q_shift_gap: float
    tol: float
    passed: bool
    elapsed_seconds: float

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"invariance suite: {verdict} over {self.n_cases} cases "
                f"(max advantage gap {self.max_adv_gap:.3e}, "
                f"max Q-shift gap {self.max_q_shift_gap:.3e}, tol {self.tol:.1e}, "
                f"{self.elapsed_seconds:.1f}s)")


@dataclass
class AlignmentSuiteReport:
    n_cases: int
    max_gap: float  # under model shaping: the verdict
    max_mce: float  # the largest MCE side, far above tol when the check is not vacuous
    sample_defect: float  # the same gap under sample shaping
    tol: float
    passed: bool
    elapsed_seconds: float

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"alignment suite: {verdict} over {self.n_cases} cases "
                f"(model-shaping gap {self.max_gap:.3e} against max |MCE side| "
                f"{self.max_mce:.3e}, tol {self.tol:.1e}; "
                f"sample-shaping defect {self.sample_defect:.3e}, "
                f"{self.elapsed_seconds:.1f}s)")


def run_invariance_suite(n_cases: int = 200, tol: float = 1e-8, seed: int = 0,
                         dp_tol: float = INVARIANCE_DP_TOL) -> InvarianceSuiteReport:
    """Shape through the true kernel and confirm advantages never move.

    Half the cases use unit-scale potentials, half use potentials up to a
    hundred times the reward scale to stress cancellation.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    rng = as_generator(seed)
    start = time.perf_counter()
    bases, shaped, phis = [], [], []
    for case in range(n_cases):
        mdp = random_mdp(rng)
        phi_scale = 1.0 if case % 2 == 0 else 100.0
        phi = rng.uniform(-phi_scale, phi_scale, size=mdp.n_states)
        bases.append((mdp.kernel, mdp.reward, mdp.discount))
        shaped.append((mdp.kernel, shape_reward(mdp, phi, mdp.kernel), mdp.discount))
        phis.append(phi)
    values = soft_value_iteration(bases + shaped, tol=dp_tol)
    base_values, shaped_values = values[:n_cases], values[n_cases:]
    max_adv = max(check_policy_invariance(a, b)
                  for a, b in zip(base_values, shaped_values))
    max_shift = max(q_shift_identity_gap(a, b, phi)
                    for a, b, phi in zip(base_values, shaped_values, phis))
    elapsed = time.perf_counter() - start
    return InvarianceSuiteReport(n_cases, max_adv, max_shift, tol,
                                 passed=(max_adv <= tol and max_shift <= tol),
                                 elapsed_seconds=elapsed)


def run_alignment_suite(n_cases: int = 50, tol: float = 1e-8, seed: int = 0,
                        dp_tol: float = INVARIANCE_DP_TOL) -> AlignmentSuiteReport:
    """The discriminator-gradient identity on random MDPs, all cases in one check.

    Each case draws a state-only reward and a Dirichlet expert policy, so
    the expert's occupancy differs from the learner's and the MCE side is
    not zero.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    rng = as_generator(seed)
    start = time.perf_counter()
    cases = []
    for _ in range(n_cases):
        mdp = random_mdp(rng)
        g = rng.uniform(-1.0, 1.0, size=mdp.n_states)
        cases.append((mdp, g, rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)))
    gaps = gradient_alignment_gap(cases, dp_tol=dp_tol)
    max_gap = float(gaps.model.max())
    elapsed = time.perf_counter() - start
    return AlignmentSuiteReport(n_cases, max_gap, float(gaps.mce.max()),
                                float(gaps.sample.max()), tol, passed=max_gap <= tol,
                                elapsed_seconds=elapsed)

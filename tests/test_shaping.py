"""Reward shaping: hand values, invariance, the Q-shift identity."""

import numpy as np
import pytest

from helpers import random_mdp
from meairl import (TabularMDP, check_policy_invariance, q_shift_identity_gap,
                    shape_reward, soft_optimal_policy, soft_value_iteration)
from meairl.shaping import INVARIANCE_DP_TOL


def solve_rewards(mdp, *rewards):
    """Soft fixed points of the rewards on mdp's dynamics, in one stacked solve."""
    return soft_value_iteration([(mdp.kernel, reward, mdp.discount) for reward in rewards],
                                tol=INVARIANCE_DP_TOL)


class TestShapeReward:
    def test_zero_potential_is_identity(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng)
        shaped = shape_reward(mdp, np.zeros(mdp.n_states), mdp.kernel)
        assert np.array_equal(shaped, mdp.reward)

    def test_constant_potential_uniform_shift(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng, gamma=0.9)
        c = 3.7
        shaped = shape_reward(mdp, np.full(mdp.n_states, c), mdp.kernel)
        assert np.max(np.abs(shaped - (mdp.reward - (1 - 0.9) * c))) < 1e-12

    def test_hand_dot_product(self):
        kernel = np.zeros((3, 1, 3))
        kernel[0, 0] = [0.2, 0.5, 0.3]
        kernel[1, 0] = [1.0, 0.0, 0.0]
        kernel[2, 0] = [0.0, 0.0, 1.0]
        mdp = TabularMDP(kernel, np.zeros((3, 1)), 0.9, [1.0, 0.0, 0.0])
        shaped = shape_reward(mdp, np.array([1.0, 2.0, 3.0]), kernel)
        assert abs(shaped[0, 0] - 0.89) < 1e-12

    def test_magnitude_bound(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng)
        phi = rng.uniform(-100, 100, size=mdp.n_states)
        shaped = shape_reward(mdp, phi, mdp.kernel)
        cap = np.abs(mdp.reward).max() + (1 + mdp.discount) * np.abs(phi).max()
        assert np.abs(shaped).max() <= cap + 1e-9

    def test_non_stochastic_dynamics_rejected(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng)
        bad = mdp.kernel * 1.1
        with pytest.raises(ValueError):
            shape_reward(mdp, np.zeros(mdp.n_states), bad)

    def test_non_finite_phi_rejected(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng)
        phi = np.zeros(mdp.n_states)
        phi[0] = np.inf
        with pytest.raises(ValueError):
            shape_reward(mdp, phi, mdp.kernel)


class TestPolicyInvariance:
    def test_identity_passes(self):
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng)
        assert check_policy_invariance(*solve_rewards(mdp, mdp.reward, mdp.reward)) == 0.0

    def test_true_kernel_shaping_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mdp = random_mdp(rng, n_states=5)
            phi = rng.uniform(-1, 1, size=5)
            shaped = shape_reward(mdp, phi, mdp.kernel)
            assert check_policy_invariance(*solve_rewards(mdp, mdp.reward, shaped)) <= 1e-8

    def test_policies_agree_entrywise(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            mdp = random_mdp(rng)
            phi = rng.uniform(-1, 1, size=mdp.n_states)
            shaped = shape_reward(mdp, phi, mdp.kernel)
            p_base, p_shaped = (soft_optimal_policy(values) for values in
                                soft_value_iteration([(mdp.kernel, mdp.reward, mdp.discount),
                                                      (mdp.kernel, shaped, mdp.discount)]))
            assert np.max(np.abs(p_base.probs - p_shaped.probs)) <= 1e-8

    def test_generic_perturbation_fails(self):
        rng = np.random.default_rng(9)
        mdp = random_mdp(rng, n_states=5, gamma=0.9)
        noisy = mdp.reward.copy()
        noisy[2, 0] += 0.5
        assert check_policy_invariance(*solve_rewards(mdp, mdp.reward, noisy)) > 1e-3


class TestQShiftIdentity:
    def test_zero_potential_zero_gap(self):
        rng = np.random.default_rng(11)
        mdp = random_mdp(rng)
        phi = np.zeros(mdp.n_states)
        shaped = shape_reward(mdp, phi, mdp.kernel)
        assert q_shift_identity_gap(*solve_rewards(mdp, mdp.reward, shaped), phi) <= 1e-10

    def test_random_potentials_small_gap(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            mdp = random_mdp(rng, n_states=4)
            phi = rng.uniform(-1, 1, size=4)
            shaped = shape_reward(mdp, phi, mdp.kernel)
            assert q_shift_identity_gap(*solve_rewards(mdp, mdp.reward, shaped), phi) <= 1e-8

    def test_wrong_kernel_breaks_identity(self):
        rng = np.random.default_rng(13)
        mdp = random_mdp(rng, n_states=5, gamma=0.9)
        alt = rng.dirichlet(np.ones(5), size=(5, mdp.n_actions))
        # blend until the rows differ by a solid margin
        wrong = 0.6 * mdp.kernel + 0.4 * alt
        phi = rng.uniform(-1, 1, size=5)
        shaped = shape_reward(mdp, phi, wrong)
        assert q_shift_identity_gap(*solve_rewards(mdp, mdp.reward, shaped), phi) > 1e-4


class TestEstimatedKernelTrend:
    def test_advantage_gap_shrinks_with_kernel_error(self):
        rng = np.random.default_rng(14)
        mdp = random_mdp(rng, n_states=5, gamma=0.9)
        alt = rng.dirichlet(np.ones(5), size=(5, mdp.n_actions))
        phi = rng.uniform(-1, 1, size=5)
        gaps = []
        for lam in (0.3, 0.1, 0.03, 0.01):
            blend = (1 - lam) * mdp.kernel + lam * alt
            shaped = shape_reward(mdp, phi, blend)
            gaps.append(check_policy_invariance(*solve_rewards(mdp, mdp.reward, shaped)))
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))

"""Soft and hard dynamic programming against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import instance, random_mdp, random_policy, soft_policy_value_by_solve
from meairl import (ConvergenceError, SoftValues, TabularMDP, TabularPolicy,
                    discounted_occupancy, finite_horizon_policy_value, greedy_policy,
                    hard_value_iteration, policy_value, soft_optimal_policy,
                    soft_value_iteration)
from meairl.soft_dp import ORACLE_MAX_ITERS


def one_state_mdp(gamma=0.5, reward=1.0):
    return TabularMDP(np.ones((1, 1, 1)), [[reward]], gamma, [1.0])


def with_reward(mdp, reward, r_max=None):
    return TabularMDP(mdp.kernel, reward, mdp.discount, mdp.init_dist, r_max=r_max)


def soft_vi(mdp, **kwargs):
    [values] = soft_value_iteration([instance(mdp)], **kwargs)
    return values


def hard_vi(mdp, **kwargs):
    [values] = hard_value_iteration([instance(mdp)], **kwargs)
    return values


def value_of(mdp, policy, **kwargs):
    [v] = policy_value([instance(mdp)], [policy.probs], **kwargs)
    return v


def soft_backup_reference(mdp, q):
    """One soft Bellman sweep, written independently of the library."""
    v = np.log(np.exp(q - q.max(axis=1, keepdims=True)).sum(axis=1)) + q.max(axis=1)
    return mdp.reward + mdp.discount * np.einsum("sap,p->sa", mdp.kernel, v)


def soft_vi_reference(mdp, sweeps):
    """Plain fixed-count sweep loop, written independently of the library."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(sweeps):
        q = soft_backup_reference(mdp, q)
    return q


class TestSoftValueIteration:
    def test_single_pair_fixed_point(self):
        values = soft_vi(one_state_mdp())
        assert abs(values.q[0, 0] - 2.0) < 1e-9
        assert abs(values.v[0] - 2.0) < 1e-9
        assert abs(values.adv[0, 0]) < 1e-12

    def test_two_zero_actions_small_gamma(self):
        kernel = np.ones((1, 2, 1))
        mdp = TabularMDP(kernel, np.zeros((1, 2)), 1e-9, [1.0])
        values = soft_vi(mdp)
        assert np.max(np.abs(values.q)) < 1e-6
        assert abs(values.v[0] - math.log(2)) < 1e-6
        assert np.max(np.abs(values.adv[0] + math.log(2))) < 1e-6

    def test_matches_long_sweep_reference(self):
        rng = np.random.default_rng(10)
        mdp = random_mdp(rng, n_states=6, n_actions=3, gamma=0.9)
        values = soft_vi(mdp, tol=1e-10)
        reference = soft_vi_reference(mdp, sweeps=10 ** 5)
        assert np.max(np.abs(values.q - reference)) < 1e-8

    def test_type_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            values = soft_vi(random_mdp(rng))
            lse = np.log(np.exp(values.q - values.q.max(axis=1, keepdims=True))
                         .sum(axis=1)) + values.q.max(axis=1)
            assert np.max(np.abs(values.v - lse)) < 1e-12
            assert np.max(np.abs(values.adv - (values.q - values.v[:, None]))) == 0.0
            assert np.max(np.abs(np.exp(values.adv).sum(axis=1) - 1.0)) < 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(12)
        mdp = random_mdp(rng, gamma=0.9)
        values = soft_vi(mdp, tol=1e-10)
        # the result is within tol of the iterate before it, so one more
        # sweep moves it by at most gamma * tol (rounding aside)
        residual = np.max(np.abs(soft_backup_reference(mdp, values.q) - values.q))
        assert residual <= mdp.discount * 1e-10 + 1e-14

    def test_residual_monotone_after_first_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            mdp = random_mdp(rng)
            q = np.zeros((mdp.n_states, mdp.n_actions))
            residuals = []
            for _ in range(30):
                nxt = soft_backup_reference(mdp, q)
                residuals.append(np.max(np.abs(nxt - q)))
                q = nxt
            assert all(residuals[i + 1] <= residuals[i] + 1e-12
                       for i in range(1, len(residuals) - 1))

    def test_iteration_limit_raises_with_residual(self):
        rng = np.random.default_rng(14)
        mdp = random_mdp(rng, gamma=0.99)
        with pytest.raises(ConvergenceError) as err:
            soft_vi(mdp, tol=1e-12, max_iters=3)
        assert err.value.residual > 1e-12


class TestSoftOptimalPolicy:
    def test_symmetric_actions_uniform(self):
        kernel = np.ones((1, 2, 1))
        mdp = TabularMDP(kernel, np.zeros((1, 2)), 0.5, [1.0])
        pol = soft_optimal_policy(soft_vi(mdp))
        assert np.allclose(pol.probs, [[0.5, 0.5]], atol=1e-10)

    def test_dominant_action(self):
        adv = np.array([[0.0, -1e9]])
        values = SoftValues(q=adv, v=np.zeros(1), adv=adv)
        pol = soft_optimal_policy(values)
        assert abs(pol.probs[0, 0] - 1.0) < 1e-12
        assert pol.probs[0, 1] < 1e-12

    def test_exp_of_log_probabilities(self):
        adv = np.log(np.array([[0.7, 0.3]]))
        values = SoftValues(q=adv, v=np.zeros(1), adv=adv)
        pol = soft_optimal_policy(values)
        assert np.allclose(pol.probs, [[0.7, 0.3]], atol=1e-12)

    def test_policy_achieves_soft_value(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            mdp = random_mdp(rng)
            values = soft_vi(mdp, tol=1e-10)
            pol = soft_optimal_policy(values)
            v_pol = soft_policy_value_by_solve(mdp, pol)
            # a residual of tol leaves a value error up to tol/(1-gamma)
            assert np.max(np.abs(v_pol - values.v)) < 10 * 1e-10 / (1 - mdp.discount)


def hard_values_lp(mdp):
    """Linear-programming oracle: minimize sum V s.t. V >= R + gamma T V."""
    n_s, n_a = mdp.n_states, mdp.n_actions
    a_ub = np.zeros((n_s * n_a, n_s))
    b_ub = np.zeros(n_s * n_a)
    for s in range(n_s):
        for a in range(n_a):
            row = mdp.discount * mdp.kernel[s, a].copy()
            row[s] -= 1.0
            a_ub[s * n_a + a] = row
            b_ub[s * n_a + a] = -mdp.reward[s, a]
    res = linprog(c=np.ones(n_s), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * n_s, method="highs")
    assert res.success
    return res.x


class TestHardValueIteration:
    def test_geometric_series(self):
        values = hard_vi(one_state_mdp())
        assert abs(values.v[0] - 2.0) < 1e-9

    def test_zero_reward(self):
        rng = np.random.default_rng(16)
        mdp = random_mdp(rng)
        mdp = with_reward(mdp, np.zeros((mdp.n_states, mdp.n_actions)))
        values = hard_vi(mdp)
        assert np.max(np.abs(values.v)) < 1e-10

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            mdp = random_mdp(rng, n_states=5, gamma=0.9)
            values = hard_vi(mdp, tol=1e-12)
            v_lp = hard_values_lp(mdp)
            assert np.max(np.abs(values.v - v_lp)) < 1e-6
            greedy = greedy_policy(values)
            q_lp = mdp.reward + mdp.discount * np.einsum("sap,p->sa", mdp.kernel, v_lp)
            assert np.array_equal(np.argmax(greedy.probs, axis=1),
                                  np.argmax(np.round(q_lp, 9), axis=1))

    def test_greedy_ties_break_low(self):
        kernel = np.ones((1, 3, 1))
        mdp = TabularMDP(kernel, [[1.0, 1.0, 0.0]], 0.5, [1.0])
        pol = greedy_policy(hard_vi(mdp))
        assert np.argmax(pol.probs, axis=1)[0] == 0


class TestPolicyValue:
    def test_constant_reward(self):
        rng = np.random.default_rng(18)
        mdp = random_mdp(rng, gamma=0.9)
        mdp = with_reward(mdp, np.full((mdp.n_states, mdp.n_actions), 0.7))
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        v = value_of(mdp, pol, tol=1e-12)
        assert np.max(np.abs(v - 0.7 / 0.1)) < 1e-8

    def test_absorbing_chain_hand_sum(self):
        # 0 -> 1 -> 2(absorbing, zero reward); rewards 1 then 2 then 0
        kernel = np.zeros((3, 1, 3))
        kernel[0, 0, 1] = 1.0
        kernel[1, 0, 2] = 1.0
        kernel[2, 0, 2] = 1.0
        mdp = TabularMDP(kernel, [[1.0], [2.0], [0.0]], 0.5, [1.0, 0.0, 0.0])
        v = value_of(mdp, TabularPolicy(np.ones((3, 1))), tol=1e-12)
        assert abs(v[0] - (1.0 + 0.5 * 2.0)) < 1e-10
        assert abs(v[1] - 2.0) < 1e-10
        assert abs(v[2]) < 1e-12

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            mdp = random_mdp(rng)
            pol = random_policy(rng, mdp.n_states, mdp.n_actions)
            v_iter = value_of(mdp, pol, tol=1e-12)
            p_pi = np.einsum("sa,sap->sp", pol.probs, mdp.kernel)
            r_pi = (pol.probs * mdp.reward).sum(axis=1)
            v_solve = np.linalg.solve(np.eye(mdp.n_states) - mdp.discount * p_pi, r_pi)
            assert np.max(np.abs(v_iter - v_solve)) < 1e-8


class TestFiniteHorizonPolicyValue:
    def test_constant_reward_geometric_sum(self):
        rng = np.random.default_rng(21)
        mdp = random_mdp(rng, gamma=0.9)
        mdp = with_reward(mdp, np.full((mdp.n_states, mdp.n_actions), 0.7))
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        for h in (1, 5, 40):
            v = finite_horizon_policy_value(mdp, pol, h)
            expect = 0.7 * (1.0 - 0.9 ** h) / 0.1
            assert np.max(np.abs(v - expect)) < 1e-10

    def test_horizon_one_is_expected_reward(self):
        rng = np.random.default_rng(22)
        mdp = random_mdp(rng)
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        v = finite_horizon_policy_value(mdp, pol, 1)
        r_pi = (pol.probs * mdp.reward).sum(axis=1)
        assert np.max(np.abs(v - r_pi)) < 1e-12

    def test_long_horizon_approaches_infinite(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            mdp = random_mdp(rng, gamma=0.9)
            pol = random_policy(rng, mdp.n_states, mdp.n_actions)
            v_h = finite_horizon_policy_value(mdp, pol, 500)
            v_inf = value_of(mdp, pol, tol=1e-13)
            assert np.max(np.abs(v_h - v_inf)) < 1e-8

    def test_below_infinite_for_positive_rewards(self):
        rng = np.random.default_rng(24)
        mdp = random_mdp(rng, gamma=0.95)
        mdp = with_reward(mdp, np.abs(mdp.reward) + 0.1)
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        v_40 = finite_horizon_policy_value(mdp, pol, 40)
        v_inf = value_of(mdp, pol, tol=1e-12)
        assert np.all(v_40 < v_inf)

    def test_rejects_nonpositive_horizon(self):
        rng = np.random.default_rng(25)
        mdp = random_mdp(rng)
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        with pytest.raises(ValueError):
            finite_horizon_policy_value(mdp, pol, 0)


class TestHardSoftConsistency:
    def test_large_scale_soft_matches_hard_argmax(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            mdp = random_mdp(rng, gamma=0.9)
            hard = hard_vi(mdp, tol=1e-12)
            # unique-argmax states only; ties are allowed to differ
            gaps = np.sort(hard.q, axis=1)
            unique = (gaps[:, -1] - gaps[:, -2]) > 1e-6
            scaled = with_reward(mdp, mdp.reward * 1e3, r_max=1e3)
            soft = soft_vi(scaled, tol=1e-9)
            soft_argmax = np.argmax(soft.adv, axis=1)
            hard_argmax = hard.q.argmax(axis=1)
            assert np.array_equal(soft_argmax[unique], hard_argmax[unique])


def _solve_or_none(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except ConvergenceError:
        return None


class TestStackedSolves:
    """Solving instances side by side must give each one its solo result, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3),
                                    st.sampled_from([0.5, 0.9, 0.99])),
                          min_size=1, max_size=7),
           seed=st.integers(0, 2 ** 32 - 1),
           max_iters=st.sampled_from([40, 400, ORACLE_MAX_ITERS]))
    def test_stack_matches_one_at_a_time(self, specs, seed, max_iters):
        # a stack of B instances against B stacks of one
        rng = np.random.default_rng(seed)
        instances, policies, starts = [], [], []
        for n_states, n_actions, gamma in specs:
            kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
            reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
            instances.append((kernel, reward, gamma))
            policies.append(rng.dirichlet(np.ones(n_actions), size=n_states))
            starts.append((kernel, rng.dirichlet(np.ones(n_states)), gamma))
        for solve, columns in ((soft_value_iteration, [instances]),
                               (hard_value_iteration, [instances]),
                               (policy_value, [instances, policies]),
                               (discounted_occupancy, [starts, policies])):
            solo = [_solve_or_none(solve, *[c[i:i + 1] for c in columns], max_iters=max_iters)
                    for i in range(len(instances))]
            if any(result is None for result in solo):
                # one instance out of sweeps fails the whole stack
                with pytest.raises(ConvergenceError):
                    solve(*columns, max_iters=max_iters)
                continue
            stacked = solve(*columns, max_iters=max_iters)
            for got, [want] in zip(stacked, solo, strict=True):
                if solve in (policy_value, discounted_occupancy):
                    assert got.tobytes() == want.tobytes()
                    continue
                assert got.q.tobytes() == want.q.tobytes()
                assert got.v.tobytes() == want.v.tobytes()

    def test_slow_instance_fails_the_stack(self):
        rng = np.random.default_rng(30)
        fast, slow = (random_mdp(rng, n_states=4, n_actions=2, gamma=g) for g in (0.5, 0.99))
        instances = [instance(m) for m in (fast, slow)]
        hard_value_iteration(instances[:1], max_iters=60)  # converges alone
        with pytest.raises(ConvergenceError) as err:
            hard_value_iteration(instances, max_iters=60)
        assert err.value.residual > 1e-10

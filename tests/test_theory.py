"""Closed-form bound values, the feasible-reward construction, and the
brute-force verifiers that check both on random instances."""

import numpy as np
import pytest

from helpers import instance
from meairl import bounds
from meairl import (TabularMDP, greedy_policy, hard_value_iteration, policy_value,
                    run_bound_sweep, tv_distance)
from meairl.bounds import (GAMMA_CHOICES, SWEEP_CSV_HEADER, FeasibleRewardWitness,
                           feasible_reward, performance_difference_bound, perturb_kernel,
                           random_problem, reward_error_bound, sweep_csv_text,
                           verify_performance_difference_bound, verify_reward_error_bound)


class TestBoundFormulas:
    def test_reward_bound_frozen_value(self):
        # gamma 0.9, 5 states, eps 0.1, r_max 1: 0.9/0.1 * 5 * 0.1 * 1 = 4.5
        assert abs(reward_error_bound(0.9, 5, 0.1, 1.0) - 4.5) < 1e-9

    def test_performance_bound_frozen_value(self):
        # 0.1 * (0.9/0.01 + 1.9/0.01 * 5) = 0.1 * 1040 = 104.0
        assert abs(performance_difference_bound(0.9, 5, 0.1, 1.0) - 104.0) < 1e-9

    def test_zero_kernel_error_zeroes_both(self):
        assert reward_error_bound(0.9, 5, 0.0, 1.0) == 0.0
        assert performance_difference_bound(0.9, 5, 0.0, 1.0) == 0.0

    def test_monotone_in_discount_and_size(self):
        lo = reward_error_bound(0.5, 5, 0.1, 1.0)
        hi = reward_error_bound(0.9, 5, 0.1, 1.0)
        assert hi > lo
        assert reward_error_bound(0.9, 10, 0.1, 1.0) > hi
        assert (performance_difference_bound(0.9, 5, 0.1, 1.0)
                < performance_difference_bound(0.99, 5, 0.1, 1.0))
        assert (performance_difference_bound(0.9, 5, 0.1, 1.0)
                < performance_difference_bound(0.9, 6, 0.1, 1.0))


class TestFeasibleReward:
    def test_zero_witness_all_supported(self):
        kernel = np.full((3, 2, 3), 1 / 3)
        witness = FeasibleRewardWitness(np.zeros(3), np.ones((3, 2), bool), 1.0)
        assert np.array_equal(feasible_reward(kernel, witness, 0.9),
                              np.zeros((3, 2)))

    def test_zero_witness_penalizes_unsupported(self):
        kernel = np.full((2, 2, 2), 0.5)
        support = np.array([[True, False], [True, True]])
        witness = FeasibleRewardWitness(np.zeros(2), support, 1.5)
        reward = feasible_reward(kernel, witness, 0.9)
        assert reward[0, 0] == 0.0
        assert reward[0, 1] == -1.5
        assert np.array_equal(reward[1], [0.0, 0.0])

    def test_constant_witness_scales_by_one_minus_gamma(self):
        kernel = np.full((3, 2, 3), 1 / 3)
        witness = FeasibleRewardWitness(np.full(3, 4.0), np.ones((3, 2), bool), 0.0)
        reward = feasible_reward(kernel, witness, 0.9)
        assert np.max(np.abs(reward - (1 - 0.9) * 4.0)) < 1e-12

    def test_witness_is_hard_optimal_value(self):
        # hard VI on the constructed MDP must return the witness exactly,
        # with supported actions greedy and unsupported ones behind by xi
        rng = np.random.default_rng(0)
        for _ in range(10):
            problem = random_problem(rng)
            mdp = problem.mdp
            witness = problem.witness
            [values] = hard_value_iteration([instance(mdp)], tol=1e-12)
            assert np.max(np.abs(values.v - witness.v)) < 1e-8
            gaps = values.v[:, None] - values.q
            assert np.max(np.abs(gaps[witness.support])) < 1e-8
            if (~witness.support).any():
                off = gaps[~witness.support]
                assert np.min(off) > 0.0
                assert np.max(np.abs(off - witness.xi)) < 1e-8

    def test_zero_xi_makes_every_action_greedy(self):
        rng = np.random.default_rng(1)
        kernel = rng.dirichlet(np.ones(4), size=(4, 3))
        witness = FeasibleRewardWitness(rng.normal(size=4), np.ones((4, 3), bool), 0.0)
        reward = feasible_reward(kernel, witness, 0.9)
        mdp = TabularMDP(kernel, reward, 0.9, np.full(4, 0.25))
        [values] = hard_value_iteration([instance(mdp)], tol=1e-12)
        assert np.max(np.abs(values.q - values.v[:, None])) < 1e-8

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            FeasibleRewardWitness(np.zeros(2), np.zeros((2, 2), bool), 1.0)
        with pytest.raises(ValueError):
            FeasibleRewardWitness(np.zeros(2), np.ones((3, 2), bool), 1.0)
        with pytest.raises(ValueError):
            FeasibleRewardWitness(np.zeros(2), np.ones((2, 2), bool), -0.5)


class TestPerturbKernel:
    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(2)
        kernel = rng.dirichlet(np.ones(5), size=(5, 3))
        out = perturb_kernel(kernel, 0.3, rng)
        assert np.all(out >= 0.0)
        assert np.max(np.abs(out.sum(axis=2) - 1.0)) < 1e-12

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(3)
        kernel = rng.dirichlet(np.ones(3), size=(3, 2))
        assert np.array_equal(perturb_kernel(kernel, 0.0, rng), kernel)

    def test_rate_validated(self):
        kernel = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            perturb_kernel(kernel, 1.5, np.random.default_rng(0))

    def test_eps_t_is_worst_row_tv(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng)
        want = tv_distance(problem.mdp.kernel, problem.model_kernel)[0]
        assert problem.eps_t == want

    def test_eps_t_is_measured_once_per_problem(self, monkeypatch):
        # both sweeps read each problem's eps_T; it is measured when the
        # problem is drawn, not on every read
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return tv_distance(*args, **kwargs)

        monkeypatch.setattr(bounds, "tv_distance", counted)
        reward_rows, performance_rows = run_bound_sweep(6, seed=0)
        assert len(calls) == 6
        assert [r.eps_t for r in reward_rows] == [r.eps_t for r in performance_rows]


class TestRewardBoundVerifier:
    def test_identical_kernels_give_zero_gap(self):
        rng = np.random.default_rng(5)
        problem = random_problem(rng, perturb_rate=0.0)
        row = verify_reward_error_bound(problem)
        assert row.eps_t == 0.0
        assert row.observed_gap <= 1e-8
        assert row.passed

    def test_many_witnesses_stay_under_bound(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, n_states=5, gamma=0.9, perturb_rate=0.2)
        row = verify_reward_error_bound(problem)
        assert row.passed
        # fresh witnesses on the same kernel pair, each at the premise's value cap
        draws = np.random.default_rng(0)
        v_cap = problem.r_max / (1.0 - 0.9)
        gaps = []
        for _ in range(100):
            witness = FeasibleRewardWitness(draws.uniform(-v_cap, v_cap, size=5),
                                            problem.witness.support, problem.witness.xi)
            gaps.append(np.max(np.abs(feasible_reward(problem.mdp.kernel, witness, 0.9)
                                      - feasible_reward(problem.model_kernel, witness, 0.9))))
        assert max(gaps) <= row.bound + 1e-9

    def test_drawn_witnesses_meet_the_value_premise(self):
        # the bound assumes max|v| <= r_max / (1 - gamma); the sweeps check it
        # on random_problem's witnesses as drawn, so every draw must meet it
        rng = np.random.default_rng(7)
        gammas = set()
        for _ in range(2000):
            problem = random_problem(rng)
            gamma = problem.mdp.discount
            gammas.add(gamma)
            assert np.max(np.abs(problem.witness.v)) <= problem.r_max / (1.0 - gamma)
        assert gammas == set(GAMMA_CHOICES)

    def test_sweep_all_pass(self):
        rows, _ = run_bound_sweep(50, seed=0)
        assert len(rows) == 50
        assert all(r.passed for r in rows)
        assert all(r.observed_gap <= r.bound + 1e-9 for r in rows)


class TestPerformanceBoundVerifier:
    def test_identical_kernels_give_zero_gap(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, perturb_rate=0.0)
        row, = verify_performance_difference_bound([problem], [0])
        assert row.observed_gap == 0.0  # pi_hat takes only supported actions
        assert row.passed

    def test_sweep_all_pass(self):
        _, rows = run_bound_sweep(50, seed=1)
        assert len(rows) == 50
        assert all(r.passed for r in rows)

    def test_sweep_rows_equal_problem_by_problem_rows(self):
        # the sweep draws each problem once for both checks and solves the
        # performance side stacked; one problem at a time must agree
        rng = np.random.default_rng(1)
        problems = [random_problem(rng) for _ in range(50)]
        expected = ([verify_reward_error_bound(p, instance_id=i) for i, p in enumerate(problems)],
                    [row for i, p in enumerate(problems)
                     for row in verify_performance_difference_bound([p], [i])])
        assert run_bound_sweep(50, seed=1) == expected

    def test_witness_is_the_optimal_value_of_both_pairs(self):
        # the same-witness identity: (T_true, r_true) and (T_model, r_model)
        # share the optimal value V, which is why the gap deploys pi_hat
        # on the true MDP instead of comparing these two solves
        rng = np.random.default_rng(11)
        for _ in range(20):
            problem = random_problem(rng)
            gamma = problem.mdp.discount
            pairs = [(kernel, feasible_reward(kernel, problem.witness, gamma), gamma)
                     for kernel in (problem.mdp.kernel, problem.model_kernel)]
            for values in hard_value_iteration(pairs):
                assert np.max(np.abs(values.v - problem.witness.v)) <= 1e-8

    def test_gap_is_the_value_lost_by_the_model_greedy_policy(self):
        # the verifier evaluates the gap as pi_hat's value under the loss
        # xi * [a unsupported]; here it is V*_true - V^pi_hat_true solved as written
        rng = np.random.default_rng(13)
        problem = random_problem(rng, n_states=6, gamma=0.9, perturb_rate=0.3)
        kernel, gamma = problem.mdp.kernel, 0.9
        r_model = feasible_reward(problem.model_kernel, problem.witness, gamma)
        [deploy] = hard_value_iteration([(kernel, r_model, gamma)])
        pi_hat = greedy_policy(deploy)
        [v_pi] = policy_value([(kernel, problem.mdp.reward, gamma)], [pi_hat.probs])
        [v_star] = hard_value_iteration([instance(problem.mdp)])
        row, = verify_performance_difference_bound([problem], [0])
        assert abs(row.observed_gap - np.max(v_star.v - v_pi)) <= 1e-8
        assert row.observed_gap > 1e-3  # this instance's model misleads the policy


class TestSweepCsv:
    def test_header_and_shape(self):
        rows, _ = run_bound_sweep(5, seed=2)
        text = sweep_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 7

    def test_floats_round_trip(self):
        _, rows = run_bound_sweep(3, seed=3)
        lines = sweep_csv_text(rows).strip().split("\n")[1:]
        for row, line in zip(rows, lines):
            cols = line.split(",")
            assert float(cols[3]) == row.eps_t
            assert float(cols[5]) == row.bound


class TestRandomProblem:
    def test_respects_requested_shape(self):
        rng = np.random.default_rng(10)
        problem = random_problem(rng, n_states=7, n_actions=2, gamma=0.5)
        assert problem.mdp.n_states == 7
        assert problem.mdp.n_actions == 2
        assert problem.mdp.discount == 0.5
        assert problem.model_kernel.shape == (7, 2, 7)

    def test_mdp_is_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            problem = random_problem(rng)
            kernel = problem.mdp.kernel
            assert np.max(np.abs(kernel.sum(axis=2) - 1.0)) < 1e-9
            assert np.all(problem.model_kernel >= 0.0)

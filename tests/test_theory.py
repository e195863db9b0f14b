"""Closed-form bound values, the feasible-reward construction, and the
brute-force verifiers that check both on random instances."""

import numpy as np
import pytest

from helpers import instance
from meairl import TabularMDP, hard_value_iteration, run_bound_sweep, tv_distance
from meairl.bounds import (SWEEP_CSV_HEADER, FeasibleRewardWitness, IrlProblem,
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

    def test_oversized_witness_is_rescaled_and_noted(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, n_states=4, gamma=0.9)
        cap = problem.r_max / (1.0 - 0.9)
        big = FeasibleRewardWitness(np.full(4, 3.0 * cap),
                                    problem.witness.support, problem.witness.xi)
        loud = IrlProblem(problem.mdp, problem.model_kernel, big, problem.r_max)
        row = verify_reward_error_bound(loud)
        assert row.witness_rescaled
        assert row.passed
        quiet = verify_reward_error_bound(problem)
        assert not quiet.witness_rescaled

    def test_sweep_all_pass(self):
        rows = run_bound_sweep("reward", 50, seed=0)
        assert len(rows) == 50
        assert all(r.passed for r in rows)
        assert all(r.observed_gap <= r.bound + 1e-9 for r in rows)


class TestPerformanceBoundVerifier:
    def test_identical_kernels_give_zero_gap(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, perturb_rate=0.0)
        row, = verify_performance_difference_bound([problem], [0])
        assert row.observed_gap <= 1e-8
        assert row.passed

    def test_sweep_all_pass(self):
        rows = run_bound_sweep("performance", 50, seed=1)
        assert len(rows) == 50
        assert all(r.passed for r in rows)

    def test_sweep_rows_equal_problem_by_problem_rows(self):
        # the sweep solves all problems stacked; stacks of one problem must agree
        rng = np.random.default_rng(1)
        expected = [row for i in range(50)
                    for row in verify_performance_difference_bound([random_problem(rng)], [i])]
        assert run_bound_sweep("performance", 50, seed=1) == expected

    def test_sweep_kind_validated(self):
        with pytest.raises(ValueError):
            run_bound_sweep("nonsense", 3)


class TestSweepCsv:
    def test_header_and_shape(self):
        rows = run_bound_sweep("reward", 5, seed=2)
        text = sweep_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 7

    def test_floats_round_trip(self):
        rows = run_bound_sweep("performance", 3, seed=3)
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

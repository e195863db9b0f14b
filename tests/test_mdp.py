"""Core MDP types, sampling, occupancies, environments, demo files."""

import numpy as np
import pytest

from helpers import random_mdp, random_policy
from meairl import (DemoFormatError, TabularMDP, TabularPolicy,
                    discounted_occupancy, load_demos, make_gridworld,
                    make_noisy_pointmass, sample_trajectory,
                    save_continuous_demos, save_tabular_demos)


def one_state_mdp(gamma=0.5, reward=1.0):
    return TabularMDP(np.ones((1, 1, 1)), [[reward]], gamma, [1.0])


class TestValidation:
    def test_bad_kernel_row_rejected(self):
        kernel = np.ones((2, 1, 2)) * 0.6  # rows sum to 1.2
        with pytest.raises(ValueError):
            TabularMDP(kernel, np.zeros((2, 1)), 0.9, [0.5, 0.5])

    def test_negative_kernel_entry_rejected(self):
        kernel = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
        with pytest.raises(ValueError):
            TabularMDP(kernel, np.zeros((2, 1)), 0.9, [0.5, 0.5])

    def test_bad_init_dist_rejected(self):
        kernel = np.full((2, 1, 2), 0.5)
        with pytest.raises(ValueError):
            TabularMDP(kernel, np.zeros((2, 1)), 0.9, [0.7, 0.7])

    def test_discount_bounds(self):
        kernel = np.ones((1, 1, 1))
        for gamma in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                TabularMDP(kernel, [[0.0]], gamma, [1.0])

    def test_policy_rows_validated(self):
        with pytest.raises(ValueError):
            TabularPolicy([[0.5, 0.6]])

    def test_random_constructions_normalized(self):
        # every constructor output keeps rows summing to 1 tightly
        rng = np.random.default_rng(0)
        for _ in range(25):
            mdp = random_mdp(rng)
            assert np.allclose(mdp.kernel.sum(axis=2), 1.0, atol=1e-12)
            assert abs(mdp.init_dist.sum() - 1.0) <= 1e-12
            pol = random_policy(rng, mdp.n_states, mdp.n_actions)
            assert np.allclose(pol.probs.sum(axis=1), 1.0, atol=1e-12)


class TestSampling:
    def test_single_state_trajectory(self):
        traj = sample_trajectory(one_state_mdp(), TabularPolicy([[1.0]]),
                                 horizon=3, seed=0)
        assert traj.steps == [(0, 0), (0, 0), (0, 0)]
        assert traj.terminal_state == 0

    def test_deterministic_chain(self):
        kernel = np.zeros((2, 1, 2))
        kernel[0, 0, 1] = 1.0
        kernel[1, 0, 0] = 1.0
        mdp = TabularMDP(kernel, np.zeros((2, 1)), 0.9, [1.0, 0.0])
        traj = sample_trajectory(mdp, TabularPolicy([[1.0], [1.0]]),
                                 horizon=2, seed=7)
        assert traj.steps == [(0, 0), (1, 0)]
        assert traj.terminal_state == 0

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng)
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        t1 = sample_trajectory(mdp, pol, horizon=20, seed=11)
        t2 = sample_trajectory(mdp, pol, horizon=20, seed=11)
        assert t1.steps == t2.steps and t1.terminal_state == t2.terminal_state

    def test_next_state_frequencies_match_kernel(self):
        # Monte Carlo frequency oracle for the row sampler
        row = np.array([0.5, 0.3, 0.2])
        kernel = np.broadcast_to(row, (3, 1, 3)).copy()
        mdp = TabularMDP(kernel, np.zeros((3, 1)), 0.9, [1.0, 0.0, 0.0])
        rng = np.random.default_rng(42)
        n = 10 ** 5
        draws = np.array([mdp.sample_next(0, 0, rng) for _ in range(n)])
        freqs = np.bincount(draws, minlength=3) / n
        assert np.max(np.abs(freqs - row)) < 0.01


def occupancy_linear_solve(mdp, policy):
    # d(s,a) = pi(a|s) ds(s) with ds solving (I - gamma P_pi^T) ds = (1-gamma) rho0
    p_pi = np.einsum("sa,sap->sp", policy.probs, mdp.kernel)
    ds = np.linalg.solve(np.eye(mdp.n_states) - mdp.discount * p_pi.T,
                         (1.0 - mdp.discount) * mdp.init_dist)
    return policy.probs * ds[:, None]


def occupancy(mdp, policy, **kwargs):
    [d] = discounted_occupancy([(mdp.kernel, mdp.init_dist, mdp.discount)], [policy.probs],
                               **kwargs)
    return d


class TestOccupancy:
    def test_single_pair_gets_all_mass(self):
        d = occupancy(one_state_mdp(), TabularPolicy([[1.0]]), tol=1e-12)
        assert np.allclose(d, [[1.0]], atol=1e-10)

    def test_small_gamma_limit(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng, n_states=4, n_actions=2, gamma=1e-9)
        pol = random_policy(rng, 4, 2)
        d = occupancy(mdp, pol, tol=1e-13)
        expected = mdp.init_dist[:, None] * pol.probs
        assert np.max(np.abs(d - expected)) < 1e-6

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            mdp = random_mdp(rng, n_states=4, n_actions=2)
            pol = random_policy(rng, 4, 2)
            d_iter = occupancy(mdp, pol, tol=1e-12)
            d_solve = occupancy_linear_solve(mdp, pol)
            assert np.max(np.abs(d_iter - d_solve)) < 1e-8

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mdp = random_mdp(rng)
            pol = random_policy(rng, mdp.n_states, mdp.n_actions)
            d = occupancy(mdp, pol, tol=1e-10)
            assert (d >= -1e-12).all()
            assert abs(d.sum() - 1.0) < 1e-8


class TestGridworld:
    def test_deterministic_rows_one_hot(self):
        mdp = make_gridworld(4, 4, slip_prob=0.0, goal_reward=1.0, discount=0.9)
        assert np.all(np.isin(mdp.kernel, [0.0, 1.0]) | np.isclose(mdp.kernel, 0.0))
        assert np.allclose(np.max(mdp.kernel, axis=2), 1.0)

    def test_interior_cell_slip_split(self):
        width = 5
        mdp = make_gridworld(width, 5, slip_prob=0.3, goal_reward=1.0, discount=0.9)
        s = 2 * width + 2  # interior cell (y=2, x=2)
        row = mdp.kernel[s, 0]  # action up
        up, down = s - width, s + width
        left, right = s - 1, s + 1
        assert abs(row[up] - 0.7) < 1e-12
        for other in (down, left, right):
            assert abs(row[other] - 0.1) < 1e-12

    def test_rows_sum_to_one(self):
        mdp = make_gridworld(5, 5, slip_prob=0.3, goal_reward=5.0, discount=0.95)
        assert np.allclose(mdp.kernel.sum(axis=2), 1.0, atol=1e-12)

    def test_goal_absorbing_and_rewarded(self):
        mdp = make_gridworld(3, 3, slip_prob=0.2, goal_reward=4.0, discount=0.9)
        goal = 8
        assert np.allclose(mdp.kernel[goal, :, goal], 1.0)
        assert np.allclose(mdp.reward[goal], 4.0)
        assert np.allclose(mdp.reward[:goal], 0.0)
        assert mdp.init_dist[goal] == 0.0

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            make_gridworld(0, 3, 0.1, 1.0, 0.9)


class TestPointmass:
    def test_deterministic_step(self):
        env = make_noisy_pointmass(noise_std=0.0)
        nxt, reward = env.step(np.array([1.0]), np.array([-1.0]),
                               np.random.default_rng(0))
        assert abs(nxt[0] - 0.9) < 1e-12
        assert abs(reward - (-1.0)) < 1e-12

    def test_origin_fixed_point(self):
        env = make_noisy_pointmass(noise_std=0.0)
        nxt, reward = env.step(np.array([0.0]), np.array([0.0]),
                               np.random.default_rng(0))
        assert nxt[0] == 0.0 and reward == 0.0

    def test_noise_moment(self):
        env = make_noisy_pointmass(noise_std=0.5)
        rng = np.random.default_rng(123)
        xs = np.empty(10 ** 5)
        for i in range(xs.size):
            nxt, _ = env.step(np.array([0.0]), np.array([0.0]), rng)
            xs[i] = nxt[0]
        assert 0.49 <= xs.std() <= 0.51

    def test_state_stays_in_bounds(self):
        env = make_noisy_pointmass(noise_std=2.0)
        rng = np.random.default_rng(0)
        s = env.reset(rng)
        for _ in range(200):
            s, _ = env.step(s, np.array([1.0]), rng)
            assert -5.0 <= s[0] <= 5.0

    def test_step_clips_exactly_as_np_clip(self):
        # step bounds the action and the successor with minimum(maximum(.));
        # it must give np.clip's bits on every input, NaN, signed zero and
        # the bounds themselves included
        env = make_noisy_pointmass(noise_std=0.0)
        edge = [np.nan, -np.inf, np.inf, -0.0, 0.0, -1.0, 1.0, -5.0, 5.0,
                np.nextafter(1.0, 2.0), np.nextafter(-5.0, -6.0)]
        values = np.concatenate([edge, 4.0 * np.random.default_rng(0).standard_normal(2000)])
        # each value once as the action (from state 0) and once as the state
        cases = [(0.0, x) for x in values] + [(x, 1.0) for x in values]
        for state, action in (tuple(np.array([v]) for v in case) for case in cases):
            nxt, _ = env.step(state, action, None)
            clipped = np.clip(action, env.action_low, env.action_high)
            want = np.clip(state + 0.1 * clipped, env.state_low, env.state_high)
            assert nxt.tobytes() == want.tobytes(), (state, action)


class TestDemoFiles:
    def test_tabular_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng, n_states=4, n_actions=2)
        pol = random_policy(rng, 4, 2)
        trajs = [sample_trajectory(mdp, pol, horizon=6, seed=rng) for _ in range(3)]
        path = tmp_path / "demos.txt"
        save_tabular_demos(path, trajs, "toy", 99, 4, 2)
        demos = load_demos(path)
        assert demos.kind == "tabular"
        assert demos.env_name == "toy"
        assert demos.seed == 99
        flat = [(s, a, n) for t in trajs for (s, a, n) in t.transitions()]
        assert len(demos.states) == len(flat)
        for i, (s, a, n) in enumerate(flat):
            assert (demos.states[i], demos.actions[i], demos.next_states[i]) == (s, a, n)

    def test_continuous_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(5, 2))
        actions = rng.normal(size=(4, 1))
        path = tmp_path / "demos.txt"
        save_continuous_demos(path, [(states, actions)], "pm", 7, 2, 1)
        demos = load_demos(path)
        assert demos.kind == "continuous"
        assert np.array_equal(demos.states, states[:4])
        assert np.array_equal(demos.actions, actions)
        assert np.array_equal(demos.next_states, states[1:])

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# env=x seed=0 kind=tabular n_states=2 n_actions=2\n"
                        "0,0,0,1,1\n0,1,oops,0,1\n")
        with pytest.raises(DemoFormatError) as err:
            load_demos(path)
        assert "line 3" in str(err.value)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,0,1,1\n")
        with pytest.raises(DemoFormatError):
            load_demos(path)

"""Core MDP types, sampling, occupancies, environments, demo files."""

import numpy as np
import pytest

from helpers import random_mdp, random_policy, scalar_rollouts
from meairl import (DemoFormatError, TabularMDP, TabularPolicy,
                    discounted_occupancy, load_demos, make_gridworld,
                    make_noisy_pointmass, sample_episodes,
                    save_continuous_demos, save_tabular_demos)
from meairl.mdp import _inverse_cdf
from meairl.seeding import RunStreams


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


def sparse_rows(rng, shape):
    """Random distributions over the last axis with about half their entries zero."""
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    probs = np.where(rng.random(probs.shape) < 0.5, 0.0, probs)
    probs[..., 0] += probs.sum(axis=-1) == 0.0  # every row keeps an entry
    return probs / probs.sum(axis=-1, keepdims=True)


def sampling_case(name, rng):
    """(mdp, probs of an (S, A) policy): zero-probability entries in the
    kernel, start distribution and policy, or a deterministic grid kernel."""
    if name == "sparse":
        kernel = sparse_rows(rng, (6, 3, 6))
        mdp = TabularMDP(kernel, rng.normal(size=(6, 3)), 0.9, sparse_rows(rng, (6,)))
    else:
        mdp = make_gridworld(4, 4, 0.0, 1.0, 0.9)
    return mdp, sparse_rows(rng, (mdp.n_states, mdp.n_actions))


class TestSampling:
    def test_single_state_trajectory(self):
        states, actions = sample_episodes(one_state_mdp(), TabularPolicy([[1.0]]),
                                          horizon=3, episodes=1, rng=np.random.default_rng(0))
        assert states.tolist() == [[0, 0, 0, 0]]
        assert actions.tolist() == [[0, 0, 0]]

    def test_deterministic_chain(self):
        kernel = np.zeros((2, 1, 2))
        kernel[0, 0, 1] = 1.0
        kernel[1, 0, 0] = 1.0
        mdp = TabularMDP(kernel, np.zeros((2, 1)), 0.9, [1.0, 0.0])
        states, actions = sample_episodes(mdp, TabularPolicy([[1.0], [1.0]]), horizon=2,
                                          episodes=2, rng=np.random.default_rng(7))
        assert states.tolist() == [[0, 1, 0], [0, 1, 0]]
        assert actions.tolist() == [[0, 0], [0, 0]]

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng)
        pol = random_policy(rng, mdp.n_states, mdp.n_actions)
        first, again, other = (sample_episodes(mdp, pol, 20, 3, np.random.default_rng(seed))
                               for seed in (11, 11, 12))
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        assert not np.array_equal(first[0], other[0])

    def test_next_state_frequencies_match_kernel(self):
        # Monte Carlo frequency oracle for the row sampler
        row = np.array([0.5, 0.3, 0.2])
        kernel = np.broadcast_to(row, (3, 1, 3)).copy()
        mdp = TabularMDP(kernel, np.zeros((3, 1)), 0.9, [1.0, 0.0, 0.0])
        n = 10 ** 5
        uniforms = np.random.default_rng(42).random(n).tolist()
        draws = np.array([mdp.sample_next(0, 0, u) for u in uniforms])
        freqs = np.bincount(draws, minlength=3) / n
        assert np.max(np.abs(freqs - row)) < 0.01

    @pytest.mark.parametrize("case", ["sparse", "deterministic"])
    def test_episodes_match_scalar_rollouts(self, case):
        # uniforms drawn up front give the episodes that drawing each one
        # when it is needed gives, by searchsorted
        mdp, probs = sampling_case(case, np.random.default_rng(1))
        for seed in range(5):
            got = sample_episodes(mdp, TabularPolicy(probs), 7, 4, np.random.default_rng(seed))
            want = scalar_rollouts(mdp, probs, 7, 4, np.random.default_rng(seed))
            assert got[0].shape == (4, 8) and got[1].shape == (4, 7)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("case", ["sparse", "deterministic"])
    def test_stacked_runs_match_scalar_rollouts(self, case):
        # with RunStreams and an (R, S, A) policy, run k's episodes are the
        # ones its own generator and policy give alone
        rng = np.random.default_rng(2)
        mdp, _ = sampling_case(case, rng)
        probs = np.stack([sparse_rows(rng, (mdp.n_states, mdp.n_actions)) for _ in range(3)])
        streams = RunStreams(np.random.default_rng(10 + k) for k in range(3))
        states, actions = sample_episodes(mdp, TabularPolicy(probs), 7, 4, streams)
        assert states.shape == (3, 4, 8) and actions.shape == (3, 4, 7)
        for k in range(3):
            want = scalar_rollouts(mdp, probs[k], 7, 4, np.random.default_rng(10 + k))
            assert np.array_equal(states[k], want[0]) and np.array_equal(actions[k], want[1])

    def test_list_and_array_rows_pick_the_same_index(self):
        # one-state draws bisect a list row, batch draws count an array row;
        # they agree at every entry's value, between ties left by
        # zero-probability entries, and past a row total that rounds below 1
        rng = np.random.default_rng(4)
        rows = [np.cumsum(row) for row in sparse_rows(rng, (200, 5))]
        rows.append(np.array([0.25, 0.25, 0.5, 1.0 - 2.0 ** -52]))
        for row in rows:
            edges = np.concatenate([row, np.nextafter(row, 0.0), np.nextafter(row, 2.0)])
            uniforms = np.concatenate([[0.0, 1.0 - 2.0 ** -53], edges[edges < 1.0],
                                       rng.random(20)])
            counted = _inverse_cdf(row, uniforms)
            assert [_inverse_cdf(row.tolist(), u) for u in uniforms.tolist()] == counted.tolist()
            assert counted.max() <= row.size - 1


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
        states, actions = sample_episodes(mdp, pol, horizon=6, episodes=3, rng=rng)
        path = tmp_path / "demos.txt"
        save_tabular_demos(path, states, actions, "toy", 99, 4, 2)
        demos = load_demos(path)
        assert demos.kind == "tabular"
        assert demos.env_name == "toy"
        assert demos.seed == 99
        assert np.array_equal(demos.episode_ids, np.repeat(np.arange(3), 6))
        assert np.array_equal(demos.steps, np.tile(np.arange(6), 3))
        assert np.array_equal(demos.states, states[:, :-1].ravel())
        assert np.array_equal(demos.actions, actions.ravel())
        assert np.array_equal(demos.next_states, states[:, 1:].ravel())

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

"""Soft-optimal tabular policies for a reward table, and the small actor-critic."""

import math

import numpy as np

from helpers import (finite_difference_grad, max_rel_err, random_mdp,
                     use_reference_backward)
from meairl import (SacAgent, TabularMDP, make_noisy_pointmass, shape_reward,
                    soft_optimal_policy, soft_value_iteration)


def soft_update(mdp, reward_table, **kwargs):
    """The soft-optimal policy for reward_table on mdp's dynamics."""
    [values] = soft_value_iteration([(mdp.kernel, reward_table, mdp.discount)], **kwargs)
    return soft_optimal_policy(values)


class TestTabularUpdate:
    def test_zero_reward_gives_uniform(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng, n_states=4, n_actions=3)
        policy = soft_update(mdp, np.zeros((4, 3)))
        assert np.max(np.abs(policy.probs - 1.0 / 3.0)) < 1e-9

    def test_two_action_softmax_hand_value(self):
        # myopic limit with advantage gap 10: pi(0) = e^10 / (e^10 + 1)
        kernel = np.ones((1, 2, 1))
        mdp = TabularMDP(kernel, np.zeros((1, 2)), 1e-9, [1.0])
        policy = soft_update(mdp, np.array([[10.0, 0.0]]))
        want = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert abs(policy.probs[0, 0] - want) < 1e-8

    def test_policy_invariant_under_model_shaping(self):
        # updating against the shaped table reproduces the original policy
        rng = np.random.default_rng(4)
        for _ in range(5):
            mdp = random_mdp(rng)
            phi = rng.normal(size=mdp.n_states) * 10
            shaped = shape_reward(mdp, phi, mdp.kernel)
            a = soft_update(mdp, mdp.reward, tol=1e-12)
            b = soft_update(mdp, shaped, tol=1e-12)
            assert np.max(np.abs(a.probs - b.probs)) < 1e-8


def tiny_agent(rng, hidden=(6,)):
    return SacAgent(2, 1, action_low=[-1.0], action_high=[1.0], discount=0.9,
                    hidden=hidden, rng=rng)


class TestSacGradients:
    def test_critic_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        agent = tiny_agent(rng)
        states = rng.normal(size=(8, 2))
        actions = rng.uniform(-1, 1, size=(8, 1))
        targets = rng.normal(size=8)
        _, grads = agent.critic_loss_and_grads(states, actions, targets)

        def loss_at(flat):
            keep = agent.critic.params.copy()
            agent.critic.params = flat
            out, _ = agent.critic_loss_and_grads(states, actions, targets)
            agent.critic.params = keep
            return out

        fd = finite_difference_grad(loss_at, agent.critic.params)
        assert max_rel_err(grads, fd) < 1e-4

    def test_actor_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        agent = tiny_agent(rng)
        states = rng.normal(size=(8, 2))
        eps = rng.standard_normal((8, 1))
        _, grads = agent.actor_loss_and_grads(states, eps)

        def loss_at(flat):
            keep = agent.actor.params.copy()
            agent.actor.params = flat
            out, _ = agent.actor_loss_and_grads(states, eps)
            agent.actor.params = keep
            return out

        fd = finite_difference_grad(loss_at, agent.actor.params)
        assert max_rel_err(grads, fd) < 1e-3


    def test_taped_critic_gradients_equal_reforwarded_reference(self, monkeypatch):
        rng = np.random.default_rng(12)
        agent = tiny_agent(rng, hidden=(16, 16))
        states = rng.normal(size=(32, 2))
        actions = rng.uniform(-1, 1, size=(32, 1))
        targets = rng.normal(size=32)
        loss, grads = agent.critic_loss_and_grads(states, actions, targets)
        use_reference_backward(monkeypatch)
        ref_loss, ref_grads = agent.critic_loss_and_grads(states, actions, targets)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)

    def test_taped_actor_gradients_equal_reforwarded_reference(self, monkeypatch):
        # reuses the critic's and the actor's forward passes
        rng = np.random.default_rng(13)
        agent = tiny_agent(rng, hidden=(16, 16))
        states = rng.normal(size=(32, 2))
        eps = rng.standard_normal((32, 1))
        loss, grads = agent.actor_loss_and_grads(states, eps)
        use_reference_backward(monkeypatch)
        ref_loss, ref_grads = agent.actor_loss_and_grads(states, eps)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)


class TestSacMechanics:
    def test_nonterminal_target_bootstraps(self):
        rng = np.random.default_rng(13)
        agent = tiny_agent(rng)
        rewards = np.zeros(4)
        batch = (rng.normal(size=(4, 2)), rng.uniform(-1, 1, (4, 1)),
                 rewards, rng.normal(size=(4, 2)))
        targets = agent.critic_targets(batch, rng)
        assert np.max(np.abs(targets)) > 0.0

    def test_actions_respect_bounds(self):
        rng = np.random.default_rng(14)
        agent = SacAgent(2, 2, action_low=[-0.5, 1.0], action_high=[0.5, 3.0],
                         discount=0.9, hidden=(6,), rng=rng)
        agent.actor.params = 5.0 * rng.normal(size=agent.actor.n_params)
        for _ in range(20):
            a = agent.act(rng.normal(size=2), rng=rng)
            assert np.all(a >= [-0.5, 1.0]) and np.all(a <= [0.5, 3.0])
        det = agent.act(np.zeros(2), deterministic=True)
        assert np.all(det >= [-0.5, 1.0]) and np.all(det <= [0.5, 3.0])

    def test_log_prob_agrees_with_sampler(self):
        rng = np.random.default_rng(15)
        agent = tiny_agent(rng)
        states = rng.normal(size=(16, 2))
        eps = 0.5 * rng.standard_normal((16, 1))
        samp = agent._sample_with_log_prob(states, eps)
        recomputed = agent.log_prob(states, samp["a"])
        # atanh(tanh(u)) round trip through the squash epsilon
        assert np.max(np.abs(recomputed - samp["log_prob"])) < 1e-4

    def test_polyak_target_trails_critic(self):
        rng = np.random.default_rng(16)
        agent = tiny_agent(rng)
        old_target = agent.target.params.copy()
        batch = (rng.normal(size=(8, 2)), rng.uniform(-1, 1, (8, 1)),
                 rng.normal(size=8), rng.normal(size=(8, 2)))
        agent.update(batch, rng)
        want = (1.0 - agent.tau) * old_target + agent.tau * agent.critic.params
        assert np.max(np.abs(agent.target.params - want)) < 1e-12

    def test_update_returns_finite_diagnostics(self):
        rng = np.random.default_rng(17)
        agent = tiny_agent(rng)
        batch = (rng.normal(size=(8, 2)), rng.uniform(-1, 1, (8, 1)),
                 rng.normal(size=8), rng.normal(size=(8, 2)))
        diag = agent.update(batch, rng)
        assert np.isfinite([diag.critic_loss, diag.actor_loss]).all()


class TestSacLearnsPointmass:
    def test_beats_random_policy_on_true_reward(self):
        # 30k environment steps on the noiseless point mass must reach at
        # least 5x the mean return of a uniform-random policy
        env = make_noisy_pointmass(0.0)
        rng = np.random.default_rng(0)
        agent = SacAgent(1, 1, env.action_low, env.action_high, discount=0.99,
                         hidden=(64, 64), rng=rng)
        cap = 30000
        buf_s = np.zeros((cap, 1))
        buf_a = np.zeros((cap, 1))
        buf_r = np.zeros(cap)
        buf_n = np.zeros((cap, 1))
        size = 0
        state = env.reset(rng)
        t = 0
        for step in range(cap):
            if step < 1000:
                action = rng.uniform(env.action_low, env.action_high)
            else:
                action = agent.act(state, rng=rng)
            nxt, reward = env.step(state, action, rng)
            t += 1
            buf_s[size], buf_a[size], buf_r[size] = state, action, reward
            buf_n[size] = nxt
            size += 1
            state = nxt
            if t >= env.horizon:
                state = env.reset(rng)
                t = 0
            if step >= 1000:
                idx = rng.integers(0, size, size=256)
                batch = (buf_s[idx], buf_a[idx], buf_r[idx], buf_n[idx])
                agent.update(batch, rng)

        def mean_return(act_fn, episodes=20):
            total = 0.0
            for _ in range(episodes):
                s = env.reset(rng)
                for _ in range(env.horizon):
                    s, r = env.step(s, act_fn(s), rng)
                    total += r
            return total / episodes

        learned = mean_return(lambda s: agent.act(s, deterministic=True))
        random_ret = mean_return(lambda s: rng.uniform(env.action_low, env.action_high))
        # returns are negative; 5x better means one fifth the cost
        assert learned >= random_ret / 5.0

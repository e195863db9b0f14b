"""Discriminator scoring, gradients, and the likelihood-gradient match."""

import math

import numpy as np
import pytest

from helpers import (finite_difference_grad, instance, max_rel_err, random_mdp,
                     use_reference_backward)
from meairl import (Discriminator, ExpertBuffer, GaussianDynamicsModel, Mlp,
                    SacAgent, TabularMDP, TabularPolicy, discounted_occupancy,
                    discriminator_loss_and_grads, extract_reward,
                    gradient_alignment_gap, make_gridworld, soft_optimal_policy,
                    soft_value_iteration)
from meairl.adversarial import mce_irl_gradient


def two_state_kernel():
    """One run's kernel, (1, S, A, S): every row [0.5, 0.5]."""
    kernel = np.zeros((1, 2, 1, 2))
    kernel[0, 0, 0] = [0.5, 0.5]
    kernel[0, 1, 0] = [0.5, 0.5]
    return kernel


class TestFValue:
    def test_hand_value_model_shaping(self):
        # R = 0, phi = [1, 2], rows [0.5, 0.5], gamma = 0.9:
        # f(0, 0) = 0 + 0.9 * 1.5 - 1 = 0.35
        disc = Discriminator.tabular(2, 0.9, dynamics=two_state_kernel(), runs=1)
        disc.phi_table[:] = [1.0, 2.0]
        assert abs(disc.f_values([[0]], [[0]])[0, 0] - 0.35) < 1e-12

    def test_hand_value_sample_shaping(self):
        # single-sample form uses the observed successor instead of the row
        disc = Discriminator.tabular(2, 0.9, shaping="sample", runs=1)
        disc.phi_table[:] = [1.0, 2.0]
        assert abs(disc.f_values([[0]], [[0]], [[1]])[0, 0] - (0.9 * 2.0 - 1.0)) < 1e-12
        assert abs(disc.f_values([[0]], [[0]], [[0]])[0, 0] - (0.9 * 1.0 - 1.0)) < 1e-12

    def test_model_shaping_ignores_observed_successor(self):
        disc = Discriminator.tabular(2, 0.9, dynamics=two_state_kernel(), runs=1)
        disc.phi_table[:] = [1.0, 2.0]
        disc.r_table[0, 0] = 0.25
        for ns in (0, 1):
            assert abs(disc.f_values([[0]], [[0]], [[ns]])[0, 0] - 0.6) < 1e-12

    def test_sample_shaping_requires_next_state(self):
        disc = Discriminator.tabular(2, 0.9, shaping="sample", runs=1)
        with pytest.raises(ValueError):
            disc.f_values(np.array([[0]]), np.array([[0]]))

    def test_model_shaping_requires_dynamics(self):
        with pytest.raises(ValueError):
            Discriminator.tabular(2, 0.9, dynamics=None, shaping="model", runs=1)


class TestDiscriminatorProb:
    """D = exp(f) / (exp(f) + pi), read off the loss with one pair in both batches,
    where the loss is -log D - log(1 - D)."""

    PAIR = ([[0]], [[0]], [[0]])

    def test_hand_value(self):
        # f = log 3 against pi = 1 gives D = 3 / (3 + 1) = 0.75
        disc = Discriminator.tabular(2, 0.9, dynamics=two_state_kernel(), runs=1)
        disc.r_table[:] = math.log(3.0)
        policy = TabularPolicy([[[1.0], [1.0]]])
        [loss], _ = discriminator_loss_and_grads(disc, self.PAIR, self.PAIR, policy)
        assert abs(loss - (-math.log(0.75) - math.log(0.25))) < 1e-12

    def test_matched_point_is_half(self):
        # f = log pi gives D = 1/2, where equal batches pull f both ways equally
        disc = Discriminator.tabular(2, 0.9, dynamics=np.full((1, 2, 2, 2), 0.5), runs=1)
        disc.r_table[:] = math.log(0.5)
        policy = TabularPolicy(np.full((1, 2, 2), 0.5))
        batch = (np.array([[0, 1]]), np.array([[1, 0]]), np.array([[1, 1]]))
        [loss], grads = discriminator_loss_and_grads(disc, batch, batch, policy)
        assert abs(loss - 2 * math.log(2)) < 1e-12
        assert np.max(np.abs(grads)) < 1e-15

    def test_clamped_into_open_interval(self):
        disc = Discriminator.tabular(2, 0.9, dynamics=two_state_kernel(), runs=1)
        policy = TabularPolicy([[[1.0], [1.0]]])
        for r in (100.0, -100.0):
            disc.r_table[:] = r
            [loss], grads = discriminator_loss_and_grads(disc, self.PAIR, self.PAIR, policy)
            # D sits on 1 - 1e-6 or on 1e-6; either way one term is about -log(1e-6)
            assert abs(loss - (-math.log(1.0 - 1e-6) - math.log(1e-6))) < 1e-9
            assert np.max(np.abs(grads)) == 0.0


class TestExtractReward:
    def test_matches_f_minus_log_pi(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, n_states=4, n_actions=2, gamma=0.9)
        disc = Discriminator.tabular(4, 0.9, dynamics=mdp.kernel[None], runs=1)
        disc.params = rng.normal(size=(1, disc.n_params))
        states = np.array([[0, 1, 2, 3]])
        actions = np.array([[0, 1, 0, 1]])
        log_pi = np.log(np.full((1, 4), 0.5))
        got = extract_reward(disc, states, actions, log_policy_prob=log_pi)
        want = disc.f_values(states, actions) - log_pi
        assert np.max(np.abs(got - want)) < 1e-10

    def test_clipped_to_fifty(self):
        disc = Discriminator.tabular(2, 0.9, dynamics=two_state_kernel(), runs=1)
        disc.r_table[:] = 1000.0
        assert extract_reward(disc, [[0]], [[0]], log_policy_prob=[[0.0]])[0, 0] == 50.0
        disc.r_table[:] = -1000.0
        assert extract_reward(disc, [[0]], [[0]], log_policy_prob=[[0.0]])[0, 0] == -50.0


class TestDiscriminatorLoss:
    def test_uninformative_loss_is_two_log_two(self):
        # f = log pi everywhere gives D = 1/2 on both batches
        disc = Discriminator.tabular(2, 0.9, dynamics=np.full((1, 2, 2, 2), 0.5), runs=1)
        disc.r_table[:] = math.log(0.5)
        policy = TabularPolicy(np.full((1, 2, 2), 0.5))
        batch = (np.array([[0, 1]]), np.array([[0, 1]]), np.array([[0, 0]]))
        [loss], _ = discriminator_loss_and_grads(disc, batch, batch, policy)
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_perfect_separation_loss_near_clamp_floor(self):
        # g scores the expert's state +100 and the policy's -100: both terms
        # hit the 1e-6 clamp whatever the action
        disc = Discriminator.tabular(2, 0.9, dynamics=np.full((1, 2, 2, 2), 0.5), runs=1)
        disc.r_table[:] = [100.0, -100.0]
        policy = TabularPolicy(np.full((1, 2, 2), 0.5))
        expert = (np.array([[0, 0]]), np.array([[0, 1]]), np.array([[0, 0]]))
        gen = (np.array([[1, 1]]), np.array([[0, 1]]), np.array([[0, 0]]))
        [loss], grads = discriminator_loss_and_grads(disc, expert, gen, policy)
        assert abs(loss - 2e-6) < 1e-8
        # saturated probabilities pass no gradient
        assert np.max(np.abs(grads)) == 0.0

    def test_gradients_match_finite_differences_continuous(self):
        rng = np.random.default_rng(12)
        model = GaussianDynamicsModel(2, 1, hidden=(4,), rng=rng)
        for shaping in ("model", "sample"):
            disc = Discriminator.continuous(2, 1, 0.9, dynamics=model,
                                            shaping=shaping, hidden=(5,),
                                            n_model_samples=3, rng=rng)
            disc.params = 0.3 * rng.normal(size=disc.n_params)

            class FixedLogProb:
                def log_prob(self, states, actions):
                    return np.full(len(np.atleast_2d(states)), -0.7)

            expert = (rng.normal(size=(6, 2)), rng.normal(size=(6, 1)),
                      rng.normal(size=(6, 2)))
            gen = (rng.normal(size=(6, 2)), rng.normal(size=(6, 1)),
                   rng.normal(size=(6, 2)))
            policy = FixedLogProb()

            # fresh identically seeded rng per call pins the successor draws,
            # so the pathwise gradient is the exact FD counterpart
            def loss_at(flat, d=disc, e=expert, g=gen, p=policy):
                keep = d.params
                d.params = flat
                out, _ = discriminator_loss_and_grads(d, e, g, p,
                                                      rng=np.random.default_rng(99))
                d.params = keep
                return out

            _, grads = discriminator_loss_and_grads(disc, expert, gen, policy,
                                                    rng=np.random.default_rng(99))
            fd = finite_difference_grad(loss_at, disc.params)
            assert max_rel_err(grads, fd) < 1e-4


    @pytest.mark.parametrize("shaping", ["model", "sample"])
    def test_taped_gradients_equal_reforwarded_reference(self, shaping, monkeypatch):
        rng = np.random.default_rng(21)
        model = GaussianDynamicsModel(2, 1, hidden=(8, 8), rng=rng)
        disc = Discriminator.continuous(2, 1, 0.9, dynamics=model, shaping=shaping,
                                        hidden=(16, 16), n_model_samples=4, rng=rng)
        policy = SacAgent(2, 1, [-1.0], [1.0], 0.9, hidden=(8,), rng=rng)
        expert, gen = ((rng.normal(size=(32, 2)), rng.uniform(-1, 1, size=(32, 1)),
                        rng.normal(size=(32, 2))) for _ in range(2))
        draws = np.random.default_rng(3)
        loss, grads = discriminator_loss_and_grads(disc, expert, gen, policy, rng=draws)
        use_reference_backward(monkeypatch)
        ref_draws = np.random.default_rng(3)
        ref_loss, ref_grads = discriminator_loss_and_grads(disc, expert, gen, policy,
                                                           rng=ref_draws)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)
        assert draws.bit_generator.state == ref_draws.bit_generator.state


class TestStateOnlyTabular:
    def test_param_round_trip(self):
        disc = Discriminator.tabular(4, 0.9, dynamics=np.full((1, 4, 3, 4), 0.25), runs=1)
        assert disc.r_table.shape == (1, 4)
        assert disc.n_params == 2 * 4
        flat = np.random.default_rng(0).normal(size=(1, disc.n_params))
        disc.params = flat
        assert np.array_equal(disc.params, flat)
        assert np.array_equal(disc.r_table, flat[:, :4])

    def test_params_do_not_alias_the_live_tables(self):
        # the parameters are one (R, 2S) array with r_table and phi_table as
        # its views; a value read from `params` must keep its bits when the
        # tables move on, as a saved copy for finite differences needs
        disc = Discriminator.tabular(3, 0.9, shaping="sample", runs=2)
        before = disc.params
        disc.r_table[:] = 1.0
        disc.phi_table[1] = -2.0
        disc.params = disc.params + 0.5
        assert np.array_equal(before, np.zeros((2, 6)))
        assert np.array_equal(disc.params, [[1.5] * 3 + [0.5] * 3, [1.5] * 3 + [-1.5] * 3])

    def test_reward_term_ignores_the_action(self):
        disc = Discriminator.tabular(2, 0.9, shaping="sample", runs=1)
        disc.r_table[:] = [0.7, -0.2]
        f = disc.f_values(np.array([[0, 0, 0, 1]]), np.array([[0, 1, 2, 1]]),
                          np.array([[1, 1, 1, 1]]))
        assert np.array_equal(f, [[0.7, 0.7, 0.7, -0.2]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        for shaping in ("model", "sample"):
            mdp = random_mdp(rng, n_states=5, n_actions=3, gamma=0.9)
            disc = Discriminator.tabular(5, 0.9, dynamics=mdp.kernel[None],
                                         shaping=shaping, runs=1)
            disc.params = 0.3 * rng.normal(size=(1, disc.n_params))
            policy = TabularPolicy(rng.dirichlet(np.ones(3), size=(1, 5)))
            # repeated states with different actions exercise the scatter by state
            expert = (rng.integers(0, 5, (1, 12)), rng.integers(0, 3, (1, 12)),
                      rng.integers(0, 5, (1, 12)))
            gen = (rng.integers(0, 5, (1, 12)), rng.integers(0, 3, (1, 12)),
                   rng.integers(0, 5, (1, 12)))
            _, grads = discriminator_loss_and_grads(disc, expert, gen, policy)
            assert grads.shape == (1, 2 * 5)

            def loss_at(flat, d=disc, e=expert, g=gen, p=policy):
                keep = d.params
                d.params = flat.reshape(keep.shape)
                [out], _ = discriminator_loss_and_grads(d, e, g, p)
                d.params = keep
                return out

            fd = finite_difference_grad(loss_at, disc.params.ravel())
            assert max_rel_err(grads, fd) < 1e-4

    def test_model_shaping_with_true_kernel_gives_soft_advantage(self):
        # gridworld reward is state-only (the goal pays for every action), so
        # g = reward[:, 0] and phi = soft V under model shaping through the
        # true slippery kernel reproduce f = soft Q - soft V on every pair
        mdp = make_gridworld(4, 3, 0.3, 5.0, 0.9)
        assert np.array_equal(mdp.reward, np.repeat(mdp.reward[:, :1], 4, axis=1))
        [values] = soft_value_iteration([instance(mdp)], tol=1e-12)
        disc = Discriminator.tabular(mdp.n_states, mdp.discount,
                                     dynamics=mdp.kernel[None], runs=1)
        disc.r_table[:] = mdp.reward[:, 0]
        disc.phi_table[:] = values.v
        s, a = np.divmod(np.arange(mdp.n_states * mdp.n_actions)[None], mdp.n_actions)
        f = disc.f_values(s, a).reshape(mdp.n_states, mdp.n_actions)
        assert np.max(np.abs(f - (values.q - values.v[:, None]))) < 1e-10
        # the same tables under sample shaping miss the advantage on some
        # successor the slippery kernel reaches
        sample = Discriminator.tabular(mdp.n_states, mdp.discount,
                                       shaping="sample", runs=1)
        sample.params = disc.params
        ss, aa, nn = np.nonzero(mdp.kernel > 0.0)
        gap = np.abs(sample.f_values(ss[None], aa[None], nn[None])[0] - values.adv[ss, aa])
        assert gap.max() > 0.1


class TestStackedRuns:
    """R stacked runs, each with its own kernel, tables, policy and batches:
    every run gets the bits of a one-run discriminator holding its slices."""

    RUNS, STATES, ACTIONS, BATCH = 3, 5, 3, 12

    def test_runs_is_required(self):
        with pytest.raises(TypeError):
            Discriminator.tabular(2, 0.9, shaping="sample")
        assert Discriminator.tabular(2, 0.9, shaping="sample", runs=4).r_table.shape == (4, 2)

    @pytest.mark.parametrize("shaping", ["model", "sample"])
    def test_batch_without_the_run_axis_raises(self, shaping):
        # a (B,) batch would broadcast to every run's row of the tables
        disc = Discriminator.tabular(4, 0.9, np.full((3, 4, 2, 4), 0.25), shaping, runs=3)
        flat = (np.array([0, 1]), np.array([0, 1]), np.array([1, 2]))
        stacked = tuple(np.tile(column, (3, 1)) for column in flat)
        policy = TabularPolicy(np.full((3, 4, 2), 0.5))
        with pytest.raises(ValueError, match="3 runs"):
            disc.f_values(*flat)
        longer = tuple(np.tile(column, (3, 2)) for column in flat)
        cases = [(flat, flat), (stacked[:1] + flat[1:], stacked), (stacked, longer)]
        if shaping == "sample":  # the only rule that reads the next states
            cases.append((stacked[:2] + flat[2:], stacked))
        for expert, gen in cases:
            with pytest.raises(ValueError, match="3 runs|differ in shape"):
                discriminator_loss_and_grads(disc, expert, gen, policy)

    @pytest.mark.parametrize("shaping", ["model", "sample"])
    def test_policy_without_the_run_axis_raises(self, shaping):
        # an (S, A) policy would stand in for every run's own policy
        disc = Discriminator.tabular(4, 0.9, np.full((3, 4, 2, 4), 0.25), shaping, runs=3)
        batch = tuple(np.tile(column, (3, 1)) for column in
                      (np.array([0, 1]), np.array([0, 1]), np.array([1, 2])))
        for probs in (np.full((4, 2), 0.5), np.full((2, 4, 2), 0.5), np.full((3, 5, 2), 0.5)):
            with pytest.raises(ValueError, match=r"\(R, S, A\) TabularPolicy"):
                discriminator_loss_and_grads(disc, batch, batch, TabularPolicy(probs))

    @pytest.mark.parametrize("shaping", ["model", "sample"])
    def test_each_run_equals_its_one_run_discriminator(self, shaping):
        rng = np.random.default_rng(31)
        runs, n_states, n_actions = self.RUNS, self.STATES, self.ACTIONS
        kernels = np.stack([random_mdp(rng, n_states, n_actions, 0.9).kernel
                            for _ in range(runs)])
        disc = Discriminator.tabular(n_states, 0.9, kernels, shaping, runs=runs)
        disc.params = rng.normal(size=(runs, disc.n_params))
        policy = TabularPolicy(rng.dirichlet(np.ones(n_actions), size=(runs, n_states)))
        expert, gen = ((rng.integers(0, n_states, (runs, self.BATCH)),
                        rng.integers(0, n_actions, (runs, self.BATCH)),
                        rng.integers(0, n_states, (runs, self.BATCH))) for _ in range(2))
        losses, grads = discriminator_loss_and_grads(disc, expert, gen, policy)
        f = disc.f_values(*gen)
        for k in range(runs):
            one = Discriminator.tabular(n_states, 0.9, kernels[k:k + 1], shaping, runs=1)
            one.params = disc.params[k:k + 1]
            run_expert, run_gen = (tuple(col[k:k + 1] for col in batch)
                                   for batch in (expert, gen))
            loss_k, grads_k = discriminator_loss_and_grads(
                one, run_expert, run_gen, TabularPolicy(policy.probs[k:k + 1]))
            assert np.array_equal(loss_k, losses[k:k + 1])
            assert np.array_equal(grads_k, grads[k:k + 1])
            assert np.array_equal(one.f_values(*run_gen), f[k:k + 1])


class TestModelExpectation:
    def test_monte_carlo_matches_linear_gaussian_expectation(self):
        # affine phi, near-deterministic Gaussian model: E[phi(s')] is analytic
        rng = np.random.default_rng(5)
        model = GaussianDynamicsModel(1, 1, hidden=(4,), rng=rng)
        params = np.zeros(model.n_params)
        params[model.mean_net.n_params - 1] = 0.4   # mean bias: s' = s + 0.4
        params[-1] = -50.0                          # raw log-std under the clamp floor
        model.params = params
        phi = Mlp([1, 1], rng=rng)
        phi.params = np.array([2.0, 1.0])           # phi(s) = 2 s + 1
        disc = Discriminator("continuous", 0.9, model, "model",
                             r_net=Mlp([2, 1], rng=rng), phi_net=phi,
                             n_model_samples=256)
        disc.r_net.params = np.zeros(disc.r_net.n_params)
        state = np.array([[1.0]])
        action = np.array([[0.0]])
        got = disc.f_values(state, action, rng=np.random.default_rng(0))[0]
        exact = 0.9 * (2.0 * 1.4 + 1.0) - (2.0 * 1.0 + 1.0)
        # sigma = exp(-5), 256 draws: Monte Carlo error well under 5e-3
        assert abs(got - exact) < 5e-3


def soft_optimal_occupancy(mdp, g):
    """Occupancy of the soft-optimal policy for the state-only reward g."""
    reward = np.repeat(g[:, None], mdp.n_actions, axis=1)
    [values] = soft_value_iteration([(mdp.kernel, reward, mdp.discount)], tol=1e-12)
    [d] = discounted_occupancy([(mdp.kernel, mdp.init_dist, mdp.discount)],
                               [soft_optimal_policy(values).probs], tol=1e-12)
    return d


class TestMceGradient:
    def test_hand_value_single_state(self):
        # a state-only reward cannot tell actions apart: with one state the
        # marginals agree whatever the expert does; with two, the gradient
        # moves mass toward the expert's state
        assert np.array_equal(mce_irl_gradient([[1.0, 0.0]], [[0.5, 0.5]]), [0.0])
        grad = mce_irl_gradient([[0.5, 0.1], [0.2, 0.2]], [[0.1, 0.1], [0.4, 0.4]])
        assert np.max(np.abs(grad - [0.4, -0.4])) < 1e-15

    def test_matched_occupancy_zeroes_gradient(self):
        # a constant added to g leaves the soft-optimal policy unchanged
        rng = np.random.default_rng(8)
        mdp = random_mdp(rng, n_states=4, n_actions=3, gamma=0.9)
        g = rng.normal(size=4)
        d_pi = soft_optimal_occupancy(mdp, g)
        d_exp = soft_optimal_occupancy(mdp, g + 5.0)
        assert np.max(np.abs(mce_irl_gradient(d_exp, d_pi))) < 1e-9

    def test_ascent_recovers_expert_occupancy(self):
        # 500 steps of plain gradient ascent, lr 0.5, on a fixed small MDP,
        # toward an expert that is soft-optimal for a state-only reward
        rng = np.random.default_rng(21)
        mdp = random_mdp(rng, n_states=4, n_actions=2, gamma=0.9)
        d_exp = soft_optimal_occupancy(mdp, rng.normal(size=4))
        g = np.zeros(4)
        for _ in range(500):
            d_pi = soft_optimal_occupancy(mdp, g)
            g = g + 0.5 * mce_irl_gradient(d_exp, d_pi)
        d_fit = soft_optimal_occupancy(mdp, g)
        assert 0.5 * np.abs(d_fit.sum(axis=1) - d_exp.sum(axis=1)).sum() < 0.01


def dirichlet_expert(rng, mdp):
    return rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)


class TestGradientAlignment:
    def test_zero_on_hand_instance(self):
        kernel = np.zeros((2, 2, 2))
        kernel[0, 0] = [0.9, 0.1]
        kernel[0, 1] = [0.2, 0.8]
        kernel[1, 0] = [0.5, 0.5]
        kernel[1, 1] = [1.0, 0.0]
        mdp = TabularMDP(kernel, np.zeros((2, 2)), 0.9, [0.5, 0.5])
        expert = np.array([[0.9, 0.1], [0.5, 0.5]])
        gaps = gradient_alignment_gap([(mdp, np.array([1.0, -0.3]), expert)])
        assert gaps.model[0] < 1e-8
        assert gaps.mce[0] > 1e-3

    def test_zero_on_random_instances(self):
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(10):
            mdp = random_mdp(rng)
            cases.append((mdp, rng.normal(size=mdp.n_states), dirichlet_expert(rng, mdp)))
        gaps = gradient_alignment_gap(cases)
        assert gaps.model.max() < 1e-8
        assert gaps.mce.min() > 1e-4

    def test_sample_shaping_breaks_alignment_on_stochastic_kernel(self):
        # a single sampled successor is the wrong f once the kernel is stochastic
        rng = np.random.default_rng(14)
        mdp = random_mdp(rng, n_states=5, n_actions=3, gamma=0.9)
        gaps = gradient_alignment_gap([(mdp, rng.normal(size=5), dirichlet_expert(rng, mdp))])
        assert gaps.model[0] < 1e-8
        assert gaps.sample[0] > 1e-3


class TestExpertBuffer:
    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            ExpertBuffer([0, 1], [0], [1, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExpertBuffer([], [], [])

    def test_sample_with_replacement(self):
        buf = ExpertBuffer([0, 1, 2], [0, 1, 0], [1, 2, 0])
        rng = np.random.default_rng(0)
        s, a, n = buf.sample(10, rng)
        assert len(s) == len(a) == len(n) == 10
        assert set(s) <= {0, 1, 2}

    def test_columns_are_read_only(self):
        buf = ExpertBuffer([0, 1], [0, 1], [1, 0])
        with pytest.raises(ValueError):
            buf.states[0] = 5

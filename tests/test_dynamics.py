"""Transition models: tabular counts, TV distance, Gaussian MLP, rollouts."""

import math

import numpy as np
import pytest

from helpers import (finite_difference_grad, max_rel_err, random_mdp,
                     use_reference_backward)
from meairl import (GaussianDynamicsModel, TabularDynamicsEstimate,
                    TabularPolicy, make_noisy_pointmass,
                    rollout_synthetic, tv_distance)
from meairl.seeding import RunStreams


def fit_by_adds(transitions, n_states, n_actions, alpha):
    """A one-run count model fed one add per transition, as a tabular
    training run feeds it."""
    est = TabularDynamicsEstimate(n_states, n_actions, alpha=alpha, runs=1)
    for s, a, s_next in transitions:
        est.add(np.array([s]), np.array([a]), np.array([s_next]))
    return est


def one_run(probs):
    """An (S, A) table as the (1, S, A) policy of one stacked run."""
    return TabularPolicy(np.asarray(probs)[None])


def one_stream(seed):
    return RunStreams([np.random.default_rng(seed)])


class TestFitTabular:
    def test_runs_is_required(self):
        with pytest.raises(TypeError):
            TabularDynamicsEstimate(3, 2, alpha=0.1)
        assert TabularDynamicsEstimate(3, 2, alpha=0.1, runs=4).kernel.shape == (4, 3, 2, 3)

    def test_empirical_frequencies(self):
        est = fit_by_adds([(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 2)],
                          n_states=3, n_actions=1, alpha=0.0)
        assert np.allclose(est.kernel[0, 0, 0], [0.0, 0.75, 0.25], atol=1e-12)

    def test_pure_prior_uniform(self):
        est = fit_by_adds([], n_states=3, n_actions=2, alpha=1.0)
        assert np.allclose(est.kernel, 1.0 / 3.0, atol=1e-12)

    def test_zero_alpha_empty_row_falls_back_uniform(self):
        est = fit_by_adds([(0, 0, 1)], n_states=2, n_actions=2, alpha=0.0)
        assert np.allclose(est.kernel[0, 1, 0], 0.5, atol=1e-12)
        assert np.allclose(est.kernel[0, 0, 0], [0.0, 1.0], atol=1e-12)

    def test_law_of_large_numbers(self):
        row = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(0)
        draws = rng.choice(3, size=10 ** 5, p=row)
        est = fit_by_adds(((0, 0, n) for n in draws.tolist()),
                          n_states=3, n_actions=1, alpha=0.0)
        assert 0.5 * np.abs(est.kernel[0, 0, 0] - row).sum() < 0.01

    def test_incremental_matches_batch_fit(self):
        # the row refreshed after each add equals the smoothed frequency of all counts
        rng = np.random.default_rng(1)
        triples = [(int(rng.integers(3)), int(rng.integers(2)), int(rng.integers(3)))
                   for _ in range(200)]
        inc = fit_by_adds(triples, 3, 2, alpha=0.1)
        counts = np.zeros((3, 2, 3))
        np.add.at(counts, tuple(np.array(triples).T), 1.0)
        batch = (counts + 0.1) / (counts + 0.1).sum(axis=2, keepdims=True)
        assert np.max(np.abs(inc.kernel[0] - batch)) < 1e-12

    def test_rows_always_stochastic(self):
        rng = np.random.default_rng(2)
        est = TabularDynamicsEstimate(4, 2, alpha=0.1, runs=1)
        for _ in range(50):
            est.add(rng.integers(4, size=1), rng.integers(2, size=1), rng.integers(4, size=1))
            assert np.allclose(est.kernel.sum(axis=-1), 1.0, atol=1e-12)

    def test_each_run_counts_only_its_own_transitions(self):
        # one add of three runs equals three one-run models fed their own entry
        rng = np.random.default_rng(11)
        est = TabularDynamicsEstimate(4, 2, alpha=0.1, runs=3)
        triples = rng.integers(0, [4, 2, 4], size=(60, 3, 3))  # (step, run, s/a/s')
        for step in triples:
            est.add(*step.T)
        for k in range(3):
            alone = fit_by_adds(triples[:, k].tolist(), 4, 2, alpha=0.1)
            assert np.array_equal(est.kernel[k], alone.kernel[0])
            assert np.array_equal(est.counts[k], alone.counts[0])

    @pytest.mark.parametrize("layout", ["columns", "rows"])
    def test_stacked_nll_equals_each_runs_1d_mean(self, layout):
        # each run's float is np.mean over that run's row alone; the training
        # loop hands its (n, R) buffer columns transposed, where a 2-D
        # mean(axis=-1) would sum the rows in another order
        rng = np.random.default_rng(12)
        est = TabularDynamicsEstimate(6, 3, alpha=0.01, runs=3)
        for _ in range(400):
            est.add(rng.integers(0, 6, 3), rng.integers(0, 3, 3), rng.integers(0, 6, 3))
        columns = [rng.integers(0, bound, size=(256, 3)) for bound in (6, 3, 6)]
        batch = [c.T if layout == "columns" else np.ascontiguousarray(c.T) for c in columns]
        got = est.nll(*batch)
        assert isinstance(got, list) and len(got) == 3
        for k, value in enumerate(got):
            s, a, s_next = (c[:, k].copy() for c in columns)
            probs = est.kernel[k][s, a, s_next]
            assert value == float(-np.mean(np.log(np.maximum(probs, 1e-300))))


class TestTvDistance:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng)
        assert tv_distance(mdp.kernel, mdp.kernel) == (0.0, 0.0)

    def test_hand_value(self):
        a = np.array([[[1.0, 0.0]]])
        b = np.array([[[0.9, 0.1]]])
        assert abs(tv_distance(a, b)[0] - 0.1) < 1e-12

    def test_disjoint_support_is_one(self):
        a = np.array([[[1.0, 0.0]]])
        b = np.array([[[0.0, 1.0]]])
        assert tv_distance(a, b)[0] == 1.0

    def test_weighted_average(self):
        a = np.zeros((2, 1, 2))
        a[:, :, 0] = 1.0
        b = a.copy()
        b[1, 0] = [0.5, 0.5]  # TV 0.5 on the second row only
        weights = np.array([[0.75], [0.25]])
        maxi, weighted = tv_distance(a, b, weights)
        assert maxi == 0.5
        assert abs(weighted - 0.125) < 1e-12


def tiny_model(rng=None, hidden=(4, 4)):
    return GaussianDynamicsModel(1, 1, hidden=hidden,
                                 state_low=np.array([-5.0]),
                                 state_high=np.array([5.0]),
                                 rng=rng or np.random.default_rng(0))


class TestGaussianModel:
    def test_n_draws_equal_sequential_draws(self):
        # one model pass and one (n, B, d) normal draw give the same bits,
        # clip included, as n separate calls on the same generator
        model = tiny_model(np.random.default_rng(3))
        rng = np.random.default_rng(4)
        states = rng.uniform(-5, 5, size=(7, 1))
        actions = rng.uniform(-1, 1, size=(7, 1))
        together = model.sample_next(states, actions, np.random.default_rng(5), n=3)
        one_by_one = np.random.default_rng(5)
        apart = np.stack([model.sample_next(states, actions, one_by_one) for _ in range(3)])
        assert together.shape == (3, 7, 1)
        assert np.array_equal(together, apart)
        assert together.min() >= -5.0 and together.max() <= 5.0

    def test_zero_residual_unit_sigma_loss(self):
        model = tiny_model()
        model.params = np.zeros(model.n_params)
        # zero nets: predicted delta 0 and log-std 0, so mu = s, sigma = 1
        states = np.array([[0.3], [-1.2]])
        actions = np.array([[0.5], [0.1]])
        loss, _ = model.loss_and_grads(states, actions, states)
        assert abs(loss - 0.5 * math.log(2 * math.pi)) < 1e-12
        assert abs(loss - 0.9189) < 1e-3

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = tiny_model(rng)
        assert model.n_params < 120
        states = rng.uniform(-2, 2, size=(6, 1))
        actions = rng.uniform(-1, 1, size=(6, 1))
        nxt = states + 0.1 * actions + 0.05 * rng.standard_normal((6, 1))

        def loss_fn(flat):
            probe = tiny_model()
            probe.params = flat
            return probe.loss_and_grads(states, actions, nxt)[0]

        loss, grads = model.loss_and_grads(states, actions, nxt)
        fd = finite_difference_grad(loss_fn, model.params)
        assert max_rel_err(grads, fd) < 1e-4

    def test_taped_gradients_equal_reforwarded_reference(self, monkeypatch):
        rng = np.random.default_rng(8)
        model = tiny_model(rng, hidden=(16, 16))
        states = rng.uniform(-2, 2, size=(32, 1))
        actions = rng.uniform(-1, 1, size=(32, 1))
        nxt = states + 0.1 * actions + 0.05 * rng.standard_normal((32, 1))
        loss, grads = model.loss_and_grads(states, actions, nxt)
        use_reference_backward(monkeypatch)
        ref_loss, ref_grads = model.loss_and_grads(states, actions, nxt)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)

    def test_gradient_zero_in_saturated_logstd_region(self):
        rng = np.random.default_rng(6)
        model = tiny_model(rng)
        # push the log-std head far below the clamp floor
        params = model.params
        params[model.mean_net.n_params:] = 0.0
        bias_index = model.n_params - 1
        params[bias_index] = -50.0  # raw log-std -50, clamped to -5
        model.params = params
        states = np.array([[0.0]])
        actions = np.array([[0.0]])
        nxt = np.array([[0.0]])
        _, grads = model.loss_and_grads(states, actions, nxt)
        assert grads[bias_index] == 0.0

    def test_std_respects_clamp(self):
        rng = np.random.default_rng(7)
        model = tiny_model(rng)
        model.params = rng.normal(size=model.n_params) * 30
        _, sigma = model.predict(np.array([[1.0]]), np.array([[1.0]]))
        assert math.exp(-5) - 1e-12 <= sigma[0, 0] <= math.exp(2) + 1e-12


class TestRolloutSynthetic:
    def test_one_hot_row_deterministic(self):
        est = fit_by_adds([(0, 0, 1), (1, 0, 1)], 2, 1, alpha=0.0)
        pol = one_run(np.ones((2, 1)))
        s, a, n = rollout_synthetic(est, pol, np.array([[0]]), horizon=1, seed=one_stream(0))
        assert s.tolist() == [[0]] and a.tolist() == [[0]] and n.tolist() == [[1]]

    def test_seeded_repeatability(self):
        est = TabularDynamicsEstimate(4, 2, alpha=1.0, runs=1)
        pol = one_run(np.full((4, 2), 0.5))
        starts = np.array([[0, 1, 2]])
        r1 = rollout_synthetic(est, pol, starts, horizon=3, seed=one_stream(123))
        r2 = rollout_synthetic(est, pol, starts, horizon=3, seed=one_stream(123))
        for x, y in zip(r1, r2):
            assert x.shape == (1, 9)
            assert np.array_equal(x, y)

    def test_chain_uses_model_successors(self):
        # a deterministic cycle
        est = fit_by_adds([(s, a, (s + 1) % 3) for s in range(3) for a in range(2)],
                          3, 2, alpha=0.0)
        pol = one_run(np.full((3, 2), 0.5))
        s, a, n = rollout_synthetic(est, pol, np.array([[0]]), horizon=3, seed=one_stream(1))
        assert s.tolist() == [[0, 1, 2]]
        assert n.tolist() == [[1, 2, 0]]

    def test_matched_model_frequency(self):
        row = np.array([0.5, 0.3, 0.2])
        kernel = np.broadcast_to(row, (3, 1, 3)).copy()
        # feed counts proportional to the row, so the estimate is the kernel exactly
        est = fit_by_adds([(s, 0, s_next) for s_next, count in ((0, 5), (1, 3), (2, 2))
                           for s in range(3) for _ in range(count)], 3, 1, alpha=0.0)
        assert np.max(np.abs(est.kernel[0] - kernel)) < 1e-12
        pol = one_run(np.ones((3, 1)))
        starts = np.zeros((1, 10 ** 5), dtype=np.int64)
        _, _, n = rollout_synthetic(est, pol, starts, horizon=1, seed=one_stream(5))
        freqs = np.bincount(n[0], minlength=3) / n.size
        assert 0.5 * np.abs(freqs - row).sum() < 0.01

    def test_continuous_rollout_stays_in_bounds(self):
        rng = np.random.default_rng(10)
        env = make_noisy_pointmass(0.5)
        model = GaussianDynamicsModel(1, 1, hidden=(8, 8),
                                      state_low=env.state_low,
                                      state_high=env.state_high, rng=rng)
        model.params = rng.normal(size=model.n_params) * 5

        def act(states, rng_):
            return rng_.uniform(-1, 1, size=(len(states), 1))

        starts = rng.uniform(-5, 5, size=(16, 1))
        s, a, n = rollout_synthetic(model, act, starts, horizon=4, seed=2)
        assert n.min() >= -5.0 and n.max() <= 5.0
        assert s.shape == (64, 1) and a.shape == (64, 1)

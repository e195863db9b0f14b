"""Top-level acceptance checks, one numbered test per advertised claim.

The numbering matches the acceptance checklist in the README. Exact and
finite-difference checks run on randomized instances; the gridworld
comparison runs once in a module-scoped fixture and feeds the three
criterion-7 verdicts. Under -v each test contributes one pass/fail line.
"""

import copy
import dataclasses
import math
import time

import numpy as np
import pytest

from helpers import finite_difference_grad, max_rel_err
from helpers import random_mdp as fixed_size_mdp

from meairl import adversarial, bounds, seeding, training
from meairl.adversarial import (Discriminator, ExpertBuffer,
                                discriminator_loss_and_grads, gradient_alignment_gap)
from meairl.bounds import (performance_difference_bound, random_problem,
                           reward_error_bound, run_bound_sweep,
                           verify_performance_difference_bound)
from meairl.cli import attainment_threshold, expert_return_target, main, \
    steps_to_threshold
from meairl.config import EnvSpec, ExperimentConfig, build_env
from meairl.dynamics import GaussianDynamicsModel, TabularDynamicsEstimate, tv_distance
from meairl.mdp import TabularPolicy, make_gridworld
from meairl.neural import AdamState, Mlp, adam_step
from meairl.policy_opt import SacAgent
from meairl.suites import run_alignment_suite, run_invariance_suite
from meairl.training import (CSV_HEADER, TrainingConfig, generate_expert,
                             run_meairl)


@pytest.fixture(scope="module")
def invariance_report():
    # one 200-case run shared by criteria 1 and 2
    return run_invariance_suite(n_cases=200, tol=1e-8, seed=0, dp_tol=1e-10)


def test_criterion_1_shaping_preserves_soft_advantages(invariance_report):
    assert invariance_report.n_cases >= 200
    assert invariance_report.max_adv_gap <= 1e-8
    assert invariance_report.elapsed_seconds < 60.0


def test_criterion_2_shaped_q_differs_by_exactly_the_potential(invariance_report):
    assert invariance_report.max_q_shift_gap <= 1e-8
    assert invariance_report.passed


def criterion_3a_holds(report) -> bool:
    # the identity within 1e-8 on every case, against an MCE side that is
    # far from zero somewhere, so the check cannot pass vacuously
    return report.max_gap <= 1e-8 and report.max_mce > 1e-2


def test_criterion_3_discriminator_gradient_aligns_with_occupancy_matching():
    report = run_alignment_suite(n_cases=50, tol=1e-8, seed=0)
    assert report.n_cases >= 50
    assert criterion_3a_holds(report)
    assert report.passed


def grid_alignment_gaps(slip):
    # the grid's own state-only reward, and a random expert
    mdp = make_gridworld(4, 4, slip_prob=slip, goal_reward=1.0, discount=0.9)
    expert = np.random.default_rng(0).dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
    return gradient_alignment_gap([(mdp, mdp.reward[:, 0], expert)])


def test_criterion_3b_sample_shaping_aligns_on_deterministic_grid():
    gaps = grid_alignment_gaps(0.0)
    assert gaps.sample[0] <= 1e-8
    assert gaps.model[0] <= 1e-8
    assert gaps.mce[0] > 1e-2


@pytest.mark.parametrize("slip", [0.1, 0.3])
def test_criterion_3c_sample_shaping_misaligns_on_slippery_grid(slip):
    gaps = grid_alignment_gaps(slip)
    assert gaps.sample[0] > 1e-3
    assert gaps.model[0] <= 1e-8


def test_criterion_3_negative_control_a_flipped_shaping_sign_fails(monkeypatch):
    # the gamma * phi(s') term of the gradient taken with the wrong sign
    true_grads = adversarial._tabular_grads

    def flipped(disc, *batch):
        wrong = copy.copy(disc)
        wrong.discount = -disc.discount
        return true_grads(wrong, *batch)

    monkeypatch.setattr(adversarial, "_tabular_grads", flipped)
    report = run_alignment_suite(n_cases=50, tol=1e-8, seed=0)
    assert not criterion_3a_holds(report)
    assert report.max_gap > 1e-2


def test_criterion_3_negative_control_b_expert_rows_weighted_by_policy_fails(monkeypatch):
    true_grads = adversarial._exact_grads
    monkeypatch.setattr(adversarial, "_exact_grads",
                        lambda disc, policy, kernel, d_exp, d_pi:
                        true_grads(disc, policy, kernel, d_pi, d_pi))
    report = run_alignment_suite(n_cases=50, tol=1e-8, seed=0)
    assert not criterion_3a_holds(report)
    assert report.max_gap > 1e-2


@pytest.fixture(scope="module")
def bound_sweep():
    # one 1000-instance pass shared by criteria 4 and 5: each problem is
    # drawn once and checked against both bounds
    return run_bound_sweep(1000, seed=0)


def test_criterion_4_reward_recovery_error_bound_holds_on_sweep(bound_sweep):
    rows, _ = bound_sweep
    assert len(rows) == 1000
    assert all(r.passed for r in rows)
    assert abs(reward_error_bound(0.9, 5, 0.1, 1.0) - 4.5) < 1e-9


def test_criterion_4_negative_control_a_shrunk_bound_fails(monkeypatch):
    # the sweep's gaps come within a factor of a few of the bound, so a
    # bound 100x too small must be caught
    true_bound = bounds.reward_error_bound
    monkeypatch.setattr(bounds, "reward_error_bound", lambda *args: true_bound(*args) / 100.0)
    rows, _ = run_bound_sweep(200, seed=0)
    assert sum(not r.passed for r in rows) >= 100


def test_criterion_5_optimal_value_gap_bound_holds_on_sweep(bound_sweep):
    _, rows = bound_sweep
    assert len(rows) == 1000
    assert all(r.passed for r in rows)
    assert abs(performance_difference_bound(0.9, 5, 0.1, 1.0) - 104.0) < 1e-9
    # the model-greedy policy loses true value on many instances (276 at
    # seed 0, up to 0.085 of the bound), so the check is not vacuous
    assert sum(r.observed_gap > 1e-6 for r in rows) >= 100
    assert max(r.ratio for r in rows) > 1e-2
    # a perfect model loses nothing
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem = random_problem(rng, perturb_rate=0.0)
        row, = verify_performance_difference_bound([problem], [0])
        assert row.observed_gap <= 1e-8


def test_criterion_5_negative_control_a_shrunk_bound_fails(monkeypatch):
    # no gap at seed 0 comes within 10x of its bound, but 55 come within
    # 100x, so a bound 100x too small must be caught
    true_bound = bounds.performance_difference_bound
    monkeypatch.setattr(bounds, "performance_difference_bound",
                        lambda *args: true_bound(*args) / 100.0)
    _, rows = run_bound_sweep(1000, seed=0)
    assert sum(not r.passed for r in rows) >= 25


def mlp_gradient_errors(rng) -> list:
    """`Mlp.backward` against finite differences: the max relative error
    for an identity and a tanh output layer."""
    errors = []
    for output in ("identity", "tanh"):
        net = Mlp([3, 8, 5, 2], output=output, rng=rng)
        x = rng.normal(size=(6, 3))
        upstream = rng.normal(size=(6, 2))
        grads, _ = net.backward(x, upstream)

        def net_loss(flat, net=net, x=x, upstream=upstream):
            keep = net.params.copy()
            net.params = flat
            out = float(np.sum(upstream * net.forward(x)))
            net.params = keep
            return out

        errors.append(max_rel_err(grads, finite_difference_grad(net_loss, net.params)))
    return errors


def tabular_disc_gradient_errors(rng) -> list:
    """The state-only g(s) discriminator every tabular run trains, three
    runs stacked, each with its own kernel, policy, parameters and batches,
    against finite differences of the sum of the runs' losses: the max
    relative error under model and sample shaping."""
    runs = 3
    errors = []
    for shaping in ("model", "sample"):
        kernels = np.stack([fixed_size_mdp(rng, n_states=5, n_actions=3, gamma=0.9).kernel
                            for _ in range(runs)])
        disc = Discriminator.tabular(5, 0.9, dynamics=kernels, shaping=shaping, runs=runs)
        assert disc.r_table.shape == (runs, 5)
        disc.params = 0.3 * rng.normal(size=(runs, disc.n_params))
        policy = TabularPolicy(rng.dirichlet(np.ones(3), size=(runs, 5)))
        expert = (rng.integers(0, 5, (runs, 10)), rng.integers(0, 3, (runs, 10)),
                  rng.integers(0, 5, (runs, 10)))
        gen = (rng.integers(0, 5, (runs, 10)), rng.integers(0, 3, (runs, 10)),
               rng.integers(0, 5, (runs, 10)))
        _, dgrads = discriminator_loss_and_grads(disc, expert, gen, policy)

        def disc_loss(flat, d=disc, e=expert, g=gen, p=policy):
            keep = d.params
            d.params = flat.reshape(keep.shape)
            out, _ = discriminator_loss_and_grads(d, e, g, p)
            d.params = keep
            return float(out.sum())

        errors.append(max_rel_err(dgrads,
                                  finite_difference_grad(disc_loss, disc.params.ravel())))
    return errors


def test_criterion_6_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(0)

    for error in mlp_gradient_errors(rng):
        assert error < 1e-4

    model = GaussianDynamicsModel(2, 1, hidden=(6,), rng=rng)
    ms = rng.normal(size=(5, 2))
    ma = rng.normal(size=(5, 1))
    mn = ms + 0.1 * rng.normal(size=(5, 2))
    _, mgrads = model.loss_and_grads(ms, ma, mn)

    def model_loss(flat):
        keep = model.params.copy()
        model.params = flat
        out, _ = model.loss_and_grads(ms, ma, mn)
        model.params = keep
        return out

    assert max_rel_err(mgrads, finite_difference_grad(model_loss, model.params)) < 1e-4

    for error in tabular_disc_gradient_errors(rng):
        assert error < 1e-4

    class FixedLogProb:
        def log_prob(self, states, actions):
            return np.full(len(np.atleast_2d(states)), -0.7)

    gm = GaussianDynamicsModel(2, 1, hidden=(4,), rng=rng)
    for shaping in ("model", "sample"):
        disc = Discriminator.continuous(2, 1, 0.9, dynamics=gm, shaping=shaping,
                                        hidden=(5,), n_model_samples=3, rng=rng)
        disc.params = 0.3 * rng.normal(size=disc.n_params)
        expert = (rng.normal(size=(6, 2)), rng.normal(size=(6, 1)),
                  rng.normal(size=(6, 2)))
        gen = (rng.normal(size=(6, 2)), rng.normal(size=(6, 1)),
               rng.normal(size=(6, 2)))
        policy = FixedLogProb()

        # identically seeded rng per call pins the successor draws, making
        # the pathwise gradient the exact finite-difference counterpart
        def cdisc_loss(flat, d=disc, e=expert, g=gen, p=policy):
            keep = d.params
            d.params = flat
            out, _ = discriminator_loss_and_grads(d, e, g, p,
                                                  rng=np.random.default_rng(99))
            d.params = keep
            return out

        _, cgrads = discriminator_loss_and_grads(disc, expert, gen, policy,
                                                 rng=np.random.default_rng(99))
        assert max_rel_err(cgrads, finite_difference_grad(cdisc_loss, disc.params)) < 1e-4

    agent = SacAgent(2, 1, action_low=[-1.0], action_high=[1.0], discount=0.9,
                     hidden=(6,), rng=rng)
    states = rng.normal(size=(8, 2))
    actions = rng.uniform(-1, 1, size=(8, 1))
    targets = rng.normal(size=8)
    _, cr_grads = agent.critic_loss_and_grads(states, actions, targets)

    def critic_loss(flat):
        keep = agent.critic.params.copy()
        agent.critic.params = flat
        out, _ = agent.critic_loss_and_grads(states, actions, targets)
        agent.critic.params = keep
        return out

    assert max_rel_err(cr_grads,
                       finite_difference_grad(critic_loss, agent.critic.params)) < 1e-4

    eps = rng.standard_normal((8, 1))
    _, ac_grads = agent.actor_loss_and_grads(states, eps)

    def actor_loss(flat):
        keep = agent.actor.params.copy()
        agent.actor.params = flat
        out, _ = agent.actor_loss_and_grads(states, eps)
        agent.actor.params = keep
        return out

    # composite objective (actor through frozen critic): looser tolerance
    assert max_rel_err(ac_grads,
                       finite_difference_grad(actor_loss, agent.actor.params)) < 1e-3


def test_criterion_6_negative_control_a_gradient_without_successor_term_fails(monkeypatch):
    # the tabular gradient with its gamma * E[phi(s')] term dropped
    true_grads = adversarial._tabular_grads

    def without_successor_term(disc, *batch):
        wrong = copy.copy(disc)
        wrong.discount = 0.0
        return true_grads(wrong, *batch)

    monkeypatch.setattr(adversarial, "_tabular_grads", without_successor_term)
    errors = tabular_disc_gradient_errors(np.random.default_rng(0))
    assert min(errors) > 1e-2  # under both shapings


def test_criterion_6_negative_control_b_permuted_weight_gradient_fails(monkeypatch):
    # the first layer's weight gradient handed back one entry out of place
    true_backward = Mlp.backward

    def permuted(net, x, upstream):
        grads, dx = true_backward(net, x, upstream)
        size = net.sizes[0] * net.sizes[1]
        grads[:size] = np.roll(grads[:size], 1)
        return grads, dx

    monkeypatch.setattr(Mlp, "backward", permuted)
    errors = mlp_gradient_errors(np.random.default_rng(0))
    assert min(errors) > 1e-2  # for both output layers


GRID_SEEDS = (0, 1, 2)
GRID_ALGORITHMS = ("meairl", "airl_sample_baseline")


@pytest.fixture(scope="module")
def gridworld_comparison(tmp_path_factory):
    """Steps-to-90%-of-expert for both algorithms on both slip settings.

    Every run uses the shipped default configuration and a 50k step
    budget; results are keyed by (slip, algorithm, seed). Expensive, so
    computed once and shared by the three criterion-7 tests. The seeds of
    one (slip, algorithm) train together in one stacked call, which gives
    each seed the record it gets alone.
    """
    work = tmp_path_factory.mktemp("grid_runs")
    out = {}
    t0 = time.perf_counter()
    for slip in (0.3, 0.0):
        spec = ExperimentConfig(env=EnvSpec(slip_prob=slip))
        env = build_env(spec.env)
        demo_path = str(work / f"demos_slip{slip:.1f}.txt")
        generate_expert(env, spec.run.expert_seed, spec.run.expert_episodes,
                        demo_path, max_steps=spec.run.expert_max_steps,
                        config=spec.train)
        expert = ExpertBuffer.from_file(demo_path)
        threshold = attainment_threshold(expert_return_target(env, spec))
        for alg in GRID_ALGORITHMS:
            cfg = dataclasses.replace(spec.train, algorithm=alg)
            records = run_meairl(env, expert, cfg, GRID_SEEDS)
            for seed, record in zip(GRID_SEEDS, records):
                out[(slip, alg, seed)] = steps_to_threshold(record, threshold)
    out["elapsed"] = time.perf_counter() - t0
    return out


def _median_steps(results, slip, algorithm):
    steps = [results[(slip, algorithm, seed)] for seed in GRID_SEEDS]
    return float(np.median([math.inf if s is None else s for s in steps]))


def test_criterion_7a_stochastic_grid_reaches_expert_level_in_budget(gridworld_comparison):
    for seed in GRID_SEEDS:
        steps = gridworld_comparison[(0.3, "meairl", seed)]
        assert steps is not None and steps <= 50_000, \
            f"seed {seed} never reached 90% of the expert bar"
    assert gridworld_comparison["elapsed"] < 1800.0


def test_criterion_7b_stochastic_grid_median_beats_sample_baseline(gridworld_comparison):
    ours = _median_steps(gridworld_comparison, 0.3, "meairl")
    base = _median_steps(gridworld_comparison, 0.3, "airl_sample_baseline")
    assert ours < base, \
        f"median steps-to-90% not strictly lower: {ours:.0f} vs baseline {base:.0f}"


def test_criterion_7c_deterministic_grid_stays_competitive(gridworld_comparison):
    for seed in GRID_SEEDS:
        assert gridworld_comparison[(0.0, "meairl", seed)] is not None
    ours = _median_steps(gridworld_comparison, 0.0, "meairl")
    base = _median_steps(gridworld_comparison, 0.0, "airl_sample_baseline")
    assert ours <= 1.25 * base, \
        f"median steps-to-90% {ours:.0f} exceeds 1.25x baseline {base:.0f}"


def count_model_eps_t_means(feed=lambda s, a, s_next: (s, a, s_next)) -> list:
    """Mean worst-row eps_T of 10 count models at n = 100, 1,000 and 10,000
    uniform-policy transitions each, on one random 6-state MDP.

    The 10 seeds train as 10 runs of one stacked model, one add per step,
    the form a tabular training run uses. `feed` maps each seed's
    (states, actions, successors) to what the model is given.
    """
    mdp = fixed_size_mdp(np.random.default_rng(3), n_states=6, n_actions=3,
                         gamma=0.9)
    pol = TabularPolicy(np.full((6, 3), 1.0 / 3))
    means = []
    for n in (10 ** 2, 10 ** 3, 10 ** 4):
        columns = []
        for seed in range(10):
            sub = np.random.default_rng(1000 * n + seed)
            states = sub.integers(0, 6, size=n)
            actions = pol.sample_batch(states, sub.random(n))
            columns.append(feed(states, actions,
                                mdp.sample_next_batch(states, actions, sub.random(n))))
        est = TabularDynamicsEstimate(6, 3, alpha=0.1, runs=10)
        for s, a, s_next in zip(*(np.stack(runs, axis=1) for runs in zip(*columns))):
            est.add(s, a, s_next)
        means.append(float(np.mean([tv_distance(mdp.kernel, kernel)[0]
                                    for kernel in est.kernel])))
    return means


def criterion_8_tabular_holds(means) -> bool:
    """eps_T falls with data and is small at n = 10,000 (0.063 shipped)."""
    return means[2] < means[1] < means[0] and means[2] < 0.1


def test_criterion_8_learned_models_converge_with_data():
    assert criterion_8_tabular_holds(count_model_eps_t_means())

    rng = np.random.default_rng(0)
    model = GaussianDynamicsModel(1, 1, hidden=(128, 128),
                                  state_low=np.array([-5.0]),
                                  state_high=np.array([5.0]), rng=rng)
    adam = AdamState.for_params(model.params, lr=3e-4)
    train_s = rng.uniform(-2, 2, size=(1024, 1))
    train_a = rng.uniform(-1, 1, size=(1024, 1))
    train_n = train_s + 0.1 * train_a
    held_s = rng.uniform(-2, 2, size=(256, 1))
    held_a = rng.uniform(-1, 1, size=(256, 1))
    held_n = held_s + 0.1 * held_a
    for _ in range(2000):
        idx = rng.integers(0, 1024, size=256)
        _, grads = model.loss_and_grads(train_s[idx], train_a[idx], train_n[idx])
        model.params = adam_step(adam, model.params, grads, clip_norm=10.0)
    mu, _ = model.predict(held_s, held_a)
    assert float(np.mean(np.abs(mu - held_n))) < 0.01


def test_criterion_8_negative_control_a_wrong_successor_fails():
    # the count model fed (s' + 1) mod 6: eps_T still falls (0.84, 0.80, 0.78)
    means = count_model_eps_t_means(lambda s, a, s_next: (s, a, (s_next + 1) % 6))
    assert means[2] < means[1] < means[0]
    assert not criterion_8_tabular_holds(means)


def test_criterion_8_negative_control_b_wrong_state_fails():
    # the count model fed (s + 1) mod 6: eps_T still falls (0.76, 0.68, 0.65)
    means = count_model_eps_t_means(lambda s, a, s_next: ((s + 1) % 6, a, s_next))
    assert means[2] < means[1] < means[0]
    assert not criterion_8_tabular_holds(means)


MICRO_CONFIG = """\
[env]
name = gridworld
width = 4
height = 4
slip_prob = 0.2
goal_reward = 5.0
discount = 0.9
horizon = 25

[train]
total_steps = 400
pretrain_steps = 100
eval_period = 200
eval_episodes = 3
batch_size = 64
"""


def train_micro_twice(tmp_path) -> list:
    """The bytes of two `meairl train` runs of MICRO_CONFIG on one demo file."""
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO_CONFIG)
    demos = tmp_path / "demos.txt"
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["train", "--config", str(cfg), "--demos", str(demos),
                     "--out", str(out)])
        assert code == 0
        blobs.append((out / "train_meairl_seed0.csv").read_bytes())
    return blobs


def test_criterion_9_training_runs_are_byte_reproducible(tmp_path):
    blobs = train_micro_twice(tmp_path)
    assert blobs[0] == blobs[1]
    assert blobs[0].decode().split("\n")[0] == CSV_HEADER


def test_criterion_9_negative_control_a_unseeded_streams_differ(tmp_path, monkeypatch):
    # every run's streams from fresh entropy in place of its seed
    monkeypatch.setattr(training, "run_streams", lambda seeds, names:
                        seeding.run_streams([None] * len(seeds), names))
    blobs = train_micro_twice(tmp_path)
    assert blobs[0] != blobs[1]

"""The training loop: schedules, mixing, determinism, expert generation."""

import math
import os

import numpy as np
import pytest

from helpers import instance
from meairl import (ExpertBuffer, Mlp, TabularEnv, TabularMDP, TabularPolicy,
                    TrainingConfig, generate_expert, load_demos, make_gridworld,
                    make_noisy_pointmass, policy_value, run_meairl,
                    save_continuous_demos, soft_optimal_policy, soft_value_iteration)
from meairl.seeding import spawn_streams
from meairl.training import (CSV_HEADER, EvalRow, TrainingDivergedError, TrainingRecord,
                             _TabularRun, evaluate_tabular_policy, mix_action)


def small_grid_env(slip=0.1, width=3, height=3, goal=5.0, discount=0.9,
                   horizon=20):
    mdp = make_gridworld(width, height, slip, goal, discount)
    return TabularEnv(mdp, episode_horizon=horizon,
                      name=f"gridworld{width}x{height}")


def expert_for(env, tmp_path, episodes=50, seed=7):
    path = tmp_path / "expert.txt"
    generate_expert(env, seed, episodes, path)
    return ExpertBuffer.from_file(path)


def pointmass_expert(env, tmp_path, episodes=5):
    """Hand-rolled point-mass demos that drive toward the origin."""
    rng = np.random.default_rng(0)
    demos = []
    for _ in range(episodes):
        s = env.reset(rng)
        states = [s.copy()]
        actions = []
        for _ in range(env.horizon):
            a = np.clip(-5.0 * s, env.action_low, env.action_high)
            s, _ = env.step(s, a, rng)
            states.append(s.copy())
            actions.append(a.copy())
        demos.append((np.array(states), np.array(actions)))
    path = tmp_path / "demos.txt"
    save_continuous_demos(path, demos, env.name, 0, env.state_dim, env.action_dim)
    return ExpertBuffer.from_file(path)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(algorithm="nonsense")
        with pytest.raises(ValueError):
            TrainingConfig(total_steps=100, pretrain_steps=200)
        with pytest.raises(ValueError):
            TrainingConfig(ratio_end=1.5)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(rollout_horizon=0)

    def test_pretrain_may_equal_total(self):
        cfg = TrainingConfig(total_steps=100, pretrain_steps=100)
        assert cfg.pretrain_steps == 100

    def test_mix_prob_is_a_probability(self):
        assert TrainingConfig().mix_prob == 0.1
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="mix_prob"):
                TrainingConfig(mix_prob=bad)

    def test_ratio_schedule_from_config(self):
        cfg = TrainingConfig(total_steps=1000, pretrain_steps=100,
                             ratio_start=0.05, ratio_end=0.5,
                             ratio_ramp_frac=0.5)
        sched = cfg.ratio_schedule()
        assert sched.fraction(0) == 0.05
        assert sched.fraction(500) == 0.5
        assert sched.ramp_steps == 500


class TestRecordCsv:
    def test_round_trip(self, tmp_path):
        # repr floats read back bit-exactly with float(), nan included
        rows = [EvalRow(1000, -3.5, 0.25, 1.2, 0.9, 0.1, 0.05),
                EvalRow(2000, -2.0, 1 / 3, float("nan"), 0.8, 0.09, 0.1)]
        path = tmp_path / "record.csv"
        TrainingRecord(rows=rows).to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        back = [EvalRow(int(c[0]), *map(float, c[1:]))
                for c in (line.split(",") for line in lines[1:])]
        assert back[0] == rows[0]
        assert back[1].return_std == 1 / 3
        assert math.isnan(back[1].disc_loss)

    def test_header_text(self):
        assert CSV_HEADER == ("step,return_mean,return_std,disc_loss,"
                              "model_nll,eps_T,synthetic_fraction")


class StubModel:
    """Deterministic one-step model used to probe the mixing path."""

    def __init__(self, kernel):
        self.kernel = kernel

    def sample_next(self, s, a, rng):
        return int(np.argmax(self.kernel[s, a]))


class TestMixAction:
    def test_zero_prob_never_uses_model(self):
        kernel = np.zeros((2, 2, 2))
        kernel[:, :, 1] = 1.0
        model = StubModel(kernel)
        policy = TabularPolicy(np.array([[1.0, 0.0], [0.0, 1.0]]))
        rng = np.random.default_rng(0)
        for _ in range(200):
            _, used = mix_action(0, policy, model, 0.0, (1, 0), rng)
            assert not used

    def test_full_prob_with_perfect_model_matches_real_action(self):
        # deterministic env, exact model: the stand-in state equals the
        # real state, so the chosen action is identical
        mdp = make_gridworld(3, 3, 0.0, 1.0, 0.9)
        model = StubModel(mdp.kernel)
        policy = TabularPolicy(np.eye(4)[np.zeros(9, dtype=int)])  # always "up"
        rng = np.random.default_rng(1)
        state = 4
        for prev_s in range(9):
            for prev_a in range(4):
                real_next = int(np.argmax(mdp.kernel[prev_s, prev_a]))
                a_mix, used = mix_action(real_next, policy, model, 1.0,
                                         (prev_s, prev_a), rng)
                a_real = policy.sample(real_next, rng)
                assert used
                assert a_mix == a_real

    def test_missing_prev_transition_falls_back_to_real(self):
        model = StubModel(np.ones((2, 2, 2)) * 0.5)
        policy = TabularPolicy(np.array([[1.0, 0.0], [0.0, 1.0]]))
        rng = np.random.default_rng(2)
        _, used = mix_action(0, policy, model, 1.0, None, rng)
        assert not used

    def test_frequency_matches_probability(self):
        # 1e5 draws at mix_prob 0.1: frequency within [0.095, 0.105]
        kernel = np.zeros((2, 2, 2))
        kernel[:, :, 0] = 1.0
        model = StubModel(kernel)
        policy = TabularPolicy(np.full((2, 2), 0.5))
        rng = np.random.default_rng(3)
        used = 0
        for _ in range(100_000):
            _, flag = mix_action(0, policy, model, 0.1, (0, 0), rng)
            used += flag
        assert 0.095 <= used / 100_000 <= 0.105


class TestExpertGeneration:
    def test_demo_file_round_trip(self, tmp_path):
        env = small_grid_env()
        path = tmp_path / "demos.txt"
        generate_expert(env, 3, 5, path)
        demos = load_demos(path)
        assert demos.kind == "tabular"
        assert demos.env_name == env.name
        assert demos.seed == 3
        assert len(demos.states) == 5 * env.episode_horizon

    def test_slip_zero_trajectories_are_shortest_paths(self, tmp_path):
        # large goal reward makes the soft-optimal policy effectively greedy
        width = height = 4
        mdp = make_gridworld(width, height, 0.0, 50.0, 0.95)
        env = TabularEnv(mdp, episode_horizon=30, name="gridworld4x4")
        path = tmp_path / "demos.txt"
        generate_expert(env, 0, 50, path)
        demos = load_demos(path)
        goal = width * height - 1
        for episode in np.unique(demos.episode_ids):
            mask = demos.episode_ids == episode
            states = demos.states[mask]
            nxt = demos.next_states[mask]
            y0, x0 = divmod(int(states[0]), width)
            manhattan = (height - 1 - y0) + (width - 1 - x0)
            arrival = np.nonzero(nxt == goal)[0]
            assert arrival.size > 0
            assert arrival[0] + 1 == manhattan

    def test_mean_return_matches_value_oracle(self, tmp_path):
        # slip 0.3, 100 episodes, horizon long enough that truncation is
        # negligible: empirical mean within 2% of the exact policy value
        mdp = make_gridworld(5, 5, 0.3, 5.0, 0.95)
        env = TabularEnv(mdp, episode_horizon=400, name="gridworld5x5")
        path = tmp_path / "demos.txt"
        generate_expert(env, 0, 100, path)
        demos = load_demos(path)
        returns = []
        for episode in np.unique(demos.episode_ids):
            mask = demos.episode_ids == episode
            s = demos.states[mask]
            a = demos.actions[mask]
            t = demos.steps[mask]
            returns.append(float(np.sum(mdp.reward[s, a] * mdp.discount ** t)))
        [values] = soft_value_iteration([instance(mdp)], tol=1e-12)
        policy = soft_optimal_policy(values)
        [v] = policy_value([instance(mdp)], [policy.probs], tol=1e-12)
        exact = float(mdp.init_dist @ v)
        assert abs(np.mean(returns) - exact) <= 0.02 * abs(exact)

    def test_continuous_threshold_failure_raises(self):
        env = make_noisy_pointmass(0.0)
        with pytest.raises(Exception) as info:
            generate_expert(env, 0, 2, "/tmp/unused_demos.txt",
                            return_threshold=0.0, max_steps=1500,
                            config=TrainingConfig(sac_hidden=(8,), batch_size=32,
                                                  eval_period=500,
                                                  eval_episodes=2))
        assert "threshold" in str(info.value) or "best" in str(info.value)

    def test_episode_count_validated(self, tmp_path):
        with pytest.raises(ValueError):
            generate_expert(small_grid_env(), 0, 0, tmp_path / "x.txt")


class TestTabularLoop:
    def test_pretrain_only_run_never_updates_anything(self, tmp_path):
        env = small_grid_env()
        expert = expert_for(env, tmp_path)
        cfg = TrainingConfig(total_steps=200, pretrain_steps=200,
                             eval_period=100, eval_episodes=3, seed=5)
        record = run_meairl(env, expert, cfg)
        assert [r.step for r in record.rows] == [100, 200]
        assert all(math.isnan(r.disc_loss) for r in record.rows)
        assert all(r.synthetic_fraction == 0.0 for r in record.rows)
        # the evaluated policy is still uniform: replaying the eval stream
        # against an explicit uniform policy reproduces the rows exactly
        streams = spawn_streams(5, ("interact", "disc", "rollout", "policy",
                                    "mix", "eval"))
        uniform = TabularPolicy.uniform(env.mdp.n_states, env.mdp.n_actions)
        for row in record.rows:
            mean, std = evaluate_tabular_policy(env, uniform, 3, streams["eval"])
            assert row.return_mean == mean
            assert row.return_std == std

    def test_records_are_deterministic(self, tmp_path):
        env = small_grid_env()
        expert = expert_for(env, tmp_path)
        cfg = TrainingConfig(total_steps=400, pretrain_steps=100,
                             eval_period=200, eval_episodes=2, batch_size=32,
                             seed=9)
        a = run_meairl(env, expert, cfg)
        b = run_meairl(env, expert, cfg)
        assert a.to_csv_text() == b.to_csv_text()
        c = run_meairl(env, expert, TrainingConfig(
            total_steps=400, pretrain_steps=100, eval_period=200,
            eval_episodes=2, batch_size=32, seed=10))
        assert c.to_csv_text() != a.to_csv_text()

    def test_zero_ratio_equals_synthetic_disabled(self, tmp_path):
        # schedule pinned at zero must be bit-identical to the synthetic
        # path being switched off entirely
        env = small_grid_env()
        expert = expert_for(env, tmp_path)
        base = dict(total_steps=400, pretrain_steps=100, eval_period=100,
                    eval_episodes=2, batch_size=32, seed=3)
        on = run_meairl(env, expert, TrainingConfig(
            ratio_start=0.0, ratio_end=0.0, **base))
        off = run_meairl(env, expert, TrainingConfig(use_synthetic=False, **base))
        assert on.to_csv_text() == off.to_csv_text()

    def test_all_algorithms_produce_records(self, tmp_path):
        env = small_grid_env()
        expert = expert_for(env, tmp_path)
        for alg in ("meairl", "airl_sample_baseline", "bc_none"):
            cfg = TrainingConfig(total_steps=300, pretrain_steps=100,
                                 eval_period=100, eval_episodes=2,
                                 batch_size=32, algorithm=alg, seed=1)
            record = run_meairl(env, expert, cfg)
            assert len(record.rows) == 3
            for row in record.rows:
                assert np.isfinite(row.return_mean)
            if alg == "meairl":
                assert np.isfinite(record.rows[-1].eps_t)
            else:
                assert math.isnan(record.rows[-1].eps_t)

    def test_learning_improves_return(self, tmp_path):
        env = small_grid_env(slip=0.1, discount=0.9, horizon=20)
        expert = expert_for(env, tmp_path, episodes=100)
        cfg = TrainingConfig(total_steps=3000, pretrain_steps=500,
                             eval_period=500, eval_episodes=10, batch_size=64,
                             disc_lr=1e-2, seed=0)
        record = run_meairl(env, expert, cfg)
        first = record.rows[0].return_mean
        last = record.rows[-1].return_mean
        assert last > first

    def test_eps_t_decreases_with_data(self, tmp_path):
        env = small_grid_env()
        expert = expert_for(env, tmp_path)
        cfg = TrainingConfig(total_steps=4000, pretrain_steps=4000,
                             eval_period=1000, eval_episodes=1, seed=2)
        record = run_meairl(env, expert, cfg)
        eps = [r.eps_t for r in record.rows]
        assert eps[-1] < eps[0]

    def test_discriminator_reads_the_count_model_in_place(self, tmp_path):
        # model shaping reads the count model's own kernel array, so a row
        # the model step refreshes reaches the discriminator at once; a copy
        # or a rebound array would leave f on the stale row
        env = small_grid_env()
        run = _TabularRun(env, expert_for(env, tmp_path), TrainingConfig(seed=4))
        run.disc.params = np.random.default_rng(0).normal(size=run.disc.n_params)
        s, a, s_next = 4, 1, 7
        stale = run.model.kernel[s, a].copy()
        run.model_step(1, s, a, s_next)
        row = run.model.kernel[s, a]
        assert not np.array_equal(row, stale)
        g, phi = run.disc.r_table, run.disc.phi_table
        want = g[s] + env.mdp.discount * (row @ phi) - phi[s]
        assert abs(run.disc.f_values([s], [a])[0] - want) < 1e-12


class TestContinuousLoop:
    def test_smoke_runs_and_records(self, tmp_path):
        env = make_noisy_pointmass(0.5)
        expert = pointmass_expert(env, tmp_path)
        cfg = TrainingConfig(total_steps=300, pretrain_steps=100,
                             eval_period=100, eval_episodes=2, batch_size=32,
                             model_hidden=(16,), disc_hidden=(16,),
                             sac_hidden=(16,), n_model_samples=2, seed=0)
        record = run_meairl(env, expert, cfg)
        assert len(record.rows) == 3
        assert all(np.isfinite(r.return_mean) for r in record.rows)
        assert np.isfinite(record.rows[-1].disc_loss)
        assert np.isfinite(record.rows[-1].model_nll)
        again = run_meairl(env, expert, cfg)
        assert again.to_csv_text() == record.to_csv_text()

    @pytest.mark.parametrize("algorithm", ["meairl", "bc_none"])
    def test_no_backward_reruns_a_forward_pass(self, algorithm, tmp_path, monkeypatch):
        # Every gradient step hands Mlp.backward the tape of the forward the
        # caller already ran, so the net's one forward body runs exactly
        # once per Mlp.forward call. A caller that passes backward an input
        # array again makes the first count exceed the second.
        calls = {"pass": 0, "forward": 0, "backward": 0}
        originals = {name: Mlp.__dict__[name] for name in
                     ("_forward_pass", "forward", "backward")}

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(Mlp, "_forward_pass",
                            counting("pass", originals["_forward_pass"]))
        monkeypatch.setattr(Mlp, "forward", counting("forward", originals["forward"]))
        monkeypatch.setattr(Mlp, "backward", counting("backward", originals["backward"]))
        env = make_noisy_pointmass(0.5)
        expert = pointmass_expert(env, tmp_path)
        cfg = TrainingConfig(algorithm=algorithm, total_steps=60, pretrain_steps=20,
                             eval_period=30, eval_episodes=1, batch_size=16,
                             model_hidden=(8,), disc_hidden=(8,), sac_hidden=(8,),
                             n_model_samples=2, seed=0)
        run_meairl(env, expert, cfg)
        assert calls["backward"] >= 40
        assert calls["pass"] == calls["forward"]

    def test_nan_demos_raise_diverged(self, tmp_path):
        env = make_noisy_pointmass(0.5)
        expert = ExpertBuffer(np.full((4, 1), np.nan), np.zeros((4, 1)),
                              np.zeros((4, 1)))
        cfg = TrainingConfig(total_steps=3, pretrain_steps=0, eval_period=10,
                             batch_size=4, model_hidden=(4,), disc_hidden=(4,),
                             sac_hidden=(4,), n_model_samples=1, seed=0)
        with pytest.raises(TrainingDivergedError) as info:
            run_meairl(env, expert, cfg)
        assert info.value.step >= 1
        assert "disc_loss" in info.value.snapshot


class TestDivergedError:
    def test_carries_step_and_snapshot(self):
        err = TrainingDivergedError(42, {"disc_loss": float("nan")})
        assert err.step == 42
        assert "42" in str(err)

"""The training loop: schedules, mixing, determinism, expert generation."""

import copy
import dataclasses
import hashlib
import math
import os
import sys

import numpy as np
import pytest

from helpers import instance, scalar_evaluation, searchsorted_draw
from meairl import (ExpertBuffer, Mlp, TabularEnv, TabularMDP, TabularPolicy,
                    TrainingConfig, build_env, generate_expert, load_config, load_demos,
                    make_gridworld, make_noisy_pointmass, policy_value, run_meairl,
                    save_continuous_demos, soft_optimal_policy, soft_value_iteration)
from meairl import neural, seeding, training
from meairl.cli import main
from meairl.seeding import RunStreams, spawn_streams
from meairl.training import (CSV_HEADER, EvalRow, TrainingDivergedError, TrainingRecord,
                             _ContinuousRun, _TabularRuns, evaluate_tabular_policy,
                             mix_state)


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


def to_state_one():
    """A stub whose every prediction is state 1, so a mixed state shows."""
    kernel = np.zeros((2, 2, 2))
    kernel[:, :, 1] = 1.0
    return StubModel(kernel)


class CountModelOfRun:
    """One run's rows of a stacked count model as a `mix_state` model: a
    uniform per draw, mapped by `searchsorted`."""

    def __init__(self, kernel):
        self.cum = np.cumsum(kernel, axis=-1)

    def sample_next(self, s, a, rng):
        return searchsorted_draw(self.cum[s, a], rng)


class StandInRecorder:
    """A policy stub that records the states it is asked to act at and the
    uniforms it is given."""

    def sample_batch(self, states, u):
        self.states = states[:, 0].copy()
        self.u = u[:, 0].tolist()
        return np.zeros_like(states)


class TestMixAction:
    @pytest.mark.parametrize("mix_prob", [0.0, 0.5, 1.0])
    def test_run_axis_mixing_equals_per_run_mix_state(self, mix_prob, tmp_path,
                                                      monkeypatch):
        # the stacked runs' stand-ins equal `mix_state` run by run on that
        # run's own counts, and after the action's uniform each run's next
        # uniform through the stacked stream is its reference generator's
        # next one; blocks of 16 uniforms make the runs refill in between
        monkeypatch.setattr(training, "DRAW_BLOCK", 1)
        env = small_grid_env(slip=0.3)
        cfg = TrainingConfig(mix_prob=mix_prob)
        runs = _TabularRuns(env, expert_for(env, tmp_path), cfg, [4, 9, 13])
        rng = np.random.default_rng(20)
        for _ in range(300):  # distinct counts per run
            runs.model.add(rng.integers(0, 9, 3), rng.integers(0, 4, 3), rng.integers(0, 9, 3))
        runs.policy = recorder = StandInRecorder()
        stream = runs.streams["mix"]
        refs = [copy.deepcopy(g) for g in stream.generators]
        moved = 0
        for trial in range(40):
            state = rng.integers(0, 9, 3)
            prev = None if trial % 4 == 0 else (rng.integers(0, 9, 3), rng.integers(0, 4, 3))
            real = state.copy()
            want = [mix_state(int(state[k]), CountModelOfRun(runs.model.kernel[k]), mix_prob,
                              None if prev is None else (prev[0][k], prev[1][k]), refs[k])
                    for k in range(3)]
            runs.act(cfg.pretrain_steps + 1, state, prev)
            assert recorder.states.tolist() == want
            assert recorder.u == [ref.random() for ref in refs]
            assert np.array_equal(state, real)
            assert stream.uniform(runs.refill).tolist() == [ref.random() for ref in refs]
            moved += sum(w != s for w, s in zip(want, real.tolist()))
        assert (moved > 0) == (mix_prob > 0)

    def test_zero_prob_never_uses_model(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert mix_state(0, to_state_one(), 0.0, (1, 0), rng) == 0

    def test_full_prob_with_perfect_model_matches_real_action(self):
        # deterministic env, exact model: the stand-in state equals the
        # real state, so the chosen action is identical
        mdp = make_gridworld(3, 3, 0.0, 1.0, 0.9)
        model = StubModel(mdp.kernel)
        policy = TabularPolicy(np.eye(4)[np.zeros(9, dtype=int)])  # always "up"
        rng = np.random.default_rng(1)
        for prev_s in range(9):
            for prev_a in range(4):
                real_next = int(np.argmax(mdp.kernel[prev_s, prev_a]))
                mixed = mix_state(real_next, model, 1.0, (prev_s, prev_a), rng)
                assert mixed == real_next
                at_mixed, at_real = policy.sample_batch(np.array([mixed, real_next]),
                                                        rng.random(2))
                assert at_mixed == at_real

    def test_missing_prev_transition_falls_back_to_real(self):
        rng = np.random.default_rng(2)
        assert mix_state(0, to_state_one(), 1.0, None, rng) == 0

    def test_frequency_matches_probability(self):
        # 1e5 draws at mix_prob 0.1: frequency within [0.095, 0.105]
        rng = np.random.default_rng(3)
        model = to_state_one()
        used = sum(mix_state(0, model, 0.1, (0, 0), rng) for _ in range(100_000))
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

    def test_demo_file_bytes_are_pinned(self, tmp_path):
        # the SHA-256 of this file when every uniform was drawn at its step;
        # drawing them up front must not move a byte
        path = tmp_path / "demos.txt"
        generate_expert(small_grid_env(), 3, 5, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "5dc463ce0af42c328e3b7c398937da089f2ff9e42675ea285efb8106f51879a4"

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
        n_states, n_actions = env.mdp.n_states, env.mdp.n_actions
        uniform = TabularPolicy(np.full((n_states, n_actions), 1.0 / n_actions))
        for row in record.rows:
            mean, std = evaluate_tabular_policy(env, uniform, 3, streams["eval"])
            assert row.return_mean == mean
            assert row.return_std == std

    def test_stacked_evaluation_matches_scalar_runs(self):
        # one call with RunStreams and three distinct policies gives each
        # run the mean and std, bit for bit, of its own scalar rollouts
        env = small_grid_env(slip=0.3)
        n_states, n_actions = env.mdp.n_states, env.mdp.n_actions
        probs = np.random.default_rng(0).dirichlet(np.ones(n_actions), size=(3, n_states))
        streams = RunStreams(np.random.default_rng(20 + k) for k in range(3))
        means, stds = evaluate_tabular_policy(env, TabularPolicy(probs), 4, streams)
        for k in range(3):
            want = scalar_evaluation(env.mdp, probs[k], env.episode_horizon, 4,
                                     np.random.default_rng(20 + k))
            assert (means[k], stds[k]) == want
        assert len(set(means)) == 3

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
        # model shaping reads the stacked count model's own kernel array, so
        # a row the model step refreshes reaches every run's discriminator at
        # once; a copy or a rebound array would leave it on the stale row
        env = small_grid_env()
        runs = _TabularRuns(env, expert_for(env, tmp_path), TrainingConfig(), [4, 9])
        runs.disc.params = np.random.default_rng(0).normal(size=(2, runs.disc.n_params))
        s, a, s_next = np.array([4, 2]), np.array([1, 3]), np.array([7, 5])
        stale = runs.model.kernel[[0, 1], s, a].copy()
        runs.model_step(1, s, a, s_next)
        f = runs.disc.f_values(s[:, None], a[:, None])
        for k in range(2):
            row = runs.model.kernel[k][s[k], a[k]]
            assert not np.array_equal(row, stale[k])
            assert row.argmax() == s_next[k]
            g, phi = runs.disc.r_table[k], runs.disc.phi_table[k]
            want = g[s[k]] + env.mdp.discount * (row @ phi) - phi[s[k]]
            assert abs(f[k, 0] - want) < 1e-12

    @pytest.mark.parametrize("column, value", [(0, 9), (0, -1), (1, 4), (2, 9)])
    def test_demos_outside_the_grid_are_refused(self, column, value):
        # a 3x3 grid has states 0..8 and actions 0..3; an index past them
        # would read another run's table row, so the runs refuse to start
        columns = [np.array([0, 1, 2]) for _ in range(3)]
        columns[column][1] = value
        with pytest.raises(ValueError, match="leave the environment"):
            _TabularRuns(small_grid_env(), ExpertBuffer(*columns), TrainingConfig(), [0, 1])

    def test_first_diverged_run_is_named(self, tmp_path):
        # a non-finite discriminator in the second run stops the stacked
        # loop at the first adversarial step, naming that run's seed
        env = small_grid_env()
        cfg = TrainingConfig(total_steps=50, pretrain_steps=20, eval_period=50,
                             batch_size=8)
        runs = _TabularRuns(env, expert_for(env, tmp_path), cfg, [3, 8])
        runs.disc.r_table[1] = np.nan
        with pytest.raises(TrainingDivergedError) as info:
            runs.run()
        assert info.value.step == 21
        assert info.value.snapshot["seed"] == 8
        assert math.isnan(info.value.snapshot["disc_loss"])


STACKED_CONFIG = """\
[env]
name = gridworld
width = 5
height = 5
slip_prob = 0.3
goal_reward = 5.0
discount = 0.95
horizon = 40

[train]
total_steps = 1500
pretrain_steps = 500
eval_period = 500

[run]
seeds = {seeds}
expert_seed = 0
"""
STACKED_ALGORITHMS = ("meairl", "airl_sample_baseline", "bc_none")


@pytest.fixture(scope="module")
def solo_records(tmp_path_factory):
    """Each (algorithm, seed) of the slip-0.3 grid trained alone, as CSV bytes."""
    work = tmp_path_factory.mktemp("solo")
    cfg = work / "solo.cfg"
    cfg.write_text(STACKED_CONFIG.format(seeds="0"))
    config = load_config(cfg)
    env = build_env(config.env)
    demos = work / "demos.txt"
    generate_expert(env, config.run.expert_seed, config.run.expert_episodes, demos)
    expert = ExpertBuffer.from_file(demos)
    records = {(alg, seed): run_meairl(env, expert, dataclasses.replace(
                   config.train, algorithm=alg, seed=seed)).to_csv_text().encode()
               for alg in STACKED_ALGORITHMS for seed in (0, 1, 2)}
    return demos, records


class TestStackedRuns:
    @pytest.mark.parametrize("seeds", ["0,1,2", "2,0,1"])
    def test_compare_writes_each_seed_its_solo_record(self, seeds, solo_records, tmp_path):
        # compare trains the seeds of an algorithm in one stacked loop; each
        # seed's CSV must be the bytes its run alone writes, whatever the
        # seeds' order (a run reading another run's row would show here)
        demos, solo = solo_records
        cfg = tmp_path / "stacked.cfg"
        cfg.write_text(STACKED_CONFIG.format(seeds=seeds))
        code = main(["compare", "--config", str(cfg), "--demos", str(demos),
                     "--algorithms", ",".join(STACKED_ALGORITHMS), "--out", str(tmp_path)])
        assert code == 0
        for (alg, seed), want in solo.items():
            assert (tmp_path / f"{alg}_seed{seed}.csv").read_bytes() == want, (alg, seed)


# SHA-256 of the three runs' CSVs of `blocked_records`, taken when every
# run drew each value with its own generator call; with a 300-row real
# buffer, the runs' oldest transitions are evicted past step 300
DRAWN_PER_CALL = {
    ("meairl", None): "041561be73bb75aa9f0dfdbc31b68274587b8bb9032a6241694889dbc202b867",
    ("airl_sample_baseline", None):
        "598b91b2ddde40f60213992c50df7e947b8a6ba19ed9a112530ba84b0a8aa098",
    ("bc_none", None): "9ce807505ef1ad6b1b1285fd615ddfc68e03f6e89fef2e530fd95dc0eebe3073",
    ("meairl", 300): "95db022141dd763b31e633efbbdc09e484b1ce771bcaebfdc86fd6e14c94ca95",
    ("airl_sample_baseline", 300):
        "a83f4e522fd4dd0ffa8b53323694fda7505d5241431f4bac620fcaef581b46b7",
}


# the most C calls a trained step of `test_c_calls_per_trained_step` may
# make: 5% above the 164.27 (meairl) and 85.89 (baseline) measured when set
C_CALLS_PER_STEP = {"meairl": 172.5, "airl_sample_baseline": 90.2}


def blocked_records(env, expert, algorithm) -> str:
    cfg = TrainingConfig(total_steps=1200, pretrain_steps=200, eval_period=200,
                         eval_episodes=3, batch_size=32, mix_prob=0.5, algorithm=algorithm)
    return "".join(r.to_csv_text() for r in run_meairl(env, expert, cfg, seeds=[3, 1, 4]))


class CountingGenerator:
    """A Generator whose `random` and `integers` calls are counted."""

    def __init__(self, generator, counts):
        self.generator, self.counts = generator, counts

    def random(self, *args, **kwargs):
        self.counts["calls"] += 1
        return self.generator.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.counts["calls"] += 1
        return self.generator.integers(*args, **kwargs)


class TestDrawBlocks:
    @pytest.mark.parametrize("block", [1, None])
    @pytest.mark.parametrize("algorithm, capacity", list(DRAWN_PER_CALL))
    def test_stacked_records_equal_per_call_draws(self, algorithm, capacity, block, tmp_path,
                                                  monkeypatch):
        # a stacked R = 3 run writes the same bytes with blocks of one step
        # (uniforms refilled 16 at a time) and at the default block
        if block is not None:
            monkeypatch.setattr(training, "DRAW_BLOCK", block)
        if capacity is not None:
            monkeypatch.setattr(training, "ENV_BUFFER_CAPACITY", capacity)
        env = small_grid_env(slip=0.3)
        text = blocked_records(env, expert_for(env, tmp_path), algorithm)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            DRAWN_PER_CALL[algorithm, capacity]

    def test_generator_calls_per_run_step(self, tmp_path, monkeypatch):
        # Generator calls per run per trained step, a 1,600-step run minus a
        # 600-step run, at R = 1 and R = 4; one call per run per draw made
        # about 14 (meairl) and 5 (baseline)
        counts = {"calls": 0}

        def counting_streams(seeds, names):
            streams = seeding.run_streams(seeds, names)
            for stream in streams.values():
                stream.generators = [CountingGenerator(g, counts) for g in stream.generators]
            return streams

        monkeypatch.setattr(training, "run_streams", counting_streams)
        env = small_grid_env(slip=0.3)
        expert = expert_for(env, tmp_path)

        def calls(algorithm, runs, steps):
            counts["calls"] = 0
            run_meairl(env, expert, TrainingConfig(total_steps=steps, pretrain_steps=200,
                                                   algorithm=algorithm),
                       seeds=list(range(runs)))
            return counts["calls"]

        for algorithm, most in (("meairl", 0.5), ("airl_sample_baseline", 1.0)):
            for runs in (1, 4):
                per_step = (calls(algorithm, runs, 1600) - calls(algorithm, runs, 600)) / 1000
                assert per_step / runs <= most, (algorithm, runs, per_step / runs)

    def test_c_calls_per_trained_step(self, tmp_path):
        # the noise-free cost guard: calls of C functions and methods, as
        # sys.setprofile reports them, per trained step of three stacked runs
        # on the slip-0.3 5x5 grid, a 3,000-step run minus a 1,000-step run
        # after 1,000 pretraining steps. The count is exact on repeat, where
        # the wall time of identical work moved by up to 2x on a shared
        # 2-vCPU machine. Each bound is the count measured when set plus 5%
        env = TabularEnv(make_gridworld(5, 5, 0.3, 5.0, 0.95), episode_horizon=40)
        expert = expert_for(env, tmp_path)

        def c_calls(algorithm, steps):
            count = [0]

            def profile(frame, event, arg):
                if event == "c_call":
                    count[0] += 1

            sys.setprofile(profile)
            try:
                run_meairl(env, expert, TrainingConfig(total_steps=steps, pretrain_steps=1000,
                                                       algorithm=algorithm), seeds=[0, 1, 2])
            finally:
                sys.setprofile(None)
            return count[0]

        for algorithm, most in C_CALLS_PER_STEP.items():
            per_step = (c_calls(algorithm, 3000) - c_calls(algorithm, 1000)) / 2000
            assert per_step <= most, (algorithm, per_step)

    def test_behavior_cloning_takes_no_environment_step(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("bc_none stepped the environment")

        for name in ("reset", "act", "step"):
            monkeypatch.setattr(_TabularRuns, name, refuse)
        env = small_grid_env()
        record = run_meairl(env, expert_for(env, tmp_path), TrainingConfig(
            total_steps=300, pretrain_steps=100, eval_period=100, eval_episodes=2,
            algorithm="bc_none"))
        assert len(record.rows) == 3

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

    @pytest.mark.parametrize("algorithm", ["meairl", "airl_sample_baseline", "bc_none"])
    def test_reused_buffers_stop_growing(self, algorithm, tmp_path, monkeypatch):
        # The nets' free hidden buffers reach the largest set a step holds at
        # once and stay there: twice the steps leave the same bytes. A pool
        # that never hands a buffer out again would grow with every step.
        env = make_noisy_pointmass(0.5)
        expert = pointmass_expert(env, tmp_path)
        held = []
        for steps in (40, 80):
            monkeypatch.setattr(neural, "_FREE", [])
            cfg = TrainingConfig(algorithm=algorithm, total_steps=steps, pretrain_steps=10,
                                 eval_period=20, eval_episodes=1, batch_size=32,
                                 model_hidden=(16,), disc_hidden=(16, 16), sac_hidden=(16,),
                                 n_model_samples=2, seed=0)
            run_meairl(env, expert, cfg)
            held.append(sum(buf.nbytes for buf in neural._FREE))
        assert held[0] > 0
        assert held[0] == held[1]

    def test_run_reads_the_environment_discount(self, tmp_path):
        # the point mass fixes its discount like its horizon; SAC and the
        # discriminator take it from the environment, not from the config
        assert make_noisy_pointmass().discount == 0.99
        env = dataclasses.replace(make_noisy_pointmass(0.5), discount=0.8)
        cfg = TrainingConfig(model_hidden=(8,), disc_hidden=(8,), sac_hidden=(8,),
                             n_model_samples=1)
        run = _ContinuousRun(env, pointmass_expert(env, tmp_path), cfg, 0)
        assert run.agent.discount == 0.8
        assert run.disc.discount == 0.8

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

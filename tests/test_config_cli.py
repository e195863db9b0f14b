"""Config parsing, serialization, output routing, and the CLI front end."""

import ast
import contextlib
import dataclasses
import io
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meairl
from meairl import (ConfigError, ExperimentConfig, TrainingConfig, build_env,
                    load_config, save_config, save_continuous_demos)
from meairl.cli import (SUMMARY_CSV_HEADER, AggregateRow, aggregate,
                        attainment_threshold, main, median_steps,
                        render_steps, resolve_out_dir, summary_csv_text)
from meairl.config import ENV_NAMES, EnvSpec, RunSpec, parse_config_text, serialize_config
from meairl.training import ALGORITHMS, CSV_HEADER, EvalRow, TrainingRecord


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert serialize_config(cfg) == serialize_config(ExperimentConfig())

    def test_round_trip_object_identity(self):
        cfg = ExperimentConfig(
            env=EnvSpec(name="pointmass", noise_std=0.25),
            train=TrainingConfig(total_steps=500, pretrain_steps=100,
                                 algorithm="bc_none", disc_hidden=(32, 32),
                                 use_synthetic=False, seed=4),
            run=RunSpec(seeds=(5, 6), out_dir="/tmp/x", label="demo",
                        expert_threshold=-40.0))
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_canonical_serialization_is_stable(self):
        text = serialize_config(ExperimentConfig())
        assert serialize_config(parse_config_text(text)) == text

    def test_section_values_applied(self):
        cfg = parse_config_text(
            "[env]\nname = gridworld\nwidth = 4\nslip_prob = 0.2\n"
            "[train]\ntotal_steps = 1000\npretrain_steps = 50\n"
            "use_synthetic = false\n"
            "[run]\nseeds = 3,4,5\n")
        assert cfg.env.width == 4
        assert cfg.env.slip_prob == 0.2
        assert cfg.train.total_steps == 1000
        assert cfg.train.use_synthetic is False
        assert cfg.run.seeds == (3, 4, 5)

    def test_unknown_section_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[env]\n[nonsense]\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[env]\nwidth = 5\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[env]\nwidth = 5\nwidth = 6\n")

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match="line 2.*width"):
            parse_config_text("[env]\nwidth = tall\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("width = 5\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="use_synthetic"):
            parse_config_text("[train]\nuse_synthetic = yes\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[env]\nwidth\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# comment\n\n[env]\n# inner\nwidth = 6\n")
        assert cfg.env.width == 6

    def test_env_validation_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("[env]\nname = mountaincar\n")
        with pytest.raises(ConfigError):
            parse_config_text("[env]\nslip_prob = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("[env]\ndiscount = 1.0\n")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("[run]\nseeds = \n")


def _attributes_read_in_package() -> set:
    """Every attribute name the package reads, outside the dataclasses' range checks.

    A field read only by its own `__post_init__` is validated and then
    ignored: a dead knob.
    """
    names = set()
    for path in Path(meairl.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checks = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                  for node in ast.walk(fn)}
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                     and id(node) not in checks)
    return names


READ_ATTRIBUTES = _attributes_read_in_package()
CONFIG_FIELDS = [(cls.__name__, f.name) for cls in (TrainingConfig, EnvSpec, RunSpec)
                 for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("owner, name", CONFIG_FIELDS,
                         ids=[f"{owner}.{name}" for owner, name in CONFIG_FIELDS])
def test_config_field_is_read(owner, name):
    # matched by attribute name, so a field sharing its name with another
    # attribute passes; a field nothing reads at all fails
    assert name in READ_ATTRIBUTES, f"{owner}.{name} is read nowhere in meairl"


class TestBuildEnv:
    def test_gridworld(self):
        env = build_env(EnvSpec(name="gridworld", width=4, height=3,
                                slip_prob=0.1, goal_reward=2.0, discount=0.9,
                                horizon=25))
        assert env.name == "gridworld4x3"
        assert env.episode_horizon == 25
        assert env.mdp.n_states == 12
        assert env.mdp.discount == 0.9

    def test_pointmass(self):
        env = build_env(EnvSpec(name="pointmass", noise_std=0.2))
        assert env.name == "pointmass"
        assert env.dynamics_noise_std == 0.2


class TestOutputRouting:
    def test_cli_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEAIRL_OUT", str(tmp_path / "envvar"))
        out = resolve_out_dir(str(tmp_path / "cli"), str(tmp_path / "cfg"), "lbl")
        assert out == str(tmp_path / "cli" / "lbl")
        assert not os.path.exists(out)  # made by the first write, not by routing

    def test_config_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEAIRL_OUT", str(tmp_path / "envvar"))
        out = resolve_out_dir("", str(tmp_path / "cfg"), "")
        assert out == str(tmp_path / "cfg")

    def test_env_var_used_when_unconfigured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEAIRL_OUT", str(tmp_path / "envvar"))
        out = resolve_out_dir("", "", "run1")
        assert out == str(tmp_path / "envvar" / "run1")
        assert not os.path.exists(out)


def record_from(steps, returns):
    rows = [EvalRow(s, float(r), 0.0, 0.0, 0.0, 0.0, 0.0)
            for s, r in zip(steps, returns)]
    return TrainingRecord(rows=rows)


class TestAggregate:
    def test_constant_at_expert_attains_first_step(self):
        record = record_from([1000, 2000, 3000], [5.0, 5.0, 5.0])
        summary = aggregate([record], expert_return=5.0)
        assert summary.steps_to_expert == 1000

    def test_all_below_expert_gives_none(self):
        record = record_from([1000, 2000], [1.0, 2.0])
        summary = aggregate([record], expert_return=5.0)
        assert summary.steps_to_expert is None
        assert render_steps(summary.steps_to_expert) == "X"

    def test_hand_mean_and_std(self):
        records = [record_from([10, 20], [1.0, 7.0]),
                   record_from([10, 20], [3.0, 9.0]),
                   record_from([10, 20], [5.0, 11.0])]
        summary = aggregate(records, expert_return=9.0)
        assert np.array_equal(summary.steps, [10, 20])
        assert np.array_equal(summary.return_mean, [3.0, 9.0])
        want_std = float(np.std([1.0, 3.0, 5.0]))
        assert np.allclose(summary.return_std, [want_std, want_std])
        assert summary.steps_to_expert == 20

    def test_mismatched_grids_rejected(self):
        a = record_from([10, 20], [1.0, 2.0])
        b = record_from([10, 30], [1.0, 2.0])
        with pytest.raises(ValueError, match="grid"):
            aggregate([a, b], expert_return=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], expert_return=0.0)


class TestSummaryTable:
    def test_csv_text_and_median(self):
        rows = [AggregateRow("meairl", 0, 5.0, 6.0, 3000),
                AggregateRow("meairl", 1, 4.0, 5.0, None),
                AggregateRow("meairl", 2, 5.5, 6.5, 1000),
                AggregateRow("bc_none", 0, 1.0, 1.0, None)]
        text = summary_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SUMMARY_CSV_HEADER
        assert lines[2].endswith(",X")
        assert median_steps(rows, "meairl") == 3000.0
        assert median_steps(rows, "bc_none") == float("inf")

    def test_attainment_threshold_orientation(self):
        assert attainment_threshold(10.0) == 9.0
        assert attainment_threshold(-10.0) == -11.0


MICRO_CONFIG = """\
[env]
name = gridworld
width = 3
height = 3
slip_prob = 0.1
goal_reward = 5.0
discount = 0.9
horizon = 20

[train]
total_steps = 300
pretrain_steps = 100
eval_period = 100
eval_episodes = 2
batch_size = 32

[run]
seeds = 0,1
expert_episodes = 20
expert_seed = 7
"""


class TestCliExitCodes:
    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[env]\nbogus = 1\n")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("demo_dir", ["x.cfg.d", "other.d"])
    def test_unwritable_demo_path_exits_one(self, tmp_path, capsys, demo_dir):
        # a missing output directory is a runtime failure, whatever its name
        cfg_path = tmp_path / "x.cfg"
        cfg_path.write_text(MICRO_CONFIG)
        code = main(["expert", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--demos", str(tmp_path / demo_dir / "demos.txt")])
        assert code == 1
        assert "demos.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "mix_prob_start", "mix_prob_end", "model_update_period",
        # fixed settings that were once [train] keys
        "rollout_starts", "disc_updates_per_step", "policy_updates_per_step",
        "env_buffer_capacity", "model_lr", "model_alpha", "model_clip_norm",
        "policy_td_rate", "sac_lr", "alpha_ent", "tau", "gen_buffer_init",
        "gen_buffer_growth", "gen_buffer_max",
        # checkpoint files, which nothing read back
        "checkpoint_period", "checkpoint_dir"])
    def test_retired_mix_schedule_keys_exit_two(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text(MICRO_CONFIG.replace("batch_size = 32",
                                                 f"batch_size = 32\n{key} = 0.1"))
        demos = tmp_path / "demos.txt"
        for command in ("train", "compare"):
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--demos", str(demos)])
            assert code == 2
            assert f"unknown key '{key}'" in capsys.readouterr().err
            assert not demos.exists()
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_run_without_evaluation_row_exits_two(self, tmp_path, capsys, command):
        # total_steps below eval_period would record nothing; it is refused
        # before the expert is generated or any run is trained
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(MICRO_CONFIG.replace("total_steps = 300", "total_steps = 50")
                            .replace("pretrain_steps = 100", "pretrain_steps = 10"))
        demos = tmp_path / "demos.txt"
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--demos", str(demos)])
        assert code == 2
        err = capsys.readouterr().err
        assert "total_steps" in err and "eval_period" in err
        assert not demos.exists()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new", [
        ("slip_prob = 0.1", "slip_prob = 1.0"),
        ("width = 3", "width = 0"),
        ("height = 3", "height = 0"),
        ("batch_size = 32", "batch_size = 32\ndisc_lr = -0.001"),
        ("batch_size = 32", "batch_size = 32\nn_model_samples = 0"),
        ("batch_size = 32", "batch_size = 32\ndisc_hidden = 0"),
        ("batch_size = 32", "batch_size = 32\nmodel_hidden = 8,0"),
        ("batch_size = 32", "batch_size = 32\nsac_hidden = 64,-1"),
        ("batch_size = 32", "batch_size = 32\ndiscount = 1.5"),
        ("batch_size = 32", "batch_size = 32\nseed = -1"),
        ("seeds = 0,1", "seeds = 0,-1"),
    ], ids=["slip_one", "zero_width", "zero_height", "negative_disc_lr",
            "zero_model_samples", "zero_disc_width", "zero_model_width",
            "negative_sac_width", "train_discount_above_one",
            "negative_train_seed", "negative_run_seed"])
    def test_bad_value_exits_two(self, tmp_path, capsys, old, new):
        # refused from the config, before the expert is generated or any run is trained
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MICRO_CONFIG.replace(old, new))
        demos = tmp_path / "demos.txt"
        for command in ("train", "compare"):
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--demos", str(demos)])
            assert code == 2
            assert new.split("\n")[-1].split(" = ")[0] in capsys.readouterr().err
            assert not demos.exists()
            assert not (tmp_path / "o").exists()

    def test_continuous_run_without_threshold_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "pm.cfg"
        cfg_path.write_text("[env]\nname = pointmass\n[train]\ntotal_steps = 20\n"
                            "pretrain_steps = 10\neval_period = 10\n[run]\nseeds = 0\n")
        # the SAC expert cannot be trained without a return to reach
        demos = tmp_path / "demos.txt"
        for command in ("expert", "train", "compare"):
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--demos", str(demos)])
            assert code == 2
            assert "expert_threshold" in capsys.readouterr().err
            assert not demos.exists()
            assert not (tmp_path / "o").exists()
        # with demos on disk only compare's summary needs it, and compare
        # refuses the config before it trains any run
        env = build_env(EnvSpec(name="pointmass"))
        rng = np.random.default_rng(0)
        states = rng.uniform(-1.0, 1.0, size=(11, env.state_dim))
        actions = rng.uniform(-1.0, 1.0, size=(10, env.action_dim))
        save_continuous_demos(demos, [(states, actions)], env.name, 0,
                              env.state_dim, env.action_dim)
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--demos", str(demos)])
        assert code == 2
        assert "expert_threshold" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, key", [
        (["train", "--seed", "-1"], "seed"),
        (["compare", "--algorithms", "meairl,airl"], "algorithm"),
        (["verify-invariance", "--cases", "0"], "--cases"),
        (["verify-invariance", "--cases", "-3"], "--cases"),
        (["verify-invariance", "--alignment-cases", "0"], "--alignment-cases"),
        (["verify-invariance", "--seed", "-1"], "--seed"),
        (["verify-invariance", "--tol", "0"], "--tol"),
        (["verify-invariance", "--tol", "nan"], "--tol"),
        (["verify-invariance", "--tol", "inf"], "--tol"),
        (["verify-bounds", "--instances", "0"], "--instances"),
        (["verify-bounds", "--seed", "-1"], "--seed"),
    ], ids=["train_negative_seed", "compare_unknown_algorithm",
            "invariance_zero_cases", "invariance_negative_cases",
            "invariance_zero_alignment_cases", "invariance_negative_seed",
            "invariance_zero_tol", "invariance_nan_tol", "invariance_infinite_tol",
            "bounds_zero_instances", "bounds_negative_seed"])
    def test_bad_command_line_override_exits_two(self, tmp_path, capsys, flags, key):
        # command-line values are range-checked like config values, before any write
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(MICRO_CONFIG)
        demos = tmp_path / "demos.txt"
        if not flags[0].startswith("verify"):
            flags = flags + ["--config", str(cfg_path), "--demos", str(demos)]
        code = main(flags + ["--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not demos.exists()
        assert not (tmp_path / "o").exists()

    def test_verify_invariance_passes(self, tmp_path, capsys):
        code = main(["verify-invariance", "--cases", "10",
                     "--alignment-cases", "5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariance" in out
        report = tmp_path / "invariance_report.txt"
        assert report.exists()
        assert "PASS" in report.read_text()

    def test_verify_invariance_passes_at_seed_three(self, capsys):
        # at seed 3 the Q-shift gap reached 2e-8 when each solve stopped at 1e-10
        assert main(["verify-invariance", "--seed", "3", "--alignment-cases", "1"]) == 0
        assert "invariance suite: PASS" in capsys.readouterr().out

    def test_verify_bounds_passes(self, tmp_path, capsys):
        code = main(["verify-bounds", "--instances", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        reward_csv = (tmp_path / "bounds_reward.csv").read_text()
        assert reward_csv.startswith(
            "instance_id,gamma,n_states,eps_T,observed_gap,bound,ratio")
        assert (tmp_path / "bounds_performance.csv").exists()


class TestCliTrain:
    def test_train_twice_is_byte_identical(self, tmp_path, capsys):
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(MICRO_CONFIG)
        demos = tmp_path / "demos.txt"
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["train", "--config", str(cfg_path), "--seed", "0",
                         "--demos", str(demos), "--out", str(out)])
            assert code == 0
            csv = out / "train_meairl_seed0.csv"
            assert csv.exists()
            outputs.append(csv.read_bytes())
            assert (out / "resolved.cfg").exists()
        assert outputs[0] == outputs[1]

    def test_train_writes_header_and_resolved_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(MICRO_CONFIG)
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--algorithm",
                     "bc_none", "--out", str(out),
                     "--demos", str(tmp_path / "demos.txt")])
        assert code == 0
        text = (out / "train_bc_none_seed0.csv").read_text()
        assert text.split("\n")[0] == CSV_HEADER
        resolved = parse_config_text((out / "resolved.cfg").read_text())
        assert resolved.train.algorithm == "bc_none"

    def test_compare_emits_tables(self, tmp_path, capsys):
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(MICRO_CONFIG)
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(cfg_path),
                     "--algorithms", "meairl,bc_none", "--out", str(out),
                     "--demos", str(tmp_path / "demos.txt")])
        assert code == 0
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == SUMMARY_CSV_HEADER
        assert len(summary) == 1 + 4  # 2 algorithms x 2 seeds
        for alg in ("meairl", "bc_none"):
            for seed in (0, 1):
                assert (out / f"{alg}_seed{seed}.csv").exists()
        agg = (out / "aggregate.csv").read_text().strip().split("\n")
        assert agg[0] == "algorithm,final_return_mean,final_return_std,steps_to_target"
        assert len(agg) == 3
        printed = capsys.readouterr().out
        assert "median steps to target" in printed

    def test_expert_subcommand_writes_demos(self, tmp_path, capsys):
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(MICRO_CONFIG)
        out = tmp_path / "exp"
        demos = tmp_path / "d.txt"
        code = main(["expert", "--config", str(cfg_path), "--out", str(out),
                     "--demos", str(demos)])
        assert code == 0
        assert demos.exists()
        first = demos.read_text().split("\n")[0]
        assert first.startswith("#")
        assert "gridworld3x3" in first


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def _set_key(text: str, section: str, key: str, raw: str) -> str:
    """text with `key = raw` in [section], replacing the key's line if it has one."""
    lines, current, done = [], None, False
    for line in text.splitlines():
        if line.startswith("["):
            if current == section and not done:
                lines.append(f"{key} = {raw}")
                done = True
            current = line.strip("[]")
        elif current == section and line.split(" = ")[0] == key:
            line, done = f"{key} = {raw}", True
        lines.append(line)
    if not done:
        lines.append(f"{key} = {raw}")
    return "\n".join(lines) + "\n"


NAN = st.just(math.nan)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
UNIT = st.floats(0.0, 1.0)
# -0.0 passes `0.0 <= x`, so the values below the range start under it
OUTSIDE_UNIT = st.floats(max_value=-5e-324) | st.floats(min_value=1.0, exclude_min=True) | NAN
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
OUTSIDE_OPEN_UNIT = st.floats(max_value=0.0) | st.floats(min_value=1.0) | NAN
POSITIVE = st.integers(1, 10 ** 6)
BELOW_ONE = st.integers(max_value=0)
NEGATIVE = st.integers(max_value=-1)
WIDTHS = st.lists(st.integers(1, 512), max_size=3).map(tuple)
BAD_WIDTHS = st.lists(st.integers(max_value=512), min_size=1).filter(
    lambda w: min(w) < 1).map(tuple)
WORD = st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="/._-"),
               max_size=12)

# Each config field: (values inside its documented range, values outside
# it, or None for a field with no range). The ranges are the dataclasses'
# checks plus the CLI's total_steps >= eval_period. Values outside are
# drawn against MICRO_CONFIG's total_steps 300, pretrain_steps 100 and
# eval_period 100; values inside keep pretrain_steps <= total_steps with
# any subset of keys left at their defaults.
FIELD_RANGES = {
    ("env", "name"): (st.sampled_from(ENV_NAMES), WORD.filter(lambda w: w not in ENV_NAMES)),
    ("env", "width"): (POSITIVE, BELOW_ONE),
    ("env", "height"): (POSITIVE, BELOW_ONE),
    ("env", "slip_prob"): (st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(max_value=-5e-324) | st.floats(min_value=1.0) | NAN),
    ("env", "goal_reward"): (st.floats(allow_nan=False, allow_infinity=False), NON_FINITE),
    ("env", "discount"): (OPEN_UNIT, OUTSIDE_OPEN_UNIT),
    ("env", "horizon"): (POSITIVE, BELOW_ONE),
    ("env", "noise_std"): (st.floats(0.0, allow_infinity=False),
                          st.floats(max_value=-5e-324) | NON_FINITE),
    ("train", "total_steps"): (st.integers(2_000, 10 ** 6), st.integers(max_value=99)),
    ("train", "pretrain_steps"): (st.integers(0, 2_000), NEGATIVE | st.integers(min_value=301)),
    ("train", "rollout_horizon"): (POSITIVE, BELOW_ONE),
    ("train", "batch_size"): (POSITIVE, BELOW_ONE),
    ("train", "disc_lr"): (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           st.floats(max_value=0.0) | NON_FINITE),
    ("train", "model_hidden"): (WIDTHS, BAD_WIDTHS),
    ("train", "n_model_samples"): (POSITIVE, BELOW_ONE),
    ("train", "disc_hidden"): (WIDTHS, BAD_WIDTHS),
    ("train", "sac_hidden"): (WIDTHS, BAD_WIDTHS),
    ("train", "discount"): (OPEN_UNIT, OUTSIDE_OPEN_UNIT),
    ("train", "ratio_start"): (UNIT, OUTSIDE_UNIT),
    ("train", "ratio_end"): (UNIT, OUTSIDE_UNIT),
    ("train", "ratio_ramp_frac"): (UNIT, OUTSIDE_UNIT),
    ("train", "mix_prob"): (UNIT, OUTSIDE_UNIT),
    ("train", "use_synthetic"): (st.booleans(), st.sampled_from(["yes", "no", "1", "0", "on"])),
    ("train", "eval_period"): (POSITIVE, BELOW_ONE | st.integers(min_value=301)),
    ("train", "eval_episodes"): (POSITIVE, BELOW_ONE),
    ("train", "algorithm"): (st.sampled_from(ALGORITHMS),
                             WORD.filter(lambda w: w not in ALGORITHMS)),
    ("train", "seed"): (st.integers(0, 2 ** 32 - 1), NEGATIVE),
    ("run", "seeds"): (st.lists(st.integers(0, 2 ** 32 - 1), min_size=1).map(tuple),
                       st.lists(st.integers(), max_size=4).filter(
                           lambda s: not s or min(s) < 0).map(tuple)),
    ("run", "out_dir"): (WORD, None),
    ("run", "demo_path"): (WORD, None),
    ("run", "label"): (WORD, None),
    ("run", "expert_episodes"): (POSITIVE, BELOW_ONE),
    ("run", "expert_seed"): (st.integers(0, 2 ** 32 - 1), NEGATIVE),
    ("run", "expert_threshold"): (ANY_FLOAT, None),
    ("run", "expert_max_steps"): (POSITIVE, BELOW_ONE),
}
OUT_OF_RANGE = [key for key, (_, outside) in FIELD_RANGES.items() if outside is not None]


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def test_every_config_field_is_classified():
    fields = {(section, f.name) for section, cls in
              (("env", EnvSpec), ("train", TrainingConfig), ("run", RunSpec))
              for f in dataclasses.fields(cls)}
    assert set(FIELD_RANGES) == fields


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parsed_config_round_trips_through_resolved_cfg(data):
    chosen = {}
    for (section, name), (inside, _) in FIELD_RANGES.items():
        if data.draw(st.booleans()):
            chosen.setdefault(section, {})[name] = data.draw(inside)
    text = "".join(f"[{section}]\n" + "".join(f"{name} = {_render(value)}\n"
                                             for name, value in fields.items())
                   for section, fields in chosen.items())
    parsed = parse_config_text(text)
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "resolved.cfg")
        save_config(path, parsed)
        loaded = load_config(path)
    for section in ("env", "train", "run"):
        for f in dataclasses.fields(getattr(parsed, section)):
            value = getattr(getattr(parsed, section), f.name)
            assert _same(getattr(getattr(loaded, section), f.name), value), f.name
            if f.name in chosen.get(section, {}):
                assert _same(value, chosen[section][f.name]), f.name


@pytest.mark.parametrize("section, name", OUT_OF_RANGE,
                         ids=[f"{section}.{name}" for section, name in OUT_OF_RANGE])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_out_of_range_value_exits_two_without_out_dir(section, name, data):
    value = data.draw(FIELD_RANGES[(section, name)][1])
    with tempfile.TemporaryDirectory() as where:
        cfg_path = os.path.join(where, "bad.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(_set_key(MICRO_CONFIG, section, name, _render(value)))
        out = os.path.join(where, "o")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "--config", cfg_path, "--out", out])
        assert code == 2
        assert name in err.getvalue()
        assert not os.path.exists(out)

"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed in `setup`, runs
its timed `meairl` commands in `run_round` through the CLI entry point
`meairl.cli.main`, in this process, and checks a round's outputs in
`check` against `checks`, which computes its references apart from the
program. Sizes are dataclass fields so the benchmark's own tests can run
the same code at a fraction of the cost.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from meairl import (build_env, load_config, make_noisy_pointmass,
                    save_continuous_demos)
from meairl import cli


@dataclass
class Command:
    """One timed `meairl` invocation: its exit code, stdout and wall time,
    and how many of the round's operations it carries."""

    label: str
    ops: int
    code: int
    stdout: str
    seconds: float


def run_cli(label: str, ops: int, argv) -> Command:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return Command(label, ops, code, out.getvalue(), time.perf_counter() - start)


def _setup_command(argv) -> None:
    command = run_cli("setup", 0, argv)
    if command.code != 0:
        raise RuntimeError(f"set-up command {argv} exited {command.code}: "
                           f"{command.stdout}")


def _printed_target(stdout: str) -> float:
    match = re.search(r"^expert target (\S+), attainment threshold", stdout, re.M)
    checks.require(match is not None, "compare printed no expert target")
    return float(match.group(1))


def _steps_to_target(summary: Path) -> dict:
    """algorithm -> per-seed steps to 90% of the bar, from summary.csv."""
    steps = {}
    for line in summary.read_text(encoding="utf-8").splitlines()[1:]:
        algorithm, seed, _, _, reached = line.split(",")
        steps.setdefault(algorithm, []).append(reached)
    return {alg: "/".join(values) for alg, values in steps.items()}


@dataclass
class Training:
    """Shared by the two `meairl compare` workloads."""

    algorithms: tuple = ("meairl", "airl_sample_baseline")
    # TrainingConfig defaults, written into the config so checks can use them
    ratio_start: float = 0.05
    ratio_end: float = 0.5
    ratio_ramp_frac: float = 0.5

    def seeds(self, seed: int) -> list:
        return [self.n_seeds * seed + k for k in range(self.n_seeds)]

    def train_section(self, **extra) -> str:
        keys = dict(total_steps=self.total_steps, pretrain_steps=self.pretrain_steps,
                    eval_period=self.eval_period, **extra,
                    ratio_start=self.ratio_start, ratio_end=self.ratio_end,
                    ratio_ramp_frac=self.ratio_ramp_frac)
        return "[train]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items())

    @property
    def ops_per_round(self) -> int:
        return len(self.algorithms) * self.n_seeds

    @property
    def steps_per_round(self) -> int:
        return self.ops_per_round * self.total_steps

    def record_names(self, seed: int) -> list:
        return [f"{alg}_seed{s}.csv" for alg in self.algorithms for s in self.seeds(seed)]

    def run_round(self, inputs: Path, out: Path) -> list:
        return [run_cli("compare", self.ops_per_round,
                        ["compare", "--config", inputs / "bench.cfg",
                         "--demos", inputs / "demos.txt", "--out", out])]

    def read_records(self, seed: int, out: Path) -> dict:
        return {name: checks.read_rows(out / name, checks.TRAINING_HEADER)
                for name in self.record_names(seed)}

    def check_records(self, seed: int, out: Path, return_range) -> dict:
        """Checks shared by both training workloads; returns the records."""
        records = self.read_records(seed, out)
        for name, rows in records.items():
            path = out / name
            checks.check_training_rows(path, rows, self.total_steps, self.eval_period,
                                       *return_range)
            checks.check_finite_columns(path, rows, ["disc_loss"],
                                        after_step=self.pretrain_steps)
            if name.startswith("meairl_"):
                checks.check_ramp(path, rows, self.pretrain_steps, self.total_steps,
                                  self.ratio_start, self.ratio_end, self.ratio_ramp_frac)
                checks.check_finite_columns(path, rows, ["model_nll"])
            else:
                checks.check_baseline_columns(path, rows)
        return records

    def figures(self, rounds) -> list:
        rates = [self.steps_per_round / sum(c.seconds for c in r) for r in rounds]
        return [("env_steps_per_s", float(np.median(rates)), "steps/s")]


@dataclass
class GridSlip(Training):
    """`meairl compare` on the 5x5 gridworld at slip 0.3, demos from `meairl expert`."""

    name: str = "grid-slip"
    width: int = 5
    height: int = 5
    slip: float = 0.3
    goal_reward: float = 5.0
    discount: float = 0.95
    horizon: int = 40
    n_seeds: int = 3
    total_steps: int = 8000
    pretrain_steps: int = 1000
    eval_period: int = 1000
    # meairl_return pools this many final evaluation rows of every seed
    final_rows: int = 3
    references: dict = field(default_factory=dict, init=False)  # set by setup

    def config_text(self, seed: int) -> str:
        return (f"[env]\nname = gridworld\nwidth = {self.width}\nheight = {self.height}\n"
                f"slip_prob = {self.slip!r}\ngoal_reward = {self.goal_reward!r}\n"
                f"discount = {self.discount!r}\nhorizon = {self.horizon}\n\n"
                f"{self.train_section()}\n"
                f"[run]\nseeds = {','.join(str(s) for s in self.seeds(seed))}\n"
                f"expert_seed = {seed}\n")

    def setup(self, seed: int, where: Path) -> None:
        where.mkdir(parents=True)
        (where / "bench.cfg").write_text(self.config_text(seed), encoding="utf-8")
        _setup_command(["expert", "--config", where / "bench.cfg",
                        "--demos", where / "demos.txt", "--out", where])
        self.references = checks.grid_references(self.width, self.height, self.slip,
                                                 self.goal_reward, self.discount,
                                                 self.horizon)

    def check_expert_target(self, inputs: Path) -> None:
        """The library's bar for the config agrees with the independent one."""
        config = load_config(inputs / "bench.cfg")
        library = cli.expert_return_target(build_env(config.env), config)
        checks.check_target("expert_return_target", library,
                            self.references["target"], 1e-9)

    def check(self, seed: int, inputs: Path, out: Path, commands) -> dict:
        refs = self.references
        checks.check_target("printed expert target", _printed_target(commands[0].stdout),
                            refs["target"], checks.PRINTED_TARGET_ATOL)
        self.check_expert_target(inputs)
        top = self.goal_reward * (1.0 - self.discount ** self.horizon) / (1.0 - self.discount)
        records = self.check_records(seed, out, (0.0, top))
        learner = [rows for name, rows in records.items() if name.startswith("meairl_")]
        for name, rows in records.items():
            if name.startswith("meairl_"):
                checks.check_model_improves(out / name, rows, refs["unseen_errors"])
        meairl_return = checks.final_rows_mean(learner, self.final_rows)
        checks.check_learns(meairl_return, refs["midpoint"])
        return {"meairl_return": (meairl_return, "return"),
                **{f"steps_to_target.{alg}": (steps, "steps")
                   for alg, steps in _steps_to_target(out / "summary.csv").items()}}


@dataclass
class Pointmass(Training):
    """`meairl compare` on the noisy point mass, demos from a fixed controller."""

    name: str = "pointmass"
    noise_std: float = 0.5
    n_seeds: int = 1
    total_steps: int = 150
    pretrain_steps: int = 50
    eval_period: int = 50
    eval_episodes: int = 2
    demo_episodes: int = 20
    threshold: float = field(default=float("nan"), init=False)  # set by setup

    def setup(self, seed: int, where: Path) -> None:
        """Demos from a = clip(-5 x); the config's expert threshold is their mean return."""
        where.mkdir(parents=True)
        env = make_noisy_pointmass(self.noise_std)
        rng = np.random.default_rng(seed)
        episodes, returns = [], []
        for _ in range(self.demo_episodes):
            s = env.reset(rng)
            states, actions, total = [s.copy()], [], 0.0
            for _ in range(env.horizon):
                a = np.clip(-5.0 * s, env.action_low, env.action_high)
                s, reward = env.step(s, a, rng)
                states.append(s.copy())
                actions.append(a)
                total += reward
            episodes.append((np.array(states), np.array(actions)))
            returns.append(total)
        save_continuous_demos(where / "demos.txt", episodes, env.name, seed,
                              env.state_dim, env.action_dim)
        self.threshold = float(np.mean(returns))
        (where / "bench.cfg").write_text(
            f"[env]\nname = pointmass\nnoise_std = {self.noise_std!r}\n\n"
            f"{self.train_section(eval_episodes=self.eval_episodes)}\n"
            f"[run]\nseeds = {seed}\nexpert_threshold = {self.threshold!r}\n",
            encoding="utf-8")

    def check(self, seed: int, inputs: Path, out: Path, commands) -> dict:
        checks.check_target("printed expert target", _printed_target(commands[0].stdout),
                            self.threshold, checks.PRINTED_TARGET_ATOL)
        # reward -x^2 on states clipped to [-5, 5], 100 steps an episode
        records = self.check_records(seed, out, (-2500.0, 0.0))
        return {f"final_return.{name[:-4]}": (rows[-1]["return_mean"], "return")
                for name, rows in records.items()}


@dataclass
class Verify:
    """`meairl verify-invariance` and `meairl verify-bounds` at their defaults.

    The defaults include `--seed 0`, so the inputs are the same for every
    benchmark seed: on other seeds the invariance suite fails now and then
    (CHANGES.md, the `FOUND:` line on `run_invariance_suite`).
    """

    name: str = "verify"
    cases: int = 200
    alignment_cases: int = 50
    instances: int = 1000

    ops_per_round = 2

    def setup(self, seed: int, where: Path) -> None:
        """A small run of both commands, so imports and first calls are paid here."""
        where.mkdir(parents=True)
        _setup_command(["verify-invariance", "--cases", 2, "--alignment-cases", 1,
                        "--seed", 0])
        _setup_command(["verify-bounds", "--instances", 4, "--seed", 0, "--out", where])

    def record_names(self, seed: int) -> list:
        return ["bounds_reward.csv", "bounds_performance.csv"]

    def run_round(self, inputs: Path, out: Path) -> list:
        return [
            run_cli("invariance", 1, ["verify-invariance", "--cases", self.cases,
                                      "--alignment-cases", self.alignment_cases,
                                      "--seed", 0]),
            run_cli("bounds", 1, ["verify-bounds", "--instances", self.instances,
                                  "--seed", 0, "--out", out]),
        ]

    def check(self, seed: int, inputs: Path, out: Path, commands) -> dict:
        invariance, bounds = commands
        checks.check_passes(invariance.stdout, ["invariance suite:", "alignment suite:"])
        checks.check_passes(bounds.stdout, ["reward bound sweep:",
                                            "performance bound sweep:"])
        for kind in checks.SWEEP_BOUNDS:
            path = out / f"bounds_{kind}.csv"
            checks.check_sweep_rows(path, checks.read_rows(path, checks.SWEEP_HEADER),
                                    kind, self.instances)
        return {}

    def figures(self, rounds) -> list:
        return [(f"{c.label}_s", float(np.median([r[i].seconds for r in rounds])), "s")
                for i, c in enumerate(rounds[0])]


WORKLOADS = {w.name: w for w in (GridSlip, Pointmass, Verify)}


def make(name: str, **sizes):
    return WORKLOADS[name](**sizes)

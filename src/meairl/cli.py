"""Command line front end.

Subcommands:

  expert             write a demonstration file for a config's environment
  train              one reward-learning run, record CSV into the run dir
  compare            all seeds x algorithms from a config, plus a summary
  verify-invariance  randomized shaping-invariance and alignment suites
  verify-bounds      randomized sweeps against the closed-form error bounds

Output goes under --out, else the config's run.out_dir, else $MEAIRL_OUT,
else ./runs; the directory is made by the first write into it, so a
refused config leaves none behind. Exit codes: 0 ok, 1 runtime or
verification failure, 2 malformed or unreadable configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .adversarial import ExpertBuffer
from .bounds import run_bound_sweep, write_sweep_csv
from .config import (ConfigError, ExperimentConfig, build_env, load_config,
                     save_config)
from .mdp import DemoFormatError, TabularEnv
from .soft_dp import (finite_horizon_policy_value, soft_optimal_policy,
                      soft_value_iteration)
from .suites import run_alignment_suite, run_invariance_suite
from .training import generate_expert, run_meairl

SUMMARY_CSV_HEADER = "algorithm,seed,final_return,best_return,steps_to_target"


def resolve_out_dir(cli_out: str, config_out: str, label: str) -> str:
    """The run directory's path; `_out_file` makes it on the first write."""
    root = cli_out or config_out or os.environ.get("MEAIRL_OUT", "runs")
    return os.path.join(root, label) if label else root


def _out_file(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _with_train(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """config with [train] fields replaced, refused like a bad parsed value."""
    try:
        return dataclasses.replace(config, train=dataclasses.replace(config.train, **changes))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def expert_return_target(env, config: ExperimentConfig) -> float:
    """The bar a learner is compared against.

    Tabular: the exact truncated-horizon start-weighted value of the
    demonstration policy. Learners are evaluated by sampling episodes of
    `episode_horizon` steps, so the bar uses the same protocol; the
    infinite-horizon value would overstate it by the truncation tail.
    Continuous: the configured expert threshold (there is no closed form).
    """
    if isinstance(env, TabularEnv):
        mdp = env.mdp
        [values] = soft_value_iteration([(mdp.kernel, mdp.reward, mdp.discount)])
        soft_policy = soft_optimal_policy(values)
        v = finite_horizon_policy_value(mdp, soft_policy, env.episode_horizon)
        return float(mdp.init_dist @ v)
    if math.isnan(config.run.expert_threshold):
        raise ConfigError("run.expert_threshold must be set for continuous envs")
    return config.run.expert_threshold


def attainment_threshold(target: float) -> float:
    # "within 10% of the expert", oriented correctly for negative returns
    return target - 0.1 * abs(target)


def steps_to_threshold(record, threshold: float):
    for row in record.rows:
        if row.return_mean >= threshold:
            return row.step
    return None


def render_steps(steps) -> str:
    return "X" if steps is None else str(steps)


@dataclass
class AggregateRow:
    algorithm: str
    seed: int
    final_return: float
    best_return: float
    steps_to_target: object  # int or None


@dataclass
class AggregateSummary:
    """Across-seed view of records sharing one evaluation grid."""

    steps: np.ndarray
    return_mean: np.ndarray  # per step, across records
    return_std: np.ndarray
    steps_to_expert: object  # first step whose mean reaches the bar, or None


def aggregate(records, expert_return: float) -> AggregateSummary:
    """records: TrainingRecord objects, one per seed."""
    if not records:
        raise ValueError("aggregate needs at least one record")
    grids = [np.array([row.step for row in rec.rows]) for rec in records]
    for grid in grids[1:]:
        if not np.array_equal(grid, grids[0]):
            raise ValueError("records do not share an evaluation grid")
    returns = np.array([[row.return_mean for row in rec.rows] for rec in records])
    mean = returns.mean(axis=0)
    std = returns.std(axis=0)
    attained = np.nonzero(mean >= expert_return)[0]
    steps_to = int(grids[0][attained[0]]) if attained.size else None
    return AggregateSummary(grids[0], mean, std, steps_to)


def per_seed_rows(results: dict, threshold: float) -> list:
    """results maps (algorithm, seed) to a TrainingRecord."""
    rows = []
    for (alg, seed), record in sorted(results.items()):
        returns = [r.return_mean for r in record.rows]
        rows.append(AggregateRow(alg, seed,
                                 final_return=returns[-1] if returns else float("nan"),
                                 best_return=max(returns) if returns else float("nan"),
                                 steps_to_target=steps_to_threshold(record, threshold)))
    return rows


def summary_csv_text(rows) -> str:
    lines = [SUMMARY_CSV_HEADER]
    for r in rows:
        lines.append(",".join([r.algorithm, str(r.seed), repr(r.final_return),
                               repr(r.best_return), render_steps(r.steps_to_target)]))
    return "\n".join(lines) + "\n"


def median_steps(rows, algorithm: str) -> float:
    steps = [math.inf if r.steps_to_target is None else r.steps_to_target
             for r in rows if r.algorithm == algorithm]
    return float(np.median(steps)) if steps else math.inf


def _demo_path(args, config: ExperimentConfig, out_dir: str) -> str:
    if getattr(args, "demos", None):
        return args.demos
    if config.run.demo_path:
        return config.run.demo_path
    return os.path.join(out_dir, "expert_demos.txt")


def _require_eval_row(config: ExperimentConfig) -> None:
    """A run shorter than one evaluation period would write an empty record."""
    train = config.train
    if train.total_steps < train.eval_period:
        raise ConfigError(f"train.total_steps ({train.total_steps}) < train.eval_period "
                          f"({train.eval_period}): the run would record no evaluation row")


def _write_demos(env, config: ExperimentConfig, path, out_dir: str) -> None:
    threshold = None if isinstance(env, TabularEnv) else expert_return_target(env, config)
    os.makedirs(out_dir, exist_ok=True)  # the default demo path lies inside it
    generate_expert(env, config.run.expert_seed, config.run.expert_episodes, path,
                    return_threshold=threshold, max_steps=config.run.expert_max_steps,
                    config=config.train)


def _training_setup(args, config: ExperimentConfig):
    """What `train` and `compare` share: the config checks, the env, the out
    dir and the expert buffer, with demos written first if the path holds none."""
    _require_eval_row(config)
    env = build_env(config.env)
    out_dir = resolve_out_dir(args.out, config.run.out_dir, config.run.label)
    demos = _demo_path(args, config, out_dir)
    if not os.path.exists(demos):
        _write_demos(env, config, demos, out_dir)
    return env, out_dir, ExpertBuffer.from_file(demos)


def cmd_expert(args) -> int:
    config = load_config(args.config)
    env = build_env(config.env)
    out_dir = resolve_out_dir(args.out, config.run.out_dir, config.run.label)
    path = _demo_path(args, config, out_dir)
    _write_demos(env, config, path, out_dir)
    save_config(_out_file(out_dir, "resolved.cfg"), config)
    print(f"wrote {config.run.expert_episodes} episodes to {path}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    overrides = {"algorithm": args.algorithm} if args.algorithm else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = _with_train(config, **overrides)
    env, out_dir, expert = _training_setup(args, config)
    record = run_meairl(env, expert, config.train)
    csv_path = _out_file(out_dir,
                         f"train_{config.train.algorithm}_seed{config.train.seed}.csv")
    record.to_csv(csv_path)
    save_config(_out_file(out_dir, "resolved.cfg"), config)
    print(f"wrote {csv_path} (final return {record.rows[-1].return_mean:.4f})")
    return 0


def cmd_compare(args) -> int:
    config = load_config(args.config)
    # a repeated algorithm or seed trains, and is summarised, once
    algorithms = list(dict.fromkeys(a.strip() for a in args.algorithms.split(",") if a.strip()))
    if not algorithms:
        raise ConfigError(f"--algorithms names no algorithm: {args.algorithms!r}")
    seeds = list(dict.fromkeys(config.run.seeds))
    trains = {alg: _with_train(config, algorithm=alg).train for alg in algorithms}
    env, out_dir, expert = _training_setup(args, config)
    target = expert_return_target(env, config)  # before training: it may refuse the config
    threshold = attainment_threshold(target)
    results = {}
    for alg, train_cfg in trains.items():
        # one call trains every seed of the algorithm (stacked on a tabular env)
        for seed, record in zip(seeds, run_meairl(env, expert, train_cfg, seeds)):
            record.to_csv(_out_file(out_dir, f"{alg}_seed{seed}.csv"))
            results[(alg, seed)] = record
            print(f"{alg} seed {seed}: final return {record.rows[-1].return_mean:.4f}")
    rows = per_seed_rows(results, threshold)
    with open(_out_file(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(summary_csv_text(rows))
    agg_lines = ["algorithm,final_return_mean,final_return_std,steps_to_target"]
    for alg in algorithms:
        summary = aggregate([results[(alg, seed)] for seed in seeds], threshold)
        agg_lines.append(",".join([alg, repr(float(summary.return_mean[-1])),
                                   repr(float(summary.return_std[-1])),
                                   render_steps(summary.steps_to_expert)]))
    with open(_out_file(out_dir, "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(agg_lines) + "\n")
    save_config(_out_file(out_dir, "resolved.cfg"), config)
    print(f"expert target {target:.4f}, attainment threshold {threshold:.4f}")
    print(SUMMARY_CSV_HEADER)
    for r in rows:
        print(f"{r.algorithm},{r.seed},{r.final_return:.4f},{r.best_return:.4f},"
              f"{render_steps(r.steps_to_target)}")
    for alg in algorithms:
        med = median_steps(rows, alg)
        print(f"median steps to target [{alg}]: "
              f"{render_steps(None if math.isinf(med) else int(med))}")
    return 0


def _require_verify_args(counts: dict, seed: int, tol=None) -> None:
    """Refuse a verifier's flags before it computes or writes anything."""
    for flag, count in counts.items():
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"--tol must be finite and > 0, got {tol}")


def cmd_verify_invariance(args) -> int:
    _require_verify_args({"--cases": args.cases, "--alignment-cases": args.alignment_cases},
                         args.seed, args.tol)
    inv = run_invariance_suite(n_cases=args.cases, tol=args.tol, seed=args.seed)
    align = run_alignment_suite(n_cases=args.alignment_cases, tol=args.tol,
                                seed=args.seed)
    print(inv.summary_line())
    print(align.summary_line())
    if args.out:
        with open(_out_file(args.out, "invariance_report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(inv.summary_line() + "\n" + align.summary_line() + "\n")
    return 0 if (inv.passed and align.passed) else 1


def cmd_verify_bounds(args) -> int:
    _require_verify_args({"--instances": args.instances}, args.seed)
    out_dir = resolve_out_dir(args.out, "", "")
    status = 0
    for kind, rows in zip(("reward", "performance"),
                          run_bound_sweep(args.instances, seed=args.seed)):
        write_sweep_csv(_out_file(out_dir, f"bounds_{kind}.csv"), rows)
        n_fail = sum(1 for r in rows if not r.passed)
        ratios = np.sort([r.ratio for r in rows])
        # linear-interpolated quantiles; np.quantile would import numpy.ma
        median, q90, worst = np.interp([0.5, 0.9, 1.0], np.linspace(0.0, 1.0, len(ratios)),
                                       ratios)
        verdict = "PASS" if n_fail == 0 else "FAIL"
        print(f"{kind} bound sweep: {verdict} over {len(rows)} instances "
              f"(observed/bound ratio median {median:.3e}, q90 {q90:.3e}, "
              f"max {worst:.3e}; {n_fail} violations)")
        if n_fail:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meairl",
        description="model-enhanced adversarial reward learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expert", help="generate a demonstration file")
    p.add_argument("--config", required=True)
    p.add_argument("--demos", default="", help="demo file path override")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_expert)

    p = sub.add_parser("train", help="run one reward-learning training")
    p.add_argument("--config", required=True)
    p.add_argument("--algorithm", default="",
                   choices=["", "meairl", "airl_sample_baseline", "bc_none"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--demos", default="")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="run every configured seed and algorithm")
    p.add_argument("--config", required=True)
    p.add_argument("--algorithms", default="meairl,airl_sample_baseline")
    p.add_argument("--demos", default="")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify-invariance",
                       help="randomized shaping-invariance and alignment suites")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--alignment-cases", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_verify_invariance)

    p = sub.add_parser("verify-bounds",
                       help="randomized sweeps against the closed-form bounds")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_verify_bounds)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DemoFormatError as exc:
        print(f"demo file error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  surface anything else as exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Output checks computed apart from the program.

Nothing here imports `meairl`. The gridworld kernel is rebuilt from its
documented rules, the expert bar and the random-policy value come from a
short soft value iteration and finite-horizon evaluation written here,
CSVs are parsed with the `csv` module, and the error bounds are recomputed
from their closed forms. Every check raises `CheckFailed` with a message
naming the file and the row; `perfbench/tests/test_checks.py` feeds each
one a doctored input to show that it can fail.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

TRAINING_HEADER = ["step", "return_mean", "return_std", "disc_loss", "model_nll",
                   "eps_T", "synthetic_fraction"]
SWEEP_HEADER = ["instance_id", "gamma", "n_states", "eps_T", "observed_gap",
                "bound", "ratio"]
# The program's verifier draws kernels with r_max = 1 (bounds.random_problem).
SWEEP_R_MAX = 1.0
# Rounding room for the recomputed bound; the closed forms are a handful of
# float operations, so a real mismatch is many orders of magnitude larger.
BOUND_RTOL = 1e-12
RAMP_ATOL = 1e-12
# `compare` prints the target with four decimals.
PRINTED_TARGET_ATOL = 0.5e-4


class CheckFailed(AssertionError):
    """An output of the program does not have a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# gridworld dynamic programming

_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right as (dy, dx)


def gridworld(width: int, height: int, slip: float, goal_reward: float):
    """Kernel, reward and start distribution of the documented slippery grid.

    The commanded move happens with probability 1 - slip and each other
    move with slip / 3; a move off the grid stays put; the bottom-right
    cell is absorbing and pays goal_reward for every action; episodes start
    uniformly on the other cells.
    """
    n = width * height
    goal = n - 1
    kernel = np.zeros((n, 4, n))
    for s in range(n):
        if s == goal:
            kernel[s, :, s] = 1.0
            continue
        y, x = divmod(s, width)
        for a in range(4):
            for d, (dy, dx) in enumerate(_MOVES):
                ny, nx = y + dy, x + dx
                inside = 0 <= ny < height and 0 <= nx < width
                kernel[s, a, ny * width + nx if inside else s] += \
                    (1.0 - slip) if d == a else slip / 3.0
    reward = np.zeros((n, 4))
    reward[goal] = goal_reward
    start = np.full(n, 1.0 / (n - 1))
    start[goal] = 0.0
    return kernel, reward, start


def soft_optimal_probs(kernel, reward, gamma: float, tol: float = 1e-10):
    """Soft-optimal policy by soft value iteration from Q = 0.

    Stops once the sup-norm change of Q is at most `tol`, the stopping
    rule of the program's own oracle, so the two bars agree to rounding.
    """
    q = np.zeros_like(reward)
    while True:
        top = q.max(axis=1)
        v = top + np.log(np.exp(q - top[:, None]).sum(axis=1))
        q_next = reward + gamma * np.einsum("sap,p->sa", kernel, v)
        change = float(np.abs(q_next - q).max())
        q = q_next
        if change <= tol:
            break
    probs = np.exp(q - q.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


def horizon_value(kernel, reward, start, gamma: float, probs, horizon: int) -> float:
    """Start-weighted discounted return of `probs` over `horizon` steps."""
    r_pi = (probs * reward).sum(axis=1)
    p_pi = np.einsum("sa,sap->sp", probs, kernel)
    v = np.zeros(len(start))
    for _ in range(horizon):
        v = r_pi + gamma * (p_pi @ v)
    return float(start @ v)


def grid_references(width, height, slip, goal_reward, gamma, horizon) -> dict:
    """Expert target, its 90% bar, the uniform-random value and their midpoint."""
    kernel, reward, start = gridworld(width, height, slip, goal_reward)
    expert = horizon_value(kernel, reward, start, gamma,
                           soft_optimal_probs(kernel, reward, gamma), horizon)
    uniform = horizon_value(kernel, reward, start, gamma,
                            np.full(reward.shape, 0.25), horizon)
    bar = expert - 0.1 * abs(expert)
    return {"target": expert, "bar": bar, "random": uniform,
            "midpoint": 0.5 * (uniform + bar),
            "unseen_errors": unseen_row_errors(kernel)}


def check_target(name: str, reported: float, expected: float, atol: float) -> None:
    require(abs(reported - expected) <= atol,
            f"{name} {reported!r} differs from the independent value "
            f"{expected!r} by more than {atol:g}")


# ---------------------------------------------------------------------------
# training records


def read_rows(path: Path, header: list) -> list:
    """Rows of a CSV with the given header, each a dict of floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        require(got == header, f"{path}: header {got} is not {header}")
        rows = []
        for line, cells in enumerate(reader, start=2):
            require(len(cells) == len(header),
                    f"{path}:{line}: {len(cells)} cells, expected {len(header)}")
            rows.append({k: float(c) for k, c in zip(header, cells)})
    return rows


def check_training_rows(path, rows, total_steps: int, eval_period: int,
                        return_low: float, return_high: float) -> None:
    """The full evaluation grid, and finite returns inside the reachable range."""
    steps = [int(r["step"]) for r in rows]
    grid = list(range(eval_period, total_steps + 1, eval_period))
    require(steps == grid, f"{path}: evaluation steps {steps} are not {grid}")
    for r in rows:
        for key in ("return_mean", "return_std"):
            require(math.isfinite(r[key]),
                    f"{path}: {key} at step {r['step']:.0f} is {r[key]}")
        require(return_low <= r["return_mean"] <= return_high,
                f"{path}: return {r['return_mean']} at step {r['step']:.0f} "
                f"lies outside [{return_low}, {return_high}]")


def ramp_fraction(step: int, pretrain_steps: int, total_steps: int,
                  start: float, end: float, ramp_frac: float) -> float:
    """The documented synthetic share of a policy batch at `step`."""
    if step <= pretrain_steps:
        return 0.0
    ramp = round(ramp_frac * total_steps)
    return start + (end - start) * min(1.0, step / ramp) if ramp else end


def check_ramp(path, rows, pretrain_steps, total_steps, start, end, ramp_frac) -> None:
    for r in rows:
        want = ramp_fraction(int(r["step"]), pretrain_steps, total_steps,
                             start, end, ramp_frac)
        require(abs(r["synthetic_fraction"] - want) <= RAMP_ATOL,
                f"{path}: synthetic_fraction {r['synthetic_fraction']!r} at step "
                f"{r['step']:.0f}, the ramp gives {want!r}")


def check_baseline_columns(path, rows) -> None:
    """No model in the sample baseline: eps_T and model_nll NaN, no synthetic data."""
    for r in rows:
        require(math.isnan(r["eps_T"]) and math.isnan(r["model_nll"]),
                f"{path}: baseline has eps_T {r['eps_T']} and model_nll "
                f"{r['model_nll']} at step {r['step']:.0f}")
        require(r["synthetic_fraction"] == 0.0,
                f"{path}: baseline synthetic_fraction {r['synthetic_fraction']} "
                f"at step {r['step']:.0f}")


def unseen_row_errors(kernel) -> np.ndarray:
    """TV distance from the uniform row of every true row but the goal's.

    A smoothed count model gives a pair it has never seen the uniform row,
    so these are the values eps_T, the worst row's error, stays pinned at
    while such a pair goes unvisited. The absorbing goal is left out: every
    run that reaches it tries all its actions while the policy is uniform,
    and a model that never learns would be pinned at the goal's 0.96.
    """
    return 0.5 * np.abs(kernel[:-1] - 1.0 / kernel.shape[-1]).sum(axis=-1).ravel()


def check_model_improves(path, rows, unseen_errors) -> None:
    """A count model improves with data: eps_T falls from the first row to
    the last, unless a pair the run never visited pins it at that pair's
    error."""
    first, last = rows[0]["eps_T"], rows[-1]["eps_T"]
    require(0.0 <= last <= 1.0, f"{path}: eps_T {last} outside [0, 1]")
    pinned = bool(np.any(np.abs(np.asarray(unseen_errors) - last) <= 1e-12))
    require(last < first or pinned,
            f"{path}: eps_T went from {first} to {last}, and no unvisited pair "
            f"has that error")


def check_finite_columns(path, rows, columns, after_step: int = 0) -> None:
    for r in rows:
        if r["step"] <= after_step:
            continue
        for key in columns:
            require(math.isfinite(r[key]),
                    f"{path}: {key} at step {r['step']:.0f} is {r[key]}")


def final_rows_mean(records, n_rows: int) -> float:
    """Mean return_mean over the last n_rows rows of every record, pooled."""
    values = [r["return_mean"] for rows in records for r in rows[-n_rows:]]
    return float(np.mean(values))


def check_learns(value: float, midpoint: float) -> None:
    require(value > midpoint,
            f"meairl final return {value:.4f} is not above the midpoint "
            f"{midpoint:.4f} between the random policy and the expert bar")


# ---------------------------------------------------------------------------
# verifiers


def reward_bound(gamma: float, n_states: int, eps_t: float, r_max: float) -> float:
    """gamma / (1 - gamma) * |S| * eps_T * R_max."""
    return gamma / (1.0 - gamma) * n_states * eps_t * r_max


def performance_bound(gamma: float, n_states: int, eps_t: float, r_max: float) -> float:
    """eps_T * (gamma R_max + (1 + gamma) R_max |S|) / (1 - gamma)^2."""
    return eps_t * (gamma * r_max + (1.0 + gamma) * r_max * n_states) / (1.0 - gamma) ** 2


SWEEP_BOUNDS = {"reward": reward_bound, "performance": performance_bound}


def check_sweep_rows(path, rows, kind: str, n_instances: int) -> None:
    """Every instance present, each gap under its bound, each bound recomputed."""
    closed_form = SWEEP_BOUNDS[kind]
    ids = [int(r["instance_id"]) for r in rows]
    require(ids == list(range(n_instances)),
            f"{path}: {len(rows)} rows, expected instances 0..{n_instances - 1}")
    for r in rows:
        where = f"{path}: instance {r['instance_id']:.0f}"
        require(0.0 <= r["eps_T"] <= 1.0, f"{where}: eps_T {r['eps_T']} outside [0, 1]")
        require(r["observed_gap"] <= r["bound"] + 1e-8,
                f"{where}: gap {r['observed_gap']!r} exceeds bound {r['bound']!r}")
        want = closed_form(r["gamma"], int(r["n_states"]), r["eps_T"], SWEEP_R_MAX)
        require(abs(r["bound"] - want) <= BOUND_RTOL * abs(want),
                f"{where}: bound {r['bound']!r}, the closed form gives {want!r}")
        ratio = r["observed_gap"] / r["bound"] if r["bound"] > 0.0 else 0.0
        require(r["ratio"] == ratio,
                f"{where}: ratio {r['ratio']!r} is not gap / bound = {ratio!r}")


def check_passes(text: str, prefixes) -> None:
    """Each named summary line is printed once and says PASS."""
    for prefix in prefixes:
        lines = [ln for ln in text.splitlines() if ln.startswith(prefix)]
        require(len(lines) == 1, f"expected one line starting {prefix!r}, got {lines}")
        require(lines[0].startswith(f"{prefix} PASS"), f"not a pass: {lines[0]!r}")


def check_same_bytes(first: Path, second: Path, names) -> None:
    """Determinism: the named files are byte-identical in both directories."""
    for name in names:
        a, b = (Path(d, name).read_bytes() for d in (first, second))
        require(a == b, f"{name} differs between {first} and {second}")

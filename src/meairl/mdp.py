"""Finite stochastic MDPs, episode sampling, and the two desk-scale environments.

Conventions used everywhere in the package: transition kernels are float
arrays indexed [state, action, next_state], rewards [state, action],
policies [state, action]. Every discrete draw maps a uniform to an index
by one rule, `_inverse_cdf`. The one-state and batch samplers take their
uniforms from the caller, who draws them from numpy Generators in blocks
or one by one; `sample_episodes` draws a whole call's uniforms from the
generator it is given. So any run is reproducible from a single 64-bit seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

# Distributions (kernel rows, policies, start dists) must sum to one this tightly.
DIST_ATOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DemoFormatError(ValueError):
    """A demonstration file does not match the documented layout."""


def _check_distribution(arr, what):
    if (arr < 0.0).any() or not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite and nonnegative")
    sums = arr.sum(axis=-1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > DIST_ATOL:
        raise ValueError(f"{what} rows must sum to 1 (worst deviation {worst:.3e})")


def _inverse_cdf(cum_rows, u):
    """Inverse-CDF index: how many entries of a cumulative row are <= u,
    clamped to the last index (rounding can leave a row's total below u).
    An array holds one row per entry of u on its last axis; a list is one
    row, never decreasing, so `bisect_right` is that count."""
    if isinstance(cum_rows, list):
        return min(bisect_right(cum_rows, u), len(cum_rows) - 1)
    # np.add.reduce is ndarray.sum minus its Python wrapper
    count = np.add.reduce(cum_rows <= u[..., None], axis=-1)
    return np.minimum(count, cum_rows.shape[-1] - 1)


class TabularMDP:
    """Finite MDP: kernel T[s, a, s'], reward R[s, a], discount, start distribution.

    Arrays are validated and frozen at construction; the cumulative rows
    of the kernel and of the start distribution are cached for sampling.
    """

    def __init__(self, kernel, reward, discount, init_dist):
        kernel = np.array(kernel, dtype=np.float64)
        reward = np.array(reward, dtype=np.float64)
        init_dist = np.array(init_dist, dtype=np.float64)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise ValueError(f"kernel must have shape (S, A, S), got {kernel.shape}")
        n_states, n_actions = kernel.shape[0], kernel.shape[1]
        if reward.shape != (n_states, n_actions):
            raise ValueError(f"reward shape {reward.shape} != {(n_states, n_actions)}")
        if init_dist.shape != (n_states,):
            raise ValueError(f"init_dist shape {init_dist.shape} != ({n_states},)")
        if not (0.0 < discount < 1.0):
            raise ValueError(f"discount must lie in (0, 1), got {discount}")
        _check_distribution(kernel, "kernel")
        _check_distribution(init_dist, "init_dist")
        if not np.all(np.isfinite(reward)):
            raise ValueError("reward entries must be finite")
        for arr in (kernel, reward, init_dist):
            arr.flags.writeable = False
        self.kernel = kernel
        self.reward = reward
        self.discount = float(discount)
        self.init_dist = init_dist
        self._kernel_cum = np.cumsum(kernel, axis=-1)
        self._init_cum = np.cumsum(init_dist).tolist()

    @cached_property
    def _kernel_cum_rows(self) -> list:
        """The cumulative kernel as nested lists, for one-state draws."""
        return self._kernel_cum.tolist()

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[1]

    def sample_init(self, u: float) -> int:
        return _inverse_cdf(self._init_cum, u)

    def sample_next(self, state: int, action: int, u: float) -> int:
        return _inverse_cdf(self._kernel_cum_rows[state][action], u)

    def sample_next_batch(self, states, actions, u) -> np.ndarray:
        """Successors of a batch of (state, action) pairs, one uniform each."""
        return _inverse_cdf(self._kernel_cum[states, actions], u)


class TabularPolicy:
    """Stochastic policy over a finite MDP, rows pi[s, :] summing to one.

    An (R, S, A) table holds the policies of R runs; its batch methods
    take (R, n) states, row k for run k. `sample_batch` takes one uniform
    per state, drawn by the caller.
    """

    def __init__(self, probs):
        probs = np.array(probs, dtype=np.float64)
        if probs.ndim not in (2, 3):
            raise ValueError(f"policy must be (S, A) or (R, S, A), got shape {probs.shape}")
        _check_distribution(probs, "policy")
        probs.flags.writeable = False
        self.probs = probs
        self._cum = np.cumsum(probs, axis=-1)
        # row k of an (R, n) batch is offset to run k's block of the (R * S)
        # rows, so one flat gather serves every run
        self._offsets = (0 if probs.ndim == 2
                         else np.arange(probs.shape[0])[:, None] * probs.shape[1])

    def _refresh(self, probs) -> None:
        """Take new rows of the same shape, a softmax the caller computed and
        hands over: they are a distribution by construction, so they are
        neither copied nor checked."""
        probs.flags.writeable = False
        self.probs = probs
        self._cum = probs.cumsum(axis=-1)

    def sample_batch(self, states, u) -> np.ndarray:
        cum = self._cum
        rows = cum.reshape(-1, cum.shape[-1]).take(states + self._offsets, axis=0)
        return _inverse_cdf(rows, u)

    def at(self, states, actions) -> np.ndarray:
        """pi(a|s) at each (state, action) pair of a batch."""
        return self.probs.reshape(-1)[(states + self._offsets) * self.probs.shape[-1] + actions]


def sample_episodes(mdp: TabularMDP, policy: TabularPolicy, horizon: int, episodes: int,
                    rng):
    """States (E, H+1) and actions (E, H) of E episodes of H steps each.

    All E * (1 + 2H) uniforms are drawn up front, in the order a rollout
    draws them: an episode's start, then each step's action and successor.
    With RunStreams and an (R, S, A) policy, run k draws its own block and
    acts with its own policy, and both arrays gain a leading run axis.
    """
    if horizon < 1 or episodes < 1:
        raise ValueError(f"horizon and episodes must be >= 1, got {horizon} and {episodes}")
    uniforms = rng.random((episodes, 1 + 2 * horizon))
    lead = uniforms.shape[:-1]
    runs = uniforms.reshape(-1, episodes, 1 + 2 * horizon).tolist()
    tables = np.broadcast_to(policy._cum, (len(runs), *policy._cum.shape[-2:])).tolist()
    states, actions = [], []
    for run, table in zip(runs, tables):
        for u in run:
            s = mdp.sample_init(u[0])
            visited, taken = [s], []
            for t in range(1, 2 * horizon, 2):
                a = _inverse_cdf(table[s], u[t])
                s = mdp.sample_next(s, a, u[t + 1])
                taken.append(a)
                visited.append(s)
            states.append(visited)
            actions.append(taken)
    return (np.array(states, dtype=np.int64).reshape(*lead, horizon + 1),
            np.array(actions, dtype=np.int64).reshape(*lead, horizon))


# ---------------------------------------------------------------------------
# environments


_GRID_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))  # (dy, dx) per action index


def make_gridworld(width: int, height: int, slip_prob: float, goal_reward: float,
                   discount: float) -> TabularMDP:
    """Slippery gridworld. Actions move one cell; walls reflect (you stay put).

    The commanded direction happens with probability 1 - slip_prob and each
    of the other three directions with slip_prob / 3. The bottom-right cell
    is absorbing and pays goal_reward for every action taken there; all
    other rewards are zero. Start distribution is uniform over non-goal
    cells. State index is y * width + x.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
    if not (0.0 <= slip_prob < 1.0):
        raise ValueError(f"slip_prob must lie in [0, 1), got {slip_prob}")
    n_states = width * height
    n_actions = 4
    goal = n_states - 1
    kernel = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        if s == goal:
            kernel[s, :, s] = 1.0
            continue
        y, x = divmod(s, width)
        for a in range(n_actions):
            for d, (dy, dx) in enumerate(_GRID_MOVES):
                p = 1.0 - slip_prob if d == a else slip_prob / 3.0
                ny, nx = y + dy, x + dx
                if 0 <= ny < height and 0 <= nx < width:
                    target = ny * width + nx
                else:
                    target = s
                kernel[s, a, target] += p
    reward = np.zeros((n_states, n_actions))
    reward[goal, :] = goal_reward
    init = np.zeros(n_states)
    if n_states > 1:
        init[:goal] = 1.0 / (n_states - 1)
    else:
        init[goal] = 1.0
    return TabularMDP(kernel, reward, discount, init)


@dataclass
class TabularEnv:
    """A tabular MDP packaged with the episode horizon used for rollouts."""

    mdp: TabularMDP
    episode_horizon: int
    name: str = "tabular"


@dataclass
class ContinuousEnv:
    """Continuous-state environment: deterministic drift plus additive Gaussian noise.

    step() clips the successor into [state_low, state_high], so with
    noise_std = 0 repeated calls are exactly reproducible.
    """

    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    state_low: np.ndarray
    state_high: np.ndarray
    dynamics_noise_std: float
    horizon: int
    discount: float
    drift: Callable = field(repr=False)
    reward_fn: Callable = field(repr=False)
    init_sampler: Callable = field(repr=False)

    def reset(self, rng) -> np.ndarray:
        return np.asarray(self.init_sampler(rng), dtype=np.float64)

    def step(self, state, action, rng):
        """Return (next_state, reward). Reward is charged on the current state."""
        state = np.asarray(state, dtype=np.float64)
        # minimum(maximum(.)) is np.clip bit for bit, without its wrapper's cost
        action = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), self.action_low),
                            self.action_high)
        nxt = np.asarray(self.drift(state, action), dtype=np.float64)
        if self.dynamics_noise_std > 0.0:
            nxt = nxt + self.dynamics_noise_std * rng.standard_normal(self.state_dim)
        nxt = np.minimum(np.maximum(nxt, self.state_low), self.state_high)
        return nxt, self.reward_fn(state, action)


def make_noisy_pointmass(noise_std: float = 0.5) -> ContinuousEnv:
    """1-D point mass: x' = clip(x + 0.1 a + noise), reward -x^2, horizon 100,
    discount 0.99."""
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    return ContinuousEnv(
        name="pointmass",
        state_dim=1,
        action_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        state_low=np.array([-5.0]),
        state_high=np.array([5.0]),
        dynamics_noise_std=float(noise_std),
        horizon=100,
        discount=0.99,
        drift=lambda s, a: s + 0.1 * a,
        reward_fn=lambda s, a: -float(s @ s),
        init_sampler=lambda rng: rng.uniform(-2.0, 2.0, size=1),
    )


# ---------------------------------------------------------------------------
# demonstration files
#
# UTF-8 text, one transition per line, comma separated. A single header
# line starting with '#' carries the environment name, generating seed and
# dimensions. Tabular lines are `episode,t,s,a,s_next` (integers);
# continuous lines are `episode,t,x_0..x_{d-1},a_0..a_{k-1},x'_0..x'_{d-1}`
# with full-precision floats so load(save(x)) is lossless.


@dataclass
class DemoSet:
    """Parsed demonstration file."""

    kind: str  # "tabular" | "continuous"
    env_name: str
    seed: int
    meta: dict
    episode_ids: np.ndarray
    steps: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray


def save_tabular_demos(path, states, actions, env_name: str, seed: int,
                       n_states: int, n_actions: int) -> None:
    """states (E, H+1) and actions (E, H), one episode per row, as `sample_episodes` returns."""
    lines = [f"# env={env_name} seed={seed} kind=tabular n_states={n_states} n_actions={n_actions}"]
    # formatted from Python ints: f-strings on numpy integers are slow
    for ep, (visited, taken) in enumerate(zip(states.tolist(), actions.tolist())):
        lines.extend(f"{ep},{t},{visited[t]},{a},{visited[t + 1]}" for t, a in enumerate(taken))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_continuous_demos(path, episodes, env_name: str, seed: int,
                          state_dim: int, action_dim: int) -> None:
    """episodes: list of (states (T+1, d), actions (T, k)) array pairs."""
    lines = [f"# env={env_name} seed={seed} kind=continuous state_dim={state_dim} action_dim={action_dim}"]
    for ep, (states, actions) in enumerate(episodes):
        for t in range(actions.shape[0]):
            cells = [str(ep), str(t)]
            cells += [repr(float(v)) for v in states[t]]
            cells += [repr(float(v)) for v in actions[t]]
            cells += [repr(float(v)) for v in states[t + 1]]
            lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_demo_header(line: str) -> dict:
    if not line.startswith("#"):
        raise DemoFormatError("first line must be a '#' header")
    meta = {}
    for token in line[1:].split():
        if "=" not in token:
            raise DemoFormatError(f"malformed header token {token!r}")
        key, value = token.split("=", 1)
        meta[key] = value
    for key in ("env", "seed", "kind"):
        if key not in meta:
            raise DemoFormatError(f"header missing {key!r}")
    if meta["kind"] not in ("tabular", "continuous"):
        raise DemoFormatError(f"unknown kind {meta['kind']!r}")
    return meta


def load_demos(path) -> DemoSet:
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.rstrip("\n") for line in fh]
    raw = [line for line in raw if line.strip()]
    if not raw:
        raise DemoFormatError("empty demonstration file")
    meta = _parse_demo_header(raw[0])
    tabular = meta["kind"] == "tabular"
    try:
        d, k = (1, 1) if tabular else (int(meta["state_dim"]), int(meta["action_dim"]))
    except KeyError as exc:
        raise DemoFormatError(f"continuous header missing {exc}") from None
    width, parse = 2 + 2 * d + k, int if tabular else float
    heads, values = [], []
    for i, line in enumerate(raw[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise DemoFormatError(f"line {i}: expected {width} fields, got {len(cells)}")
        try:  # flat lists: a list per line would hold every line's list at once
            heads += int(cells[0]), int(cells[1])
            values += map(parse, cells[2:])
        except ValueError as exc:
            raise DemoFormatError(f"line {i}: bad field ({exc})") from None
    episode_ids, steps = np.array(heads, dtype=np.int64).reshape(-1, 2).T
    values = np.array(values, dtype=np.int64 if tabular else np.float64).reshape(-1, width - 2)
    columns = np.split(values, [d, d + k], axis=1)  # states, actions, next states
    if tabular:
        columns = [column[:, 0] for column in columns]
    return DemoSet(meta["kind"], meta["env"], int(meta["seed"]), meta, episode_ids, steps,
                   *columns)

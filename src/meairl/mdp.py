"""Finite stochastic MDPs, trajectories, and the two desk-scale environments.

Conventions used everywhere in the package: transition kernels are float
arrays indexed [state, action, next_state], rewards [state, action],
policies [state, action]. Sampling goes through caller-supplied numpy
Generators so any run is reproducible from a single 64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .seeding import as_generator

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
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite and nonnegative")
    sums = arr.sum(axis=-1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > DIST_ATOL:
        raise ValueError(f"{what} rows must sum to 1 (worst deviation {worst:.3e})")


def _row_sample(cumulative, rng):
    """Inverse-CDF draw from one cumulative row."""
    u = rng.random()
    idx = int(np.searchsorted(cumulative, u, side="right"))
    return min(idx, cumulative.shape[-1] - 1)


def _row_sample_batch(cumulative_rows, rng):
    u = rng.random(cumulative_rows.shape[0])
    idx = (cumulative_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cumulative_rows.shape[1] - 1)


class TabularMDP:
    """Finite MDP: kernel T[s, a, s'], reward R[s, a], discount, start distribution.

    Arrays are validated and frozen at construction; the cumulative rows
    for sampling are cached.
    """

    def __init__(self, kernel, reward, discount, init_dist, r_max=None):
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
        if r_max is None:
            r_max = max(float(np.abs(reward).max()), 1.0)
        if r_max <= 0.0:
            raise ValueError(f"r_max must be positive, got {r_max}")
        if float(np.abs(reward).max()) > r_max + 1e-12:
            raise ValueError(f"|reward| exceeds r_max={r_max}")
        for arr in (kernel, reward, init_dist):
            arr.flags.writeable = False
        self.kernel = kernel
        self.reward = reward
        self.discount = float(discount)
        self.init_dist = init_dist
        self.r_max = float(r_max)
        self._kernel_cum = np.cumsum(kernel, axis=-1)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[1]

    def sample_init(self, rng) -> int:
        return _row_sample(np.cumsum(self.init_dist), rng)

    def sample_next(self, state, action, rng) -> int:
        return _row_sample(self._kernel_cum[state, action], rng)

    def sample_next_batch(self, states, actions, rng) -> np.ndarray:
        return _row_sample_batch(self._kernel_cum[states, actions], rng)


class TabularPolicy:
    """Stochastic policy over a finite MDP, rows pi[s, :] summing to one."""

    def __init__(self, probs):
        probs = np.array(probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError(f"policy must be 2-D (S, A), got shape {probs.shape}")
        _check_distribution(probs, "policy")
        probs.flags.writeable = False
        self.probs = probs
        self._cum = np.cumsum(probs, axis=-1)

    @classmethod
    def uniform(cls, n_states, n_actions) -> "TabularPolicy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    def sample(self, state, rng) -> int:
        return _row_sample(self._cum[state], rng)

    def sample_batch(self, states, rng) -> np.ndarray:
        return _row_sample_batch(self._cum[states], rng)


@dataclass
class Trajectory:
    """State-action path plus the state the final transition landed in."""

    steps: list  # [(state, action), ...]
    terminal_state: int

    def transitions(self):
        """Yield (s, a, s_next) for every step."""
        for t, (s, a) in enumerate(self.steps):
            s_next = self.steps[t + 1][0] if t + 1 < len(self.steps) else self.terminal_state
            yield s, a, s_next


def sample_trajectory(mdp: TabularMDP, policy: TabularPolicy, horizon: int, seed) -> Trajectory:
    """Roll out `horizon` steps from the start distribution."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = as_generator(seed)
    s = mdp.sample_init(rng)
    steps = []
    for _ in range(horizon):
        a = policy.sample(s, rng)
        s_next = mdp.sample_next(s, a, rng)
        steps.append((s, a))
        s = s_next
    return Trajectory(steps, s)


# ---------------------------------------------------------------------------
# environments


GRID_ACTIONS = ("up", "down", "left", "right")
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
    r_max = max(abs(goal_reward), 1.0)
    return TabularMDP(kernel, reward, discount, init, r_max=r_max)


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
    drift: Callable = field(repr=False)
    reward_fn: Callable = field(repr=False)
    init_sampler: Callable = field(repr=False)

    def reset(self, rng) -> np.ndarray:
        return np.asarray(self.init_sampler(rng), dtype=np.float64)

    def step(self, state, action, rng):
        """Return (next_state, reward). Reward is charged on the current state."""
        state = np.asarray(state, dtype=np.float64)
        action = np.clip(np.asarray(action, dtype=np.float64), self.action_low, self.action_high)
        nxt = np.asarray(self.drift(state, action), dtype=np.float64)
        if self.dynamics_noise_std > 0.0:
            nxt = nxt + self.dynamics_noise_std * rng.standard_normal(self.state_dim)
        nxt = np.clip(nxt, self.state_low, self.state_high)
        return nxt, self.reward_fn(state, action)


def make_noisy_pointmass(noise_std: float = 0.5) -> ContinuousEnv:
    """1-D point mass: x' = clip(x + 0.1 a + noise), reward -x^2, horizon 100."""
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


def save_tabular_demos(path, trajectories, env_name: str, seed: int,
                       n_states: int, n_actions: int) -> None:
    lines = [f"# env={env_name} seed={seed} kind=tabular n_states={n_states} n_actions={n_actions}"]
    for ep, traj in enumerate(trajectories):
        for t, (s, a, s_next) in enumerate(traj.transitions()):
            lines.append(f"{ep},{t},{s},{a},{s_next}")
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
    kind = meta["kind"]
    body = raw[1:]
    episode_ids, steps = [], []
    if kind == "tabular":
        states, actions, next_states = [], [], []
        for i, line in enumerate(body, start=2):
            cells = line.split(",")
            if len(cells) != 5:
                raise DemoFormatError(f"line {i}: expected 5 fields, got {len(cells)}")
            try:
                ep, t, s, a, s_next = (int(c) for c in cells)
            except ValueError as exc:
                raise DemoFormatError(f"line {i}: non-integer field ({exc})") from None
            episode_ids.append(ep)
            steps.append(t)
            states.append(s)
            actions.append(a)
            next_states.append(s_next)
        return DemoSet(kind, meta["env"], int(meta["seed"]), meta,
                       np.array(episode_ids, dtype=np.int64),
                       np.array(steps, dtype=np.int64),
                       np.array(states, dtype=np.int64),
                       np.array(actions, dtype=np.int64),
                       np.array(next_states, dtype=np.int64))
    try:
        d = int(meta["state_dim"])
        k = int(meta["action_dim"])
    except KeyError as exc:
        raise DemoFormatError(f"continuous header missing {exc}") from None
    width = 2 + 2 * d + k
    states, actions, next_states = [], [], []
    for i, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise DemoFormatError(f"line {i}: expected {width} fields, got {len(cells)}")
        try:
            episode_ids.append(int(cells[0]))
            steps.append(int(cells[1]))
            values = [float(c) for c in cells[2:]]
        except ValueError as exc:
            raise DemoFormatError(f"line {i}: bad field ({exc})") from None
        states.append(values[:d])
        actions.append(values[d:d + k])
        next_states.append(values[d + k:])
    return DemoSet(kind, meta["env"], int(meta["seed"]), meta,
                   np.array(episode_ids, dtype=np.int64),
                   np.array(steps, dtype=np.int64),
                   np.array(states, dtype=np.float64),
                   np.array(actions, dtype=np.float64),
                   np.array(next_states, dtype=np.float64))

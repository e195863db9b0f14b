"""Replay storage and the real/synthetic mixing schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ReplayBuffer:
    """Bounded FIFO transition store backed by preallocated arrays.

    Physical storage is sized once (phys_capacity, default = capacity);
    the logical capacity can move below that at any time. Shrinking drops
    the oldest entries. Sampling is uniform with replacement, which also
    covers batches larger than the current size. A buffer made with
    `with_reward=True` also stores a scalar reward per transition and
    returns it as a fourth column.

    R runs stepping in lockstep share one buffer whose rows hold one
    transition per run (`state_shape=(R,)`). Sampled with RunStreams, run
    k draws its own offsets and reads its batch from column k; the
    columns come back (R, n).
    """

    def __init__(self, capacity: int, state_shape=(), action_shape=(),
                 dtype=np.int64, phys_capacity: int = None, with_reward: bool = False):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        phys = int(capacity if phys_capacity is None else phys_capacity)
        if phys < capacity:
            raise ValueError(f"phys_capacity {phys} < capacity {capacity}")
        self._phys = phys
        self.capacity = int(capacity)
        self.states = np.zeros((phys, *state_shape), dtype=dtype)
        self.actions = np.zeros((phys, *action_shape), dtype=dtype)
        self.next_states = np.zeros((phys, *state_shape), dtype=dtype)
        self.rewards = np.zeros(phys) if with_reward else None
        self._head = 0  # next write position
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, state, action, next_state, reward=None) -> None:
        self.states[self._head] = state
        self.actions[self._head] = action
        self.next_states[self._head] = next_state
        if self.rewards is not None:
            self.rewards[self._head] = reward
        self._head = (self._head + 1) % self._phys
        self._count = min(self._count + 1, self.capacity)

    def add_batch(self, states, actions, next_states) -> None:
        """Store the rows in order, as that many `add` calls would, in one write.

        Only the last phys_capacity rows can survive, and they are the only
        ones written, because numpy leaves the order of repeated-index
        writes undefined.
        """
        n = len(states)
        first = max(n - self._phys, 0)
        idx = (self._head + np.arange(first, n)) % self._phys
        self.states[idx] = np.asarray(states)[first:]
        self.actions[idx] = np.asarray(actions)[first:]
        self.next_states[idx] = np.asarray(next_states)[first:]
        if self.rewards is not None:
            self.rewards[idx] = np.nan  # what `add` stores for a missing reward
        self._head = (self._head + n) % self._phys
        self._count = min(self._count + n, self.capacity)

    def set_capacity(self, capacity: int) -> None:
        capacity = int(min(capacity, self._phys))
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        if self._count > capacity:
            self._count = capacity

    def _columns(self, idx):
        """(states, actions, next_states), plus rewards in a reward buffer."""
        cols = (self.states[idx], self.actions[idx], self.next_states[idx])
        return cols if self.rewards is None else cols + (self.rewards[idx],)

    def _gather(self, columns, n, rng):
        """`columns` at n rows drawn uniformly from the live window."""
        if self._count == 0:
            raise ValueError("cannot sample from an empty buffer")
        offsets = rng.integers(0, self._count, size=n)
        start = (self._head - self._count) % self._phys
        idx = offsets + start
        if start + self._count > self._phys:  # the live window wraps past the end
            idx %= self._phys
        if idx.ndim == 1:
            return tuple(column[idx] for column in columns)
        # one row of offsets per run: run k's entries of the raveled columns,
        # which `take` reads
        runs = idx.shape[0]
        flat = idx * runs + np.arange(runs)[:, None]
        return tuple(column.take(flat) for column in columns)

    def sample(self, n, rng):
        columns = (self.states, self.actions, self.next_states)
        return self._gather(columns if self.rewards is None else columns + (self.rewards,),
                            n, rng)

    def sample_states(self, n, rng):
        """The states of `sample(n, rng)`, from the same draws."""
        return self._gather((self.states,), n, rng)[0]

    def newest(self, k: int):
        """The k most recently added transitions, oldest first, no randomness involved."""
        k = min(k, self._count)
        return self._columns((self._head - k + np.arange(k)) % self._phys)


GEN_BUFFER_INIT = 1_000
GEN_BUFFER_GROWTH = 1.0
GEN_BUFFER_MAX = 50_000


@dataclass
class RatioSchedule:
    """Synthetic share of policy-update batches, plus the synthetic buffer size.

    The fraction ramps linearly from `start` to `end` over `ramp_steps`
    and stays at `end` after. The buffer capacity is the same for every
    schedule: GEN_BUFFER_INIT plus GEN_BUFFER_GROWTH per step, clipped at
    GEN_BUFFER_MAX.
    """

    start: float
    end: float
    ramp_steps: int

    def __post_init__(self):
        for name in ("start", "end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.ramp_steps < 0:
            raise ValueError(f"ramp_steps must be >= 0, got {self.ramp_steps}")

    def fraction(self, step: int) -> float:
        if self.ramp_steps == 0 or step >= self.ramp_steps:
            return self.end
        return self.start + (self.end - self.start) * (step / self.ramp_steps)

    def capacity(self, step: int) -> int:
        return int(min(GEN_BUFFER_MAX, GEN_BUFFER_INIT + GEN_BUFFER_GROWTH * step))

"""Seed plumbing. Every random draw in the package flows through a numpy Generator.

`RunStreams` holds the same named stream of several runs. Besides drawing
call by call, it serves a stream in blocks, one generator call per run
for many draws, with every value and its order per run unchanged:

- a plan through `prefetch`: the bounded integers and uniform arrays
  ahead, in order, are drawn in one `Generator.integers(0, bounds)` call
  per run. numpy's bounded integers (Lemire's method) read one 32-bit
  word per accepted draw, whatever the bound, so an array of bounds gives
  the values, and leaves the generator state, of the same draws made one
  call at a time. A uniform is `(next64 >> 11) * 2**-53`, and a bound of
  2**53 reads one whole 64-bit word as `next64 >> 11`, never rejecting
  (the threshold of a power-of-two range is 0), so a uniform entry of the
  plan is drawn at that bound and scaled. PCG64 serves the 32-bit draws
  from halves of a 64-bit word and keeps the unused half for the next
  32-bit draw; a whole-word draw leaves that half alone either way, so a
  plan may interleave the two kinds;
- uniforms through `uniform`: each run reads on through its own block of
  `random(n)` doubles, with a cursor per run, and refills the block with
  one call once it has read all of it.

A stream read in blocks has its generator state run ahead of the values
its runs have read.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# A uniform is a 64-bit word's top 53 bits times 2**-53; `integers(0,
# UNIFORM_WORDS)` reads those bits of one word, which UNIFORM_SCALE scales.
UNIFORM_WORDS = 2 ** 53
UNIFORM_SCALE = 2.0 ** -53


def _draw_shape(size) -> tuple:
    """The shape of a `Generator.random(size)` draw."""
    if size is None:
        return ()
    return tuple(size) if isinstance(size, (tuple, list)) else (size,)


class RunStreams:
    """The same named stream of several runs, drawn in lockstep.

    `random` and `integers` take the arguments of the Generator methods of
    the same name. Run k's values come from run k's generator, exactly as
    that run alone would draw them, stacked on a leading run axis. A draw
    that only some runs make goes to their entries of `generators`. Both
    serve a pending `prefetch` plan first. A stream read through `uniform`
    draws nothing else.
    """

    def __init__(self, generators):
        self.generators = list(generators)
        self._plan = []  # the prefetched (high, size) draws, in order
        self._spans = []  # each entry's first and past-last column in _planned
        self._next = 0  # index of the next unread entry of _plan
        self._planned = None  # (R, total size) values of the plan
        self._block = None  # (R, n) uniforms; run k has read _cursor[k] of its row
        self._cursor = None
        self._offsets = None  # of each run's row in the raveled block
        self._left = 0  # reads every run can make before a refill

    def _no_blocks(self) -> None:
        if self._block is not None:
            raise RuntimeError("a stream read through uniform blocks draws nothing else")

    def _take(self, entry, call) -> np.ndarray:
        """The (R, n) values of the next entry of the plan, which must
        equal `entry`."""
        if entry != self._plan[self._next]:
            raise RuntimeError(f"{call} is off the plan, whose next (high, size) is "
                               f"{self._plan[self._next]}")
        start, stop = self._spans[self._next]
        self._next += 1
        return self._planned[:, start:stop]

    def random(self, size=None) -> np.ndarray:
        if self._next < len(self._plan):
            words = self._take((None, size), f"random(size={size})")
            return (words * UNIFORM_SCALE).reshape(len(self.generators), *_draw_shape(size))
        self._no_blocks()
        return np.array([g.random(size) for g in self.generators])

    def integers(self, low, high, size=None) -> np.ndarray:
        if self._next < len(self._plan):
            # a plan holds only draws from 0
            return self._take((high, size) if low == 0 else None,
                              f"integers({low}, {high}, size={size})")
        self._no_blocks()
        return np.array([g.integers(low, high, size) for g in self.generators])

    def prefetch(self, plan) -> None:
        """Draw the draws of `plan` in one generator call per run. An entry
        (high, size) is an `integers(0, high, size)` draw of `size` values,
        and (None, size) a `random(size)` draw. Each later call of the
        entry's form returns its values with the run axis first; a call off
        the plan raises, and so does a new plan while an entry is unread."""
        if self._next < len(self._plan):
            raise RuntimeError(f"prefetch finds {len(self._plan) - self._next} planned "
                               f"draws unread")
        self._no_blocks()
        plan = list(plan)
        counts = [size if high is not None else math.prod(_draw_shape(size))
                  for high, size in plan]
        bounds = np.repeat(np.array([UNIFORM_WORDS if high is None else high
                                     for high, _ in plan], dtype=np.int64), counts)
        self._planned = np.array([g.integers(0, bounds) for g in self.generators])
        stops = list(itertools.accumulate(counts, initial=0))
        self._plan, self._spans, self._next = plan, list(zip(stops, stops[1:])), 0

    def uniform(self, refill: int, runs=None) -> np.ndarray:
        """The next uniform of every run, or of each run in the index
        array `runs`. Each run reads on through its own block; a run that
        has read all of it first refills it with one `random(refill)`
        call, so its values come in the order of its per-call draws. The
        first call sets the block size."""
        if self._block is None:
            if self._next < len(self._plan):
                raise RuntimeError("a stream with planned draws unread reads no uniforms")
            self._block = np.empty((len(self.generators), refill))
            self._offsets = np.arange(len(self.generators)) * refill
            self._cursor = np.full(len(self.generators), refill)
        if self._left == 0:
            width = self._block.shape[1]
            for k in (self._cursor == width).nonzero()[0].tolist():
                self._block[k] = self.generators[k].random(width)
                self._cursor[k] = 0
            self._left = width - int(self._cursor.max())
        if runs is None:
            values = self._block.take(self._offsets + self._cursor)
            self._cursor += 1
            self._left -= 1
        else:
            cursor = self._cursor[runs]
            values = self._block.take(self._offsets[runs] + cursor)
            self._cursor[runs] = cursor + 1
            self._left = self._block.shape[1] - int(self._cursor.max())
        return values


def as_generator(seed):
    """Accept an int seed, a SeedSequence, an existing Generator or RunStreams, or None."""
    if isinstance(seed, (np.random.Generator, RunStreams)):
        return seed
    return np.random.default_rng(seed)


def spawn_streams(seed, names):
    """Independent named child generators from one root seed.

    Keeping one stream per concern (acting, batch sampling, rollouts, ...)
    means toggling a feature does not shift the draws seen by the others.
    """
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}


def run_streams(seeds, names):
    """`spawn_streams` of every seed, regrouped by name: name -> RunStreams."""
    per_run = [spawn_streams(seed, names) for seed in seeds]
    return {name: RunStreams(streams[name] for streams in per_run) for name in names}

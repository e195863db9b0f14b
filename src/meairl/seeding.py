"""Seed plumbing. Every random draw in the package flows through a numpy Generator."""

from __future__ import annotations

import numpy as np


class RunStreams:
    """The same named stream of several runs, drawn in lockstep.

    `random` and `integers` take the arguments of the Generator methods of
    the same name. Run k's values come from run k's generator, exactly as
    that run alone would draw them, stacked on a leading run axis. A draw
    that only some runs make goes to their entries of `generators`.
    """

    def __init__(self, generators):
        self.generators = list(generators)

    def random(self, size=None) -> np.ndarray:
        return np.array([g.random(size) for g in self.generators])

    def integers(self, low, high, size=None) -> np.ndarray:
        return np.array([g.integers(low, high, size) for g in self.generators])


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

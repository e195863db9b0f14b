"""Seed plumbing. Every random draw in the package flows through a numpy Generator."""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, an existing Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_streams(seed, names):
    """Independent named child generators from one root seed.

    Keeping one stream per concern (acting, batch sampling, rollouts, ...)
    means toggling a feature does not shift the draws seen by the others.
    """
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}

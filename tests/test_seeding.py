"""RunStreams' blocks: prefetched integer plans and per-run uniform blocks
give every run the values, in the order, of its per-call draws."""

import copy

import numpy as np
import pytest

from meairl.seeding import RunStreams


def stacked_and_refs(seeds):
    """RunStreams over fresh generators, and a copy of each to draw per call."""
    streams = RunStreams(np.random.default_rng(seed) for seed in seeds)
    return streams, [copy.deepcopy(g) for g in streams.generators]


def random_plan(rng):
    """(high, size) draws: bound 1, small and large bounds, bounds near 2**31, size 0."""
    highs = [1, 2, 3, 40_000, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1]
    return [(int(rng.choice(highs)) if rng.random() < 0.5 else int(rng.integers(1, 10 ** 6)),
             int(rng.integers(0, 40)) if rng.random() < 0.9 else 0)
            for _ in range(int(rng.integers(0, 12)))]


class TestPrefetch:
    def test_planned_block_equals_per_call_draws(self):
        # numpy's bounded integers read one 32-bit word per accepted draw
        # whatever the bound, so one call on an array of bounds gives the
        # values, and leaves the state, of the per-call draws; an odd draw
        # first leaves half a word buffered in some of the cases
        rng = np.random.default_rng(0)
        for case in range(250):
            streams, refs = stacked_and_refs([case, 1000 + case])
            if case % 2:
                assert streams.integers(0, 7, size=3).tolist() == \
                    [ref.integers(0, 7, size=3).tolist() for ref in refs]
            plan = random_plan(rng)
            streams.prefetch(plan)
            for high, size in plan:
                got = streams.integers(0, high, size=size)
                assert got.shape == (2, size)
                assert got.tolist() == [ref.integers(0, high, size=size).tolist()
                                        for ref in refs]
            for g, ref in zip(streams.generators, refs):
                assert g.bit_generator.state == ref.bit_generator.state

    def test_draws_after_a_plan_go_per_call(self):
        streams, refs = stacked_and_refs([3, 4, 5])
        streams.prefetch([(10, 4)])
        streams.integers(0, 10, size=4)
        for ref in refs:
            ref.integers(0, 10, size=4)
        assert streams.integers(0, 9, size=2).tolist() == \
            [ref.integers(0, 9, size=2).tolist() for ref in refs]

    def test_draw_off_the_plan_raises(self):
        # the discriminator's draws with the expert and replay bounds swapped
        expert, replay, batch = 50, 730, 8
        for first, size in ((replay, batch), (expert, batch + 1)):
            streams, _ = stacked_and_refs([0, 1])
            streams.prefetch([(expert, batch), (replay, batch)])
            with pytest.raises(RuntimeError, match="off the plan"):
                streams.integers(0, first, size=size)
        streams, _ = stacked_and_refs([0, 1])
        streams.prefetch([(expert, batch)])
        with pytest.raises(RuntimeError, match="off the plan"):
            streams.integers(1, expert, size=batch)

    def test_unread_draws_raise_at_the_next_prefetch(self):
        streams, _ = stacked_and_refs([0, 1])
        streams.prefetch([(50, 8), (730, 8), (730, 0)])
        streams.integers(0, 50, size=8)
        streams.integers(0, 730, size=8)
        with pytest.raises(RuntimeError, match="1 planned draws unread"):
            streams.prefetch([(50, 8)])


class TestPlannedUniforms:
    BOUNDS = [1, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 7, 40_000]

    def test_interleaved_with_integers_equal_per_call_draws(self):
        # a uniform entry is drawn as integers(0, 2**53), one 64-bit word
        # each, and scaled by 2**-53: the bits of Generator.random. Integer
        # entries of odd counts leave half a word buffered across it
        rng = np.random.default_rng(5)
        for case in range(200):
            streams, refs = stacked_and_refs([case, 500 + case, 900 + case])
            plan = []
            for _ in range(int(rng.integers(1, 8))):
                if rng.random() < 0.5:
                    plan.append((int(rng.choice(self.BOUNDS)), int(rng.integers(0, 6))))
                else:
                    shape = tuple(int(n) for n in rng.integers(1, 4, int(rng.integers(0, 4))))
                    plan.append((None, shape if rng.random() < 0.7 else int(rng.integers(1, 6))))
            streams.prefetch(plan)
            for high, size in plan:
                if high is None:
                    got = streams.random(size)
                    want = [ref.random(size) for ref in refs]
                else:
                    got = streams.integers(0, high, size=size)
                    want = [ref.integers(0, high, size=size) for ref in refs]
                assert got.shape == (3, *np.shape(want[0]))
                assert got.tolist() == [w.tolist() for w in want]
            for g, ref in zip(streams.generators, refs):
                assert g.bit_generator.state == ref.bit_generator.state

    def test_off_the_plan_uniform_raises(self):
        streams, _ = stacked_and_refs([0, 1])
        streams.prefetch([(9, 3), (None, (3, 2, 4))])
        streams.integers(0, 9, size=3)
        for size in ((3, 2, 5), 24, None):
            with pytest.raises(RuntimeError, match="off the plan"):
                streams.random(size)
        streams, _ = stacked_and_refs([0, 1])
        streams.prefetch([(9, 3), (None, 4)])
        with pytest.raises(RuntimeError, match="off the plan"):
            streams.random(4)


class TestUniformBlocks:
    @pytest.mark.parametrize("refill", [1, 5, 64])
    def test_diverging_cursors_equal_per_call_draws(self, refill):
        # each read goes to all runs or to a random subset, so the runs'
        # cursors drift apart and refill at different reads; every run's
        # values still come in its per-call order
        streams, refs = stacked_and_refs([7, 8, 9, 10])
        rng = np.random.default_rng(refill)
        for _ in range(300):
            runs = None if rng.random() < 0.4 else np.flatnonzero(rng.random(4) < 0.5)
            got = streams.uniform(refill, runs)
            readers = range(4) if runs is None else runs.tolist()
            assert got.tolist() == [refs[k].random() for k in readers]

    def test_a_blocked_stream_draws_nothing_else(self):
        streams, _ = stacked_and_refs([0, 1])
        streams.uniform(16)
        for draw in (streams.random, lambda: streams.integers(0, 5, size=2),
                     lambda: streams.prefetch([(5, 2)])):
            with pytest.raises(RuntimeError, match="uniform blocks"):
                draw()
        streams, _ = stacked_and_refs([0, 1])
        streams.prefetch([(5, 2)])
        with pytest.raises(RuntimeError, match="reads no uniforms"):
            streams.uniform(16)

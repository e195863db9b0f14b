"""Replay buffer eviction order and the synthetic-mix schedule."""

import numpy as np
import pytest

from meairl import RatioSchedule, ReplayBuffer
from meairl.seeding import RunStreams


class TestReplayBuffer:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)
        with pytest.raises(ValueError):
            ReplayBuffer(10, phys_capacity=5)

    def test_len_saturates_at_capacity(self):
        buf = ReplayBuffer(3)
        for i in range(7):
            buf.add(i, i, i + 1)
        assert len(buf) == 3

    def test_evicts_oldest_first(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.add(i, 0, 0)
        states, _, _ = buf.newest(len(buf))
        assert list(states) == [2, 3, 4]

    def test_newest_returns_latest_in_order(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.add(i, 0, 0)
        states, _, _ = buf.newest(2)
        assert list(states) == [3, 4]
        states, _, _ = buf.newest(10)
        assert list(states) == [2, 3, 4]

    def test_shrink_drops_oldest(self):
        buf = ReplayBuffer(5)
        for i in range(5):
            buf.add(i, 0, 0)
        buf.set_capacity(2)
        states, _, _ = buf.newest(len(buf))
        assert list(states) == [3, 4]

    def test_regrow_after_shrink(self):
        buf = ReplayBuffer(4)
        for i in range(4):
            buf.add(i, 0, 0)
        buf.set_capacity(2)
        buf.add(10, 0, 0)
        buf.set_capacity(4)
        buf.add(11, 0, 0)
        states, _, _ = buf.newest(len(buf))
        assert list(states)[-2:] == [10, 11]
        assert len(buf) <= 4

    def test_sample_with_replacement_when_small(self):
        buf = ReplayBuffer(10)
        buf.add(7, 1, 8)
        rng = np.random.default_rng(0)
        s, a, n = buf.sample(6, rng)
        assert s.shape == (6,) and a.shape == (6,) and n.shape == (6,)
        assert np.all(s == 7) and np.all(a == 1) and np.all(n == 8)

    def test_sample_only_live_entries(self):
        buf = ReplayBuffer(3)
        for i in range(9):
            buf.add(i, 0, 0)
        rng = np.random.default_rng(1)
        s, _, _ = buf.sample(200, rng)
        assert set(s) <= {6, 7, 8}

    def test_empty_sample_rejected(self):
        buf = ReplayBuffer(3)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))

    def test_continuous_shapes(self):
        buf = ReplayBuffer(4, state_shape=(2,), action_shape=(1,),
                           dtype=np.float64)
        buf.add([0.5, -0.5], [0.1], [0.6, -0.4])
        s, a, n = buf.sample(3, np.random.default_rng(0))
        assert s.shape == (3, 2) and a.shape == (3, 1) and n.shape == (3, 2)

    def test_phys_capacity_allows_later_growth(self):
        buf = ReplayBuffer(2, phys_capacity=8)
        for i in range(6):
            buf.add(i, 0, 0)
        buf.set_capacity(8)
        for i in range(6, 10):
            buf.add(i, 0, 0)
        states, _, _ = buf.newest(len(buf))
        # shrunk window kept only the 2 newest, then growth appends
        assert list(states) == [4, 5, 6, 7, 8, 9]

    def test_reward_column_follows_its_transitions(self):
        buf = ReplayBuffer(3, with_reward=True)
        for i in range(5):
            buf.add(i, 0, i + 1, reward=10.0 * i)
        states, _, next_states, rewards = buf.newest(len(buf))
        assert list(rewards) == [20.0, 30.0, 40.0]
        states, _, next_states, rewards = buf.sample(50, np.random.default_rng(0))
        assert np.array_equal(rewards, 10.0 * states)
        assert np.array_equal(next_states, states + 1)
        # a plain buffer draws the same rows from the same generator state
        plain = ReplayBuffer(3)
        for i in range(5):
            plain.add(i, 0, i + 1)
        assert np.array_equal(plain.sample(50, np.random.default_rng(0))[0], states)


    def test_run_streams_sample_each_run_as_its_own_buffer(self):
        # rows of R transitions sampled with RunStreams: run k's batch is
        # what a buffer of run k's transitions alone gives its generator
        runs = 3
        stacked = ReplayBuffer(4, state_shape=(runs,), action_shape=(runs,), phys_capacity=6)
        alone = [ReplayBuffer(4, phys_capacity=6) for _ in range(runs)]
        rows = np.random.default_rng(1).integers(0, 100, size=(9, 3, runs))
        for s, a, n in rows:
            stacked.add(s, a, n)
            for k, buf in enumerate(alone):
                buf.add(s[k], a[k], n[k])
        columns = stacked.sample(50, RunStreams(np.random.default_rng(k) for k in range(runs)))
        for k, buf in enumerate(alone):
            for got, want in zip(columns, buf.sample(50, np.random.default_rng(k))):
                assert np.array_equal(got[k], want)

    @pytest.mark.parametrize("state_shape, with_reward", [((), False), ((2,), True)])
    def test_add_batch_equals_sequential_adds(self, state_shape, with_reward):
        rng = np.random.default_rng(5)
        batched, looped = (ReplayBuffer(5, state_shape, dtype=np.float64, phys_capacity=7,
                                        with_reward=with_reward) for _ in range(2))
        # (batch length, logical capacity): wrap-around, shrinking, batches
        # longer than the physical capacity, and an empty batch
        for n, capacity in [(3, 5), (4, 5), (9, 5), (0, 5), (2, 2), (6, 3), (16, 7),
                            (1, 4), (5, 7)]:
            batched.set_capacity(capacity)
            looped.set_capacity(capacity)
            states = rng.normal(size=(n, *state_shape))
            actions = rng.integers(0, 4, size=n)
            next_states = rng.normal(size=(n, *state_shape))
            batched.add_batch(states, actions, next_states)
            for row in zip(states, actions, next_states):
                looped.add(*row)
            assert (batched._head, batched._count) == (looped._head, looped._count)
            for name in ("states", "actions", "next_states", "rewards"):
                got, want = getattr(batched, name), getattr(looped, name)
                assert (got is None and want is None) or got.tobytes() == want.tobytes()


class TestRatioSchedule:
    def test_linear_ramp_then_flat(self):
        sched = RatioSchedule(0.05, 0.5, ramp_steps=100)
        assert sched.fraction(0) == 0.05
        assert abs(sched.fraction(50) - 0.275) < 1e-12
        assert sched.fraction(100) == 0.5
        assert sched.fraction(10 ** 6) == 0.5

    def test_fraction_monotone(self):
        sched = RatioSchedule(0.05, 0.5, ramp_steps=333)
        fracs = [sched.fraction(t) for t in range(0, 1000, 7)]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_capacity_growth_clipped(self):
        # 1,000 transitions at step 0, one more per step, at most 50,000
        sched = RatioSchedule(0.0, 1.0, ramp_steps=10)
        assert sched.capacity(0) == 1_000
        assert sched.capacity(5) == 1_005
        assert sched.capacity(48_999) == 49_999
        assert sched.capacity(49_000) == 50_000
        assert sched.capacity(10 ** 6) == 50_000

    def test_zero_ramp_is_constant_end(self):
        sched = RatioSchedule(0.2, 0.7, ramp_steps=0)
        assert sched.fraction(0) == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            RatioSchedule(-0.1, 0.5, 10)
        with pytest.raises(ValueError):
            RatioSchedule(0.1, 1.5, 10)
        with pytest.raises(ValueError):
            RatioSchedule(0.1, 0.5, -1)

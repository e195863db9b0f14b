"""MLP substrate: forward/backward against finite differences, Adam, initialisation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_difference_grad, max_rel_err, reference_backward
from meairl import (AdamState, Discriminator, GaussianDynamicsModel, Mlp, SacAgent, adam_step,
                    discriminator_loss_and_grads)
from meairl.neural import clip_by_global_norm


class TestForward:
    def test_zero_parameters_zero_output(self):
        net = Mlp([2, 3, 1], params=np.zeros(Mlp([2, 3, 1]).n_params))
        assert np.array_equal(net.forward(np.array([1.0, -2.0])), np.zeros(1))

    def test_single_affine_layer(self):
        net = Mlp([1, 1], params=np.array([2.0, 1.0]))  # W=[[2]], b=[1]
        assert net.forward(np.array([3.0]))[0] == 7.0

    def test_hidden_rectifier(self):
        # one 2-unit hidden layer wired to pass inputs straight through
        net = Mlp([2, 2, 2])
        params = np.zeros(net.n_params)
        params[:4] = np.eye(2).ravel()  # hidden weight
        params[6:10] = np.eye(2).ravel()  # output weight
        net.params = params
        out = net.forward(np.array([-1.0, 2.0]))
        assert np.array_equal(out, [0.0, 2.0])

    def test_parameter_count(self):
        net = Mlp([3, 5, 2])
        assert net.n_params == (3 + 1) * 5 + (5 + 1) * 2

    def test_dimension_mismatch_rejected(self):
        net = Mlp([3, 2])
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    def test_batched_forward_matches_loop(self):
        rng = np.random.default_rng(0)
        net = Mlp([3, 8, 2], rng=rng)
        xs = rng.normal(size=(6, 3))
        batched = net.forward(xs)
        rows = np.stack([net.forward(x) for x in xs])
        assert np.max(np.abs(batched - rows)) < 1e-14


class TestBackward:
    def test_scalar_product_rule(self):
        net = Mlp([1, 1], params=np.array([0.5, 0.0]))
        grads, input_grad = net.backward(np.array([[3.0]]), np.array([[1.0]]))
        assert grads[0] == 3.0  # dL/dw = x
        assert grads[1] == 1.0  # dL/db
        assert input_grad[0, 0] == 0.5  # dL/dx = w

    def test_dead_rectifier_zero_gradient(self):
        net = Mlp([1, 1, 1])
        params = np.array([-1.0, -1.0, 0.0, 0.0])  # hidden pre-act always < 0 for x>0
        net.params = params
        grads, _ = net.backward(np.array([[2.0]]), np.array([[1.0]]))
        assert grads[0] == 0.0 and grads[1] == 0.0  # dead unit blocks flow
        assert grads[3] == 1.0  # output bias still live

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3),
           st.sampled_from(["identity", "tanh"]))
    def test_finite_difference_random_shapes(self, seed, depth, output):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 5))]
        for _ in range(depth):
            sizes.append(int(rng.integers(1, 8)))
        net = Mlp(sizes, output=output, rng=rng)
        x = rng.normal(size=(4, sizes[0]))
        target = rng.normal(size=(4, sizes[-1]))

        def loss(flat):
            probe = Mlp(sizes, output=output, params=flat)
            diff = probe.forward(x) - target
            return 0.5 * float((diff ** 2).sum())

        diff = net.forward(x) - target
        grads, _ = net.backward(x, diff)
        fd = finite_difference_grad(loss, net.params)
        assert max_rel_err(grads, fd) < 1e-4

    def test_input_gradient_finite_difference(self):
        rng = np.random.default_rng(7)
        net = Mlp([3, 6, 2], rng=rng)
        x = rng.normal(size=(1, 3))

        def loss_of_x(flat_x):
            return 0.5 * float((net.forward(flat_x.reshape(1, 3)) ** 2).sum())

        out = net.forward(x)
        _, input_grad = net.backward(x, out)
        fd = finite_difference_grad(loss_of_x, x.ravel())
        assert max_rel_err(input_grad.ravel(), fd) < 1e-4


class TestTape:
    """backward(tape, u) reads the forward pass the caller already ran."""

    @pytest.mark.parametrize("output", ["identity", "tanh"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_tape_backward_equals_array_backward(self, output, batched):
        rng = np.random.default_rng(11)
        net = Mlp([3, 16, 16, 2], output=output, rng=rng)
        x = rng.normal(size=(64, 3) if batched else 3)
        upstream = rng.normal(size=(64, 2) if batched else 2)
        out, tape = net.forward(x, tape=True)
        assert np.array_equal(out, net.forward(x))
        from_tape = net.backward(tape, upstream)
        from_array = net.backward(x, upstream)
        reference = reference_backward(net, x, upstream)
        assert from_tape[1].shape == x.shape
        for got in (from_tape, from_array):
            assert np.array_equal(got[0], reference[0])  # parameter gradient
            assert np.array_equal(got[1], reference[1])  # input gradient

    def test_tape_is_not_a_sequence(self):
        # a profiler reading np.shape of backward's second argument must not
        # meet a ragged list of layer arrays
        _, tape = Mlp([2, 5, 1], rng=0).forward(np.zeros((4, 2)), tape=True)
        assert np.shape(tape) == ()


class TestBufferReuse:
    """Hidden activations and deltas live in buffers reused across calls;
    what a caller gets back is its own."""

    def test_tape_is_single_use(self):
        rng = np.random.default_rng(12)
        net = Mlp([3, 16, 16, 2], rng=rng)
        x, upstream = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
        _, tape = net.forward(x, tape=True)
        first = net.backward(tape, upstream)
        with pytest.raises(ValueError, match="single-use"):
            net.backward(tape, upstream)
        again = net.backward(x, upstream)  # the input-array form builds its own tape
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_outputs_and_gradients_survive_later_calls(self):
        rng = np.random.default_rng(13)
        net = Mlp([3, 16, 16, 2], output="tanh", rng=rng)
        x, upstream = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
        out, tape = net.forward(x, tape=True)
        grads, dx = net.backward(tape, upstream)
        returned = (out, grads, dx, net.forward(x))
        kept = [a.copy() for a in returned]
        for _ in range(3):  # reuse every freed buffer with other values
            net.forward(rng.normal(size=(8, 3)))
            _, other = net.forward(rng.normal(size=(8, 3)), tape=True)
            net.backward(other, rng.normal(size=(8, 2)))
        assert all(np.array_equal(a, b) for a, b in zip(returned, kept))

    def test_model_shaping_step_allocates_no_hidden_arrays(self):
        # The continuous model-shaping discriminator step at the shipped
        # sizes runs phi forward and backward on 8 x 256 rows. Reusing its
        # hidden buffers leaves about 0.34 MB of new traced memory live at
        # the step's peak; allocating them afresh, as the nets did before,
        # left about 7.8 MB. Traced bytes, unlike page faults, do not
        # depend on the C allocator.
        rng = np.random.default_rng(0)
        model = GaussianDynamicsModel(1, 1, rng=rng)
        disc = Discriminator.continuous(1, 1, 0.99, dynamics=model, hidden=(100, 100),
                                        n_model_samples=8, rng=rng)
        policy = SacAgent(1, 1, [-1.0], [1.0], 0.99, rng=rng)
        expert, gen = ((rng.normal(size=(256, 1)), rng.uniform(-1.0, 1.0, (256, 1)),
                        rng.normal(size=(256, 1))) for _ in range(2))
        for _ in range(2):  # warm-up: the buffers come into being
            discriminator_loss_and_grads(disc, expert, gen, policy, rng=rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            discriminator_loss_and_grads(disc, expert, gen, policy, rng=rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        state = AdamState.for_params(params, lr=0.1)
        updated = adam_step(state, params, np.zeros(2))
        assert np.array_equal(updated, params)

    def test_clip_scales_to_max_norm(self):
        grads = np.array([12.0, 16.0])  # norm 20
        clipped = clip_by_global_norm(grads, 10.0)
        assert abs(np.linalg.norm(clipped) - 10.0) < 1e-12
        assert np.allclose(clipped, grads * 0.5)

    def test_clip_never_increases_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            grads = rng.normal(size=5) * rng.uniform(0, 30)
            clipped = clip_by_global_norm(grads, 10.0)
            assert np.linalg.norm(clipped) <= np.linalg.norm(grads) + 1e-12
            assert np.linalg.norm(clipped) <= 10.0 + 1e-12

    def test_scalar_quadratic_convergence(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=0.1)
        for _ in range(200):
            grad = 2 * (params - 3.0)
            params = adam_step(state, params, grad)
        assert abs(params[0] - 3.0) < 0.05

    def test_clipped_adam_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        params = rng.normal(size=4)
        grads = rng.normal(size=4) * 50
        s1 = AdamState.for_params(params)
        s2 = AdamState.for_params(params)
        via_flag = adam_step(s1, params, grads, clip_norm=10.0)
        via_manual = adam_step(s2, params, clip_by_global_norm(grads, 10.0))
        assert np.array_equal(via_flag, via_manual)

    def test_in_place_step_has_the_textbook_bits(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=(3, 40))
        state = AdamState.for_params(params, lr=0.01)
        m, v = np.zeros_like(params), np.zeros_like(params)
        for step in range(1, 6):
            grads = rng.normal(size=params.shape) * 10.0 ** rng.uniform(-6, 2)
            m = state.beta1 * m + (1.0 - state.beta1) * grads
            v = state.beta2 * v + (1.0 - state.beta2) * grads ** 2
            m_hat = m / (1.0 - state.beta1 ** step)
            v_hat = v / (1.0 - state.beta2 ** step)
            want = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
            params = adam_step(state, params, grads)
            assert params.tobytes() == want.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


class TestCheckpoints:
    """A net's flat parameter vector as initialised."""

    def test_seeded_init_is_deterministic(self):
        a = Mlp([3, 5, 1], rng=np.random.default_rng(9))
        b = Mlp([3, 5, 1], rng=np.random.default_rng(9))
        assert np.array_equal(a.params, b.params)

    def test_init_respects_fan_in_bound(self):
        net = Mlp([16, 8], rng=np.random.default_rng(5))
        w = net.params[:16 * 8]
        assert np.max(np.abs(w)) <= 1.0 / 4.0  # 1/sqrt(16)

"""Shared test utilities: finite-difference, linear-solve, scalar-rollout and
per-shape value-iteration oracles, random instances."""

import numpy as np

from meairl import ConvergenceError, Mlp, TabularMDP, TabularPolicy


def finite_difference_grad(fn, params, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        hi = fn(bumped)
        bumped[i] -= 2 * h
        lo = fn(bumped)
        grad[i] = (hi - lo) / (2 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def random_mdp(rng, n_states=None, n_actions=None, gamma=None, reward_scale=1.0):
    if n_states is None:
        n_states = int(rng.integers(2, 8))
    if n_actions is None:
        n_actions = int(rng.integers(2, 4))
    if gamma is None:
        gamma = float(rng.choice([0.5, 0.9, 0.99]))
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(-reward_scale, reward_scale, size=(n_states, n_actions))
    init = rng.dirichlet(np.ones(n_states))
    return TabularMDP(kernel, reward, gamma, init)


def random_policy(rng, n_states, n_actions):
    return TabularPolicy(rng.dirichlet(np.ones(n_actions), size=n_states))


def searchsorted_draw(cumulative, rng):
    """One inverse-CDF draw by `searchsorted`, a uniform drawn per call."""
    idx = int(cumulative.searchsorted(rng.random(), side="right"))
    return min(idx, cumulative.shape[-1] - 1)


def scalar_rollouts(mdp, probs, horizon, episodes, rng):
    """States (E, H+1) and actions (E, H) drawn one scalar at a time: the
    start, then each step's action and successor. It shares no sampling
    code with the library."""
    init_cum, kernel_cum = np.cumsum(mdp.init_dist), np.cumsum(mdp.kernel, axis=-1)
    policy_cum = np.cumsum(probs, axis=-1)
    states, actions = [], []
    for _ in range(episodes):
        s = searchsorted_draw(init_cum, rng)
        visited, taken = [s], []
        for _ in range(horizon):
            a = searchsorted_draw(policy_cum[s], rng)
            s = searchsorted_draw(kernel_cum[s, a], rng)
            taken.append(a)
            visited.append(s)
        states.append(visited)
        actions.append(taken)
    return np.array(states), np.array(actions)


def per_shape_value_iteration(instances, soft, q_inits=None, tol=1e-10, max_iters=10 ** 6):
    """The q of every (kernel, reward, discount) instance, by the loop the
    solvers ran before they swept each action count in lockstep.

    The instances of one (S, A) are stacked and swept on their own; the
    residual is checked after every sweep, and an instance leaves the
    stack on the sweep it comes within tol. The first (S, A) group, in
    order of first appearance, with an instance out of sweeps raises
    ConvergenceError with that group's largest residual. It shares no
    code with the library.
    """
    groups = {}
    for i, (_, reward, _) in enumerate(instances):
        groups.setdefault(np.shape(reward), []).append(i)
    out = [None] * len(instances)
    for (n_states, _), idx in groups.items():
        kernels = np.stack([instances[i][0] for i in idx]).reshape(len(idx), -1, n_states)
        reward = np.stack([instances[i][1] for i in idx])
        discounts = np.array([instances[i][2] for i in idx], dtype=np.float64)
        discount = np.repeat(discounts[:, None, None], kernels.shape[1], axis=1)
        q = np.zeros(reward.shape) if q_inits is None \
            else np.stack([np.asarray(q_inits[i], dtype=np.float64) for i in idx])
        live = np.array(idx)
        res = np.full(len(idx), np.inf)
        for _ in range(max_iters):
            v = np.maximum.reduce(q, axis=-1, keepdims=True)
            if soft:
                v = v + np.log(np.add.reduce(np.exp(q - v), axis=-1, keepdims=True))
            q_new = reward + (discount * (kernels @ v)).reshape(q.shape)
            res = np.maximum.reduce(np.abs(q_new - q), axis=(1, 2))
            q = q_new
            done = res <= tol
            for j in np.flatnonzero(done):
                out[live[j]] = q[j]
            if done.all():
                break
            keep = ~done
            kernels, reward, discount = kernels[keep], reward[keep], discount[keep]
            q, live = q[keep], live[keep]
        else:
            worst = float(res.max())
            raise ConvergenceError(f"residual {worst:.3e} > tol {tol:g}", residual=worst)
    return out


def scalar_evaluation(mdp, probs, horizon, episodes, rng):
    """Mean and std of the discounted return of `episodes` scalar rollouts,
    the reward added at each step as it is taken."""
    init_cum, kernel_cum = np.cumsum(mdp.init_dist), np.cumsum(mdp.kernel, axis=-1)
    policy_cum = np.cumsum(probs, axis=-1)
    returns = np.empty(episodes)
    for e in range(episodes):
        s = searchsorted_draw(init_cum, rng)
        total, scale = 0.0, 1.0
        for _ in range(horizon):
            a = searchsorted_draw(policy_cum[s], rng)
            total += scale * mdp.reward[s, a]
            scale *= mdp.discount
            s = searchsorted_draw(kernel_cum[s, a], rng)
        returns[e] = total
    return float(returns.mean()), float(returns.std())


def instance(mdp):
    """An MDP as the (kernel, reward, discount) instance the solvers stack."""
    return (mdp.kernel, mdp.reward, mdp.discount)


def soft_policy_value_by_solve(mdp, policy):
    """Value of a fixed policy with its entropy bonus at every step.

    One linear solve of (I - gamma P_pi) v = r_pi + H_pi; it shares no
    code with the library's iterative solvers.
    """
    probs = policy.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.where(probs > 0.0, probs * np.log(probs), 0.0).sum(axis=1)
    r_pi = (probs * mdp.reward).sum(axis=1) + entropy
    p_pi = np.einsum("sa,sap->sp", probs, mdp.kernel)
    return np.linalg.solve(np.eye(mdp.n_states) - mdp.discount * p_pi, r_pi)


def reference_backward(net, x, upstream):
    """Mlp.backward as it stood before forward passes kept tapes.

    Reruns the forward pass from the input array, keeps the
    pre-activations, and masks the relu layers on pre > 0; it shares no
    code with Mlp's own forward or backward.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    layers, offset = [], 0
    for fan_in, fan_out in zip(net.sizes[:-1], net.sizes[1:]):
        w = net.params[offset:offset + fan_in * fan_out].reshape(fan_out, fan_in)
        offset += fan_in * fan_out
        layers.append((w, net.params[offset:offset + fan_out]))
        offset += fan_out
    pre, acts = [], [h]
    for i, (w, b) in enumerate(layers):
        z = h @ w.T + b
        pre.append(z)
        if i < len(layers) - 1:
            h = np.maximum(z, 0.0)
        elif net.output == "tanh":
            h = np.tanh(z)
        else:
            h = z
        acts.append(h)
    upstream = np.asarray(upstream, dtype=np.float64)
    delta = upstream[None, :] if squeeze else upstream
    if net.output == "tanh":
        delta = delta * (1.0 - acts[-1] ** 2)
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[:0] = [(delta.T @ acts[i]).ravel(), delta.sum(axis=0)]
        delta = delta @ w
        if i > 0:
            delta = delta * (pre[i - 1] > 0.0)
    return np.concatenate(grads), (delta[0] if squeeze else delta)


def use_reference_backward(monkeypatch):
    """Route every Mlp gradient through reference_backward: a taped forward
    hands back its input array as the tape, and backward reruns the
    forward from that array."""
    forward = Mlp.forward

    def forward_keeping_input(self, x, tape=False):
        out = forward(self, x)
        return (out, x) if tape else out

    monkeypatch.setattr(Mlp, "forward", forward_keeping_input)
    monkeypatch.setattr(Mlp, "backward", reference_backward)

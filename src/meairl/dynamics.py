"""Learned transition models: smoothed tabular counts and a Gaussian net.

The count model holds the estimates of R runs on a leading run axis, the
one form the tabular training loop uses, a single run being R = 1. It
learns one transition per run at a time through `add`, the call the loop
makes on every step, which refreshes the visited rows. The Gaussian model
predicts the state *delta*; its mean successor is
state + mean_net(state, action). Synthetic rollouts draw batched
successors from either: `sample_next_batch` for counts, which maps
uniforms that the rollout draws up front, `sample_next` for the Gaussian,
which draws from the generator it is given.
"""

from __future__ import annotations

import numpy as np

from .mdp import _inverse_cdf
from .neural import Mlp
from .seeding import as_generator

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))


class TabularDynamicsEstimate:
    """Transition counts of R runs with additive (Dirichlet-style) smoothing.

    kernel[k, s, a, s'] = (N[k, s, a, s'] + alpha) / sum_s'' (N[k, s, a, s''] + alpha)
    is run k's estimate, kernel (R, S, A, S). With alpha = 0 an unvisited
    (s, a) row falls back to uniform. `add` takes one transition per run
    as (R,) arrays; `sample_next_batch` and `nll` take (R, n) batches, row
    k for run k, and `sample_next_batch` one uniform per transition.
    """

    def __init__(self, n_states: int, n_actions: int, alpha: float, runs: int):
        if alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        shape = (runs, n_states, n_actions, n_states)
        self.counts = np.zeros(shape, dtype=np.int64)
        self._kernel = np.full(shape, 1.0 / n_states)
        self._cum = np.cumsum(self._kernel, axis=-1)
        # entry k of (R,) transitions is run k's; offsets send row k of an
        # (R, n) batch to run k's block of rows
        self._runs = np.arange(runs)
        self._offsets = self._runs[:, None] * n_states

    def add(self, s, a, s_next) -> None:
        """Count one transition per run and refresh the (s, a) rows they land in."""
        row_index = (self._runs, s, a)
        self.counts[row_index + (s_next,)] += 1
        row = self.counts[row_index] + self.alpha
        # the row holds the count just added, so its sum is >= 1
        row = row / row.sum(axis=-1, keepdims=True)
        self._kernel[row_index] = row
        self._cum[row_index] = row.cumsum(axis=-1)

    @property
    def kernel(self) -> np.ndarray:
        return self._kernel

    def sample_next_batch(self, states, actions, u) -> np.ndarray:
        cum = self._cum
        rows = (states + self._offsets) * cum.shape[-2] + actions
        return _inverse_cdf(cum.reshape(-1, cum.shape[-1]).take(rows, axis=0), u)

    def successors(self, runs, states, actions, u) -> np.ndarray:
        """Entry i: run runs[i]'s successor of (states[i], actions[i]) at uniform u[i]."""
        return _inverse_cdf(self._cum[runs, states, actions], u)

    def nll(self, states, actions, next_states) -> list:
        """Per run: mean negative log-likelihood of its row of transitions."""
        probs = self._kernel[self._runs[:, None], states, actions, next_states]
        return [float(-np.mean(np.log(np.maximum(row, 1e-300)))) for row in probs]


def tv_distance(true_kernel: np.ndarray, est_kernel: np.ndarray, weights=None):
    """Per-row total variation between two kernels.

    Returns (max over (s, a), weighted average). `weights` is an (S, A)
    distribution over state-action pairs; None means uniform.
    """
    true_kernel = np.asarray(true_kernel, dtype=np.float64)
    est_kernel = np.asarray(est_kernel, dtype=np.float64)
    if true_kernel.shape != est_kernel.shape:
        raise ValueError(f"kernel shapes differ: {true_kernel.shape} vs {est_kernel.shape}")
    per_row = 0.5 * np.abs(true_kernel - est_kernel).sum(axis=-1)
    if weights is None:
        weighted = float(per_row.mean())
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != per_row.shape:
            raise ValueError(f"weights shape {weights.shape} != {per_row.shape}")
        weighted = float((weights * per_row).sum() / weights.sum())
    return float(per_row.max()), weighted


class GaussianDynamicsModel:
    """Diagonal-Gaussian successor model over continuous states.

    Two relu nets map (state, action) to the per-dimension delta mean and
    to the raw log-std, the latter clamped into [LOG_STD_MIN, LOG_STD_MAX].
    Samples are clipped into [state_low, state_high] when bounds are set.
    """

    def __init__(self, state_dim: int, action_dim: int, hidden=(128, 128),
                 state_low=None, state_high=None, rng=None):
        rng = as_generator(rng)
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        in_dim = self.state_dim + self.action_dim
        self.mean_net = Mlp([in_dim, *hidden, self.state_dim], rng=rng)
        self.logstd_net = Mlp([in_dim, *hidden, self.state_dim], rng=rng)
        self.state_low = None if state_low is None else np.asarray(state_low, dtype=np.float64)
        self.state_high = None if state_high is None else np.asarray(state_high, dtype=np.float64)

    @property
    def n_params(self) -> int:
        return self.mean_net.n_params + self.logstd_net.n_params

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.mean_net.params, self.logstd_net.params])

    @params.setter
    def params(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} params, got shape {value.shape}")
        split = self.mean_net.n_params
        self.mean_net.params = value[:split]
        self.logstd_net.params = value[split:]

    def _stats(self, states, actions, tape=False):
        """States as a 2-D array, the two nets' outputs and the clamped
        log-std; with `tape`, also the nets' tapes (else None)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        x = np.concatenate([states, actions], axis=1)
        if tape:
            mean_delta, mean_tape = self.mean_net.forward(x, tape=True)
            raw, logstd_tape = self.logstd_net.forward(x, tape=True)
            tapes = (mean_tape, logstd_tape)
        else:
            mean_delta, raw, tapes = self.mean_net.forward(x), self.logstd_net.forward(x), None
        log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
        return states, mean_delta, raw, log_std, tapes

    def predict(self, states, actions):
        """Mean successor and per-dimension std, batched."""
        states2d, mean_delta, _, log_std, _ = self._stats(states, actions)
        return states2d + mean_delta, np.exp(log_std)

    def sample_next(self, state, action, rng, n: int = None) -> np.ndarray:
        """One successor draw per row; with n, n draws of shape (n, B, d).

        The n draws share one pass through the model nets.
        """
        single = np.asarray(state).ndim == 1
        mean, std = self.predict(state, action)
        shape = mean.shape if n is None else (int(n), *mean.shape)
        nxt = mean + std * rng.standard_normal(shape)
        if self.state_low is not None:
            nxt = np.clip(nxt, self.state_low, self.state_high)
        if n is not None:
            return nxt
        return nxt[0] if single else nxt

    def loss_and_grads(self, states, actions, next_states):
        """Mean Gaussian NLL of the observed deltas, with exact gradients.

        Per element: 0.5 z^2 + log_std + 0.5 log(2 pi), z = (delta - mu) / sigma.
        The log-std clamp passes zero gradient where it saturates.
        """
        states2d, mean_delta, raw, log_std, tapes = self._stats(states, actions, tape=True)
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
        target = next_states - states2d
        sigma = np.exp(log_std)
        z = (target - mean_delta) / sigma
        batch = float(states2d.shape[0])
        loss = float(np.mean(np.sum(0.5 * z ** 2 + log_std + 0.5 * LOG_2PI, axis=1)))
        d_mean = (-z / sigma) / batch
        active = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
        d_raw = np.where(active, (1.0 - z ** 2) / batch, 0.0)
        g_mean, _ = self.mean_net.backward(tapes[0], d_mean)
        g_logstd, _ = self.logstd_net.backward(tapes[1], d_raw)
        return loss, np.concatenate([g_mean, g_logstd])


def rollout_synthetic(model, policy, start_states, horizon: int, seed):
    """Roll the model forward `horizon` steps from each start state.

    Returns transition columns (states, actions, next_states), the
    horizon steps one after another along the batch axis. A count model
    of R runs takes an (R, S, A) TabularPolicy, (R, n) start states and
    RunStreams, and returns (R, horizon * n) columns. It draws all of
    them in one call per run, 2 * horizon * n uniforms in the order a
    step-by-step rollout reads them: each step's actions, then its
    successors. Continuous models take a callable act(states, rng) ->
    actions operating on batches. Deterministic given the seed.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = as_generator(seed)
    tabular = isinstance(model, TabularDynamicsEstimate)
    if tabular:
        states = np.asarray(start_states, dtype=np.int64)
    else:
        states = np.atleast_2d(np.asarray(start_states, dtype=np.float64))
    batch_axis = -1 if tabular else 0
    if states.shape[batch_axis] == 0:
        raise ValueError("start_states must be nonempty")
    if tabular:
        u = rng.random((horizon, 2, states.shape[-1]))  # (R, horizon, 2, n) with RunStreams
    out_s, out_a, out_n = [], [], []
    for h in range(horizon):
        if tabular:
            actions = policy.sample_batch(states, u[..., h, 0, :])
            nxt = model.sample_next_batch(states, actions, u[..., h, 1, :])
        else:
            actions = policy(states, rng)
            nxt = model.sample_next(states, actions, rng)
        out_s.append(states)
        out_a.append(actions)
        out_n.append(nxt)
        states = nxt
    return tuple(np.concatenate(out, axis=batch_axis) for out in (out_s, out_a, out_n))

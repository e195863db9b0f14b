"""Adversarial reward learning with a transition model inside the shaping term.

The discriminator scores a state-action pair against the current policy:

    D(s, a) = exp(f(s, a)) / (exp(f(s, a)) + pi(a|s))
    f(s, a) = R(s, a) + gamma * E_model[phi(s') | s, a] - phi(s)

so f is a shaped reward whose potential term is an expectation under the
learned model rather than a single sampled successor. `shaping="sample"`
switches to the classic single-sample form

    f(s, a, s') = R(s, a) + gamma * phi(s') - phi(s)

for A/B comparisons. Tabular mode keeps R and phi as plain tables of shape
(S,): R is the state-only reward g(s), the form AIRL's disentanglement
result is stated for (Fu et al., arXiv:1710.11248). A free per-pair
r(s, a) could fit any advantage by itself, so the shaping rule would not
matter; with g(s) it does. When the true reward is state-only, g = r and
phi = soft V under model shaping through the true kernel give
f = soft Q - soft V exactly, while under sample shaping f(s, a, s')
depends on the observed successor and cannot equal that advantage on a
stochastic kernel. Continuous mode backs r(s, a) and phi with two relu
nets and estimates the model expectation with a fixed number of Monte
Carlo successor draws, reused pathwise so gradients flow to phi at the
sampled points.

Training minimizes the usual cross-entropy

    L = -E_expert[log D] - E_policy[log(1 - D)]

and the policy-facing reward is log D - log(1 - D) = f - log pi.

`gradient_alignment_gap` checks the tabular gradient training takes
against MaxEnt IRL. With phi = soft V of g, the policy soft-optimal for g
and exact expectations, -2 dL/dg is the MaxEnt-IRL gradient
d_expert(s) - d_pi(s) and dL/dphi is zero, for any expert occupancy,
under model shaping through the true kernel; under sample shaping the
identity survives only on a deterministic kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .mdp import TabularPolicy, load_demos
from .neural import Mlp
from .seeding import as_generator
from .soft_dp import discounted_occupancy, soft_optimal_policy, soft_value_iteration

# D is clamped into [PROB_CLAMP, 1 - PROB_CLAMP] before any log.
PROB_CLAMP = 1e-6
# Extracted rewards handed to a policy optimizer are clipped to this magnitude.
REWARD_CLAMP = 50.0


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u, dtype=np.float64)
    pos = u >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


class Discriminator:
    """Reward/potential pair with a shaping rule; see the module docstring."""

    def __init__(self, mode, discount, dynamics, shaping, r_table=None, phi_table=None,
                 r_net=None, phi_net=None, n_model_samples=8):
        if mode not in ("tabular", "continuous"):
            raise ValueError(f"unknown mode {mode!r}")
        if shaping not in ("model", "sample"):
            raise ValueError(f"unknown shaping {shaping!r}")
        if not (0.0 < discount < 1.0):
            raise ValueError(f"discount must lie in (0, 1), got {discount}")
        if shaping == "model" and dynamics is None:
            raise ValueError("model shaping requires a dynamics model")
        self.mode = mode
        self.discount = float(discount)
        self.dynamics = dynamics
        self.shaping = shaping
        self.r_table = r_table
        self.phi_table = phi_table
        self.r_net = r_net
        self.phi_net = phi_net
        self.n_model_samples = int(n_model_samples)

    @classmethod
    def tabular(cls, n_states, discount, dynamics=None, shaping="model") -> "Discriminator":
        """Zero-initialised tables of shape (S,): the state-only reward g(s) and phi.

        g(s) rather than a free r(s, a), so that the shaping rule decides
        which advantages f can represent (see the module docstring).
        `dynamics` is the (S, A, S) kernel array, read afresh on every call.
        """
        return cls("tabular", discount, dynamics, shaping,
                   r_table=np.zeros(n_states),
                   phi_table=np.zeros(n_states))

    @classmethod
    def continuous(cls, state_dim, action_dim, discount, dynamics=None, shaping="model",
                   hidden=(100, 100), n_model_samples=8, rng=None) -> "Discriminator":
        rng = as_generator(rng)
        return cls("continuous", discount, dynamics, shaping,
                   r_net=Mlp([state_dim + action_dim, *hidden, 1], rng=rng),
                   phi_net=Mlp([state_dim, *hidden, 1], rng=rng),
                   n_model_samples=n_model_samples)

    @property
    def n_params(self) -> int:
        if self.mode == "tabular":
            return self.r_table.size + self.phi_table.size
        return self.r_net.n_params + self.phi_net.n_params

    @property
    def params(self) -> np.ndarray:
        if self.mode == "tabular":
            return np.concatenate([self.r_table, self.phi_table])
        return np.concatenate([self.r_net.params, self.phi_net.params])

    @params.setter
    def params(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} params, got shape {value.shape}")
        if self.mode == "tabular":
            split = self.r_table.size
            self.r_table[...] = value[:split]
            self.phi_table[...] = value[split:]
        else:
            split = self.r_net.n_params
            self.r_net.params = value[:split]
            self.phi_net.params = value[split:]

    def _f_tabular(self, states, actions, next_states):
        states = np.asarray(states, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        if self.shaping == "model":
            rows = self.dynamics[states, actions]
            expected_phi = rows @ self.phi_table
        else:
            if next_states is None:
                raise ValueError("sample shaping needs observed next states")
            expected_phi = self.phi_table[np.asarray(next_states, dtype=np.int64)]
        return (self.r_table[states]
                + self.discount * expected_phi
                - self.phi_table[states])

    def _f_continuous(self, states, actions, next_states, rng, tape=False):
        """Returns (f, tapes). With `tape`, tapes holds the tapes of r(s, a),
        phi(s) and phi at the successors (model draws or observed), in that
        order, for the gradient step; otherwise it is None."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        x = np.concatenate([states, actions], axis=1)
        r, r_tape = _forward(self.r_net, x, tape)
        phi_s, phi_tape = _forward(self.phi_net, states, tape)
        if self.shaping == "model":
            if rng is None:
                raise ValueError("model shaping needs an rng for successor draws")
            n = self.n_model_samples
            draws = self.dynamics.sample_next(states, actions, rng, n=n)  # (n, B, d)
            flat = draws.reshape(-1, states.shape[1])
            phi_next, next_tape = _forward(self.phi_net, flat, tape)
            expected_phi = phi_next.reshape(n, -1).mean(axis=0)
        else:
            if next_states is None:
                raise ValueError("sample shaping needs observed next states")
            next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
            expected_phi, next_tape = _forward(self.phi_net, next_states, tape)
        f = r + self.discount * expected_phi - phi_s
        return f, ((r_tape, phi_tape, next_tape) if tape else None)

    def f_values(self, states, actions, next_states=None, rng=None):
        """Batched f. next_states is only consulted under sample shaping."""
        if self.mode == "tabular":
            return self._f_tabular(states, actions, next_states)
        f, _ = self._f_continuous(states, actions, next_states, rng)
        return f


def _forward(net, x, tape):
    """net(x) flattened to one value per row, with its tape when `tape`."""
    if tape:
        out, record = net.forward(x, tape=True)
        return out.ravel(), record
    return net.forward(x).ravel(), None


def _log_policy(policy, states, actions):
    if isinstance(policy, TabularPolicy):
        probs = policy.probs[np.asarray(states, dtype=np.int64),
                             np.asarray(actions, dtype=np.int64)]
        with np.errstate(divide="ignore"):
            return np.log(probs)
    if hasattr(policy, "log_prob"):
        return np.asarray(policy.log_prob(states, actions), dtype=np.float64)
    raise TypeError(f"policy {type(policy).__name__} exposes neither .probs nor .log_prob")


def extract_reward(disc: Discriminator, states, actions, log_policy_prob,
                   next_states=None, rng=None) -> np.ndarray:
    """Policy-facing reward log D - log(1 - D) = f - log pi, clipped to +-50."""
    f = disc.f_values(states, actions, next_states, rng=rng)
    return np.clip(np.asarray(f) - log_policy_prob, -REWARD_CLAMP, REWARD_CLAMP)


def discriminator_loss_and_grads(disc: Discriminator, expert_batch, policy_batch,
                                 policy, rng=None):
    """Cross-entropy loss and its gradient in disc's flat parameter vector.

    Batches are (states, actions, next_states) column triples; the expert
    batch is scored as positive, the policy batch as negative. `policy`
    supplies pi(a|s): a TabularPolicy or anything with .log_prob.

    Continuous mode finishes the expert batch (forward, loss terms,
    backward) before it forwards the policy batch. The per-sample
    gradient of the loss in f depends only on that sample's own f and
    log pi, so nothing waits on the other batch, and only one batch's
    tapes are alive at a time; holding both (the successor tape of phi
    has n_model_samples rows per sample) raises the run's peak memory.
    The rng still draws the expert batch's successors before the policy
    batch's, and the gradients still add expert then policy.
    """
    exp_s, exp_a, exp_n = expert_batch
    pol_s, pol_a, pol_n = policy_batch
    if disc.mode == "tabular":
        f_e = disc._f_tabular(exp_s, exp_a, exp_n)
        f_p = disc._f_tabular(pol_s, pol_a, pol_n)
        log_e, df_e = _cross_entropy_terms(f_e, _log_policy(policy, exp_s, exp_a), True)
        log_p, df_p = _cross_entropy_terms(f_p, _log_policy(policy, pol_s, pol_a), False)
        grads = _tabular_grads(disc, (exp_s, exp_a, exp_n, df_e), (pol_s, pol_a, pol_n, df_p))
    else:
        g_r = np.zeros(disc.r_net.n_params)
        g_phi = np.zeros(disc.phi_net.n_params)
        log_e = _continuous_batch_step(disc, expert_batch, policy, rng, True, g_r, g_phi)
        log_p = _continuous_batch_step(disc, policy_batch, policy, rng, False, g_r, g_phi)
        grads = np.concatenate([g_r, g_phi])
    loss = float(-np.mean(log_e) - np.mean(log_p))
    return loss, grads


def _cross_entropy_terms(f, log_pi, expert):
    """Per-sample log D (expert) or log(1 - D) (policy), clamped, and
    d loss / d f, which is zero where the clamp saturates."""
    d = _sigmoid(f - log_pi)
    dc = np.clip(d, PROB_CLAMP, 1.0 - PROB_CLAMP)
    live = (d > PROB_CLAMP) & (d < 1.0 - PROB_CLAMP)
    if expert:
        return np.log(dc), np.where(live, -(1.0 - d), 0.0) / f.shape[0]
    return np.log(1.0 - dc), np.where(live, d, 0.0) / f.shape[0]


def _tabular_grads(disc, expert, policy):
    g_r = np.zeros_like(disc.r_table)
    g_phi = np.zeros_like(disc.phi_table)
    for states, actions, next_states, df in (expert, policy):
        states = np.asarray(states, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        np.add.at(g_r, states, df)
        np.add.at(g_phi, states, -df)
        if disc.shaping == "model":
            g_phi += disc.discount * np.einsum("b,bp->p", df, disc.dynamics[states, actions])
        else:
            np.add.at(g_phi, np.asarray(next_states, dtype=np.int64), disc.discount * df)
    return np.concatenate([g_r, g_phi])


def _continuous_batch_step(disc, batch, policy, rng, expert, g_r, g_phi):
    """Forward one batch with tapes, add its gradient into g_r and g_phi
    (r, then phi at the states, then phi at the successors), and return
    its per-sample log terms. The tapes die when this returns."""
    states, actions, next_states = batch
    f, (r_tape, phi_tape, next_tape) = disc._f_continuous(states, actions, next_states,
                                                          rng, tape=True)
    log_terms, df = _cross_entropy_terms(f, _log_policy(policy, states, actions), expert)
    col = df[:, None]
    g_r += disc.r_net.backward(r_tape, col)[0]
    g_phi += disc.phi_net.backward(phi_tape, -col)[0]
    if disc.shaping == "model":
        n = disc.n_model_samples
        rep = np.repeat(df[None, :], n, axis=0).reshape(-1, 1)
        g_phi += disc.phi_net.backward(next_tape, (disc.discount / n) * rep)[0]
    else:
        g_phi += disc.phi_net.backward(next_tape, disc.discount * col)[0]
    return log_terms


def mce_irl_gradient(expert_occupancy: np.ndarray, policy_occupancy: np.ndarray) -> np.ndarray:
    """MaxEnt-IRL likelihood-ascent direction in a state-only reward g(s).

    Both occupancies are (S, A) tables; policy_occupancy is that of the
    soft-optimal policy for the current g. The gradient is the difference
    of their state marginals, d_expert(s) - d_pi(s).
    """
    return (np.asarray(expert_occupancy, dtype=np.float64).sum(axis=1)
            - np.asarray(policy_occupancy, dtype=np.float64).sum(axis=1))


class AlignmentGaps(NamedTuple):
    """Per-case results of `gradient_alignment_gap`."""

    model: np.ndarray  # identity gap under model shaping
    sample: np.ndarray  # the same gap under sample shaping
    mce: np.ndarray  # max |MCE side|, so a small gap is not a vacuous one


def gradient_alignment_gap(cases, dp_tol: float = 1e-12) -> AlignmentGaps:
    """Gap between -2 * the discriminator gradient and the MaxEnt-IRL gradient.

    Each case is (mdp, g, expert_probs): a TabularMDP, a state-only reward
    g of shape (S,) and an (S, A) expert policy. The discriminator holds g
    and phi = the soft value of g, and the policy is the soft-optimal one
    for g. Its gradient is the one `discriminator_loss_and_grads` takes,
    with exact expectations: every (s, a) pair, or every (s, a, s') triple
    under sample shaping, is one row of each batch, weighted by its
    probability under the expert's occupancy (expert batch) or the
    policy's (policy batch). Under model shaping through the true kernel,
    -2 * the gradient equals `mce_irl_gradient` in g and is zero in phi
    (Finn et al., arXiv:1611.03852; Fu et al., arXiv:1710.11248); the gap
    is the sup-norm defect of both. Under sample shaping the identity
    holds on deterministic kernels only.

    One stacked soft value iteration solves every case, and one stacked
    occupancy iteration gives every policy and expert occupancy.
    """
    solved = soft_value_iteration(
        [(mdp.kernel, np.repeat(np.asarray(g, dtype=np.float64)[:, None], mdp.n_actions, axis=1),
          mdp.discount) for mdp, g, _ in cases], tol=dp_tol)
    policies = [soft_optimal_policy(values) for values in solved]
    starts = [(mdp.kernel, mdp.init_dist, mdp.discount) for mdp, _, _ in cases]
    occupancies = discounted_occupancy(
        starts + starts, [p.probs for p in policies] + [e for _, _, e in cases], tol=dp_tol)
    d_pis, d_exps = occupancies[:len(cases)], occupancies[len(cases):]
    gaps = AlignmentGaps([], [], [])
    for (mdp, g, _), values, policy, d_pi, d_exp in zip(cases, solved, policies, d_pis, d_exps):
        mce = mce_irl_gradient(d_exp, d_pi)
        gaps.mce.append(float(np.abs(mce).max()))
        for shaping, out in (("model", gaps.model), ("sample", gaps.sample)):
            disc = Discriminator.tabular(mdp.n_states, mdp.discount, mdp.kernel, shaping)
            disc.params = np.concatenate([g, values.v])
            g_r, g_phi = np.split(-2.0 * _exact_grads(disc, policy, mdp.kernel, d_exp, d_pi), 2)
            out.append(max(float(np.abs(g_r - mce).max()), float(np.abs(g_phi).max())))
    return AlignmentGaps(*(np.array(column) for column in gaps))


def _exact_grads(disc, policy, kernel, d_exp, d_pi):
    """`_tabular_grads` on the enumerated batch of `gradient_alignment_gap`.

    Each row's d loss / d f from `_cross_entropy_terms` (a batch mean) is
    rescaled to that row's exact probability.
    """
    n_states, n_actions = d_pi.shape
    if disc.shaping == "model":
        states, actions = np.divmod(np.arange(n_states * n_actions), n_actions)
        next_states = None
        weights = (d_exp.ravel(), d_pi.ravel())
    else:
        states, rest = np.divmod(np.arange(n_states * n_actions * n_states),
                                 n_actions * n_states)
        actions, next_states = np.divmod(rest, n_states)
        weights = ((d_exp[:, :, None] * kernel).ravel(), (d_pi[:, :, None] * kernel).ravel())
    f = disc._f_tabular(states, actions, next_states)
    log_pi = _log_policy(policy, states, actions)
    batches = [(states, actions, next_states,
                _cross_entropy_terms(f, log_pi, expert)[1] * (f.shape[0] * weight))
               for expert, weight in zip((True, False), weights)]
    return _tabular_grads(disc, *batches)


class ExpertBuffer:
    """Read-only pool of demonstration transitions with uniform resampling."""

    def __init__(self, states, actions, next_states):
        self.states = np.array(states)
        self.actions = np.array(actions)
        self.next_states = np.array(next_states)
        if not (len(self.states) == len(self.actions) == len(self.next_states)):
            raise ValueError("column lengths differ")
        if len(self.states) == 0:
            raise ValueError("expert buffer must be nonempty")
        for arr in (self.states, self.actions, self.next_states):
            arr.flags.writeable = False

    @classmethod
    def from_file(cls, path) -> "ExpertBuffer":
        demos = load_demos(path)
        return cls(demos.states, demos.actions, demos.next_states)

    def sample(self, n, rng):
        idx = rng.integers(0, len(self.states), size=n)
        return self.states[idx], self.actions[idx], self.next_states[idx]

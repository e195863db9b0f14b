"""Adversarial reward learning with a transition model inside the shaping term.

The discriminator scores a state-action pair against the current policy:

    D(s, a) = exp(f(s, a)) / (exp(f(s, a)) + pi(a|s))
    f(s, a) = R(s, a) + gamma * E_model[phi(s') | s, a] - phi(s)

so f is a shaped reward whose potential term is an expectation under the
learned model rather than a single sampled successor. `shaping="sample"`
switches to the classic single-sample form

    f(s, a, s') = R(s, a) + gamma * phi(s') - phi(s)

for A/B comparisons. Tabular mode keeps R and phi as tables of shape
(R, S), one row per stacked run: R is the state-only reward g(s), the
form AIRL's disentanglement result is stated for (Fu et al.,
arXiv:1710.11248). A free per-pair r(s, a) could fit any advantage by
itself, so the shaping rule would not matter; with g(s) it does. When
the true reward is state-only, g = r and phi = soft V under model
shaping through the true kernel give f = soft Q - soft V exactly, while
under sample shaping f(s, a, s') depends on the observed successor and
cannot equal that advantage on a stochastic kernel. Continuous mode backs
r(s, a) and phi with two relu nets and estimates the model expectation
with a fixed number of Monte Carlo successor draws, reused pathwise so
gradients flow to phi at the sampled points.

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
    """1 / (1 + exp(-u)) for u >= 0 and exp(u) / (1 + exp(u)) below, so no
    exp overflows; exp(-|u|) is the exp of either branch."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


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
        self.r_table = self.phi_table = self._table = None
        if r_table is not None:
            # One (R, 2S) array holds both tables side by side, run k's g then
            # its phi in row k, so the parameters and their gradient are that
            # array with no concatenate or split. Row k of an (R, B) batch is
            # offset to run k's row of it raveled, so one flat gather serves
            # every run, and to run k's (S, A) block of kernel rows.
            self._table = np.concatenate([r_table, phi_table], axis=-1)
            runs, n_states = r_table.shape
            self.r_table, self.phi_table = self._table[:, :n_states], self._table[:, n_states:]
            run = np.arange(runs)[:, None]
            self._offsets = run * (2 * n_states)
            self._phi_offsets = self._offsets + n_states
            self._kernel_offsets = run * n_states
        self.r_net = r_net
        self.phi_net = phi_net
        self.n_model_samples = int(n_model_samples)

    @classmethod
    def tabular(cls, n_states, discount, dynamics=None, shaping="model", *,
                runs) -> "Discriminator":
        """Zero-initialised (R, S) tables for R = `runs` stacked runs: the
        state-only reward g(s) and phi.

        g(s) rather than a free r(s, a), so that the shaping rule decides
        which advantages f can represent (see the module docstring).
        `dynamics` is the (R, S, A, S) kernel array, read afresh on every
        call. The parameters are (R, 2S), batches (R, B) with row k for
        run k, and the policy an (R, S, A) TabularPolicy; other shapes
        raise ValueError.
        """
        return cls("tabular", discount, dynamics, shaping,
                   r_table=np.zeros((runs, n_states)),
                   phi_table=np.zeros((runs, n_states)))

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
        """Parameters per run."""
        if self.mode == "tabular":
            return self.r_table.shape[-1] + self.phi_table.shape[-1]
        return self.r_net.n_params + self.phi_net.n_params

    @property
    def params(self) -> np.ndarray:
        """A copy: later steps do not change it."""
        if self.mode == "tabular":
            return self._table.copy()
        return np.concatenate([self.r_net.params, self.phi_net.params])

    @params.setter
    def params(self, value):
        value = np.asarray(value, dtype=np.float64)
        runs = self._table.shape[:-1] if self.mode == "tabular" else ()
        if value.shape != runs + (self.n_params,):
            raise ValueError(f"expected params of shape {runs + (self.n_params,)}, "
                             f"got {value.shape}")
        if self.mode == "tabular":
            self._table[...] = value
        else:
            split = self.r_net.n_params
            self.r_net.params = value[:split]
            self.phi_net.params = value[split:]

    def _tabular_batch(self, states, actions, next_states):
        """A batch as tabular f and its gradient read it: the flat indices
        of its states' g and phi in the raveled (R, 2S) table, and what the
        successor term reads, the model's kernel rows at the batch's pairs
        (model shaping) or the flat indices of phi at the successors
        (sample shaping). Every column given must be (R, B)."""
        states = np.asarray(states, dtype=np.int64)
        runs = self._table.shape[0]
        if states.ndim != 2 or states.shape[0] != runs or np.shape(actions) != states.shape:
            raise ValueError(f"a discriminator of {runs} runs takes (R, B) = ({runs}, B) "
                             f"batch columns, got states {states.shape} and actions "
                             f"{np.shape(actions)}")
        g_index = states + self._offsets
        if self.shaping == "model":
            kernel = self.dynamics
            rows = (states + self._kernel_offsets) * kernel.shape[-2] + actions
            successors = kernel.reshape(-1, kernel.shape[-1]).take(rows, axis=0)
        elif next_states is None:
            raise ValueError("sample shaping needs observed next states")
        elif np.shape(next_states) != states.shape:
            raise ValueError(f"next states {np.shape(next_states)} differ in shape from "
                             f"states {states.shape}")
        else:
            successors = np.asarray(next_states, dtype=np.int64) + self._phi_offsets
        return g_index, states + self._phi_offsets, successors

    def _f_batch(self, g_index, phi_index, successors, halves=1):
        """f on a batch from `_tabular_batch`. Under model shaping, each of
        `halves` equal column blocks of the batch takes its expectation
        in its own product (see `discriminator_loss_and_grads`)."""
        table = self._table  # `take` reads it raveled
        if self.shaping == "model":
            runs, width = g_index.shape
            # (R, h, b, S) @ (R, 1, S, 1) gives each run and block the bits of
            # its own (b, S) @ (S,)
            expected_phi = (successors.reshape(runs, halves, width // halves, -1)
                            @ self.phi_table[:, None, :, None]).reshape(runs, width)
        else:
            expected_phi = table.take(successors)
        return table.take(g_index) + self.discount * expected_phi - table.take(phi_index)

    def _f_tabular(self, states, actions, next_states):
        return self._f_batch(*self._tabular_batch(states, actions, next_states))

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
        probs = policy.at(np.asarray(states, dtype=np.int64),
                          np.asarray(actions, dtype=np.int64))
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
    supplies pi(a|s): a TabularPolicy or anything with .log_prob. A
    tabular discriminator takes two (R, B) batches and an (R, S, A)
    policy, and returns R losses and (R, 2S) gradients; other shapes raise
    ValueError.

    Tabular mode scores both batches in one pass over their (R, 2B)
    concatenation, expert rows first. Each batch's successor term is its
    own (B, S) @ (S,) product: BLAS sums a row in an order that depends on
    where the row falls in the product's blocks of rows, so one product
    over 2B rows would change the bits of f unless B is a multiple of 4.

    Continuous mode finishes the expert batch (forward, loss terms,
    backward) before it forwards the policy batch. The per-sample
    gradient of the loss in f depends only on that sample's own f and
    log pi, so nothing waits on the other batch, and only one batch's
    tapes are alive at a time; holding both (the successor tape of phi
    has n_model_samples rows per sample) raises the run's peak memory.
    The rng still draws the expert batch's successors before the policy
    batch's, and the gradients still add expert then policy.
    """
    if disc.mode == "tabular":
        states, actions, next_states = _tabular_pair(disc, expert_batch, policy_batch, policy)
        batch = disc._tabular_batch(states, actions, next_states)
        runs = states.shape[0]
        logits = disc._f_batch(*batch, halves=2) - _log_policy(policy, states, actions)
        log_d, df = _cross_entropy_terms(logits.reshape(runs, 2, -1), EXPERT_HALF)
        grads = _tabular_grads(disc, *batch, df)
        # np.mean is this sum and division, minus its Python wrapper
        sums = np.add.reduce(log_d, axis=-1)
        n = log_d.shape[-1]
        return -sums[:, 0] / n - sums[:, 1] / n, grads
    g_r = np.zeros(disc.r_net.n_params)
    g_phi = np.zeros(disc.phi_net.n_params)
    log_e = _continuous_batch_step(disc, expert_batch, policy, rng, True, g_r, g_phi)
    log_p = _continuous_batch_step(disc, policy_batch, policy, rng, False, g_r, g_phi)
    loss = -np.add.reduce(log_e) / log_e.shape[-1] - np.add.reduce(log_p) / log_p.shape[-1]
    return float(loss), np.concatenate([g_r, g_phi])


# Which half of a tabular pair's (R, 2, B) rows is the expert batch's.
EXPERT_HALF = np.array([[True], [False]])


def _tabular_pair(disc, expert_batch, policy_batch, policy):
    """The two batches' columns side by side, (R, 2B), expert rows first,
    once the policy is (R, S, A) and every column has one shape (the
    run axis is `_tabular_batch`'s check). Model shaping reads no next
    states, so it gets None for them."""
    runs, width = disc._table.shape
    probs = policy.probs if isinstance(policy, TabularPolicy) else None
    if probs is None or probs.ndim != 3 or probs.shape[:2] != (runs, width // 2):
        raise ValueError(f"a discriminator of {runs} runs and {width // 2} states scores "
                         f"against an (R, S, A) TabularPolicy, got "
                         f"{type(policy).__name__} {np.shape(probs)}")
    pairs = list(zip(expert_batch, policy_batch))
    if disc.shaping == "model" or any(column is None for column in pairs[2]):
        pairs.pop()  # unread, or refused under sample shaping by `_tabular_batch`
    shapes = {np.shape(column) for pair in pairs for column in pair}
    if len(shapes) > 1:
        raise ValueError(f"the batches' columns differ in shape: {sorted(shapes)}")
    columns = [np.concatenate(pair, axis=-1) for pair in pairs]
    return columns if len(columns) == 3 else columns + [None]


def _cross_entropy_terms(logits, expert):
    """From the logits f - log pi: per sample log D (expert rows) or
    log(1 - D) (policy rows), clamped, and d loss / d f, which is D - 1
    (expert) or D (policy) over the batch size, the last axis, and zero
    where the clamp saturates. `expert` is a bool for the whole batch, or
    an array of them that broadcasts against the rows."""
    d = _sigmoid(logits)
    dc = np.minimum(np.maximum(d, PROB_CLAMP), 1.0 - PROB_CLAMP)  # np.clip's bits
    live = (d > PROB_CLAMP) & (d < 1.0 - PROB_CLAMP)
    return (np.log(np.where(expert, dc, 1.0 - dc)),
            np.where(live, d - expert, 0.0) / logits.shape[-1])


def _tabular_grads(disc, g_index, phi_index, successors, df):
    """The (R, 2S) gradient from a pair of batches: their `_tabular_batch`
    indices, (R, 2B) with the expert rows first, and d loss / d f, (R, 2,
    B). One scatter-add from zero takes every term in the order of the
    expert batch, then the policy batch: per batch, g and phi at the
    states, then the successor term, which model shaping adds to every
    phi entry at once."""
    runs, _, batch = df.shape
    if disc.shaping == "sample":
        index = np.concatenate([column.reshape(runs, 2, batch)
                                for column in (g_index, phi_index, successors)], axis=-1)
        weights = np.concatenate((df, -df, disc.discount * df), axis=-1)
    else:
        # per run and batch the "b,bp->p" reduction, one term per phi entry
        term = disc.discount * np.einsum("...b,...bp->...p", df,
                                         successors.reshape(runs, 2, batch, -1))
        entries = disc._phi_offsets + np.arange(term.shape[-1])
        index = np.concatenate((g_index, phi_index[:, :batch], entries,
                                phi_index[:, batch:], entries), axis=-1)
        weights = np.concatenate((df.reshape(runs, -1), -df[:, 0], term[:, 0],
                                  -df[:, 1], term[:, 1]), axis=-1)
    return np.bincount(index.ravel(), weights.ravel(),
                       minlength=disc._table.size).reshape(runs, -1)


def _continuous_batch_step(disc, batch, policy, rng, expert, g_r, g_phi):
    """Forward one batch with tapes, add its gradient into g_r and g_phi
    (r, then phi at the states, then phi at the successors), and return
    its per-sample log terms. The tapes die when this returns."""
    states, actions, next_states = batch
    f, (r_tape, phi_tape, next_tape) = disc._f_continuous(states, actions, next_states,
                                                          rng, tape=True)
    log_terms, df = _cross_entropy_terms(f - _log_policy(policy, states, actions), expert)
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
    occupancy iteration gives every policy and expert occupancy. Each
    gradient is that of a one-run discriminator, the form training stacks.
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
        stacked = TabularPolicy(policy.probs[None])
        for shaping, out in (("model", gaps.model), ("sample", gaps.sample)):
            disc = Discriminator.tabular(mdp.n_states, mdp.discount, mdp.kernel[None], shaping,
                                         runs=1)
            disc.params = np.concatenate([g, values.v])[None]
            [grads] = _exact_grads(disc, stacked, mdp.kernel, d_exp, d_pi)
            g_r, g_phi = np.split(-2.0 * grads, 2)
            out.append(max(float(np.abs(g_r - mce).max()), float(np.abs(g_phi).max())))
    return AlignmentGaps(*(np.array(column) for column in gaps))


def _exact_grads(disc, policy, kernel, d_exp, d_pi):
    """`_tabular_grads` on the enumerated batch of `gradient_alignment_gap`.

    The batch is one run's (1, n) rows, both as the expert batch and as
    the policy batch. Each row's d loss / d f from `_cross_entropy_terms`
    (a batch mean) is rescaled to that row's exact probability.
    """
    n_states, n_actions = d_pi.shape
    if disc.shaping == "model":
        states, actions = np.divmod(np.arange(n_states * n_actions)[None], n_actions)
        next_states = None
        weights = (d_exp.ravel(), d_pi.ravel())
    else:
        states, rest = np.divmod(np.arange(n_states * n_actions * n_states)[None],
                                 n_actions * n_states)
        actions, next_states = np.divmod(rest, n_states)
        weights = ((d_exp[:, :, None] * kernel).ravel(), (d_pi[:, :, None] * kernel).ravel())
    n = states.shape[-1]
    pair = [None if column is None else np.tile(column, 2)
            for column in (states, actions, next_states)]
    batch = disc._tabular_batch(*pair)
    logits = disc._f_batch(*batch, halves=2) - _log_policy(policy, *pair[:2])
    _, df = _cross_entropy_terms(logits.reshape(1, 2, n), EXPERT_HALF)
    return _tabular_grads(disc, *batch, df * (n * np.stack(weights)))


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

"""The interactive reward-learning loop and expert-demonstration generation.

`run_meairl` runs one loop for tabular and continuous environments. Each
step acts (past pretraining, meairl acts at a mixed state: with
probability `mix_prob` a model-predicted stand-in of the current state),
takes the environment step, stores the real transition and takes a model step.
Past pretraining the adversarial variants then take a discriminator step,
push a short model rollout into a second buffer and take a policy step on
a batch whose synthetic share follows a ramped schedule; behavior cloning
takes a BC step instead. Evaluation rows follow on their period.

Tabular runs of several seeds train in that one loop together: Q tables,
discriminator tables, the count model, replay buffers and the policy carry
a leading run axis, so each numpy call serves every run, and a single run
is the case of one seed. Each run draws from its own named streams in the
order it would alone (`seeding.RunStreams`), so its record is
byte-identical to its solo run. The streams are read in blocks, one
generator call per run for many draws of the same values: the `disc` and
`policy` integers and the `rollout` start states and uniforms of
DRAW_BLOCK trained steps come from one prefetched plan per stream, and
the `interact` and `mix` uniforms from per-run blocks. Only `eval` draws
per call, once per evaluation row. Mixing, the model columns and the
discriminator read the one stacked count model on that axis. One
`evaluate_tabular_policy` call scores all runs, through
`mdp.sample_episodes`, which also writes the tabular expert's demos.
Continuous runs train one at a time and mix through `mix_state`.
Behavior cloning takes no environment step, since nothing it learns or
evaluates reads one. Variants:

  meairl               model inside the shaping term + synthetic data
  airl_sample_baseline single-sample shaping, no model, real data only
  bc_none              behavior cloning of the expert actions, no adversary

Both adversarial variants learn the same discriminator form and differ in
the shaping rule (plus meairl's synthetic data and action mixing). Tabular
runs learn

  f = g(s) + gamma * E_model[phi(s') | s, a] - phi(s)   (meairl)
  f = g(s) + gamma * phi(s') - phi(s)                     (airl_sample_baseline)

with a state-only reward g, so the shaping term decides which advantages
f can represent; continuous runs use a net r(s, a) in place of g(s).

Four parts differ between the cases, one method each of `_TabularRuns` and
`_ContinuousRun`. Model step: count the transition, or an Adam step on the
Gaussian model's NLL. Policy step: a soft TD backup of a Q table toward
f + gamma * soft V(s') at the pairs in the batch (the entropy bonus enters
through the soft backup, so f itself is the right target, not f - log pi),
or a SAC update on f - log pi. BC step: none, the tabular BC policy is
fixed by the expert's action counts, or a regression step of a tanh net.
Model columns of an evaluation row: the count model's NLL and worst-row TV
error, or the last Gaussian NLL. Everything is driven by named child
generators of each run's seed, so records are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .adversarial import (REWARD_CLAMP, Discriminator, ExpertBuffer,
                          discriminator_loss_and_grads, extract_reward)
from .buffers import GEN_BUFFER_INIT, RatioSchedule, ReplayBuffer
from .dynamics import (GaussianDynamicsModel, TabularDynamicsEstimate,
                       rollout_synthetic, tv_distance)
from .mdp import (ContinuousEnv, TabularEnv, TabularPolicy, _inverse_cdf,
                  sample_episodes, save_continuous_demos, save_tabular_demos)
from .neural import AdamState, Mlp, adam_step
from .policy_opt import SAC_LR, SacAgent
from .seeding import as_generator, run_streams, spawn_streams
from .soft_dp import logsumexp, soft_optimal_policy, soft_value_iteration

ALGORITHMS = ("meairl", "airl_sample_baseline", "bc_none")


class TrainingDivergedError(RuntimeError):
    """A loss went non-finite; carries the step index and a state snapshot."""

    def __init__(self, step, snapshot):
        super().__init__(f"non-finite loss at step {step}: {snapshot}")
        self.step = step
        self.snapshot = snapshot


class ExpertTrainingError(RuntimeError):
    """The continuous expert did not reach the requested return in budget."""


@dataclass
class EvalRow:
    step: int
    return_mean: float
    return_std: float
    disc_loss: float
    model_nll: float
    eps_t: float
    synthetic_fraction: float


CSV_HEADER = "step,return_mean,return_std,disc_loss,model_nll,eps_T,synthetic_fraction"


@dataclass
class TrainingRecord:
    rows: list = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.step), repr(r.return_mean), repr(r.return_std),
                repr(r.disc_loss), repr(r.model_nll), repr(r.eps_t),
                repr(r.synthetic_fraction)]))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())


# Settings no experiment varies, fixed here rather than offered as config keys.
ROLLOUT_STARTS = 4  # real states each synthetic rollout starts from
ENV_BUFFER_CAPACITY = 100_000
MODEL_LR = 3e-4
# Small smoothing keeps count-based estimates proper without planting
# phantom successors on near-deterministic kernels.
MODEL_ALPHA = 0.01
MODEL_CLIP_NORM = 10.0
POLICY_TD_RATE = 0.5  # step size of the tabular soft TD backup
# Tabular runs prefetch the `disc`, `policy` and `rollout` draws of this
# many trained steps in one generator call per run and stream, and refill
# the uniform blocks of `interact` and `mix` with 16 times as many uniforms
# (about 2 are read a step).
DRAW_BLOCK = 16


@dataclass
class TrainingConfig:
    """The settings a run is configured by; defaults are the reference runs'.

    Each step past pretraining takes one discriminator step and one policy
    step; the model learns on every environment step (a tabular run counts
    the transition, a continuous run takes one Adam step on the Gaussian
    model's NLL). Fixed settings are module constants here, in `policy_opt`
    and in `buffers`.
    """

    total_steps: int = 50_000
    pretrain_steps: int = 2_000
    rollout_horizon: int = 3
    batch_size: int = 256
    disc_lr: float = 3e-4
    model_hidden: tuple = (128, 128)
    n_model_samples: int = 8
    disc_hidden: tuple = (100, 100)
    sac_hidden: tuple = (64, 64)
    ratio_start: float = 0.05
    ratio_end: float = 0.5
    ratio_ramp_frac: float = 0.5
    mix_prob: float = 0.1  # chance that meairl acts from a model-predicted state
    use_synthetic: bool = True
    eval_period: int = 1_000
    eval_episodes: int = 10
    algorithm: str = "meairl"
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not 0 <= self.pretrain_steps <= self.total_steps:
            raise ValueError(f"need 0 <= pretrain_steps <= total_steps, got "
                             f"{self.pretrain_steps} vs {self.total_steps}")
        for name in ("rollout_horizon", "batch_size", "n_model_samples", "eval_period",
                     "eval_episodes"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("model_hidden", "disc_hidden", "sac_hidden"):
            value = getattr(self, name)
            if any(width < 1 for width in value):
                raise ValueError(f"every width in {name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.disc_lr < float("inf"):
            raise ValueError(f"disc_lr must be finite and > 0, got {self.disc_lr}")
        for name in ("ratio_start", "ratio_end", "ratio_ramp_frac", "mix_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def ratio_schedule(self) -> RatioSchedule:
        return RatioSchedule(self.ratio_start, self.ratio_end,
                             int(round(self.ratio_ramp_frac * self.total_steps)))


def mix_state(real_state, model, mix_prob: float, prev_transition, rng):
    """The state the policy acts at: sometimes a model-predicted stand-in.

    With probability mix_prob, when a previous transition exists, it is
    s_hat drawn from the model's prediction for that (state, action);
    otherwise the real state. The stored transition still records the
    real state; this only shifts where the policy is evaluated, which
    counters train/deploy distribution mismatch. The coin is drawn first
    either way, then s_hat's draw, from `rng`.

    This is the continuous run's rule, and the reference for the stacked
    tabular rule in `_TabularRuns.act`, which draws the same values per run.
    """
    coin = rng.random()
    if prev_transition is not None and coin < mix_prob:
        return model.sample_next(*prev_transition, rng)
    return real_state


def run_meairl(env, expert: ExpertBuffer, config: TrainingConfig, seeds=None):
    """Train one run per seed; return the evaluation record(s).

    Without `seeds` this trains `config.seed` and returns its record.
    With `seeds` it returns one record per seed, every other setting taken
    from `config`. Tabular runs of all seeds step together through one
    loop with a leading run axis on every table, buffer and batch. Each
    run draws from its own streams, in the order it would alone, so its
    record does not depend on what it trained beside. Continuous runs go
    one after another.
    """
    runs = [config.seed] if seeds is None else list(seeds)
    if not runs:
        raise ValueError("seeds must name at least one seed")
    if isinstance(env, TabularEnv):
        records = _TabularRuns(env, expert, config, runs).run()
    elif isinstance(env, ContinuousEnv):
        records = [_ContinuousRun(env, expert, config, seed).run()[0] for seed in runs]
    else:
        raise TypeError(f"unsupported env type {type(env).__name__}")
    return records[0] if seeds is None else records


STREAMS = ("interact", "disc", "rollout", "policy", "mix", "eval", "init")


class _Run:
    """The step loop and everything in it that both cases share.

    It trains the runs of `seeds` in lockstep: a tabular subclass stacks
    them on a leading run axis, a continuous one holds a single run.
    `streams` maps each of STREAMS to the runs' generators (RunStreams
    when stacked). A subclass sets `horizon`, `actor` (what acts and rolls
    out), `pi` (what the discriminator scores against), `model`, `disc`,
    `disc_adam` and `batch_axis` (the batch axis of a sampled column), and
    defines `reset`, `act`, `step` (returning the successor only), the
    model, policy and BC steps, `evaluate` and `model_columns`; the last
    two give one entry per run.
    """

    def __init__(self, env, expert, config, seeds, streams, **buffer_kwargs):
        self.env = env
        self.expert = expert
        self.config = config
        self.seeds = seeds
        self.streams = streams
        self.model_based = config.algorithm == "meairl"
        self.shaping = "model" if self.model_based else "sample"
        self.synthetic = self.model_based and config.use_synthetic
        self.ratio = config.ratio_schedule()
        # Each buffer's storage holds the most rows it ever keeps: a run of
        # fewer than ENV_BUFFER_CAPACITY steps keeps every transition, and
        # the synthetic buffer at most GEN_BUFFER_MAX rows, or less in a
        # shorter run. Samples read rows by their age, so the storage size
        # changes no draw. Storage a run never fills still costs memory: once
        # a freed buffer raises malloc's mmap threshold, the next run's
        # buffer comes zeroed from the heap, all of it resident.
        self.d_env = ReplayBuffer(min(ENV_BUFFER_CAPACITY, max(config.total_steps, 1)),
                                  **buffer_kwargs)
        self.d_gen = ReplayBuffer(GEN_BUFFER_INIT,
                                  phys_capacity=self.ratio.capacity(config.total_steps),
                                  **buffer_kwargs)
        self.model = self.disc = None

    def run(self) -> list:
        """One record per run."""
        config = self.config
        disc_loss = np.full(len(self.seeds), np.nan)
        records = [TrainingRecord() for _ in self.seeds]
        # behavior cloning learns from the demos alone and evaluates on its
        # own stream, so it skips the environment steps that nothing reads
        interacts = self.disc is not None
        state = self.reset() if interacts else None
        ep_t = 0
        prev = None
        for t in range(1, config.total_steps + 1):
            if interacts:
                action = self.act(t, state, prev)
                s_next = self.step(state, action)
                self.d_env.add(state, action, s_next)
                if self.model is not None:
                    self.model_step(t, state, action, s_next)
                prev = (state, action)
                ep_t += 1
                if ep_t >= self.horizon:
                    state = self.reset()
                    ep_t, prev = 0, None
                else:
                    state = s_next
            if t > config.pretrain_steps:
                if self.disc is not None:
                    disc_loss = self.disc_step(t)
                    if self.synthetic:
                        self.rollout(t)
                    self.policy_step(t, *self.mixed_batch(t))
                else:
                    self.bc_step()
            if t % config.eval_period == 0:
                fraction = self.synthetic_fraction(t)
                for record, loss, (mean, std), (model_nll, eps_t) in zip(
                        records, np.reshape(disc_loss, -1).tolist(), self.evaluate(),
                        self.model_columns()):
                    record.rows.append(EvalRow(t, mean, std, loss, model_nll, eps_t,
                                               fraction))
        return records

    def check_finite(self, t, **columns) -> None:
        """Raise TrainingDivergedError for the first run whose values (one
        per run, or one row per run) are not all finite."""
        if all(np.isfinite(values).all() for values in columns.values()):
            return
        runs = len(self.seeds)
        rows = {name: np.reshape(values, (runs, -1)) for name, values in columns.items()}
        k = min(k for k in range(runs) for v in rows.values() if not np.isfinite(v[k]).all())
        raise TrainingDivergedError(t, {"seed": self.seeds[k], **{
            name: float(v[k, 0]) if v.shape[1] == 1 else "non-finite"
            for name, v in rows.items()}})

    def disc_step(self, t):
        """The discriminator's loss: one per run, or a float."""
        rng = self.streams["disc"]
        e_batch = self.expert.sample(self.config.batch_size, rng)
        p_batch = self.d_env.sample(self.config.batch_size, rng)
        loss, grads = discriminator_loss_and_grads(self.disc, e_batch, p_batch, self.pi,
                                                   rng=rng)
        self.check_finite(t, disc_loss=loss)
        self.disc.params = adam_step(self.disc_adam, self.disc.params, grads)
        return loss

    def rollout(self, t) -> None:
        rng = self.streams["rollout"]
        self.d_gen.set_capacity(self.ratio.capacity(t))
        starts = self.d_env.sample_states(ROLLOUT_STARTS, rng)
        columns = rollout_synthetic(self.model, self.actor, starts,
                                    self.config.rollout_horizon, rng)
        # batch axis first: the buffer's rows are transitions (one per run)
        self.d_gen.add_batch(*(c.swapaxes(0, self.batch_axis) for c in columns))

    def synthetic_fraction(self, t) -> float:
        """Synthetic share of the policy batches at step t."""
        if self.synthetic and t > self.config.pretrain_steps:
            return self.ratio.fraction(t)
        return 0.0

    def n_synthetic(self, t, n_gen) -> int:
        """Synthetic rows of step t's policy batch, with n_gen rows stored."""
        return int(round(self.synthetic_fraction(t) * self.config.batch_size)) if n_gen else 0

    def mixed_batch(self, t):
        """A policy batch: real transitions, then synthetic ones once there are any."""
        rng = self.streams["policy"]
        n_syn = self.n_synthetic(t, len(self.d_gen))
        real = self.d_env.sample(self.config.batch_size - n_syn, rng)
        if n_syn == 0:
            return real
        return tuple(np.concatenate(pair, axis=self.batch_axis)
                     for pair in zip(real, self.d_gen.sample(n_syn, rng)))


def _bc_policy_tabular(expert: ExpertBuffer, n_states: int, n_actions: int) -> np.ndarray:
    """The expert's empirical action distribution per state, uniform where unseen."""
    counts = np.zeros((n_states, n_actions))
    np.add.at(counts, (expert.states, expert.actions), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    return np.where(totals > 0.0, counts / np.maximum(totals, 1.0), 1.0 / n_actions)


def evaluate_tabular_policy(env: TabularEnv, policy: TabularPolicy, episodes: int, rng):
    """Mean and std of the discounted episode return under the true reward.

    Actions are sampled from the policy, the same protocol the demonstration
    returns are measured under, so learner and expert numbers are comparable.
    With RunStreams and an (R, S, A) policy, both are lists, one entry per run.
    """
    mdp = env.mdp
    states, actions = sample_episodes(mdp, policy, env.episode_horizon, episodes, rng)
    rewards = mdp.reward[states[..., :-1], actions]
    returns, scale = 0.0, 1.0
    for t in range(env.episode_horizon):  # summed in step order, as a rollout adds them
        returns = returns + scale * rewards[..., t]
        scale *= mdp.discount
    return returns.mean(axis=-1).tolist(), returns.std(axis=-1).tolist()


class _TabularRuns(_Run):
    """R tabular runs stacked: Q tables (R, S, A), discriminator tables
    (R, S), one count model (R, S, A, S), buffer rows of R transitions, one
    stacked policy, and (R,) environment states. Each numpy call serves
    all runs; each draw comes from the drawing run's own stream."""

    batch_axis = -1

    def __init__(self, env: TabularEnv, expert: ExpertBuffer, config: TrainingConfig, seeds):
        n_runs = len(seeds)
        super().__init__(env, expert, config, seeds, run_streams(seeds, STREAMS),
                         state_shape=(n_runs,), action_shape=(n_runs,))
        mdp = env.mdp
        self.horizon = env.episode_horizon
        n_states, n_actions = mdp.n_states, mdp.n_actions
        # Batches index the stacked tables raveled, where an index past one
        # run's block reads the next run's; refuse such demos up front.
        for column, bound in ((expert.states, n_states), (expert.actions, n_actions),
                              (expert.next_states, n_states)):
            if column.min() < 0 or column.max() >= bound:
                raise ValueError(f"expert demonstrations leave the environment: an index "
                                 f"outside [0, {bound}) for {n_states} states and "
                                 f"{n_actions} actions")
        self.run_index = np.arange(n_runs)[:, None]  # row k of an (R, n) batch is run k's
        self.init_cum = np.cumsum(mdp.init_dist)
        self.refill = 16 * DRAW_BLOCK  # uniforms per refill of a run's block
        if self.model_based:
            self.model = TabularDynamicsEstimate(n_states, n_actions, alpha=MODEL_ALPHA,
                                                 runs=n_runs)
        if config.algorithm != "bc_none":
            kernel = self.model.kernel if self.model is not None else None
            self.disc = Discriminator.tabular(n_states, mdp.discount, kernel, self.shaping,
                                              runs=n_runs)
            self.disc_adam = AdamState.for_params(self.disc.params, lr=config.disc_lr)
            self.policy = TabularPolicy(np.full((n_runs, n_states, n_actions), 1.0 / n_actions))
            self.q_pol = np.zeros((n_runs, n_states, n_actions))
            self.v_pol = logsumexp(self.q_pol, axis=-1)  # soft V of q_pol, kept current
        else:
            probs = _bc_policy_tabular(expert, n_states, n_actions)
            self.policy = TabularPolicy(np.broadcast_to(probs, (n_runs, *probs.shape)))

    @property
    def actor(self):
        return self.policy

    pi = actor

    def reset(self):
        return _inverse_cdf(self.init_cum, self.streams["interact"].uniform(self.refill))

    def act(self, t, state, prev):
        if self.model_based and t > self.config.pretrain_steps:
            # `mix_state` on the run axis: every run's coin, then one uniform
            # from each run that mixes, then every run's action uniform, in
            # the order each run alone draws them
            rng = self.streams["mix"]
            mixing = (rng.uniform(self.refill) < self.config.mix_prob).nonzero()[0]
            if prev is not None and mixing.size:
                state = state.copy()
                state[mixing] = self.model.successors(mixing, prev[0][mixing], prev[1][mixing],
                                                      rng.uniform(self.refill, mixing))
        else:
            rng = self.streams["interact"]
        return self.policy.sample_batch(state[:, None], rng.uniform(self.refill)[:, None])[:, 0]

    def step(self, state, action):
        return self.env.mdp.sample_next_batch(state, action,
                                              self.streams["interact"].uniform(self.refill))

    def disc_step(self, t):
        if (t - self.config.pretrain_steps - 1) % DRAW_BLOCK == 0:
            self.prefetch_block(t)
        return super().disc_step(t)

    def prefetch_block(self, t) -> None:
        """Prefetch the `disc`, `policy` and `rollout` draws of trained
        steps t to t + DRAW_BLOCK - 1 (or the last step). A step samples
        the real buffer at one more row than the step before, up to its
        capacity, and the synthetic buffer at the rows that `rollout`'s
        set_capacity and add_batch leave; a rollout draws its start states,
        then the uniforms of `rollout_synthetic`. A wrong count or shape
        here raises at the draw."""
        batch = self.config.batch_size
        horizon = self.config.rollout_horizon
        n_expert = len(self.expert.states)
        n_gen = len(self.d_gen)
        disc, policy, rollout = [], [], []
        for step in range(t, min(t + DRAW_BLOCK, self.config.total_steps + 1)):
            n_env = min(len(self.d_env) + step - t, self.d_env.capacity)
            if self.synthetic:
                n_gen = min(n_gen + horizon * ROLLOUT_STARTS, self.ratio.capacity(step))
                rollout += [(n_env, ROLLOUT_STARTS), (None, (horizon, 2, ROLLOUT_STARTS))]
            n_syn = self.n_synthetic(step, n_gen)
            disc += [(n_expert, batch), (n_env, batch)]
            policy += [(n_env, batch - n_syn)] + ([(n_gen, n_syn)] if n_syn else [])
        self.streams["disc"].prefetch(disc)
        self.streams["policy"].prefetch(policy)
        if rollout:
            self.streams["rollout"].prefetch(rollout)

    def model_step(self, t, state, action, s_next) -> None:
        self.model.add(state, action, s_next)

    def policy_step(self, t, bs, ba, bn) -> None:
        f = self.disc.f_values(bs, ba, bn)
        rewards = np.minimum(np.maximum(f, -REWARD_CLAMP), REWARD_CLAMP)  # np.clip's bits
        self.check_finite(t, reward_targets=rewards)
        # One soft TD backup per sampled transition, the tabular counterpart
        # of a single actor-critic step. Duplicate (s,a) rows fold into one
        # convex step per pair; a plain scatter-add would multiply the step
        # size by the duplicate count (batches pile onto absorbing states)
        # and diverge. Pair ids are offset per run, so bincount keeps each
        # run's pairs, in batch order, apart from the other runs'.
        q_pol = self.q_pol
        n_states, n_actions = q_pol.shape[1:]
        v_next = self.v_pol.reshape(-1)[self.run_index * n_states + bn]
        td = rewards + self.env.mdp.discount * v_next
        pair = ((self.run_index * n_states + bs) * n_actions + ba).ravel()
        counts = np.bincount(pair, minlength=q_pol.size)
        hit = counts > 0
        sums = np.bincount(pair, weights=td.ravel(), minlength=q_pol.size)
        decay = (1.0 - POLICY_TD_RATE) ** counts[hit]
        flat = q_pol.ravel()
        flat[hit] = decay * flat[hit] + (1.0 - decay) * (sums[hit] / counts[hit])
        self.v_pol = logsumexp(q_pol, axis=-1)
        # a softmax of finite values: its rows need no check
        self.policy._refresh(np.exp(q_pol - self.v_pol[..., None]))

    def bc_step(self) -> None:
        pass

    def evaluate(self):
        return list(zip(*evaluate_tabular_policy(self.env, self.policy,
                                                 self.config.eval_episodes,
                                                 self.streams["eval"])))

    def model_columns(self):
        """Per run: (model_nll on the newest 256 transitions, worst-row TV error)."""
        if self.model is None:
            return [(float("nan"), float("nan"))] * len(self.seeds)
        es, ea, en = self.d_env.newest(256)
        return [(nll, tv_distance(self.env.mdp.kernel, kernel)[0])
                for nll, kernel in zip(self.model.nll(es.T, ea.T, en.T), self.model.kernel)]


def evaluate_continuous_policy(env: ContinuousEnv, act_fn, episodes: int, rng):
    """Mean and std of the undiscounted episode return under the true reward."""
    returns = np.empty(episodes)
    for e in range(episodes):
        s = env.reset(rng)
        total = 0.0
        for _ in range(env.horizon):
            a = act_fn(s, rng)
            s, r = env.step(s, a, rng)
            total += r
        returns[e] = total
    return float(returns.mean()), float(returns.std())


class _ContinuousRun(_Run):
    batch_axis = 0

    def __init__(self, env: ContinuousEnv, expert: ExpertBuffer, config: TrainingConfig, seed):
        d, k = env.state_dim, env.action_dim
        super().__init__(env, expert, config, [seed], spawn_streams(seed, STREAMS),
                         state_shape=(d,), action_shape=(k,), dtype=np.float64)
        self.horizon = env.horizon
        init = self.streams["init"]
        if self.model_based:
            self.model = GaussianDynamicsModel(d, k, hidden=config.model_hidden,
                                               state_low=env.state_low,
                                               state_high=env.state_high, rng=init)
            self.model_adam = AdamState.for_params(self.model.params, lr=MODEL_LR)
        self.agent = SacAgent(d, k, env.action_low, env.action_high, env.discount,
                              hidden=config.sac_hidden, rng=init)
        self.pi, self.actor = self.agent, self.agent.act
        self.bc_net = None
        self.last_model_nll = float("nan")
        if config.algorithm != "bc_none":
            self.disc = Discriminator.continuous(d, k, env.discount, dynamics=self.model,
                                                 shaping=self.shaping,
                                                 hidden=config.disc_hidden,
                                                 n_model_samples=config.n_model_samples,
                                                 rng=init)
            self.disc_adam = AdamState.for_params(self.disc.params, lr=config.disc_lr)
        else:
            self.bc_net = Mlp([d, *config.sac_hidden, k], output="tanh", rng=init)
            self.bc_adam = AdamState.for_params(self.bc_net.params, lr=SAC_LR)
            self.actor = self._bc_act

    def reset(self):
        return self.env.reset(self.streams["interact"])

    def act(self, t, state, prev):
        if self.model_based and t > self.config.pretrain_steps:
            rng = self.streams["mix"]
            state = mix_state(state, self.model, self.config.mix_prob, prev, rng)
        else:
            rng = self.streams["interact"]
        return self.actor(state, rng)

    def step(self, state, action):
        return self.env.step(state, action, self.streams["interact"])[0]

    def _bc_act(self, states, rng=None):
        out = self.bc_net.forward(np.atleast_2d(states))
        a = self.agent.center + self.agent.scale * out
        return a[0] if np.asarray(states).ndim == 1 else a

    def model_step(self, t, *transition) -> None:
        ms, ma, mn = self.d_env.sample(self.config.batch_size, self.streams["disc"])
        nll, grads = self.model.loss_and_grads(ms, ma, mn)
        self.check_finite(t, model_nll=nll)
        self.model.params = adam_step(self.model_adam, self.model.params, grads,
                                      clip_norm=MODEL_CLIP_NORM)
        self.last_model_nll = nll

    def policy_step(self, t, bs, ba, bn) -> None:
        rng = self.streams["policy"]
        rewards = extract_reward(self.disc, bs, ba,
                                 log_policy_prob=self.agent.log_prob(bs, ba),
                                 next_states=bn, rng=rng)
        diag = self.agent.update((bs, ba, rewards, bn), rng)
        self.check_finite(t, critic_loss=diag.critic_loss, actor_loss=diag.actor_loss)

    def bc_step(self) -> None:
        es, ea, _ = self.expert.sample(self.config.batch_size, self.streams["policy"])
        target_t = np.clip((ea - self.agent.center) / self.agent.scale, -1.0, 1.0)
        out, tape = self.bc_net.forward(es, tape=True)
        diff = out - target_t
        grads, _ = self.bc_net.backward(tape, 2.0 * diff / diff.shape[0])
        self.bc_net.params[...] = adam_step(self.bc_adam, self.bc_net.params, grads)

    def evaluate(self):
        act = self._bc_act if self.bc_net is not None else partial(self.agent.act,
                                                                    deterministic=True)
        return [evaluate_continuous_policy(self.env, act, self.config.eval_episodes,
                                           self.streams["eval"])]

    def model_columns(self):
        """(the last model step's NLL, NaN: there is no true kernel to compare)."""
        return [(self.last_model_nll, float("nan"))]


def generate_expert(env, seed: int, n_episodes: int, out_path,
                    return_threshold: float = None, max_steps: int = 100_000,
                    config: TrainingConfig = None):
    """Write a demonstration file for the environment's true reward.

    Tabular: the exact soft-optimal policy, rolled out n_episodes times.
    Continuous: a SAC agent trained on the true reward until its
    mean-action evaluation return reaches return_threshold (raises
    ExpertTrainingError if the step budget runs out first).
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    if isinstance(env, TabularEnv):
        rng = as_generator(seed)
        mdp = env.mdp
        [values] = soft_value_iteration([(mdp.kernel, mdp.reward, mdp.discount)])
        policy = soft_optimal_policy(values)
        states, actions = sample_episodes(mdp, policy, env.episode_horizon, n_episodes, rng)
        save_tabular_demos(out_path, states, actions, env.name, seed, mdp.n_states,
                           mdp.n_actions)
        return out_path
    if not isinstance(env, ContinuousEnv):
        raise TypeError(f"unsupported env type {type(env).__name__}")
    if return_threshold is None:
        raise ValueError("continuous expert generation needs return_threshold")
    config = config or TrainingConfig()
    streams = spawn_streams(seed, ("interact", "update", "eval", "init", "demo"))
    agent = SacAgent(env.state_dim, env.action_dim, env.action_low, env.action_high,
                     env.discount, hidden=config.sac_hidden, rng=streams["init"])
    buf = ReplayBuffer(ENV_BUFFER_CAPACITY, state_shape=(env.state_dim,),
                       action_shape=(env.action_dim,), dtype=np.float64, with_reward=True)
    state = env.reset(streams["interact"])
    ep_t = 0
    warmup = min(1_000, max_steps // 10)
    best = float("-inf")
    reached = False
    for t in range(1, max_steps + 1):
        if t <= warmup:
            action = streams["interact"].uniform(env.action_low, env.action_high)
        else:
            action = agent.act(state, streams["interact"])
        s_next, reward = env.step(state, action, streams["interact"])
        buf.add(state, action, s_next, reward)
        ep_t += 1
        if ep_t >= env.horizon:
            state = env.reset(streams["interact"])
            ep_t = 0
        else:
            state = s_next
        if t > warmup:
            bs, ba, bn, br = buf.sample(config.batch_size, streams["update"])
            agent.update((bs, ba, br, bn), streams["update"])
        if t % config.eval_period == 0 and t > warmup:
            mean, _ = evaluate_continuous_policy(
                env, lambda s, r: agent.act(s, r, deterministic=True),
                config.eval_episodes, streams["eval"])
            best = max(best, mean)
            if mean >= return_threshold:
                reached = True
                break
    if not reached:
        raise ExpertTrainingError(
            f"expert SAC reached {best:.3f} < threshold {return_threshold:.3f} "
            f"within {max_steps} steps")
    episodes = []
    for _ in range(n_episodes):
        s = env.reset(streams["demo"])
        states = [s.copy()]
        actions = []
        for _ in range(env.horizon):
            a = agent.act(s, streams["demo"])
            s, _ = env.step(s, a, streams["demo"])
            states.append(s.copy())
            actions.append(np.asarray(a).copy())
        episodes.append((np.array(states), np.array(actions)))
    save_continuous_demos(out_path, episodes, env.name, seed,
                          env.state_dim, env.action_dim)
    return out_path

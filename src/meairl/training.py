"""The interactive reward-learning loop and expert-demonstration generation.

`run_meairl` runs one loop for tabular and continuous environments. Each
step acts (past pretraining, meairl acts through `mix_action`, with
probability `mix_prob` from a model-predicted stand-in of the current
state), takes the environment step, stores the real transition and takes
a model step. Past pretraining the adversarial variants then take
a discriminator step, push a short model rollout into a second buffer and
take a policy step on a batch whose synthetic share follows a ramped
schedule; behavior cloning takes a BC step instead. Evaluation rows
follow on their period.
Variants:

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

Four parts differ between the cases, one method each of `_TabularRun` and
`_ContinuousRun`. Model step: count the transition, or an Adam step on the
Gaussian model's NLL. Policy step: a soft TD backup of a Q table toward
f + gamma * soft V(s') at the pairs in the batch (the entropy bonus enters
through the soft backup, so f itself is the right target, not f - log pi),
or a SAC update on f - log pi. BC step: none, the tabular BC policy is
fixed by the expert's action counts, or a regression step of a tanh net.
Model columns of an evaluation row: the count model's NLL and worst-row TV
error, or the last Gaussian NLL. Everything is driven by named child
generators of one seed, so records are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .adversarial import (REWARD_CLAMP, Discriminator, ExpertBuffer,
                          discriminator_loss_and_grads, extract_reward)
from .buffers import GEN_BUFFER_INIT, GEN_BUFFER_MAX, RatioSchedule, ReplayBuffer
from .dynamics import (GaussianDynamicsModel, TabularDynamicsEstimate,
                       rollout_synthetic, tv_distance)
from .mdp import (ContinuousEnv, TabularEnv, TabularPolicy,
                  sample_trajectory, save_continuous_demos, save_tabular_demos)
from .neural import AdamState, Mlp, adam_step
from .policy_opt import SAC_LR, SacAgent
from .seeding import as_generator, spawn_streams
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
    discount: float = 0.99  # continuous loop only; tabular uses the MDP's own
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
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must lie in (0, 1), got {self.discount}")
        if not 0.0 < self.disc_lr < float("inf"):
            raise ValueError(f"disc_lr must be finite and > 0, got {self.disc_lr}")
        for name in ("ratio_start", "ratio_end", "ratio_ramp_frac", "mix_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def ratio_schedule(self) -> RatioSchedule:
        return RatioSchedule(self.ratio_start, self.ratio_end,
                             int(round(self.ratio_ramp_frac * self.total_steps)))


def _act(agent, state, rng):
    if isinstance(agent, TabularPolicy):
        return agent.sample(state, rng)
    return agent(state, rng)


def mix_action(real_state, agent, model, mix_prob: float, prev_transition, rng):
    """Pick the action from a model-predicted stand-in of the current state.

    With probability mix_prob (and when a previous transition and a model
    exist), the agent (a TabularPolicy or a callable act(state, rng)) is
    queried at s_hat sampled from the model's prediction for the previous
    (state, action) instead of at the real state. Returns (action,
    used_model_state). The stored transition must still record the real
    state; this only shifts where the policy is evaluated, which counters
    train/deploy distribution mismatch.
    """
    rng = as_generator(rng)
    coin = rng.random()
    if model is not None and prev_transition is not None and coin < mix_prob:
        prev_s, prev_a = prev_transition
        state = model.sample_next(prev_s, prev_a, rng)
        return _act(agent, state, rng), True
    return _act(agent, real_state, rng), False


def run_meairl(env, expert: ExpertBuffer, config: TrainingConfig) -> TrainingRecord:
    """Run the full loop; returns the evaluation record."""
    if isinstance(env, TabularEnv):
        return _TabularRun(env, expert, config).run()
    if isinstance(env, ContinuousEnv):
        return _ContinuousRun(env, expert, config).run()
    raise TypeError(f"unsupported env type {type(env).__name__}")


STREAMS = ("interact", "disc", "rollout", "policy", "mix", "eval", "init")


class _Run:
    """The step loop and everything in it that both cases share.

    A subclass sets `reset`, `step` (returning the successor only),
    `horizon`, `actor` (what acts and rolls out), `pi` (what the
    discriminator scores against), `model`, `disc` and `disc_adam`, and
    defines the four differing parts plus `evaluate` and `model_columns`.
    """

    def __init__(self, env, expert, config, **buffer_kwargs):
        self.env = env
        self.expert = expert
        self.config = config
        self.model_based = config.algorithm == "meairl"
        self.shaping = "model" if self.model_based else "sample"
        self.synthetic = self.model_based and config.use_synthetic
        self.streams = spawn_streams(config.seed, STREAMS)
        self.ratio = config.ratio_schedule()
        self.d_env = ReplayBuffer(ENV_BUFFER_CAPACITY, **buffer_kwargs)
        self.d_gen = ReplayBuffer(GEN_BUFFER_INIT, phys_capacity=GEN_BUFFER_MAX,
                                  **buffer_kwargs)
        self.model = self.disc = None

    def run(self) -> TrainingRecord:
        config, streams = self.config, self.streams
        last_disc_loss = float("nan")
        record = TrainingRecord()
        state = self.reset(streams["interact"])
        ep_t = 0
        prev = None
        for t in range(1, config.total_steps + 1):
            if self.model_based and t > config.pretrain_steps:
                action, _ = mix_action(state, self.actor, self.model, config.mix_prob,
                                       prev, streams["mix"])
            else:
                action = _act(self.actor, state, streams["interact"])
            s_next = self.step(state, action, streams["interact"])
            self.d_env.add(state, action, s_next)
            if self.model is not None:
                self.model_step(t, state, action, s_next)
            prev = (state, action)
            ep_t += 1
            if ep_t >= self.horizon:
                state = self.reset(streams["interact"])
                ep_t, prev = 0, None
            else:
                state = s_next
            if t > config.pretrain_steps:
                if self.disc is not None:
                    last_disc_loss = self.disc_step(t)
                    if self.synthetic:
                        self.rollout(t)
                    self.policy_step(t, *self.mixed_batch(t, streams["policy"]))
                else:
                    self.bc_step()
            if t % config.eval_period == 0:
                mean, std = self.evaluate(streams["eval"])
                model_nll, eps_t = self.model_columns()
                record.rows.append(EvalRow(t, mean, std, last_disc_loss, model_nll,
                                           eps_t, self.synthetic_fraction(t)))
        return record

    def disc_step(self, t) -> float:
        rng = self.streams["disc"]
        e_batch = self.expert.sample(self.config.batch_size, rng)
        p_batch = self.d_env.sample(self.config.batch_size, rng)
        loss, grads = discriminator_loss_and_grads(self.disc, e_batch, p_batch, self.pi,
                                                   rng=rng)
        if not np.isfinite(loss):
            raise TrainingDivergedError(t, {"disc_loss": loss})
        self.disc.params = adam_step(self.disc_adam, self.disc.params, grads)
        return loss

    def rollout(self, t) -> None:
        rng = self.streams["rollout"]
        self.d_gen.set_capacity(self.ratio.capacity(t))
        starts, _, _ = self.d_env.sample(ROLLOUT_STARTS, rng)
        self.d_gen.add_batch(*rollout_synthetic(self.model, self.actor, starts,
                                                self.config.rollout_horizon, rng))

    def synthetic_fraction(self, t) -> float:
        """Synthetic share of the policy batches at step t."""
        if self.synthetic and t > self.config.pretrain_steps:
            return self.ratio.fraction(t)
        return 0.0

    def mixed_batch(self, t, rng):
        """A policy batch: real transitions, then synthetic ones once there are any."""
        batch_size = self.config.batch_size
        n_syn = int(round(self.synthetic_fraction(t) * batch_size)) if len(self.d_gen) else 0
        real = self.d_env.sample(batch_size - n_syn, rng)
        if n_syn == 0:
            return real
        return tuple(np.concatenate(pair) for pair in zip(real, self.d_gen.sample(n_syn, rng)))


def _bc_policy_tabular(expert: ExpertBuffer, n_states: int, n_actions: int) -> TabularPolicy:
    counts = np.zeros((n_states, n_actions))
    np.add.at(counts, (expert.states, expert.actions), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.where(totals > 0.0, counts / np.maximum(totals, 1.0), 1.0 / n_actions)
    return TabularPolicy(probs)


def evaluate_tabular_policy(env: TabularEnv, policy: TabularPolicy, episodes: int, rng):
    """Mean and std of the discounted episode return under the true reward.

    Actions are sampled from the policy, the same protocol the demonstration
    returns are measured under, so learner and expert numbers are comparable.
    """
    mdp = env.mdp
    returns = np.empty(episodes)
    for e in range(episodes):
        s = mdp.sample_init(rng)
        total, scale = 0.0, 1.0
        for _ in range(env.episode_horizon):
            a = policy.sample(s, rng)
            total += scale * mdp.reward[s, a]
            scale *= mdp.discount
            s = mdp.sample_next(s, a, rng)
        returns[e] = total
    return float(returns.mean()), float(returns.std())


class _TabularRun(_Run):
    def __init__(self, env: TabularEnv, expert: ExpertBuffer, config: TrainingConfig):
        super().__init__(env, expert, config)
        mdp = env.mdp
        self.reset, self.step = mdp.sample_init, mdp.sample_next
        self.horizon = env.episode_horizon
        n_states, n_actions = mdp.n_states, mdp.n_actions
        if self.model_based:
            self.model = TabularDynamicsEstimate(n_states, n_actions, alpha=MODEL_ALPHA)
        if config.algorithm != "bc_none":
            kernel = self.model.kernel if self.model is not None else None
            self.disc = Discriminator.tabular(n_states, mdp.discount, kernel, self.shaping)
            self.disc_adam = AdamState.for_params(self.disc.params, lr=config.disc_lr)
            self.policy = TabularPolicy.uniform(n_states, n_actions)
            self.q_pol = np.zeros((n_states, n_actions))
        else:
            self.policy = _bc_policy_tabular(expert, n_states, n_actions)

    @property
    def actor(self):
        return self.policy

    pi = actor

    def model_step(self, t, state, action, s_next) -> None:
        self.model.add(state, action, s_next)

    def policy_step(self, t, bs, ba, bn) -> None:
        rewards = np.clip(self.disc.f_values(bs, ba, bn), -REWARD_CLAMP, REWARD_CLAMP)
        if not np.all(np.isfinite(rewards)):
            raise TrainingDivergedError(t, {"reward_targets": "non-finite"})
        # One soft TD backup per sampled transition, the tabular counterpart
        # of a single actor-critic step. Duplicate (s,a) rows fold into one
        # convex step per pair; a plain scatter-add would multiply the step
        # size by the duplicate count (batches pile onto absorbing states)
        # and diverge.
        q_pol = self.q_pol
        td = rewards + self.env.mdp.discount * logsumexp(q_pol, axis=1)[bn]
        pair = bs * q_pol.shape[1] + ba
        counts = np.bincount(pair, minlength=q_pol.size)
        hit = counts > 0
        sums = np.bincount(pair, weights=td, minlength=q_pol.size)
        decay = (1.0 - POLICY_TD_RATE) ** counts[hit]
        flat = q_pol.ravel()
        flat[hit] = decay * flat[hit] + (1.0 - decay) * (sums[hit] / counts[hit])
        self.policy = TabularPolicy(np.exp(q_pol - logsumexp(q_pol, axis=1)[:, None]))

    def bc_step(self) -> None:
        pass

    def evaluate(self, rng):
        return evaluate_tabular_policy(self.env, self.policy, self.config.eval_episodes, rng)

    def model_columns(self):
        """(model_nll on the newest 256 transitions, worst-row TV error)."""
        if self.model is None:
            return float("nan"), float("nan")
        es, ea, en = self.d_env.newest(256)
        return (self.model.nll(es, ea, en),
                tv_distance(self.env.mdp.kernel, self.model.kernel)[0])


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
    def __init__(self, env: ContinuousEnv, expert: ExpertBuffer, config: TrainingConfig):
        d, k = env.state_dim, env.action_dim
        super().__init__(env, expert, config, state_shape=(d,), action_shape=(k,),
                         dtype=np.float64)
        self.reset, self.horizon = env.reset, env.horizon
        init = self.streams["init"]
        if self.model_based:
            self.model = GaussianDynamicsModel(d, k, hidden=config.model_hidden,
                                               state_low=env.state_low,
                                               state_high=env.state_high, rng=init)
            self.model_adam = AdamState.for_params(self.model.params, lr=MODEL_LR)
        self.agent = SacAgent(d, k, env.action_low, env.action_high, config.discount,
                              hidden=config.sac_hidden, rng=init)
        self.pi, self.actor = self.agent, self.agent.act
        self.bc_net = None
        self.last_model_nll = float("nan")
        if config.algorithm != "bc_none":
            self.disc = Discriminator.continuous(d, k, config.discount, dynamics=self.model,
                                                 shaping=self.shaping,
                                                 hidden=config.disc_hidden,
                                                 n_model_samples=config.n_model_samples,
                                                 rng=init)
            self.disc_adam = AdamState.for_params(self.disc.params, lr=config.disc_lr)
        else:
            self.bc_net = Mlp([d, *config.sac_hidden, k], output="tanh", rng=init)
            self.bc_adam = AdamState.for_params(self.bc_net.params, lr=SAC_LR)
            self.actor = self._bc_act

    def step(self, state, action, rng):
        return self.env.step(state, action, rng)[0]

    def _bc_act(self, states, rng=None):
        out = self.bc_net.forward(np.atleast_2d(states))
        a = self.agent.center + self.agent.scale * out
        return a[0] if np.asarray(states).ndim == 1 else a

    def model_step(self, t, *transition) -> None:
        ms, ma, mn = self.d_env.sample(self.config.batch_size, self.streams["disc"])
        nll, grads = self.model.loss_and_grads(ms, ma, mn)
        if not np.isfinite(nll):
            raise TrainingDivergedError(t, {"model_nll": nll})
        self.model.params = adam_step(self.model_adam, self.model.params, grads,
                                      clip_norm=MODEL_CLIP_NORM)
        self.last_model_nll = nll

    def policy_step(self, t, bs, ba, bn) -> None:
        rng = self.streams["policy"]
        rewards = extract_reward(self.disc, bs, ba,
                                 log_policy_prob=self.agent.log_prob(bs, ba),
                                 next_states=bn, rng=rng)
        diag = self.agent.update((bs, ba, rewards, bn), rng)
        if not (np.isfinite(diag.critic_loss) and np.isfinite(diag.actor_loss)):
            raise TrainingDivergedError(t, {"critic_loss": diag.critic_loss,
                                            "actor_loss": diag.actor_loss})

    def bc_step(self) -> None:
        es, ea, _ = self.expert.sample(self.config.batch_size, self.streams["policy"])
        target_t = np.clip((ea - self.agent.center) / self.agent.scale, -1.0, 1.0)
        out, tape = self.bc_net.forward(es, tape=True)
        diff = out - target_t
        grads, _ = self.bc_net.backward(tape, 2.0 * diff / diff.shape[0])
        self.bc_net.params[...] = adam_step(self.bc_adam, self.bc_net.params, grads)

    def evaluate(self, rng):
        act = self._bc_act if self.bc_net is not None else partial(self.agent.act,
                                                                    deterministic=True)
        return evaluate_continuous_policy(self.env, act, self.config.eval_episodes, rng)

    def model_columns(self):
        """(the last model step's NLL, NaN: there is no true kernel to compare)."""
        return self.last_model_nll, float("nan")


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
        trajs = [sample_trajectory(mdp, policy, env.episode_horizon, rng)
                 for _ in range(n_episodes)]
        save_tabular_demos(out_path, trajs, env.name, seed, mdp.n_states, mdp.n_actions)
        return out_path
    if not isinstance(env, ContinuousEnv):
        raise TypeError(f"unsupported env type {type(env).__name__}")
    if return_threshold is None:
        raise ValueError("continuous expert generation needs return_threshold")
    config = config or TrainingConfig()
    streams = spawn_streams(seed, ("interact", "update", "eval", "init", "demo"))
    agent = SacAgent(env.state_dim, env.action_dim, env.action_low, env.action_high,
                     config.discount, hidden=config.sac_hidden, rng=streams["init"])
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

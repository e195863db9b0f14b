"""Policy optimization against extracted rewards for continuous runs.

A deliberately small soft actor-critic with one critic, a Polyak-averaged
target and a fixed entropy temperature. All gradients are hand-derived
through the tanh squash and checked against finite differences in the
tests. (Tabular runs take their soft TD policy step in the training loop.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import AdamState, Mlp, adam_step
from .seeding import as_generator

ACTOR_LOG_STD_MIN = -5.0
ACTOR_LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))
# Keeps atanh and the jacobian log finite at the squash boundary.
SQUASH_EPS = 1e-6
SAC_LR = 3e-4  # Adam step size of the actor and the critic


@dataclass
class SacDiagnostics:
    critic_loss: float
    actor_loss: float


class SacAgent:
    """Single-critic SAC with fixed entropy weight and tanh-squashed Gaussian actor.

    A batch is (states, actions, rewards, next_states); every transition
    bootstraps, as the runs end episodes at a time limit, not a terminal.
    """

    alpha_ent = 0.2  # entropy weight
    tau = 0.005  # Polyak rate of the target critic

    def __init__(self, state_dim, action_dim, action_low, action_high, discount,
                 hidden=(64, 64), rng=None):
        rng = as_generator(rng)
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        self.scale = (self.action_high - self.action_low) / 2.0
        self.center = (self.action_high + self.action_low) / 2.0
        self.discount = float(discount)
        self.actor = Mlp([self.state_dim, *hidden, 2 * self.action_dim], rng=rng)
        self.critic = Mlp([self.state_dim + self.action_dim, *hidden, 1], rng=rng)
        self.target = self.critic.copy()
        self.actor_adam = AdamState.for_params(self.actor.params, lr=SAC_LR)
        self.critic_adam = AdamState.for_params(self.critic.params, lr=SAC_LR)

    def _actor_stats(self, out):
        """Split an actor output into (mu, raw log-std, clamped log-std, std)."""
        mu = out[:, :self.action_dim]
        raw = out[:, self.action_dim:]
        log_std = np.clip(raw, ACTOR_LOG_STD_MIN, ACTOR_LOG_STD_MAX)
        return mu, raw, log_std, np.exp(log_std)

    def act(self, state, rng=None, deterministic: bool = False) -> np.ndarray:
        single = np.asarray(state).ndim == 1
        states = np.atleast_2d(np.asarray(state, dtype=np.float64))
        mu, _, _, std = self._actor_stats(self.actor.forward(states))
        u = mu if deterministic else mu + std * rng.standard_normal(mu.shape)
        a = self.center + self.scale * np.tanh(u)
        return a[0] if single else a

    def log_prob(self, states, actions) -> np.ndarray:
        """Log density of given actions under the current actor."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        mu, _, log_std, std = self._actor_stats(self.actor.forward(states))
        t = np.clip((actions - self.center) / self.scale, -1.0 + SQUASH_EPS, 1.0 - SQUASH_EPS)
        u = np.arctanh(t)
        z = (u - mu) / std
        log_gauss = np.sum(-0.5 * z ** 2 - log_std - 0.5 * LOG_2PI, axis=1)
        log_jac = np.sum(np.log(self.scale * (1.0 - t ** 2) + SQUASH_EPS), axis=1)
        return log_gauss - log_jac

    def _sample_with_log_prob(self, states, eps):
        """Reparameterized draw plus its log density, all intermediates returned,
        with the actor's tape for the actor step's backward pass."""
        out, tape = self.actor.forward(states, tape=True)
        mu, raw, log_std, std = self._actor_stats(out)
        u = mu + std * eps
        t = np.tanh(u)
        a = self.center + self.scale * t
        log_gauss = np.sum(-0.5 * eps ** 2 - log_std - 0.5 * LOG_2PI, axis=1)
        jac_arg = self.scale * (1.0 - t ** 2) + SQUASH_EPS
        log_prob = log_gauss - np.sum(np.log(jac_arg), axis=1)
        return {"mu": mu, "raw": raw, "log_std": log_std, "std": std, "u": u,
                "t": t, "a": a, "log_prob": log_prob, "jac_arg": jac_arg, "eps": eps,
                "tape": tape}

    def critic_targets(self, batch, rng) -> np.ndarray:
        """Bootstrapped target r + gamma (Q_target(s', a') - alpha log pi)."""
        _, _, rewards, next_states = batch
        eps = rng.standard_normal((next_states.shape[0], self.action_dim))
        samp = self._sample_with_log_prob(next_states, eps)
        q_next = self.target.forward(
            np.concatenate([next_states, samp["a"]], axis=1)).ravel()
        return rewards + self.discount * (q_next - self.alpha_ent * samp["log_prob"])

    def critic_loss_and_grads(self, states, actions, targets):
        """Mean squared Bellman error; pure in the critic parameters."""
        x = np.concatenate([states, actions], axis=1)
        q, tape = self.critic.forward(x, tape=True)
        diff = q.ravel() - targets
        loss = float(np.mean(diff ** 2))
        upstream = (2.0 * diff / diff.shape[0])[:, None]
        grads, _ = self.critic.backward(tape, upstream)
        return loss, grads

    def actor_loss_and_grads(self, states, eps):
        """Mean of alpha * log pi(a|s) - Q(s, a) with reparameterized actions.

        eps is the frozen standard-normal draw, so the loss is a pure
        function of the actor parameters (the critic is held fixed).
        """
        batch = float(states.shape[0])
        samp = self._sample_with_log_prob(states, eps)
        x = np.concatenate([states, samp["a"]], axis=1)
        q, critic_tape = self.critic.forward(x, tape=True)
        loss = float(np.mean(self.alpha_ent * samp["log_prob"] - q.ravel()))
        # Gradient w.r.t. the sampled action comes from the frozen critic.
        _, dx = self.critic.backward(critic_tape, np.full((states.shape[0], 1), -1.0 / batch))
        dl_da = dx[:, self.state_dim:]
        t, scale = samp["t"], self.scale
        # alpha * log pi depends on u through the squash jacobian only.
        dlogp_dt = (2.0 * scale * t / samp["jac_arg"]) / batch
        dl_dt = dl_da * scale + self.alpha_ent * dlogp_dt
        dl_du = dl_dt * (1.0 - t ** 2)
        dl_dmu = dl_du
        active = (samp["raw"] > ACTOR_LOG_STD_MIN) & (samp["raw"] < ACTOR_LOG_STD_MAX)
        dl_draw = np.where(
            active,
            dl_du * samp["eps"] * samp["std"] + self.alpha_ent * (-1.0 / batch),
            0.0)
        upstream = np.concatenate([dl_dmu, dl_draw], axis=1)
        grads, _ = self.actor.backward(samp["tape"], upstream)
        return loss, grads

    def update(self, batch, rng) -> SacDiagnostics:
        """One critic step, one actor step, one Polyak target update."""
        states, actions, _, _ = batch
        targets = self.critic_targets(batch, rng)
        critic_loss, critic_grads = self.critic_loss_and_grads(states, actions, targets)
        self.critic.params[...] = adam_step(self.critic_adam, self.critic.params, critic_grads)
        eps = rng.standard_normal((states.shape[0], self.action_dim))
        actor_loss, actor_grads = self.actor_loss_and_grads(states, eps)
        self.actor.params[...] = adam_step(self.actor_adam, self.actor.params, actor_grads)
        self.target.params[...] = ((1.0 - self.tau) * self.target.params
                                   + self.tau * self.critic.params)
        return SacDiagnostics(critic_loss=critic_loss, actor_loss=actor_loss)

"""Small feedforward nets with hand-rolled reverse-mode gradients and Adam.

All parameters of a net live in one flat float64 vector, so optimizer
state and finite-difference checks stay generic.

A caller that will differentiate a forward pass asks for its tape,
`out, tape = net.forward(x, tape=True)`, and hands it to
`net.backward(tape, upstream)`, so the backward pass does not rerun the
forward. The tape holds the input and every layer's post-activation
array, which is all the backward pass reads: the relu mask is taken as
`act > 0`, bit-identical to `pre > 0` because `act = max(pre, 0)`, so the
pre-activations are not kept. `backward(x, upstream)` with an input
array still works; it builds the tape with the same forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import as_generator


class Mlp:
    """Fully connected net, relu hidden layers, identity or tanh output."""

    def __init__(self, sizes, output: str = "identity", rng=None, params=None):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"bad layer sizes {sizes}")
        if output not in ("identity", "tanh"):
            raise ValueError(f"unknown output activation {output!r}")
        self.sizes = sizes
        self.output = output
        self.n_params = sum((i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))
        self._params = np.empty(self.n_params, dtype=np.float64)
        # (W, b) views into the flat buffer, so in-place writes to
        # self.params update the layers and vice versa.
        self._layers = []
        offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = self._params[offset:offset + fan_in * fan_out].reshape(fan_out, fan_in)
            offset += fan_in * fan_out
            b = self._params[offset:offset + fan_out]
            offset += fan_out
            self._layers.append((w, b))
        if params is not None:
            self.params = params
        else:
            rng = as_generator(rng)
            for (w, b), fan_in in zip(self._layers, sizes[:-1]):
                bound = 1.0 / np.sqrt(fan_in)
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = rng.uniform(-bound, bound, size=b.shape)

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} params, got shape {value.shape}")
        self._params[...] = value

    def copy(self) -> "Mlp":
        return Mlp(self.sizes, output=self.output, params=self._params.copy())

    def _forward_pass(self, x) -> "_Tape":
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {h.shape[1]} != {self.sizes[0]}")
        acts = [h]
        last = len(self._layers) - 1
        for i, (w, b) in enumerate(self._layers):
            h = h @ w.T
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            elif self.output == "tanh":
                np.tanh(h, out=h)
            acts.append(h)
        return _Tape(acts, squeeze)

    def forward(self, x, tape: bool = False):
        """The net's output for x, a row or a batch of rows.

        With tape=True, returns (output, tape): the tape holds the input
        and the post-activation of every layer, which `backward` reads in
        place of rerunning this pass.
        """
        record = self._forward_pass(x)
        out = record.acts[-1]
        out = out[0] if record.squeeze else out
        return (out, record) if tape else out

    def backward(self, x, upstream):
        """Gradients of sum(upstream * forward(x)).

        x is the tape of that forward pass, or the input itself, in which
        case the forward pass is run here. Returns (flat parameter
        gradient, gradient w.r.t. the input), both matching the shapes of
        params and the input.
        """
        record = x if isinstance(x, _Tape) else self._forward_pass(x)
        acts, squeeze = record.acts, record.squeeze
        upstream = np.asarray(upstream, dtype=np.float64)
        delta = upstream[None, :] if squeeze else upstream
        if delta.shape != acts[-1].shape:
            raise ValueError(f"upstream shape {delta.shape} != output shape {acts[-1].shape}")
        if self.output == "tanh":
            delta = delta * (1.0 - acts[-1] ** 2)
        grads = np.empty_like(self._params)
        offset = self.n_params
        for i in range(len(self._layers) - 1, -1, -1):
            w, _ = self._layers[i]
            gw = delta.T @ acts[i]
            gb = delta.sum(axis=0)
            offset -= gb.shape[0]
            grads[offset:offset + gb.shape[0]] = gb
            offset -= gw.size
            grads[offset:offset + gw.size] = gw.ravel()
            delta = delta @ w
            if i > 0:
                # acts[i] = max(pre, 0), so acts[i] > 0 exactly where pre > 0
                delta *= acts[i] > 0.0
        return grads, (delta[0] if squeeze else delta)


class _Tape:
    """One forward pass as `Mlp.backward` reads it: the input, then each
    layer's post-activation array (the last is the output)."""

    __slots__ = ("acts", "squeeze")

    def __init__(self, acts, squeeze):
        self.acts = acts
        self.squeeze = squeeze


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, lr: float = 3e-4) -> "AdamState":
        params = np.asarray(params)
        return cls(m=np.zeros_like(params, dtype=np.float64),
                   v=np.zeros_like(params, dtype=np.float64), lr=lr)


def clip_by_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        return grads * (max_norm / norm)
    return grads


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              clip_norm: float = None) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameter vector."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != state.m.shape:
        raise ValueError(f"grad shape {grads.shape} != moment shape {state.m.shape}")
    if clip_norm is not None:
        grads = clip_by_global_norm(grads, clip_norm)
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads ** 2
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


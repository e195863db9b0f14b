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

Hidden activations and backward deltas live in buffers that persist
across calls, so a training step does not hand megabyte arrays back to
the allocator and fault them in again on the next step (`adam_step`
likewise computes in its state's own work arrays). The tape lifecycle:
- `forward(x, tape=True)` takes one buffer per hidden layer; the tape
  owns them until its backward pass.
- `backward(tape, ...)` writes each relu mask into the tape's own dead
  activation, takes its deltas from the free buffers and hands every
  buffer back as the pass leaves it. A tape is single-use: a second
  backward on it raises ValueError.
- An untaped `forward(x)` hands its hidden buffers back before it
  returns. A tape that is dropped unused leaves its buffers to the
  garbage collector.
The net's output, the parameter gradient and the input gradient are
fresh arrays that the caller owns and may keep. One process shares the
free buffers across every net: `_take` hands out the smallest free
buffer that fits, so the buffers held stay at the largest set a step
has live at once. Nets are not thread-safe.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

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
            # hidden layers write into free buffers; the output is the caller's
            h = np.matmul(h, w.T, out=_take((len(h), len(w))) if i < last else None)
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
        place of rerunning this pass. Without it, the hidden buffers are
        handed back before this returns.
        """
        record = self._forward_pass(x)
        out = record.acts[-1]
        out = out[0] if record.squeeze else out
        if tape:
            return out, record
        for act in record.acts[1:-1]:
            _give(act)
        return out

    def backward(self, x, upstream):
        """Gradients of sum(upstream * forward(x)).

        x is the tape of that forward pass, or the input itself, in which
        case the forward pass is run here. Returns (flat parameter
        gradient, gradient w.r.t. the input), both matching the shapes of
        params and the input. The pass consumes the tape.
        """
        record = x if isinstance(x, _Tape) else self._forward_pass(x)
        acts, squeeze = record.acts, record.squeeze
        if acts is None:
            raise ValueError("this tape's backward pass already ran; a tape is single-use")
        upstream = np.asarray(upstream, dtype=np.float64)
        delta = upstream[None, :] if squeeze else upstream
        if delta.shape != acts[-1].shape:
            raise ValueError(f"upstream shape {delta.shape} != output shape {acts[-1].shape}")
        record.acts = None
        if self.output == "tanh":
            delta = delta * (1.0 - acts[-1] ** 2)
        grads = np.empty_like(self._params)
        offset = self.n_params
        last = len(self._layers) - 1
        for i in range(last, -1, -1):
            w, b = self._layers[i]
            offset -= b.size
            np.add.reduce(delta, axis=0, out=grads[offset:offset + b.size])
            offset -= w.size
            np.matmul(delta.T, acts[i], out=grads[offset:offset + w.size].reshape(w.shape))
            if i == 0:
                new = delta @ w  # the input gradient is the caller's
            else:
                new = np.matmul(delta, w, out=_take((len(delta), w.shape[1])))
                # acts[i] = max(pre, 0), so acts[i] > 0 exactly where pre > 0;
                # the mask overwrites acts[i], which nothing reads again
                np.greater(acts[i], 0.0, out=acts[i])
                np.multiply(new, acts[i], out=new)
                _give(acts[i])
            if i < last:
                _give(delta)
            delta = new
        return grads, (delta[0] if squeeze else delta)


class _Tape:
    """One forward pass as `Mlp.backward` reads it: the input, then each
    layer's post-activation array (the last is the output). Its backward
    pass sets acts to None."""

    __slots__ = ("acts", "squeeze")

    def __init__(self, acts, squeeze):
        self.acts = acts
        self.squeeze = squeeze


# Flat float64 buffers that no tape or pass holds, kept sorted by size.
# One list for the process, not one per net: a step runs its nets one
# after another, so they can share a few buffers, where per-net lists
# would each hold their own largest set. Every view is written in full
# before it is read, so what one caller left in a buffer never shows.
_FREE = []


def _take(shape) -> np.ndarray:
    """A view of the given shape into the smallest free buffer that fits,
    or into a new one."""
    n = math.prod(shape)
    i = bisect.bisect_left(_FREE, n, key=len)
    flat = _FREE.pop(i) if i < len(_FREE) else np.empty(n)
    return flat[:n].reshape(shape)


def _give(view: np.ndarray) -> None:
    """Hand the buffer under a `_take` view back for reuse."""
    bisect.insort(_FREE, view.base, key=len)


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector, and two work arrays of
    their shape that `adam_step` computes in."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, *np.shape(self.m)))

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
    """One bias-corrected Adam update; returns the new parameter vector.

    The moments are updated in place and the rest is computed in the
    state's work arrays, so only the returned vector is a new array. Each
    operation is one that the textbook expression evaluates, on the same
    operands, so the bits are those of `params - lr * m_hat / (sqrt(v_hat)
    + eps)`.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != state.m.shape:
        raise ValueError(f"grad shape {grads.shape} != moment shape {state.m.shape}")
    if clip_norm is not None:
        grads = clip_by_global_norm(grads, clip_norm)
    state.step += 1
    m_hat, v_hat = state.work
    m_hat[...] = grads
    m_hat *= 1.0 - state.beta1
    state.m *= state.beta1
    state.m += m_hat
    v_hat[...] = grads
    v_hat *= grads  # grads ** 2
    v_hat *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += v_hat
    m_hat[...] = state.m
    m_hat /= 1.0 - state.beta1 ** state.step
    v_hat[...] = state.v
    v_hat /= 1.0 - state.beta2 ** state.step
    np.sqrt(v_hat, out=v_hat)
    v_hat += state.eps
    m_hat *= state.lr
    m_hat /= v_hat
    return params - m_hat


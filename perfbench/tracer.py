"""Spans around calls into the program's modules, installed from outside.

`Tracer.install()` swaps each traced function or method for a wrapper that
records a span: its name, its duration and the span that was open when it
started. Functions are swapped in every `meairl` module that holds them,
because the package imports names with `from .x import y`. `remove()` puts
the originals back. Wrappers read only the clock and their arguments'
shapes; they draw no random numbers, so a traced run writes the same
bytes as an untraced one.

Spans are aggregated as they close rather than kept one by one: a grid
round closes a million of them. Per span name the tracer keeps the call
count, the self time (duration minus the time of child spans) and the
inclusive time of the outermost span of that name, so recursion through
the same name (`add_batch` calling `add`) is not counted twice; per
(parent, child) edge it keeps the call count and inclusive time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _macs(sizes) -> int:
    return sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))


def _count_forward(args, counts):
    net, x = args[0], args[1]
    rows = _rows(x)
    counts["neural.forward_rows"] += rows
    counts["neural.matmul_flop"] += 2 * rows * _macs(net.sizes)


def _count_backward(args, counts):
    # backward reruns the forward pass, then two matmuls per layer
    net, x = args[0], args[1]
    rows = _rows(x)
    counts["neural.backward_rows"] += rows
    counts["neural.matmul_flop"] += 6 * rows * _macs(net.sizes)


def _count_sample_next(args, counts):
    counts["dynamics.sample_next_rows"] += _rows(args[1])


def _run_name(args, kwargs):
    return f"training.run.{args[2].algorithm}"


def _count_run(args, counts):
    config = args[2]
    counts[f"training.steps.{config.algorithm}"] += config.total_steps


# (module, attribute, span name or name function, counter or None).
# A span name of None records a call count under the counter key only.
TRACE_POINTS = (
    ("meairl.cli", "cmd_expert", "cli.expert", None),
    ("meairl.cli", "cmd_compare", "cli.compare", None),
    ("meairl.cli", "cmd_verify_invariance", "cli.verify_invariance", None),
    ("meairl.cli", "cmd_verify_bounds", "cli.verify_bounds", None),
    ("meairl.cli", "expert_return_target", "cli.expert_target", None),
    ("meairl.training", "run_meairl", _run_name, _count_run),
    ("meairl.training", "evaluate_tabular_policy", "training.evaluate", None),
    ("meairl.training", "evaluate_continuous_policy", "training.evaluate", None),
    ("meairl.training", "generate_expert", "training.generate_expert", None),
    ("meairl.adversarial", "discriminator_loss_and_grads", "adversarial.disc_step", None),
    ("meairl.adversarial", "Discriminator.f_values", "adversarial.reward", None),
    ("meairl.adversarial", "extract_reward", "adversarial.reward", None),
    ("meairl.adversarial", "gradient_alignment_gap", "adversarial.alignment", None),
    ("meairl.adversarial", "ExpertBuffer.sample", "buffers.expert_sample", None),
    ("meairl.dynamics", "TabularDynamicsEstimate.add", "dynamics.model_update", None),
    ("meairl.dynamics", "GaussianDynamicsModel.loss_and_grads",
     "dynamics.model_update", None),
    ("meairl.dynamics", "GaussianDynamicsModel.sample_next", "dynamics.sample_next",
     _count_sample_next),
    ("meairl.dynamics", "rollout_synthetic", "dynamics.rollout", None),
    ("meairl.dynamics", "tv_distance", "dynamics.tv_distance", None),
    ("meairl.buffers", "ReplayBuffer.sample", "buffers.sample", None),
    ("meairl.buffers", "ReplayBuffer.add", "buffers.add", None),
    ("meairl.buffers", "ReplayBuffer.add_batch", "buffers.add", None),
    ("meairl.mdp", "TabularPolicy.__init__", "mdp.policy_build", None),
    ("meairl.mdp", "TabularMDP.sample_init", "mdp.env_step", None),
    ("meairl.mdp", "TabularMDP.sample_next", "mdp.env_step", None),
    ("meairl.mdp", "ContinuousEnv.reset", "mdp.env_step", None),
    ("meairl.mdp", "ContinuousEnv.step", "mdp.env_step", None),
    ("meairl.neural", "Mlp.forward", "neural.forward", _count_forward),
    ("meairl.neural", "Mlp.backward", "neural.backward", _count_backward),
    ("meairl.neural", "adam_step", "neural.adam", None),
    ("meairl.policy_opt", "SacAgent.update", "policy_opt.sac_update", None),
    ("meairl.policy_opt", "SacAgent.act", "policy_opt.act", None),
    ("meairl.soft_dp", "soft_value_iteration", "soft_dp.soft_vi", None),
    ("meairl.soft_dp", "hard_value_iteration", "soft_dp.hard_vi", None),
    ("meairl.soft_dp", "policy_value", "soft_dp.policy_value", None),
    ("meairl.soft_dp", "finite_horizon_policy_value", "soft_dp.policy_value", None),
    ("meairl.soft_dp", "soft_backup", None, "soft_dp.backups"),
    ("meairl.soft_dp", "hard_backup", None, "soft_dp.backups"),
    ("meairl.shaping", "shape_reward", "shaping.shape_reward", None),
    ("meairl.shaping", "check_policy_invariance", "shaping.invariance_check", None),
    ("meairl.shaping", "q_shift_identity_gap", "shaping.invariance_check", None),
    ("meairl.bounds", "random_problem", "bounds.problem", None),
    ("meairl.bounds", "verify_reward_error_bound", "bounds.verify", None),
    ("meairl.bounds", "verify_performance_difference_bound", "bounds.verify", None),
    ("meairl.suites", "run_invariance_suite", "suites.invariance", None),
    ("meairl.suites", "run_alignment_suite", "suites.alignment", None),
    ("meairl.suites", "random_mdp", "suites.random_mdp", None),
)


class SpanStats:
    __slots__ = ("calls", "self_s", "inclusive_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0


class Tracer:
    """Aggregated spans and counts for the calls listed in TRACE_POINTS."""

    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, s]
        self.counts = Counter()
        self._stack = []  # open spans as [name, child seconds]
        self._open = Counter()  # open spans per name
        self._undo = []

    def _span(self, name, fn, counter):
        stack, open_, spans, edges, counts = (self._stack, self._open, self.spans,
                                              self.edges, self.counts)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if counter is not None:
                counter(args, counts)
            frame = [label, 0.0]
            stack.append(frame)
            open_[label] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                open_[label] -= 1
                stats = spans[label]
                stats.calls += 1
                stats.self_s += took - frame[1]
                if not open_[label]:
                    stats.inclusive_s += took
                parent = stack[-1] if stack else None
                edge = edges[(parent[0] if parent else "", label)]
                edge[0] += 1
                edge[1] += took
                if parent:
                    parent[1] += took

        return traced

    def _tally(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counter in TRACE_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapper = self._wrap(name, original, counter)
                setattr(owner, method, wrapper)
                self._undo.append((owner, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "meairl":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def _wrap(self, name, fn, counter):
        return self._tally(counter, fn) if name is None else self._span(name, fn, counter)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- summaries ---------------------------------------------------------

    def inclusive(self, *names) -> float:
        return sum(self.spans[n].inclusive_s for n in names if n in self.spans)

    def calls(self, *names) -> int:
        return sum(self.spans[n].calls for n in names if n in self.spans)

    def self_time(self, prefix: str) -> float:
        return sum(s.self_s for n, s in self.spans.items() if n.startswith(prefix))

    def summary(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "spans": {n: {"calls": s.calls, "self_s": s.self_s,
                          "inclusive_s": s.inclusive_s}
                      for n, s in sorted(self.spans.items())},
            "edges": [{"parent": p, "child": c, "calls": v[0], "inclusive_s": v[1]}
                      for (p, c), v in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }


MODULES = ("training", "adversarial", "dynamics", "buffers", "mdp", "neural",
           "policy_opt", "soft_dp", "shaping", "bounds", "suites", "cli")


def layer_metrics(t: Tracer, overhead_s: float) -> dict:
    """Per-layer metrics of one traced set-up and round: name -> (value, unit).

    Times are seconds in the traced round unless the name says otherwise.
    A layer the workload does not reach reads 0.
    """
    def step_us(algorithm):
        steps = t.counts[f"training.steps.{algorithm}"]
        return 1e6 * t.inclusive(f"training.run.{algorithm}") / steps if steps else 0.0

    runs = [n for n in t.spans if n.startswith("training.run.")]
    metrics = {
        "training.meairl_step_us": (step_us("meairl"), "us"),
        "training.baseline_step_us": (step_us("airl_sample_baseline"), "us"),
        "training.loop_self_s": (sum(t.spans[n].self_s for n in runs), "s"),
        "training.evaluate_s": (t.inclusive("training.evaluate"), "s"),
        "adversarial.disc_step_s": (t.inclusive("adversarial.disc_step"), "s"),
        "adversarial.disc_step_calls": (t.calls("adversarial.disc_step"), "count"),
        "adversarial.reward_s": (t.inclusive("adversarial.reward"), "s"),
        "adversarial.alignment_s": (t.inclusive("adversarial.alignment"), "s"),
        "dynamics.model_update_s": (t.inclusive("dynamics.model_update"), "s"),
        "dynamics.rollout_s": (t.inclusive("dynamics.rollout"), "s"),
        "dynamics.sample_next_calls": (t.calls("dynamics.sample_next"), "count"),
        "dynamics.sample_next_rows": (t.counts["dynamics.sample_next_rows"], "count"),
        "buffers.sample_s": (t.inclusive("buffers.sample"), "s"),
        "buffers.sample_calls": (t.calls("buffers.sample"), "count"),
        "buffers.add_s": (t.inclusive("buffers.add"), "s"),
        "buffers.expert_sample_s": (t.inclusive("buffers.expert_sample"), "s"),
        "mdp.policy_build_s": (t.inclusive("mdp.policy_build"), "s"),
        "mdp.policy_build_calls": (t.calls("mdp.policy_build"), "count"),
        "mdp.env_step_s": (t.inclusive("mdp.env_step"), "s"),
        "neural.forward_s": (t.inclusive("neural.forward"), "s"),
        "neural.forward_calls": (t.calls("neural.forward"), "count"),
        "neural.forward_rows": (t.counts["neural.forward_rows"], "count"),
        "neural.backward_s": (t.inclusive("neural.backward"), "s"),
        "neural.backward_rows": (t.counts["neural.backward_rows"], "count"),
        "neural.matmul_gflop": (t.counts["neural.matmul_flop"] / 1e9, "GFLOP"),
        "neural.adam_s": (t.inclusive("neural.adam"), "s"),
        "policy_opt.sac_update_s": (t.inclusive("policy_opt.sac_update"), "s"),
        "soft_dp.soft_vi_s": (t.inclusive("soft_dp.soft_vi"), "s"),
        "soft_dp.hard_vi_s": (t.inclusive("soft_dp.hard_vi"), "s"),
        "soft_dp.policy_value_s": (t.inclusive("soft_dp.policy_value"), "s"),
        "soft_dp.backups": (t.counts["soft_dp.backups"], "count"),
        "shaping.shape_reward_s": (t.inclusive("shaping.shape_reward"), "s"),
        "shaping.invariance_check_s": (t.inclusive("shaping.invariance_check"), "s"),
        "bounds.problem_s": (t.inclusive("bounds.problem"), "s"),
        "bounds.verify_s": (t.inclusive("bounds.verify"), "s"),
        "cli.expert_s": (t.inclusive("cli.expert"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.span_calls": (sum(s.calls for s in t.spans.values()), "count"),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = (t.self_time(module + "."), "s")
    return metrics

"""The benchmark's tracer still fits the program it wraps.

`perfbench/tracer.py` names the functions and methods it times by module
and attribute, and reads the arguments of some. A rename in the library
would make `--trace 1` fail at install, and a changed call form would
break its counts; this catches both in the unit suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from meairl.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _tracer_module()
TRACE_POINTS = TRACER_MODULE.TRACE_POINTS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in TRACE_POINTS],
                         ids=[f"{m}:{a}" for m, a, _, _ in TRACE_POINTS])
def test_trace_point_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer swaps the method in the class's own namespace
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(name)), f"{attr} is not defined on {owner_name}"
    else:
        assert callable(getattr(module, name, None)), f"{module_name} has no {name}"


TWO_SEED_GRID = """\
[env]
name = gridworld
width = 4
height = 4
slip_prob = 0.3
goal_reward = 5.0
discount = 0.9
horizon = 25

[train]
total_steps = 600
pretrain_steps = 200
eval_period = 200
batch_size = 64

[run]
seeds = 0,1
"""


def test_tracer_counts_a_stacked_compare_and_changes_no_byte(tmp_path):
    # compare trains both seeds of an algorithm in one run_meairl call; the
    # tracer names that call's span and counts its steps from the call's
    # third argument, the TrainingConfig, and must leave every byte as is
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(TWO_SEED_GRID)
    demos = tmp_path / "demos.txt"

    def compare(out):
        assert main(["compare", "--config", str(cfg), "--demos", str(demos),
                     "--out", str(tmp_path / out)]) == 0

    compare("untraced")
    tracer = TRACER_MODULE.Tracer()
    with tracer:
        compare("traced")
    names = [f"{alg}_seed{seed}.csv" for alg in ("meairl", "airl_sample_baseline")
             for seed in (0, 1)] + ["summary.csv", "aggregate.csv"]
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "untraced" / name).read_bytes(), name
    assert tracer.spans["training.run.meairl"].calls == 1
    assert tracer.counts["training.steps.meairl"] > 0

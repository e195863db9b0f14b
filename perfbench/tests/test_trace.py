"""Determinism, trace purity, metric names, and the no-sources exit.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SMALL = {
    "grid-slip": dict(n_seeds=1, total_steps=1200, pretrain_steps=400, eval_period=400),
    "pointmass": dict(total_steps=20, pretrain_steps=10, eval_period=10, demo_episodes=2),
    "verify": dict(cases=4, alignment_cases=2, instances=20),
}


def _round(workload, where: Path, seed=3):
    workload.setup(seed, where / "setup")
    commands = workload.run_round(where / "setup", where / "round")
    assert all(c.code == 0 for c in commands)
    return where / "round"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_rounds_repeat_and_tracing_changes_no_byte(name, tmp_path):
    workload = workloads.make(name, **SMALL[name])
    first = _round(workload, tmp_path / "first")
    second = _round(workload, tmp_path / "second")
    tracer = Tracer()
    with tracer:
        traced = _round(workload, tmp_path / "traced")
    names = workload.record_names(3)
    checks.check_same_bytes(first, second, names)
    checks.check_same_bytes(first, traced, names)
    assert tracer.spans, "the tracer recorded nothing"


def test_tracer_restores_the_program():
    import meairl
    from meairl import cli, neural, training
    before = (training.run_meairl, cli.run_meairl, meairl.run_meairl,
              neural.Mlp.__dict__["forward"])
    with Tracer():
        assert training.run_meairl is not before[0]
        assert cli.run_meairl is training.run_meairl
    assert (training.run_meairl, cli.run_meairl, meairl.run_meairl,
            neural.Mlp.__dict__["forward"]) == before


def test_spans_nest_and_count(tmp_path):
    import meairl
    from meairl import TabularEnv, make_gridworld, neural
    env = TabularEnv(make_gridworld(3, 3, 0.1, 1.0, 0.9), 5)
    net = neural.Mlp([2, 3, 1], rng=0)
    tracer = Tracer()
    with tracer:
        # looked up at call time, as the program's own callers do
        meairl.generate_expert(env, 0, 3, tmp_path / "demos.txt")
        net.backward([[0.0, 1.0]], [[1.0]])
        net.forward([[0.0, 1.0], [1.0, 0.0]])
    parent = tracer.spans["training.generate_expert"]
    assert parent.calls == 1
    children = tracer.inclusive("soft_dp.soft_vi", "mdp.env_step", "mdp.policy_build")
    assert parent.self_s + children == pytest.approx(parent.inclusive_s, rel=1e-9)
    assert tracer.calls("mdp.env_step") == 3 * (1 + 5)  # start plus five steps each
    assert tracer.counts["soft_dp.backups"] > 0
    edges = {(e["parent"], e["child"]) for e in tracer.summary()["edges"]}
    assert ("training.generate_expert", "soft_dp.soft_vi") in edges
    assert tracer.calls("neural.forward") == 1
    assert tracer.counts["neural.forward_rows"] == 2
    assert tracer.counts["neural.backward_rows"] == 1
    # 2 rows forward and 1 row backward (6x) over 2*3 + 3*1 multiply-adds
    assert tracer.counts["neural.matmul_flop"] == (2 * 2 + 6 * 1) * 9


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = layer_metrics(Tracer(), 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layer.items()]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"command_s", "setup_s", "peak_rss_mb"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Every output check passes on real outputs and fails on a doctored copy.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Real outputs come from the benchmark's own workloads at a fraction of
their size. Each negative control changes one thing in a copy of the
rows (a shifted bar, a truncated CSV, a ramp off by one step, a bound
scaled down 100x, ...) and requires the matching check to raise.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

GRID = dict(n_seeds=2, total_steps=1500, pretrain_steps=500, eval_period=500)
POINTMASS = dict(total_steps=30, pretrain_steps=10, eval_period=10, demo_episodes=2)
VERIFY = dict(cases=4, alignment_cases=2, instances=30)


def run_small(name, sizes, where: Path, seed=0):
    workload = workloads.make(name, **sizes)
    workload.setup(seed, where / "setup")
    commands = workload.run_round(where / "setup", where / "round")
    assert all(c.code == 0 for c in commands), [c.stdout for c in commands]
    return workload, commands


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    where = tmp_path_factory.mktemp("grid")
    workload, commands = run_small("grid-slip", GRID, where)
    records = workload.read_records(0, where / "round")
    return workload, commands, where, records


@pytest.fixture(scope="module")
def pointmass(tmp_path_factory):
    where = tmp_path_factory.mktemp("pointmass")
    workload, commands = run_small("pointmass", POINTMASS, where)
    return workload, commands, where


@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    where = tmp_path_factory.mktemp("verify")
    workload, commands = run_small("verify", VERIFY, where)
    rows = {kind: checks.read_rows(where / "round" / f"bounds_{kind}.csv",
                                   checks.SWEEP_HEADER)
            for kind in checks.SWEEP_BOUNDS}
    return workload, commands, where, rows


def _meairl(records):
    return next(rows for name, rows in records.items() if name.startswith("meairl_"))


def _baseline(records):
    return next(rows for name, rows in records.items() if name.startswith("airl_"))


def _edited(rows, index, **changes):
    rows = copy.deepcopy(rows)
    rows[index].update(changes)
    return rows


# ---------------------------------------------------------------------------
# grid-slip


def test_references_match_the_documented_figures():
    refs = checks.grid_references(5, 5, 0.3, 5.0, 0.95, 40)
    assert round(refs["bar"], 1) == 51.9
    assert round(refs["random"], 1) == 13.1
    assert refs["random"] < refs["midpoint"] < refs["bar"] < refs["target"]


def test_expert_bar(grid):
    workload, commands, where, _ = grid
    printed = workloads._printed_target(commands[0].stdout)
    target = workload.references["target"]
    checks.check_target("printed", printed, target, checks.PRINTED_TARGET_ATOL)
    with pytest.raises(CheckFailed):
        checks.check_target("printed", printed + 1e-3, target, checks.PRINTED_TARGET_ATOL)
    workload.check_expert_target(where / "setup")
    workload.references = dict(workload.references, target=target + 1e-6)
    try:
        with pytest.raises(CheckFailed):
            workload.check_expert_target(where / "setup")
    finally:
        workload.references["target"] = target


def test_training_rows(grid):
    workload, _, where, records = grid
    rows = _meairl(records)
    args = (workload.total_steps, workload.eval_period, 0.0, 90.0)
    checks.check_training_rows("csv", rows, *args)
    with pytest.raises(CheckFailed, match="evaluation steps"):
        checks.check_training_rows("csv", rows[:-1], *args)
    with pytest.raises(CheckFailed, match="return_mean"):
        checks.check_training_rows("csv", _edited(rows, 1, return_mean=math.nan), *args)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_training_rows("csv", _edited(rows, 1, return_mean=-1.0), *args)


def test_truncated_csv_file(grid, tmp_path):
    _, _, where, records = grid
    name = next(iter(records))
    lines = (where / "round" / name).read_text().splitlines()
    (tmp_path / name).write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:5] + "\n")
    with pytest.raises(CheckFailed, match="cells"):
        checks.read_rows(tmp_path / name, checks.TRAINING_HEADER)
    (tmp_path / name).write_text("step,return_mean\n")
    with pytest.raises(CheckFailed, match="header"):
        checks.read_rows(tmp_path / name, checks.TRAINING_HEADER)


def test_ramp(grid):
    workload, _, _, records = grid
    rows = _meairl(records)
    args = (workload.pretrain_steps, workload.total_steps, workload.ratio_start,
            workload.ratio_end, workload.ratio_ramp_frac)
    checks.check_ramp("csv", rows, *args)
    # the documented ramp evaluated one step late
    late = copy.deepcopy(rows)
    for r in late:
        r["synthetic_fraction"] = checks.ramp_fraction(int(r["step"]) + 1, *args)
    with pytest.raises(CheckFailed, match="synthetic_fraction"):
        checks.check_ramp("csv", late, *args)
    with pytest.raises(CheckFailed, match="synthetic_fraction"):
        checks.check_ramp("csv", _edited(rows, 0, synthetic_fraction=0.05), *args)


def test_baseline_columns(grid):
    _, _, _, records = grid
    rows = _baseline(records)
    checks.check_baseline_columns("csv", rows)
    for change in ({"eps_T": 0.2}, {"model_nll": 1.0}, {"synthetic_fraction": 0.05}):
        with pytest.raises(CheckFailed):
            checks.check_baseline_columns("csv", _edited(rows, -1, **change))


def test_model_improves(grid):
    workload, _, _, records = grid
    rows = _meairl(records)
    unseen = workload.references["unseen_errors"]
    assert sorted(set(np.round(unseen, 12))) == [0.84, 0.88]
    checks.check_model_improves("csv", rows, unseen)
    with pytest.raises(CheckFailed, match="eps_T"):
        checks.check_model_improves("csv", _edited(rows, -1, eps_T=rows[0]["eps_T"]),
                                    unseen)
    # an unvisited pair off the corners pins eps_T at 0.84 ...
    pinned = _edited(rows, 0, eps_T=0.84)
    pinned[-1]["eps_T"] = 0.84
    checks.check_model_improves("csv", pinned, unseen)
    # ... but a model that never learns sits at the goal row's 0.96
    frozen = _edited(pinned, 0, eps_T=0.96)
    frozen[-1]["eps_T"] = 0.96
    with pytest.raises(CheckFailed, match="eps_T"):
        checks.check_model_improves("csv", frozen, unseen)


def test_finite_columns(grid):
    workload, _, _, records = grid
    rows = _meairl(records)
    checks.check_finite_columns("csv", rows, ["disc_loss"], workload.pretrain_steps)
    checks.check_finite_columns("csv", rows, ["model_nll"])
    with pytest.raises(CheckFailed, match="disc_loss"):
        checks.check_finite_columns("csv", _edited(rows, -1, disc_loss=math.inf),
                                    ["disc_loss"], workload.pretrain_steps)
    with pytest.raises(CheckFailed, match="model_nll"):
        checks.check_finite_columns("csv", _edited(rows, 0, model_nll=math.nan),
                                    ["model_nll"])


def test_learns():
    refs = checks.grid_references(5, 5, 0.3, 5.0, 0.95, 40)
    checks.check_learns(refs["midpoint"] + 0.01, refs["midpoint"])
    with pytest.raises(CheckFailed, match="midpoint"):
        checks.check_learns(refs["midpoint"] - 0.01, refs["midpoint"])


def test_final_rows_mean_pools_the_last_rows():
    rows = [{"return_mean": v} for v in (1.0, 2.0, 3.0)]
    assert checks.final_rows_mean([rows, rows], 2) == 2.5


# ---------------------------------------------------------------------------
# pointmass


def test_pointmass_records(pointmass):
    workload, commands, where = pointmass
    workload.check(0, where / "setup", where / "round", commands)
    records = workload.read_records(0, where / "round")
    rows = _meairl(records)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_training_rows("csv", _edited(rows, -1, return_mean=1.0),
                                   workload.total_steps, workload.eval_period,
                                   -2500.0, 0.0)
    workload.threshold += 1e-3
    with pytest.raises(CheckFailed, match="printed expert target"):
        workload.check(0, where / "setup", where / "round", commands)


# ---------------------------------------------------------------------------
# verify


def test_sweep_rows(verify):
    workload, _, _, rows = verify
    for kind, kind_rows in rows.items():
        checks.check_sweep_rows("csv", kind_rows, kind, workload.instances)
        with pytest.raises(CheckFailed, match="rows"):
            checks.check_sweep_rows("csv", kind_rows[:-1], kind, workload.instances)
        with pytest.raises(CheckFailed, match="eps_T"):
            checks.check_sweep_rows("csv", _edited(kind_rows, 3, eps_T=1.5), kind,
                                    workload.instances)
        with pytest.raises(CheckFailed, match="ratio"):
            checks.check_sweep_rows("csv", _edited(kind_rows, 3, ratio=kind_rows[3]["ratio"] + 1e-3),
                                    kind, workload.instances)
        scaled = copy.deepcopy(kind_rows)
        for r in scaled:
            r["bound"] /= 100.0
            r["ratio"] = r["observed_gap"] / r["bound"]
        with pytest.raises(CheckFailed, match="bound"):
            checks.check_sweep_rows("csv", scaled, kind, workload.instances)


def test_reward_gap_over_bound_fails(verify):
    _, _, _, rows = verify
    worst = max(range(len(rows["reward"])), key=lambda i: rows["reward"][i]["ratio"])
    bad = _edited(rows["reward"], worst, observed_gap=rows["reward"][worst]["bound"] * 2)
    with pytest.raises(CheckFailed, match="exceeds bound"):
        checks.check_sweep_rows("csv", bad, "reward", len(bad))


def test_pass_lines(verify):
    _, commands, _, _ = verify
    invariance, bounds = commands
    checks.check_passes(invariance.stdout, ["invariance suite:", "alignment suite:"])
    checks.check_passes(bounds.stdout, ["reward bound sweep:", "performance bound sweep:"])
    with pytest.raises(CheckFailed, match="not a pass"):
        checks.check_passes(bounds.stdout.replace("reward bound sweep: PASS",
                                                  "reward bound sweep: FAIL"),
                            ["reward bound sweep:"])
    with pytest.raises(CheckFailed, match="expected one line"):
        checks.check_passes(invariance.stdout, ["reward bound sweep:"])


# ---------------------------------------------------------------------------
# determinism


def test_same_bytes(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "x.csv").write_text("step\n1\n")
    checks.check_same_bytes(tmp_path / "a", tmp_path / "b", ["x.csv"])
    (tmp_path / "b" / "x.csv").write_text("step\n2\n")
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_bytes(tmp_path / "a", tmp_path / "b", ["x.csv"])

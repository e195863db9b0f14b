"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-slip --seed 0 --seconds 15 --trace 0

From the root of a source checkout. `--trace 0` sets the workload up
several times, then repeats whole rounds of its timed `meairl` commands
until `--seconds` have passed, checks every round's outputs, and reports
the end-to-end metrics as medians. `--trace 1` runs one set-up and round
untraced and one traced, checks both and that they wrote the same bytes,
and reports the per-layer metrics of the traced one. Human-readable lines
come first; the last line of stdout is the JSON result. Exit code 0 when
every output check passed, 1 when one failed, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One process and one BLAS thread: set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy only; meairl is imported by import_program)
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5


def import_program():
    """Put this checkout's `src` first on the path; refuse any other meairl."""
    if not (SRC / "meairl" / "__init__.py").is_file():
        print(f"error: no meairl sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import meairl
    if Path(meairl.__file__).resolve().parent != SRC / "meairl":
        print(f"error: imported meairl from {meairl.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def setup_once(workload, seed: int, where: Path) -> float:
    start = time.perf_counter()
    workload.setup(seed, where)
    return time.perf_counter() - start


def run_round(workload, inputs: Path, out: Path):
    commands = workload.run_round(inputs, out)
    return commands, sum(c.ops for c in commands if c.code != 0)


def check_rounds(workload, seed, inputs, outs, rounds, failures) -> tuple:
    """Output checks on every round whose commands succeeded, plus
    byte-identity across those rounds."""
    figures, problems = {}, []
    checked = [(o, c) for o, c, failed in zip(outs, rounds, failures) if not failed]
    for out, commands in checked:
        try:
            figures = workload.check(seed, inputs, out, commands)
            checks.check_same_bytes(checked[0][0], out, workload.record_names(seed))
        except checks.CheckFailed as exc:
            problems.append(f"{out.name}: {exc}")
    return figures, problems


def timed_run(workload, seed: int, seconds: float, out: Path) -> dict:
    setup_s = [setup_once(workload, seed, out / f"setup{i}") for i in range(SETUP_REPEATS)]
    inputs = out / f"setup{SETUP_REPEATS - 1}"
    outs, rounds, failures = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        outs.append(out / f"round{len(rounds)}")
        commands, failed = run_round(workload, inputs, outs[-1])
        rounds.append(commands)
        failures.append(failed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [r for r, f in zip(rounds, failures) if not f]
    figures, problems = check_rounds(workload, seed, inputs, outs, rounds, failures)
    metrics = {
        "command_s": (statistics.median(sum(c.seconds for c in r) for r in rounds), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {name: (value, unit) for name, value, unit in workload.figures(ok)} if ok else {}
    return {"rounds": len(rounds), "failures": failures, "problems": problems,
            "metrics": metrics, "figures": {**extra, **figures},
            "note": f"medians of {SETUP_REPEATS} set-ups and {len(rounds)} round(s)"}


def traced_run(workload, seed: int, out: Path) -> dict:
    walls, outs, rounds, failures = [], [], [], []
    tracer = Tracer()
    for label in ("plain", "traced"):
        if label == "traced":
            tracer.install()
        try:
            start = time.perf_counter()
            setup_once(workload, seed, out / f"setup_{label}")
            outs.append(out / f"round_{label}")
            commands, failed = run_round(workload, out / f"setup_{label}", outs[-1])
            walls.append(time.perf_counter() - start)
        finally:
            tracer.remove()
        rounds.append(commands)
        failures.append(failed)
    figures, problems = check_rounds(workload, seed, out / "setup_plain", outs,
                                     rounds, failures)
    (out / "trace.json").write_text(json.dumps(tracer.summary(), indent=1), encoding="utf-8")
    return {"rounds": 2, "failures": failures, "problems": problems,
            "metrics": layer_metrics(tracer, walls[1] - walls[0]), "figures": figures,
            "note": f"untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s; "
                    f"spans in {out / 'trace.json'}"
                    + ("; a round failed, so trace purity went unchecked"
                       if any(failures) else "")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        result = traced_run(workload, args.seed, out)
    else:
        result = timed_run(workload, args.seed, args.seconds, out)

    attempted = result["rounds"] * workload.ops_per_round
    failed = sum(result["failures"])
    print(f"{args.workload} seed {args.seed}: {result['rounds']} round(s), "
          f"{attempted} operations attempted, {failed} failed; {result['note']}")
    for name, (value, unit) in {**result["metrics"], **result["figures"]}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name} = {shown} {unit}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

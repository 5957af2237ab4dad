"""The iesdispatch benchmark: run a workload, check its outputs, print its metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload train-coordinated --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a process of its own (``worker.py``) with the BLAS
thread count pinned to one.  This process then checks the outputs the
program wrote against values it recomputes itself, including LP lower
bounds solved with HiGHS, and prints one JSON line as the last line of its
standard output: ``correct``, ``attempted`` and ``failed`` verb calls, and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  It exits 1 if any check fails, and 2 without a result
if the program could not be run at all.  Notes and check failures go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import lpbound
from workloads import KAPPA, REWARD, TRAIN_EPISODES, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# One BLAS thread: with the default of one per core, two processes sharing
# the cores slow training six- to elevenfold, and one thread is also faster
# on an idle machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EMPTY_SIZES = {"learner.checkpoint.bytes": 0, "cli.schedule.bytes": 0, "oracle.infeasible_steps": 0}


class WorkerFailed(RuntimeError):
    """The workload process exited without writing its record."""


def run_worker(name: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    # A run is a set-up, the rounds that fit in ``seconds``, one that may
    # overrun them and, traced, one more.  Ten times the run length plus a
    # minute leaves room for rounds several times slower than today's, so a
    # slowdown is reported rather than cut off as a hang.
    timeout = 10.0 * seconds + 60.0
    t0 = time.time()
    try:
        proc = subprocess.run([*cmd, "--t0", repr(t0)], env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{name}: no result after {timeout:.0f} s") from exc
    record = out / "record.json"
    if proc.returncode != 0 or not record.exists():
        raise WorkerFailed(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(record.read_text(encoding="utf-8"))


def days_per_s(rounds: list[dict]) -> float:
    """Days the main verb processed per second of its wall time."""
    return sum(r["days"] for r in rounds) / sum(r["verb_s"] for r in rounds)


def check_outputs(workload: Workload, seed: int, out: Path) -> tuple[list[str], float, dict]:
    """Check the last round's files; return problems, day objective and sizes."""
    system = workload.config(seed)["system"]
    round_dir = out / "round"
    problems: list[str] = []
    sizes = dict(EMPTY_SIZES)
    if workload.verb == "train":
        scenario = checks.read_scenario(out / "days" / "complementary-winter.csv")
        rows = checks.read_schedule(round_dir / "eval" / "schedule.csv")
        summary = checks.read_json(round_dir / "eval" / "summary.json")
        problems += checks.check_schedule(rows, summary, scenario, system)
        if summary.get("mode") != workload.mode:
            problems.append(f"evaluate summary mode {summary.get('mode')!r}, expected {workload.mode!r}")
        if workload.mode == "independent":
            problems += checks.check_no_exchange("independent schedule", rows)
        problems += checks.check_training_log(round_dir / "train" / "training_log.csv", TRAIN_EPISODES, REWARD["u"])
        objective = checks.day_objective(summary, KAPPA)
        bound = lpbound.elastic_day_bound(scenario, system, KAPPA, exchanges=workload.mode == "coordinated")
        problems += checks.check_policy_bound(objective, bound)
        sizes["learner.checkpoint.bytes"] = (round_dir / "train" / "checkpoint.json").stat().st_size
        sizes["cli.schedule.bytes"] = (round_dir / "eval" / "schedule.csv").stat().st_size
        return problems, objective, sizes

    objectives = []
    for day in workload.days(seed):
        scenario = checks.read_scenario(out / "days" / f"{day.name}.csv")
        rows = checks.read_schedule(round_dir / day.name / "oracle_schedule.csv")
        summary = checks.read_json(round_dir / day.name / "oracle_summary.json")
        found = checks.check_schedule(rows, summary, scenario, system)
        found += checks.check_oracle_steps(rows, summary, lpbound.step_bounds(scenario, system))
        found += checks.check_oracle_day(day.name, rows, summary)
        problems += [f"{day.name}: {p}" for p in found]
        objectives.append(checks.day_objective(summary, KAPPA))
        sizes["cli.schedule.bytes"] += (round_dir / day.name / "oracle_schedule.csv").stat().st_size
        sizes["oracle.infeasible_steps"] += len(summary["infeasible_steps"])
    return problems, statistics.fmean(objectives), sizes


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    out = OUT / f"{name}-trace{trace}"
    record = run_worker(name, seed, seconds, trace, out)
    rounds = record["rounds"]
    problems = [f"verb failed: {e}" for e in record["errors"]]
    reference = (record["trace"]["traced_round"] if trace else rounds[0])["hashes"]
    if any(r["hashes"] != reference for r in rounds):
        problems.append("rounds with the same inputs wrote different files")
    try:
        found, objective, sizes = check_outputs(workload, seed, out)
        problems += found
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"outputs missing or malformed: {exc!r}")
        objective, sizes = float("nan"), EMPTY_SIZES

    rate = days_per_s(rounds)
    if trace:
        traced = days_per_s([record["trace"]["traced_round"]])
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in record["trace"]["metrics"].items()}
        metrics.update({k: {"value": v, "unit": "bytes" if k.endswith("bytes") else "count"} for k, v in sizes.items()})
        metrics["trace.absent_callables"] = {"value": len(record["trace"]["absent"]), "unit": "count"}
        metrics["trace.days_per_s_untraced"] = {"value": rate, "unit": "1/s"}
        metrics["trace.days_per_s_traced"] = {"value": traced, "unit": "1/s"}
        metrics["trace.overhead_share"] = {"value": 1.0 - traced / rate, "unit": "ratio"}
        for absent in record["trace"]["absent"]:
            print(f"note: {absent} not found; reported as 0 calls", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": record["setup_s"], "unit": "s"},
            "days_per_s": {"value": rate, "unit": "1/s"},
            "day_objective_yuan": {"value": objective, "unit": "yuan"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    for p in problems:
        print(f"check failed [{name}]: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "iesdispatch").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'iesdispatch'} is missing", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(environment(), sort_keys=True)}", file=sys.stderr)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(f"{name}: {json.dumps(res)}", file=sys.stderr)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

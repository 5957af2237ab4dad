"""Run one workload in a process of its own and write down what it measured.

``run.py`` starts this script with the BLAS thread count pinned and the
package's ``src`` directory on the path.  Only the program's documented
verbs run here, called in-process through ``iesdispatch.cli.main``, so the
peak resident memory this process reports is the program's: the output
checks, scipy among them, run later in the parent.

A run is one set-up (the package import and the ``generate-scenario``
calls that write the scenario CSVs) followed by whole rounds of the same
verb calls, repeated while another round still fits in ``--seconds``.
Every round must write byte-identical files; the last round's files stay
in the output directory for the checks.  With ``--trace 1`` the set-up
and the first round run under the tracer, and the untraced rounds after
it give the tracing overhead and the byte comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import yaml

from tracer import Tracer
from workloads import TRAIN_EPISODES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent


class Runner:
    """Calls verbs through ``cli.main`` and counts attempts and failures."""

    def __init__(self, cli_main) -> None:
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, *argv) -> float:
        """Run one verb; return its wall time in seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        start = time.perf_counter()
        try:
            # The verbs print one progress line to stdout; the parent's stdout
            # carries only the result, so send it to stderr.
            with contextlib.redirect_stdout(sys.stderr):
                code = self.cli_main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # noqa: BLE001 - a failed verb is counted, the run goes on
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]}: {code}")
        return elapsed


def write_yaml(path: Path, tree: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(tree, sort_keys=True), encoding="utf-8")
    return path


def file_hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def set_up(runner: Runner, workload: Workload, seed: int, out: Path) -> dict[str, Path]:
    """Write the configs and the scenario CSVs; return the scenario paths."""
    scenarios = {}
    for day in workload.days(seed):
        cfg = write_yaml(out / "days" / f"{day.name}.yaml", day.config())
        scenarios[day.name] = out / "days" / f"{day.name}.csv"
        runner.call("generate-scenario", "--config", cfg, "--out", scenarios[day.name])
    write_yaml(out / "config.yaml", workload.config(seed))
    return scenarios


def run_round(runner: Runner, workload: Workload, seed: int, out: Path, scenarios: dict[str, Path]) -> dict:
    """One round of the workload's verb calls into ``out/round``."""
    round_dir = out / "round"
    shutil.rmtree(round_dir, ignore_errors=True)
    cfg = out / "config.yaml"
    start = time.perf_counter()
    if workload.verb == "train":
        scenario = scenarios["complementary-winter"]
        train_dir = round_dir / "train"
        verb_s = runner.call(
            "train", "--config", cfg, "--scenario", scenario, "--mode", workload.mode,
            "--seed", seed, "--episodes", TRAIN_EPISODES, "--out", train_dir,
        )
        runner.call(
            "evaluate", "--config", cfg, "--scenario", scenario,
            "--checkpoint", train_dir / "checkpoint.json", "--out", round_dir / "eval",
        )
        days = TRAIN_EPISODES
    else:
        verb_s = sum(
            runner.call("oracle", "--config", cfg, "--scenario", path, "--out", round_dir / name)
            for name, path in scenarios.items()
        )
        days = len(scenarios)
    return {
        "days": days,
        "verb_s": verb_s,
        "wall_s": time.perf_counter() - start,
        "hashes": file_hashes(round_dir) if round_dir.exists() else {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True, help="wall-clock time the parent started this process")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out = Path(args.out)

    from iesdispatch.cli import main as cli_main

    runner = Runner(cli_main)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    scenarios = set_up(runner, workload, args.seed, out)
    setup_s = time.time() - args.t0

    start = time.perf_counter()
    rounds = [run_round(runner, workload, args.seed, out, scenarios)]
    trace = None
    if tracer:
        tracer.uninstall()
        trace = {"metrics": tracer.metrics(), "absent": tracer.absent, "traced_round": rounds.pop()}
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in rounds) if rounds else 0.0
        if rounds and elapsed + typical > args.seconds:
            break
        rounds.append(run_round(runner, workload, args.seed, out, scenarios))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "rounds": rounds,
        "trace": trace,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": peak_rss_mb,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

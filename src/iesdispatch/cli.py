"""Operator command line.

Verbs: ``generate-scenario``, ``train``, ``evaluate``, ``compare`` and
``oracle``.  Commands exit 0 on success; any failure, a command line
that does not parse and an output path that cannot be created included,
prints a single JSON object to stderr ({"error": <class>, "message":
<text>}) and exits 1.  ``--help`` prints the usage and exits 0.
All outputs are deterministic for a fixed seed and inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import learner as L
from .config import ConfigError, RunConfig, config_hash, load_config
from .env import DayEvaluation, DispatchEnv, settle_day
from .scenario import (
    ScenarioData,
    ScenarioFormatError,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)
from .system import (
    FEASIBLE_TOL,
    H_EXCH,
    P_EXCH,
    SystemConfig,
    assert_within_limits,
    left_sum,
    oracle_day,
    sum_last,
)

SCHEDULE_COLUMNS = (
    "episode",
    "step",
    "community",
    "p_chp_kw",
    "b_chp",
    "h_chp_kw",
    "p_tp_kw",
    "w_rate_m3h",
    "p_gt_kw",
    "h_gb_kw",
    "p_exch_kw",
    "h_exch_kw",
    "wind_avail_kw",
    "wind_used_kw",
    "curtailed_kw",
    "d_elec_kw",
    "d_heat_kw",
    "d_water_m3h",
    "penalty_kw_eq",
    "cost_yuan",
)

TRAIN_LOG_COLUMNS = tuple(f.name for f in fields(L.LogRow))


class CheckpointMismatch(ValueError):
    """A checkpoint does not match the configuration it is evaluated under."""


class UsageError(ValueError):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ``UsageError``, so that it
    leaves as every other failure does: a JSON error and exit code 1."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def summarize(day: DayEvaluation) -> dict:
    """Totals of an evaluated day, each added left to right in the
    schedule's row order (steps, then communities), so that each equals
    the sum of the cells ``write_schedule_csv`` writes."""
    x, balance, dt = day.setpoints, day.balance, day.dt

    def total(values) -> float:
        return left_sum(np.ravel(values).tolist())

    per_community = {str(i + 1): total(day.cost[:, i]) for i in range(day.cost.shape[1])}
    avail = total(day.wind * dt)
    curtailed = total(balance.curtailed * dt)
    return {
        "per_community_cost": per_community,
        "total_cost": left_sum(per_community.values()),
        "total_penalty_kw_eq": total(balance.penalty),
        "wind_avail_kwh": avail,
        "wind_used_kwh": total((day.wind - balance.curtailed) * dt),
        "curtailed_kwh": curtailed,
        "curtailment_rate": curtailed / avail if avail > 0.0 else 0.0,
        "exchange_abs_kwh": total(np.abs(x[..., P_EXCH]) + np.abs(x[..., H_EXCH])) * dt,
    }


def write_schedule_csv(path: Path, day: DayEvaluation, system_cfg: SystemConfig) -> None:
    """Write an evaluated day's schedule, one row per step and community,
    after re-checking every setpoint's box, every step's conservation of
    the exchanges and that every cell is finite."""
    x, b = day.setpoints, day.balance
    assert_within_limits(x, system_cfg)
    net = sum_last(x[..., P_EXCH:].swapaxes(-1, -2))  # (T, 2): electricity, heat
    leaks = np.flatnonzero((np.abs(net) > 1e-6).any(axis=-1))
    if leaks.size:
        raise ValueError(f"step {leaks[0]}: exchanges do not conserve {tuple(net[leaks[0]].tolist())}")
    p_chp, b_chp, *rest = np.moveaxis(x, -1, 0)
    cells = np.stack([p_chp, b_chp, b_chp * p_chp, *rest, day.wind, day.wind - b.curtailed, b.curtailed,
                      b.d_elec, b.d_heat, b.d_water, b.penalty, day.cost], axis=-1)
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        t, i, c = bad[0]
        raise ValueError(f"step {t}, community {i + 1}: {SCHEDULE_COLUMNS[3 + c]} is {float(cells[t, i, c])}, not finite")
    rows = ([0, t, i + 1, *map(repr, row)] for t, step in enumerate(cells.tolist()) for i, row in enumerate(step))
    _write_csv(path, SCHEDULE_COLUMNS, rows)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _first_non_finite(value, keys: tuple[str, ...] = ()) -> tuple[tuple[str, ...], float] | None:
    """The key path and value of the first NaN or infinity in ``value``,
    in the order ``write_json`` writes it."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (keys, value)
    if isinstance(value, dict):
        items = sorted(value.items())  # the order of ``sort_keys``
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _first_non_finite(item, (*keys, str(key)))
        if found is not None:
            return found
    return None


def write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: a NaN or an infinity raises, naming the file and
    its key, before the file is made."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        found = _first_non_finite(payload)
        if found is None:
            raise
        keys, value = found
        raise ValueError(f"{path}: {'.'.join(keys)} is {value}, not finite") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def write_training_log(path: Path, log: Sequence[L.LogRow]) -> None:
    _write_csv(path, TRAIN_LOG_COLUMNS, (map(repr, astuple(row)) for row in log))


def write_reward_curve(path: Path, log: Sequence[L.LogRow], window: int = 50) -> None:
    """Episode/mean-reward pairs plus a trailing moving average."""
    rewards = [row.mean_reward for row in log]
    averages = [left_sum(rewards[max(0, i + 1 - window) : i + 1]) / min(i + 1, window) for i in range(len(log))]
    _write_csv(path, ("episode", "mean_reward", "moving_average"), (
        [row.episode, repr(row.mean_reward), repr(avg)] for row, avg in zip(log, averages)
    ))


def _resolve_scenario(cfg: RunConfig, scenario_arg: str | None) -> ScenarioData:
    if scenario_arg is not None:
        return load_scenario(scenario_arg)
    if cfg.scenario_path is not None:
        return load_scenario(cfg.scenario_path)
    return generate_scenario(cfg.generator)


def _config_with_cli(args) -> RunConfig:
    overrides: dict = {}
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        overrides.setdefault("train", {})["seed"] = args.seed
    if getattr(args, "episodes", None) is not None:
        overrides.setdefault("train", {})["episodes"] = args.episodes
    return load_config(args.config, overrides or None)


def _out_dir(args) -> Path:
    """Create the output directory, so a bad ``--out`` fails before any work."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate_scenario(args) -> int:
    cfg = _config_with_cli(args)
    spec = cfg.generator
    if getattr(args, "seed", None) is not None:
        spec = replace(spec, seed=args.seed)
    scenario = generate_scenario(spec)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    env = DispatchEnv(scenario, cfg.system, cfg.reward, mode=cfg.mode, observation=cfg.observation)
    out = _out_dir(args)
    train = L.train_independent if cfg.mode == "independent" else L.train_mappo
    try:
        result = train(env, cfg.train)
    except L.TrainingDiverged as exc:
        write_training_log(out / "training_log.csv", exc.log)
        raise
    L.save_checkpoint(out / "checkpoint.json", result, config_hash(cfg), scenario_hash(scenario))
    write_training_log(out / "training_log.csv", result.log)
    write_reward_curve(out / "reward_curve.csv", result.log)
    print(f"trained {cfg.mode} policy for {cfg.train.episodes} episodes -> {out}")
    return 0


def _evaluate_checkpoint(
    checkpoint_path: str, ckpt: L.Checkpoint, cfg: RunConfig, scenario: ScenarioData
) -> DayEvaluation:
    if ckpt.config_hash != config_hash(cfg):
        raise CheckpointMismatch(
            f"checkpoint {checkpoint_path} was trained under a different system configuration"
        )
    # The hash covers env.reward, so cfg.reward is the reward the policy was trained under.
    env = DispatchEnv(
        scenario, cfg.system, cfg.reward, mode=ckpt.mode, observation=ckpt.observation, scales=ckpt.scales
    )
    return L.greedy_day(env, ckpt.actors)


def cmd_evaluate(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    ckpt = L.load_checkpoint(args.checkpoint)
    out = _out_dir(args)
    day = _evaluate_checkpoint(args.checkpoint, ckpt, cfg, scenario)
    write_schedule_csv(out / "schedule.csv", day, cfg.system)
    summary = summarize(day)
    ids = {"mode": ckpt.mode, "config_hash": ckpt.config_hash, "scenario_hash": scenario_hash(scenario)}
    write_json(out / "summary.json", {**summary, **ids})
    print(f"evaluated {ckpt.mode} checkpoint -> {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    ckpt_a = L.load_checkpoint(args.checkpoint_a)
    ckpt_b = L.load_checkpoint(args.checkpoint_b)
    if ckpt_a.config_hash != ckpt_b.config_hash:
        raise CheckpointMismatch("checkpoints were trained under different system configurations")
    out = _out_dir(args)
    summary_a = summarize(_evaluate_checkpoint(args.checkpoint_a, ckpt_a, cfg, scenario))
    summary_b = summarize(_evaluate_checkpoint(args.checkpoint_b, ckpt_b, cfg, scenario))
    delta_total = summary_b["total_cost"] - summary_a["total_cost"]
    payload = {
        "a": {"checkpoint": args.checkpoint_a, "mode": ckpt_a.mode, **summary_a},
        "b": {"checkpoint": args.checkpoint_b, "mode": ckpt_b.mode, **summary_b},
        "delta_total_cost_b_minus_a": delta_total,
        "delta_per_community_b_minus_a": {
            key: summary_b["per_community_cost"][key] - summary_a["per_community_cost"][key]
            for key in summary_a["per_community_cost"]
        },
        "delta_curtailment_rate_b_minus_a": summary_b["curtailment_rate"] - summary_a["curtailment_rate"],
        "cheaper": "a" if delta_total > 0 else "b" if delta_total < 0 else "tie",
        "scenario_hash": scenario_hash(scenario),
    }
    write_json(out / "comparison.json", payload)
    print(f"compared checkpoints -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    out = _out_dir(args)
    setpoints = oracle_day(scenario.p_load.T, scenario.h_load.T, scenario.w_load.T, scenario.p_wind.T, cfg.system)
    day = settle_day(scenario, setpoints, cfg.system, cfg.reward)
    write_schedule_csv(out / "oracle_schedule.csv", day, cfg.system)
    infeasible = np.flatnonzero(sum_last(day.balance.penalty) > FEASIBLE_TOL).tolist()
    ids = {"infeasible_steps": infeasible, "scenario_hash": scenario_hash(scenario)}
    write_json(out / "oracle_summary.json", {**summarize(day), **ids})
    print(f"oracle dispatch -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iesdispatch",
        description="Three-community energy dispatch: scenarios, training, evaluation, oracle baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, scenario=True):
        p.add_argument("--config", default=None, help="YAML configuration file (defaults ship built in)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if scenario:
            p.add_argument("--scenario", default=None, help="scenario CSV path (overrides config)")

    p_gen = sub.add_parser("generate-scenario", help="write a synthetic 72-row scenario CSV")
    add_common(p_gen, scenario=False)
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.set_defaults(func=cmd_generate_scenario)

    p_train = sub.add_parser("train", help="train a dispatch policy")
    add_common(p_train)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--mode", choices=("coordinated", "independent"), default=None)
    p_train.add_argument("--episodes", type=int, default=None, help="override training episodes")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="run a checkpoint's policy means over the day and export the schedule")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="evaluate two checkpoints on one scenario and diff them")
    add_common(p_cmp)
    p_cmp.add_argument("--checkpoint-a", required=True)
    p_cmp.add_argument("--checkpoint-b", required=True)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_orc = sub.add_parser("oracle", help="exact optimal dispatch of each step of the scenario")
    add_common(p_orc)
    p_orc.add_argument("--out", required=True, help="output directory")
    p_orc.set_defaults(func=cmd_oracle)

    return parser


_EXPECTED_ERRORS = (
    ConfigError,
    ScenarioFormatError,
    CheckpointMismatch,
    L.TrainingDiverged,
    OSError,
    ValueError,
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Overflow is refused where it would be written; no warning precedes the JSON error.
        with np.errstate(all="ignore"):
            return args.func(args)
    except _EXPECTED_ERRORS as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

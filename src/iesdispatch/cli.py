"""Operator command line.

Verbs: ``generate-scenario``, ``train``, ``evaluate``, ``compare`` and
``oracle``.  Commands exit 0 on success; any failure prints a single JSON
object to stderr ({"error": <class>, "message": <text>}) and exits 1.
All outputs are deterministic for a fixed seed and inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Sequence

from . import learner as L
from .config import ConfigError, RunConfig, config_hash, load_config
from .env import DispatchEnv, StepRecord, settle_day
from .scenario import (
    ScenarioData,
    ScenarioFormatError,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)
from .system import (
    N_COMMUNITIES,
    CommunityLoads,
    SystemConfig,
    assert_within_limits,
    left_sum,
    oracle_dispatch,
    setpoint_rows,
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

TRAIN_LOG_COLUMNS = ("episode", "mean_reward", "total_cost", "total_penalty", "curtailment_kwh")


class CheckpointMismatch(ValueError):
    """A checkpoint does not match the configuration it is evaluated under."""


def schedule_rows(records: Sequence[StepRecord], episode: int = 0) -> list[dict]:
    rows = []
    for record in records:
        for i, decision in enumerate(record.decisions):
            bal = record.balances[i]
            rows.append(
                {
                    "episode": episode,
                    "step": record.t,
                    "community": i + 1,
                    "p_chp_kw": decision.p_chp,
                    "b_chp": decision.b_chp,
                    "h_chp_kw": decision.h_chp,
                    "p_tp_kw": decision.p_tp,
                    "w_rate_m3h": decision.w_rate,
                    "p_gt_kw": decision.p_gt,
                    "h_gb_kw": decision.h_gb,
                    "p_exch_kw": decision.p_exch,
                    "h_exch_kw": decision.h_exch,
                    "wind_avail_kw": record.wind_avail[i],
                    "wind_used_kw": decision.wind_used,
                    "curtailed_kw": bal.curtailed,
                    "d_elec_kw": bal.d_elec,
                    "d_heat_kw": bal.d_heat,
                    "d_water_m3h": bal.d_water,
                    "penalty_kw_eq": bal.penalty,
                    "cost_yuan": record.costs[i],
                }
            )
    return rows


def summarize_rows(rows: Sequence[dict], dt: float = 1.0) -> dict:
    """Aggregate a schedule by exact summation of the emitted row values."""
    per_community = {str(c): 0.0 for c in (1, 2, 3)}
    totals = {"penalty_kw_eq": 0.0, "wind_avail_kwh": 0.0, "wind_used_kwh": 0.0, "curtailed_kwh": 0.0}
    exchange_abs = 0.0
    for row in rows:
        per_community[str(row["community"])] += row["cost_yuan"]
        totals["penalty_kw_eq"] += row["penalty_kw_eq"]
        totals["wind_avail_kwh"] += row["wind_avail_kw"] * dt
        totals["wind_used_kwh"] += row["wind_used_kw"] * dt
        totals["curtailed_kwh"] += row["curtailed_kw"] * dt
        exchange_abs += abs(row["p_exch_kw"]) + abs(row["h_exch_kw"])
    total_cost = left_sum(per_community.values())
    avail = totals["wind_avail_kwh"]
    return {
        "per_community_cost": per_community,
        "total_cost": total_cost,
        "total_penalty_kw_eq": totals["penalty_kw_eq"],
        "wind_avail_kwh": avail,
        "wind_used_kwh": totals["wind_used_kwh"],
        "curtailed_kwh": totals["curtailed_kwh"],
        "curtailment_rate": totals["curtailed_kwh"] / avail if avail > 0.0 else 0.0,
        "exchange_abs_kwh": exchange_abs * dt,
    }


def write_schedule_csv(
    path: Path,
    records: Sequence[StepRecord],
    system_cfg: SystemConfig,
    dt: float = 1.0,
) -> list[dict]:
    """Write the per-step schedule, re-validating every row's limits."""
    for record in records:
        for i, decision in enumerate(record.decisions):
            assert_within_limits(decision, system_cfg.communities[i], system_cfg.limits, dt)
        exch_p = sum(d.p_exch for d in record.decisions)
        exch_h = sum(d.h_exch for d in record.decisions)
        if abs(exch_p) > 1e-6 or abs(exch_h) > 1e-6:
            raise ValueError(f"step {record.t}: exchanges do not conserve ({exch_p}, {exch_h})")
    rows = schedule_rows(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in SCHEDULE_COLUMNS])
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy float64 scalars
        return repr(float(value))
    return str(value)


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_training_log(path: Path, log: Sequence[L.LogRow]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAIN_LOG_COLUMNS)
        for row in log:
            writer.writerow(
                [row.episode, _fmt(row.mean_reward), _fmt(row.total_cost), _fmt(row.total_penalty), _fmt(row.curtailment_kwh)]
            )


def write_reward_curve(path: Path, log: Sequence[L.LogRow], window: int = 50) -> None:
    """Episode/mean-reward pairs plus a trailing moving average."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("episode", "mean_reward", "moving_average"))
        rewards = [row.mean_reward for row in log]
        for i, row in enumerate(log):
            lo = max(0, i + 1 - window)
            avg = left_sum(rewards[lo : i + 1]) / (i + 1 - lo)
            writer.writerow([row.episode, _fmt(row.mean_reward), _fmt(avg)])


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


def cmd_generate_scenario(args) -> int:
    cfg = _config_with_cli(args)
    spec = cfg.generator
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    scenario = generate_scenario(spec)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    env = DispatchEnv(
        scenario,
        cfg.system,
        cfg.reward,
        mode=cfg.mode,
        observation=cfg.observation,
        dt=cfg.system.price.dt,
    )
    if cfg.mode == "independent":
        result = L.train_independent(env, cfg.train)
    else:
        result = L.train_mappo(env, cfg.train)
    out = Path(args.out)
    L.save_checkpoint(out / "checkpoint.json", result, config_hash(cfg), scenario_hash(scenario))
    write_training_log(out / "training_log.csv", result.log)
    write_reward_curve(out / "reward_curve.csv", result.log)
    print(f"trained {cfg.mode} policy for {cfg.train.episodes} episodes -> {out}")
    return 0


def _evaluate_checkpoint(
    checkpoint_path: str, ckpt: L.Checkpoint, cfg: RunConfig, scenario: ScenarioData
) -> list[StepRecord]:
    if ckpt.config_hash != config_hash(cfg):
        raise CheckpointMismatch(
            f"checkpoint {checkpoint_path} was trained under a different system configuration"
        )
    env = DispatchEnv(
        scenario,
        cfg.system,
        ckpt.reward_params,
        mode=ckpt.mode,
        observation=ckpt.observation,
        scales=ckpt.scales,
        dt=cfg.system.price.dt,
    )
    return L.greedy_rollout(env, ckpt.actors)


def cmd_evaluate(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    ckpt = L.load_checkpoint(args.checkpoint)
    records = _evaluate_checkpoint(args.checkpoint, ckpt, cfg, scenario)
    out = Path(args.out)
    rows = write_schedule_csv(out / "schedule.csv", records, cfg.system, cfg.system.price.dt)
    summary = summarize_rows(rows, cfg.system.price.dt)
    summary["mode"] = ckpt.mode
    summary["config_hash"] = ckpt.config_hash
    summary["scenario_hash"] = scenario_hash(scenario)
    write_json(out / "summary.json", summary)
    print(f"evaluated {ckpt.mode} checkpoint -> {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    ckpt_a = L.load_checkpoint(args.checkpoint_a)
    ckpt_b = L.load_checkpoint(args.checkpoint_b)
    if ckpt_a.config_hash != ckpt_b.config_hash:
        raise CheckpointMismatch("checkpoints were trained under different system configurations")
    records_a = _evaluate_checkpoint(args.checkpoint_a, ckpt_a, cfg, scenario)
    records_b = _evaluate_checkpoint(args.checkpoint_b, ckpt_b, cfg, scenario)
    summary_a = summarize_rows(schedule_rows(records_a), cfg.system.price.dt)
    summary_b = summarize_rows(schedule_rows(records_b), cfg.system.price.dt)
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
    write_json(Path(args.out) / "comparison.json", payload)
    print(f"compared checkpoints -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _config_with_cli(args)
    scenario = _resolve_scenario(cfg, args.scenario)
    dt = cfg.system.price.dt
    records = []
    infeasible_steps = []
    for t in range(scenario.p_load.shape[1]):
        loads = [
            CommunityLoads(
                p_load=float(scenario.p_load[i, t]),
                h_load=float(scenario.h_load[i, t]),
                w_load=float(scenario.w_load[i, t]),
            )
            for i in range(N_COMMUNITIES)
        ]
        wind = [float(scenario.p_wind[i, t]) for i in range(N_COMMUNITIES)]
        step = oracle_dispatch(loads, wind, cfg.system, grid_n=args.grid_n, dt=dt)
        if not step.feasible:
            infeasible_steps.append(t)
        records.append(_oracle_record(step, scenario, cfg, t))
    out = Path(args.out)
    rows = write_schedule_csv(out / "oracle_schedule.csv", records, cfg.system, dt)
    summary = summarize_rows(rows, dt)
    summary["grid_n"] = args.grid_n
    summary["infeasible_steps"] = infeasible_steps
    summary["scenario_hash"] = scenario_hash(scenario)
    write_json(out / "oracle_summary.json", summary)
    print(f"oracle dispatch (grid_n={args.grid_n}) -> {out}")
    return 0


def _oracle_record(step, scenario: ScenarioData, cfg: RunConfig, t: int) -> StepRecord:
    """The oracle's step t, settled and priced by the kernels that evaluate a policy."""
    setpoints = setpoint_rows(step.decisions)[None]
    return settle_day(scenario, [t], setpoints, cfg.system, cfg.reward, cfg.system.price.dt).records(t)[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iesdispatch",
        description="Three-community energy dispatch: scenarios, training, evaluation, oracle baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    p_eval = sub.add_parser("evaluate", help="greedy-rollout a checkpoint and export the schedule")
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

    p_orc = sub.add_parser("oracle", help="grid-search dispatch baseline over the scenario")
    add_common(p_orc)
    p_orc.add_argument("--grid-n", type=int, default=21, help="grid resolution per control")
    p_orc.add_argument("--out", required=True, help="output directory")
    p_orc.set_defaults(func=cmd_oracle)

    return parser


_EXPECTED_ERRORS = (
    ConfigError,
    ScenarioFormatError,
    CheckpointMismatch,
    L.TrainingDiverged,
    FileNotFoundError,
    ValueError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

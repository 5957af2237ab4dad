"""Output checks that recompute the program's results from first principles.

Nothing here imports the package under test.  The checks read the CSV and
JSON files the verbs wrote, recompute every schedule row from the scenario
and the benchmark's own system tree, test the physical properties every
step must have, and compare day objectives with the LP bounds of
``lpbound``.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from lpbound import ABS_TOL, N_COMMUNITIES, N_STEPS, heat_per_m3h_kw, pipeline_loss_kw

# Relative tolerance on recomputed costs and on summary sums.
REL_TOL = 1e-9
# Largest share by which an oracle step's cost may exceed the LP optimum:
# twice the worst seen.  The grid oracle lands within 1.5e-10 on most days,
# but over 679 seeded noisy days its grid resolution put the worst step more
# than 1e-4 above on 28 and more than 1e-3 on 13, at most 2.54e-3.
ORACLE_GAP = 5e-3
SCENARIO_KEYS = {"p_load": "p_load_kw", "h_load": "h_load_kw", "w_load": "w_load_m3h", "p_wind": "p_wind_kw"}


def read_scenario(path: Path) -> dict[str, np.ndarray]:
    arrays = {key: np.full((N_COMMUNITIES, N_STEPS), np.nan) for key in SCENARIO_KEYS}
    with Path(path).open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            c, t = int(row["community"]) - 1, int(row["step"])
            for key, column in SCENARIO_KEYS.items():
                arrays[key][c, t] = float(row[column])
    return arrays


def read_schedule(path: Path) -> list[dict[str, float]]:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def row_cost(row: dict, com: dict, price: dict) -> float:
    """Gas price x output / (efficiency x heating value), summed over the units."""
    unit = price["gas_price_per_m3"] * price["dt_h"] / price["hhv_kwh_per_m3"]
    pump = com["ro"]["kwh_per_m3"] * row["w_rate_m3h"]
    outputs = (
        (row["p_chp_kw"], com["chp"]["eta"]),
        (row["b_chp"] * row["p_chp_kw"], com["chp"]["eta"]),
        (row["p_tp_kw"] - pump, com["ro"]["eta"]),
        (pump, com["ro"]["eta"]),
        (row["p_gt_kw"], com["gt"]["eta"]),
        (row["h_gb_kw"], com["gb"]["eta"]),
    )
    return sum(unit * out / eta for out, eta in outputs)


def row_residuals(row: dict, loads: dict, com: dict, options: dict, dt: float) -> dict[str, float]:
    """Balance residuals of one row from the device outputs and the loads."""
    q = com["ro"]["kwh_per_m3"]
    pipe = com["pipeline"]
    gen = row["p_chp_kw"] + row["p_tp_kw"] - q * row["w_rate_m3h"] + row["p_gt_kw"]
    surplus = gen + row["wind_avail_kw"] + row["p_exch_kw"] - loads["p_load"]
    curtailed = min(row["wind_avail_kw"], max(0.0, surplus))
    supply = row["b_chp"] * row["p_chp_kw"] + row["h_gb_kw"] + row["h_exch_kw"]
    if options["exchange_loss"] and row["h_exch_kw"] < 0.0:
        supply -= pipeline_loss_kw(pipe)
    if options["cap_heat_by_water"]:
        supply = min(supply, heat_per_m3h_kw(pipe) * row["w_rate_m3h"])
    demand = loads["h_load"] + (pipeline_loss_kw(pipe) if options["gross_pipeline_loss"] else 0.0)
    d_elec = abs(surplus - curtailed)
    d_heat = abs(supply - demand)
    d_water = abs(row["w_rate_m3h"] - loads["w_load"])
    return {
        "curtailed_kw": curtailed,
        "d_elec_kw": d_elec,
        "d_heat_kw": d_heat,
        "d_water_m3h": d_water,
        "penalty_kw_eq": d_elec + d_heat + q * d_water,
    }


def _boxes(com: dict, system: dict, dt: float) -> dict[str, tuple[float, float]]:
    lim = system["exchange"]
    return {
        "p_chp_kw": (com["chp"]["p_min_kw"], com["chp"]["p_max_kw"]),
        "b_chp": (com["chp"]["b_min"], com["chp"]["b_max"]),
        "p_tp_kw": (com["ro"]["p_tp_min_kw"], com["ro"]["p_tp_max_kw"]),
        "w_rate_m3h": (0.0, com["ro"]["w_max_m3"] / dt),
        "p_gt_kw": (com["gt"]["out_min_kw"], com["gt"]["out_max_kw"]),
        "h_gb_kw": (com["gb"]["out_min_kw"], com["gb"]["out_max_kw"]),
        "p_exch_kw": (-lim["p_max_kw"], lim["p_max_kw"]),
        "h_exch_kw": (-lim["h_max_kw"], lim["h_max_kw"]),
    }


def check_schedule(rows: list[dict], summary: dict, scenario: dict, system: dict) -> list[str]:
    """Recompute every row and the summary, and test the per-step properties."""
    problems = []
    dt = system["price"]["dt_h"]
    seen = sorted((int(r["step"]), int(r["community"])) for r in rows)
    if seen != [(t, c) for t in range(N_STEPS) for c in range(1, N_COMMUNITIES + 1)]:
        return [f"schedule does not hold one row per step and community ({len(rows)} rows)"]
    exchange_sums = np.zeros((N_STEPS, 2))
    for row in rows:
        t, c = int(row["step"]), int(row["community"])
        where = f"step {t} community {c}"
        com = system["communities"][c - 1]
        loads = {key: float(scenario[key][c - 1, t]) for key in SCENARIO_KEYS}

        cost = row_cost(row, com, system["price"])
        if not _close(row["cost_yuan"], cost):
            problems.append(f"{where}: cost {row['cost_yuan']!r}, recomputed {cost!r}")
        if not _close(row["h_chp_kw"], row["b_chp"] * row["p_chp_kw"]):
            problems.append(f"{where}: h_chp {row['h_chp_kw']!r} is not b_chp x p_chp")
        for key, value in row_residuals(row, loads, com, system["options"], dt).items():
            if not _close(row[key], value, rel=0.0):
                problems.append(f"{where}: {key} {row[key]!r}, recomputed {value!r}")

        for key, (lo, hi) in _boxes(com, system, dt).items():
            if not lo - ABS_TOL <= row[key] <= hi + ABS_TOL:
                problems.append(f"{where}: {key} {row[key]!r} outside [{lo}, {hi}]")
        if row["p_tp_kw"] - com["ro"]["kwh_per_m3"] * row["w_rate_m3h"] < -ABS_TOL:
            problems.append(f"{where}: pumping demand exceeds the cogeneration output")
        if not _close(row["wind_avail_kw"], loads["p_wind"], rel=0.0):
            problems.append(f"{where}: wind_avail {row['wind_avail_kw']!r}, scenario {loads['p_wind']!r}")
        if not -ABS_TOL <= row["curtailed_kw"] <= row["wind_avail_kw"] + ABS_TOL:
            problems.append(f"{where}: curtailment {row['curtailed_kw']!r} outside [0, available wind]")
        if not _close(row["wind_used_kw"] + row["curtailed_kw"], row["wind_avail_kw"], rel=0.0):
            problems.append(f"{where}: wind used + curtailed differs from the available wind")
        exchange_sums[t] += (row["p_exch_kw"], row["h_exch_kw"])

    for t, (p_sum, h_sum) in enumerate(exchange_sums):
        if abs(p_sum) > ABS_TOL or abs(h_sum) > ABS_TOL:
            problems.append(f"step {t}: exchanges sum to ({p_sum!r}, {h_sum!r}), not zero")
    return problems + check_summary(rows, summary, dt)


def check_summary(rows: list[dict], summary: dict, dt: float) -> list[str]:
    per_community = {str(c): sum(r["cost_yuan"] for r in rows if int(r["community"]) == c) for c in (1, 2, 3)}
    avail = sum(r["wind_avail_kw"] for r in rows) * dt
    curtailed = sum(r["curtailed_kw"] for r in rows) * dt
    expected = {
        "total_cost": sum(r["cost_yuan"] for r in rows),
        "total_penalty_kw_eq": sum(r["penalty_kw_eq"] for r in rows),
        "wind_avail_kwh": avail,
        "wind_used_kwh": sum(r["wind_used_kw"] for r in rows) * dt,
        "curtailed_kwh": curtailed,
        "curtailment_rate": curtailed / avail if avail > 0.0 else 0.0,
        "exchange_abs_kwh": sum(abs(r["p_exch_kw"]) + abs(r["h_exch_kw"]) for r in rows) * dt,
    }
    problems = [
        f"summary {key} {summary.get(key)!r}, rows sum to {value!r}"
        for key, value in expected.items()
        if not isinstance(summary.get(key), (int, float)) or not _close(summary[key], value)
    ]
    for c, value in per_community.items():
        got = summary.get("per_community_cost", {}).get(c)
        if not isinstance(got, (int, float)) or not _close(got, value):
            problems.append(f"summary cost of community {c} {got!r}, rows sum to {value!r}")
    return problems


def day_objective(summary: dict, kappa: float) -> float:
    return summary["total_cost"] + kappa * summary["total_penalty_kw_eq"]


def check_training_log(path: Path, episodes: int, u: float) -> list[str]:
    """Every logged mean reward is at most u, and the policy improved."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        rewards = [float(row["mean_reward"]) for row in csv.DictReader(fh)]
    if len(rewards) != episodes:
        return [f"training log has {len(rewards)} rows, expected {episodes}"]
    problems = [f"episode {i}: mean reward {r!r} above u = {u}" for i, r in enumerate(rewards) if not r <= u]
    decile = max(1, episodes // 10)
    first, last = np.mean(rewards[:decile]), np.mean(rewards[-decile:])
    if not last > first:
        problems.append(f"last-decile mean reward {last!r} is not above the first-decile mean {first!r}")
    return problems


def check_policy_bound(objective: float, bound: float) -> list[str]:
    """A policy's day objective can never beat the elastic LP optimum."""
    if objective < bound * (1.0 - REL_TOL) - ABS_TOL:
        return [f"policy day objective {objective!r} is below the LP lower bound {bound!r}"]
    return []


def check_oracle_steps(rows: list[dict], summary: dict, bounds) -> list[str]:
    """Each oracle step against the per-step LP bounds.

    A step the oracle reports feasible has zero imbalance and a cost no
    lower than the zero-imbalance LP optimum and at most ``ORACLE_GAP``
    above it; an infeasible step has no less imbalance than the LP minimum.
    """
    cost = np.zeros(N_STEPS)
    penalty = np.zeros(N_STEPS)
    for row in rows:
        cost[int(row["step"])] += row["cost_yuan"]
        penalty[int(row["step"])] += row["penalty_kw_eq"]
    infeasible = set(summary.get("infeasible_steps", []))
    problems = []
    for t in range(N_STEPS):
        lp_cost, lp_pen = bounds.min_cost[t], bounds.min_penalty[t]
        if penalty[t] < lp_pen - ABS_TOL:
            problems.append(f"step {t}: imbalance {penalty[t]!r} below the LP minimum {lp_pen!r}")
        if t in infeasible:
            continue
        if penalty[t] > ABS_TOL:
            problems.append(f"step {t}: reported feasible with imbalance {penalty[t]!r}")
        elif not math.isfinite(lp_cost):
            problems.append(f"step {t}: reported feasible, but the LP finds no zero-imbalance dispatch")
        elif cost[t] < lp_cost * (1.0 - REL_TOL) - ABS_TOL:
            problems.append(f"step {t}: cost {cost[t]!r} below the LP lower bound {lp_cost!r}")
        elif cost[t] > lp_cost * (1.0 + ORACLE_GAP):
            problems.append(f"step {t}: cost {cost[t]!r} more than {ORACLE_GAP:g} above the LP optimum {lp_cost!r}")
    return problems


def check_no_exchange(label: str, rows: list[dict]) -> list[str]:
    moved = [r for r in rows if r["p_exch_kw"] != 0.0 or r["h_exch_kw"] != 0.0]
    return [f"{label}: {len(moved)} rows exchange energy, expected none"] if moved else []


def check_oracle_day(day: str, rows: list[dict], summary: dict) -> list[str]:
    """Known optima: no exchange on the uniform day, no curtailment on the
    complementary winter day."""
    if day == "uniform":
        return check_no_exchange("uniform day", rows)
    if day == "complementary-winter" and abs(summary["curtailed_kwh"]) > ABS_TOL:
        return [f"complementary-winter day: oracle curtails {summary['curtailed_kwh']!r} kWh, expected 0"]
    return []

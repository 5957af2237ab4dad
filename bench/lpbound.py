"""Lower bounds on dispatch cost from linear programs solved with HiGHS.

One dispatch step is a small linear program once the CHP heat output is
its own variable with ``b_min * p <= h <= b_max * p``: fuel cost is linear
in every device output, and each balance residual becomes a pair of
nonnegative slacks.  The steps of a day share no variable, so one program
per day is solved and read back step by step: the day optimum restricted
to a step is that step's optimum.

The programs are built from the benchmark's own system tree (the one it
writes into the configs it passes to the program), never from the package
under test.  The strict heat couplings are relaxed so that the result
stays a lower bound:

- ``gross_pipeline_loss`` raises the heat demand by the standing pipe loss;
- ``cap_heat_by_water`` delivers a heat ``E <= supply`` and
  ``E <= heat the water carries``, where the program delivers exactly the
  smaller of the two;
- ``exchange_loss`` debits the pipe loss on heat export, which switches on
  and off with the export direction; each of the 2**3 export-sign patterns
  is its own program, and each step keeps the best of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

N_COMMUNITIES = 3
N_STEPS = 24
# Variables of one community at one step.
P, H, TP, W, GT, GB, PE, HE, WIND, EP, EN, HP, HN, WP, WN, HEFF = range(16)
N_VARS = 16
# Absolute tolerance (kW, kW-eq, m3/h) below which an imbalance counts as
# zero.  The output checks use the same value for residuals and balances.
ABS_TOL = 1e-6
# Stage-two programs may use this much imbalance (kW-eq) above the stage-one
# minimum, which only loosens the bound they give.
PENALTY_SLACK = 1e-6


@dataclass(frozen=True)
class StepBounds:
    """Per step: the least imbalance any dispatch can reach, and the least
    fuel cost of a dispatch with zero imbalance (inf where none exists)."""

    min_penalty: np.ndarray
    min_cost: np.ndarray


def pipeline_loss_kw(pipe: dict) -> float:
    """Standing radiative loss of the supply pipe at supply temperature."""
    return (
        2.0 * math.pi * (pipe["t_supply_c"] - pipe["t_env_c"])
        / pipe["thermal_resistance_mk_per_w"] * pipe["length_m"] / 1000.0
    )


def heat_per_m3h_kw(pipe: dict) -> float:
    """Heat power one m3/h of delivered water carries from supply to return."""
    return pipe["c_water_kj_per_kg_k"] * 1000.0 * (pipe["t_supply_c"] - pipe["t_return_c"]) / 3600.0


class _Program:
    """One day's linear program for one export-sign pattern."""

    def __init__(self, scenario: dict, system: dict, pattern, exchanges: bool) -> None:
        self.n = N_STEPS * N_COMMUNITIES * N_VARS
        self.cost = np.zeros(self.n)
        self.penalty = np.zeros(self.n)
        self.bounds: list[tuple] = [(None, None)] * self.n
        self.eq: list[tuple[dict, float]] = []
        self.ub: list[tuple[dict, float]] = []
        options = system["options"]
        price = system["price"]
        dt = price["dt_h"]
        unit = price["gas_price_per_m3"] * dt / price["hhv_kwh_per_m3"]
        p_lim = system["exchange"]["p_max_kw"] if exchanges else 0.0
        h_lim = system["exchange"]["h_max_kw"] if exchanges else 0.0
        for t in range(N_STEPS):
            for i, com in enumerate(system["communities"]):
                chp, ro, gt, gb, pipe = com["chp"], com["ro"], com["gt"], com["gb"], com["pipeline"]
                q = ro["kwh_per_m3"]
                v = self.index(t, i)
                self.cost[v + P] = unit / chp["eta"]
                self.cost[v + H] = unit / chp["eta"]
                self.cost[v + TP] = unit / ro["eta"]
                self.cost[v + GT] = unit / gt["eta"]
                self.cost[v + GB] = unit / gb["eta"]
                for s in (EP, EN, HP, HN):
                    self.penalty[v + s] = 1.0
                self.penalty[v + WP] = q
                self.penalty[v + WN] = q

                loss = pipeline_loss_kw(pipe)
                if pattern is None:
                    he_box, export_loss = (-h_lim, h_lim), 0.0
                elif pattern[i]:
                    he_box, export_loss = (-h_lim, 0.0), loss
                else:
                    he_box, export_loss = (0.0, h_lim), 0.0
                boxes = {
                    P: (chp["p_min_kw"], chp["p_max_kw"]),
                    H: (0.0, None),
                    TP: (ro["p_tp_min_kw"], ro["p_tp_max_kw"]),
                    W: (0.0, ro["w_max_m3"] / dt),
                    GT: (gt["out_min_kw"], gt["out_max_kw"]),
                    GB: (gb["out_min_kw"], gb["out_max_kw"]),
                    PE: (-p_lim, p_lim),
                    HE: he_box,
                    WIND: (0.0, float(scenario["p_wind"][i, t])),
                    HEFF: (None, None),
                }
                for s in range(N_VARS):
                    self.bounds[v + s] = boxes.get(s, (0.0, None))

                # electric: generation + wind used + import - load = EP - EN
                self.eq.append(({v + P: 1, v + TP: 1, v + W: -q, v + GT: 1, v + WIND: 1, v + PE: 1,
                                 v + EP: -1, v + EN: 1}, float(scenario["p_load"][i, t])))
                # heat supply S = h_chp + h_gb + import - export loss; E is what reaches demand
                link = {v + HEFF: 1, v + H: -1, v + GB: -1, v + HE: -1}
                if options["cap_heat_by_water"]:
                    self.ub.append((link, -export_loss))
                    self.ub.append(({v + HEFF: 1, v + W: -heat_per_m3h_kw(pipe)}, 0.0))
                else:
                    self.eq.append((link, -export_loss))
                demand = float(scenario["h_load"][i, t]) + (loss if options["gross_pipeline_loss"] else 0.0)
                self.eq.append(({v + HEFF: 1, v + HP: -1, v + HN: 1}, demand))
                self.eq.append(({v + W: 1, v + WP: -1, v + WN: 1}, float(scenario["w_load"][i, t])))
                self.ub.append(({v + H: 1, v + P: -chp["b_max"]}, 0.0))
                self.ub.append(({v + P: chp["b_min"], v + H: -1}, 0.0))
                self.ub.append(({v + W: q, v + TP: -1}, 0.0))  # pumping fits in gross output
            for s in (PE, HE):
                self.eq.append(({self.index(t, i) + s: 1 for i in range(N_COMMUNITIES)}, 0.0))

    @staticmethod
    def index(t: int, i: int) -> int:
        return (t * N_COMMUNITIES + i) * N_VARS

    def per_step(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (weights * x).reshape(N_STEPS, -1).sum(axis=1)

    def solve(self, objective: np.ndarray, penalty_caps: np.ndarray | None = None) -> np.ndarray | None:
        ub = list(self.ub)
        if penalty_caps is not None:
            for t in range(N_STEPS):
                block = range(self.index(t, 0), self.index(t + 1, 0))
                ub.append(({j: self.penalty[j] for j in block if self.penalty[j]}, penalty_caps[t]))
        res = linprog(
            objective,
            A_ub=_matrix(ub, self.n), b_ub=[rhs for _, rhs in ub],
            A_eq=_matrix(self.eq, self.n), b_eq=[rhs for _, rhs in self.eq],
            bounds=self.bounds, method="highs",
        )
        return res.x if res.status == 0 else None


def _matrix(rows: list[tuple[dict, float]], n: int):
    r, c, v = [], [], []
    for k, (coeffs, _) in enumerate(rows):
        for j, a in coeffs.items():
            r.append(k)
            c.append(j)
            v.append(float(a))
    return coo_matrix((v, (r, c)), shape=(len(rows), n)).tocsr()


def _programs(scenario: dict, system: dict, exchanges: bool) -> list[_Program]:
    if system["options"]["exchange_loss"] and exchanges:
        patterns = list(itertools.product((False, True), repeat=N_COMMUNITIES))
    else:
        patterns = [None]
    return [_Program(scenario, system, p, exchanges) for p in patterns]


def elastic_day_bound(scenario: dict, system: dict, kappa: float, exchanges: bool = True) -> float:
    """Least day total of fuel cost + kappa * imbalance over all dispatches.

    ``exchanges=False`` fixes every exchange at zero, as independent
    operation does.
    """
    best = np.full(N_STEPS, np.inf)
    for prog in _programs(scenario, system, exchanges):
        objective = prog.cost + kappa * prog.penalty
        x = prog.solve(objective)
        if x is not None:
            best = np.minimum(best, prog.per_step(objective, x))
    return float(best.sum())


def step_bounds(scenario: dict, system: dict) -> StepBounds:
    """Per-step least imbalance, then least cost among zero-imbalance dispatches."""
    min_pen = np.full(N_STEPS, np.inf)
    min_cost = np.full(N_STEPS, np.inf)
    for prog in _programs(scenario, system, exchanges=True):
        x1 = prog.solve(prog.penalty)
        if x1 is None:
            continue
        pen = np.maximum(prog.per_step(prog.penalty, x1), 0.0)
        min_pen = np.minimum(min_pen, pen)
        x2 = prog.solve(prog.cost, penalty_caps=pen + PENALTY_SLACK)
        if x2 is None:
            continue
        cost = np.where(pen <= ABS_TOL, prog.per_step(prog.cost, x2), np.inf)
        min_cost = np.minimum(min_cost, cost)
    return StepBounds(min_penalty=min_pen, min_cost=min_cost)

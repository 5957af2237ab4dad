"""The exact step-LP oracle: hand-derived optima, and HiGHS as a referee.

The hand-derived cases need numpy only.  The property test solves the
same steps with HiGHS through the benchmark's own LP bound
(``bench/lpbound.py``, built from the benchmark's system tree rather than
from the package), and is skipped where scipy is not installed.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iesdispatch.config import load_config
from iesdispatch.env import RewardParams, settle_day
from iesdispatch.scenario import ScenarioSpec, generate_scenario
from iesdispatch.system import (
    FEASIBLE_TOL,
    H_EXCH,
    P_EXCH,
    BalanceOptions,
    CommunityLoads,
    _lexicographic_simplex,
    _programs,
    default_system_config,
    left_sum,
    oracle_day,
    oracle_dispatch,
    setpoint_rows,
    sum_last,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
SYS = default_system_config()
# Fuel cost of one kW for one hour of a unit of efficiency 1, at the default price.
UNIT = 3.5 / 9.7
CHP_ETA, RO_ETA = 0.90, 0.40
OPTION_SETS = [BalanceOptions(*flags) for flags in itertools.product((False, True), repeat=3)]


def _loads(p, h, w):
    return CommunityLoads(p_load=p, h_load=h, w_load=w)


def solve_day(day, sys_cfg):
    """The oracle's setpoints of a scenario's day, settled and priced."""
    setpoints = oracle_day(day.p_load.T, day.h_load.T, day.w_load.T, day.p_wind.T, sys_cfg)
    return settle_day(day, slice(None), setpoints, sys_cfg, RewardParams())


class TestHandDerivedOptima:
    def test_single_loaded_community(self):
        # Communities 2 and 3 must run their CHP at its 1000 kW floor.  Their
        # 2000 kW surplus can reach community 1 only up to the 1000 kW import
        # limit, so 1000 kW of imbalance is unavoidable; community 1 makes
        # the other 2000 kW of its load on its CHP, the cheapest unit.
        loads = [_loads(3000.0, 0.0, 0.0), _loads(0.0, 0.0, 0.0), _loads(0.0, 0.0, 0.0)]
        step = oracle_dispatch(loads, [0.0] * 3, SYS)
        assert not step.feasible
        assert step.penalty == pytest.approx(1000.0, abs=1e-6)
        assert step.decisions[0].p_chp == pytest.approx(2000.0, abs=1e-6)
        assert step.decisions[0].p_exch == pytest.approx(1000.0, abs=1e-6)
        assert step.cost.total == pytest.approx(UNIT * 4000.0 / CHP_ETA, rel=1e-12)

    def test_all_zero_loads(self):
        # Each CHP runs at its floor and nothing can absorb it: no exchange
        # helps, and pumping water only shifts power within the cogeneration unit.
        step = oracle_dispatch([_loads(0.0, 0.0, 0.0)] * 3, [0.0] * 3, SYS)
        assert step.penalty == pytest.approx(3000.0, abs=1e-6)
        assert step.cost.total == pytest.approx(UNIT * 3000.0 / CHP_ETA, rel=1e-12)
        for d in step.decisions:
            assert (d.p_exch, d.h_exch, d.p_tp, d.w_rate, d.p_gt, d.h_gb) == (0.0,) * 6

    @pytest.mark.parametrize("options", OPTION_SETS, ids=str)
    def test_symmetric_day(self, options):
        # Equal communities trade nothing.  Each uses all of its wind, pumps
        # its water on the cogeneration unit's gross output, makes the rest
        # of its power on the CHP, and its heat (load, plus the pipe loss
        # when grossed up) at the CHP's and the boiler's common efficiency.
        day = generate_scenario(ScenarioSpec(profile="uniform"))
        sys_cfg = dataclasses.replace(SYS, options=options)
        settled = solve_day(day, sys_cfg)
        loss = sys_cfg.fleet.loss[0] if options.gross_pipeline_loss else 0.0
        per_step = UNIT * ((3000.0 - 500.0) / CHP_ETA + (1500.0 + loss) / CHP_ETA + 8.0 * 80.0 / RO_ETA)
        assert (sum_last(settled.balance.penalty) <= 1e-9).all()
        for cost in sum_last(settled.cost):
            assert cost == pytest.approx(3 * per_step, rel=1e-12)
        assert (settled.setpoints[..., P_EXCH] == 0.0).all() and (settled.setpoints[..., H_EXCH] == 0.0).all()
        assert (settled.wind - settled.balance.curtailed == 500.0).all()

    def test_one_step_call_equals_the_day(self):
        day = generate_scenario(ScenarioSpec(noise_std=0.05, seed=7))
        settled = solve_day(day, SYS)
        for t in (0, 11, 23):
            loads = [_loads(*(float(q[i, t]) for q in (day.p_load, day.h_load, day.w_load))) for i in range(3)]
            step = oracle_dispatch(loads, day.p_wind[:, t].tolist(), SYS)
            assert (setpoint_rows(step.decisions) == settled.setpoints[t]).all()
            assert step.cost.per_community == tuple(settled.cost[t].tolist())
            assert step.penalty == left_sum(settled.balance.penalty[t].tolist())
            assert step.feasible == (step.penalty <= FEASIBLE_TOL)
            used = (settled.wind - settled.balance.curtailed)[t].tolist()
            assert [d.wind_used for d in step.decisions] == used


@pytest.mark.parametrize("options", OPTION_SETS, ids=str)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_each_program_solves_as_it_would_alone(options, seed, steps):
    """The batch changes no tableau's arithmetic: a pivot of the whole batch
    runs in place and one of part of it on a gathered copy, and each
    program's vertex equals its solve as a batch of one (always in place)."""
    rng = np.random.default_rng(seed)
    scale = np.array([9000.0, 6000.0, 700.0, 4000.0])  # electric, heat, water, wind
    p_load, h_load, w_load, wind = rng.uniform(0.0, 1.0, (4, steps, 3)) * scale[:, None, None]
    prog = _programs(p_load, h_load, w_load, wind, dataclasses.replace(SYS, options=options), 1.0)
    x = _lexicographic_simplex(prog)
    for k in range(len(x)):
        one = prog._replace(b=prog.b[k : k + 1], lo=prog.lo[k : k + 1], hi=prog.hi[k : k + 1])
        assert (_lexicographic_simplex(one)[0] == x[k]).all(), k


@pytest.mark.parametrize("options", OPTION_SETS, ids=str)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_every_step_meets_the_highs_optimum(options, seed):
    """Every settled step has the LP's least imbalance (never less), and
    every balanced step costs the zero-imbalance LP optimum."""
    pytest.importorskip("scipy")
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import lpbound
    from workloads import NOISE_STD, system_tree

    tree = system_tree(strict=False)
    tree["options"] = {
        "gross_pipeline_loss": options.gross_pipeline_loss,
        "cap_heat_by_water": options.cap_heat_by_water,
        "exchange_loss": options.exchange_loss,
    }
    sys_cfg = load_config(None, {"system": tree}).system
    day = generate_scenario(ScenarioSpec(profile="complementary-winter", noise_std=NOISE_STD, seed=seed))
    settled = solve_day(day, sys_cfg)
    penalties, costs = sum_last(settled.balance.penalty), sum_last(settled.cost)
    scenario = {"p_load": day.p_load, "h_load": day.h_load, "w_load": day.w_load, "p_wind": day.p_wind}
    bounds = lpbound.step_bounds(scenario, tree)
    for t, (penalty, cost) in enumerate(zip(penalties, costs)):
        assert penalty >= bounds.min_penalty[t] - 1e-6, t
        assert penalty <= bounds.min_penalty[t] + 1e-6, t
        if penalty <= FEASIBLE_TOL:
            assert np.isfinite(bounds.min_cost[t]), t
            assert cost == pytest.approx(bounds.min_cost[t], rel=1e-7), t

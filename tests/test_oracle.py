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

from iesdispatch import system
from iesdispatch.config import load_config
from iesdispatch.devices import ChpParams, GasUnitParams
from iesdispatch.env import settle_day
from iesdispatch.scenario import PROFILES, ScenarioSpec, generate_scenario
from iesdispatch.system import (
    FEASIBLE_TOL,
    H_EXCH,
    P_CHP,
    P_EXCH,
    P_TP,
    BalanceOptions,
    CommunityConfig,
    ExchangeLimits,
    SystemConfig,
    _lexicographic_simplex,
    _programs,
    default_system_config,
    fuel_cost,
    oracle_day,
    settle,
    sum_last,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
SYS = default_system_config()
# Fuel cost of one kW for one hour of a unit of efficiency 1, at the default price.
UNIT = 3.5 / 9.7
CHP_ETA, RO_ETA = 0.90, 0.40
OPTION_SETS = [BalanceOptions(*flags) for flags in itertools.product((False, True), repeat=3)]


def solve_step(loads, wind):
    """The oracle's setpoints (3, 8) of one step of (p, h, w) loads per
    community, with the step's summed penalty and cost."""
    p_load, h_load, w_load = (np.array([[load[k] for load in loads]], dtype=float) for k in range(3))
    wind = np.array([wind], dtype=float)
    x = oracle_day(p_load, h_load, w_load, wind, SYS)
    penalty = sum_last(settle(x, p_load, h_load, w_load, wind, SYS.fleet, SYS.options).penalty)[0]
    return x[0], penalty, sum_last(fuel_cost(x, SYS.fleet, SYS.price))[0]


def solve_day(day, sys_cfg):
    """The oracle's setpoints of a scenario's day, settled and priced."""
    setpoints = oracle_day(day.p_load.T, day.h_load.T, day.w_load.T, day.p_wind.T, sys_cfg)
    return settle_day(day, setpoints, sys_cfg)


class TestHandDerivedOptima:
    def test_single_loaded_community(self):
        # Communities 2 and 3 must run their CHP at its 1000 kW floor.  Their
        # 2000 kW surplus can reach community 1 only up to the 1000 kW import
        # limit, so 1000 kW of imbalance is unavoidable; community 1 makes
        # the other 2000 kW of its load on its CHP, the cheapest unit.
        x, penalty, cost = solve_step([(3000.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)], [0.0] * 3)
        assert penalty == pytest.approx(1000.0, abs=1e-6)
        assert x[0, P_CHP] == pytest.approx(2000.0, abs=1e-6)
        assert x[0, P_EXCH] == pytest.approx(1000.0, abs=1e-6)
        assert cost == pytest.approx(UNIT * 4000.0 / CHP_ETA, rel=1e-12)

    def test_all_zero_loads(self):
        # Each CHP runs at its floor and nothing can absorb it: no exchange
        # helps, and pumping water only shifts power within the cogeneration unit.
        x, penalty, cost = solve_step([(0.0, 0.0, 0.0)] * 3, [0.0] * 3)
        assert penalty == pytest.approx(3000.0, abs=1e-6)
        assert cost == pytest.approx(UNIT * 3000.0 / CHP_ETA, rel=1e-12)
        assert (x[:, P_TP:] == 0.0).all()  # p_tp, w_rate, p_gt, h_gb and both exchanges

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

    @pytest.mark.parametrize("options", OPTION_SETS, ids=str)
    def test_a_step_solved_alone_equals_the_day(self, options):
        day = generate_scenario(ScenarioSpec(noise_std=0.05, seed=7))
        sys_cfg = dataclasses.replace(SYS, options=options)
        settled = solve_day(day, sys_cfg)
        for t in (0, 11, 23):
            alone = oracle_day(*(q[:, t : t + 1].T for q in (day.p_load, day.h_load, day.w_load, day.p_wind)), sys_cfg)
            assert (alone[0] == settled.setpoints[t]).all(), t


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
    prog = _programs(p_load, h_load, w_load, wind, dataclasses.replace(SYS, options=options))
    x = _lexicographic_simplex(prog)
    for k in range(len(x)):
        one = prog._replace(b=prog.b[k : k + 1], lo=prog.lo[k : k + 1], hi=prog.hi[k : k + 1])
        assert (_lexicographic_simplex(one)[0] == x[k]).all(), k


@pytest.mark.parametrize("options", [OPTION_SETS[0], OPTION_SETS[-1]], ids=str)
def test_a_pivot_changes_only_rows_with_a_nonzero_multiplier(options, monkeypatch):
    """Each pivot of a real day's batch leaves bit for bit the rows whose
    multiplier is zero in every pivoting tableau, and leaves every entry of
    the tableaus and reduced costs ``==`` to an update of all their rows."""
    day = generate_scenario(ScenarioSpec(noise_std=0.05, seed=7))
    prog = _programs(day.p_load.T, day.h_load.T, day.w_load.T, day.p_wind.T, dataclasses.replace(SYS, options=options))
    real_pivot = system._pivot
    batches = set()

    def pivot(act, j, tab, beta, z, basis, *rest):
        tab0, z0, basis0 = tab.copy(), z.copy(), basis.copy()
        real_pivot(act, j, tab, beta, z, basis, *rest)
        moved = basis != basis0
        pivoted = np.flatnonzero(moved.any(axis=1))
        k, r = np.arange(len(pivoted)), moved[pivoted].argmax(axis=1)
        entering = basis[pivoted, r]
        mult = tab0[pivoted, :, entering]
        pivot_row = tab0[pivoted, r] / mult[k, r][:, None]
        want, want_z = tab0.copy(), z0.copy()
        want[pivoted] -= mult[:, :, None] * pivot_row[:, None, :]
        want[pivoted, r] = pivot_row
        want_z[pivoted] -= z0[pivoted, :, entering][:, :, None] * pivot_row[:, None, :]
        idle = ~mult.any(axis=0)
        assert tab[:, idle].tobytes() == tab0[:, idle].tobytes()
        assert (tab == want).all() and (z == want_z).all()
        if pivoted.size:
            batches.add(pivoted.size == len(tab))

    monkeypatch.setattr(system, "_pivot", pivot)
    _lexicographic_simplex(prog)
    assert batches == {True, False}  # the whole-batch and the partial-batch branch


def test_the_export_patterns_leave_out_only_all_three_exporting():
    every = tuple(itertools.product((False, True), repeat=3))
    assert system._EXPORT_PATTERNS == tuple(p for p in every if p != (True, True, True))


@given(
    data=st.data(),
    gross=st.booleans(),
    cap=st.booleans(),
    profile=st.sampled_from(PROFILES),
    amplitude=st.floats(0.0, 1.5),
    noise=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_all_three_exporting_never_wins(data, gross, cap, profile, amplitude, noise, seed):
    """Solving the all-export pattern too changes no byte of the oracle's
    day, over random fleets and days under ``exchange_loss``."""
    kw = st.floats(0.0, 2000.0)
    communities = tuple(
        CommunityConfig(
            id=i,
            chp=ChpParams(p_min=data.draw(st.floats(1.0, 2000.0)), b_min=data.draw(st.floats(0.0, 1.0))),
            gt=GasUnitParams(out_min=data.draw(kw), out_max=3000.0, eta=0.35),
            gb=GasUnitParams(out_min=data.draw(kw), out_max=3000.0, eta=0.90),
        )
        for i in (1, 2, 3)
    )
    sys_cfg = SystemConfig(
        communities=communities,
        limits=ExchangeLimits(data.draw(kw), data.draw(kw)),
        options=BalanceOptions(gross, cap, exchange_loss=True),
    )
    day = generate_scenario(ScenarioSpec(profile=profile, amplitude=amplitude, noise_std=noise, seed=seed))
    loads = (day.p_load.T, day.h_load.T, day.w_load.T, day.p_wind.T)
    seven = oracle_day(*loads, sys_cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system, "_EXPORT_PATTERNS", tuple(itertools.product((False, True), repeat=3)))
        eight = oracle_day(*loads, sys_cfg)
    assert seven.tobytes() == eight.tobytes()


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

"""Tests for clipping, exchange projection, balances, cost and the oracle."""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iesdispatch.devices import FuelPrice
from iesdispatch.system import (
    B_CHP,
    H_EXCH,
    H_GB,
    P_CHP,
    P_EXCH,
    P_GT,
    P_TP,
    SETPOINTS,
    W_RATE,
    BalanceOptions,
    CommunityConfig,
    ExchangeLimits,
    Settlement,
    SystemConfig,
    clip_box,
    default_system_config,
    fleet_of,
    fuel_cost,
    oracle_day,
    project_rows,
    setpoint_box,
    settle,
    sum_last,
    water_rate_cap,
)
from iesdispatch.thermal import pipeline_heat_loss, required_heat_supply

CFG = CommunityConfig(id=1)
SYS = default_system_config()
PRICE = FuelPrice()
LIMITS = ExchangeLimits()


def make_row(**kw) -> np.ndarray:
    """One community's setpoints (1, 8) in ``SETPOINTS`` order."""
    base = dict(p_chp=2000.0, b_chp=0.5, p_tp=2000.0, w_rate=100.0, p_gt=500.0, h_gb=500.0, p_exch=0.0, h_exch=0.0)
    base.update(kw)
    return np.array([[base[name] for name in SETPOINTS]])


def clip(x, limits=None, cfg=CFG):
    fleet = fleet_of((cfg,))
    lo, hi = setpoint_box(fleet, limits, 1.0)
    return clip_box(x, lo, hi, fleet.q)


def balance(x, p_load, h_load, w_load, wind, options=BalanceOptions(), cfg=CFG) -> Settlement:
    """One community's settlement, as floats."""
    return Settlement(*(float(v[0]) for v in settle(x, p_load, h_load, w_load, wind, fleet_of((cfg,)), options)))


def cost(x, cfg=CFG) -> float:
    return float(fuel_cost(x, fleet_of((cfg,)), PRICE)[0])


class TestClipBox:
    def test_chp_upper_bound(self):
        assert clip(make_row(p_chp=6000.0))[0, P_CHP] == 5000.0

    def test_in_range_unchanged(self):
        row = make_row()
        np.testing.assert_array_equal(clip(row, LIMITS), row)

    def test_ratio_upper_bound(self):
        assert clip(make_row(b_chp=1.5))[0, B_CHP] == 1.4

    def test_idempotent(self):
        raw = make_row(p_chp=9000.0, b_chp=-3.0, p_tp=-100.0, w_rate=700.0, p_gt=1e5, h_gb=-5.0)
        once = clip(raw, LIMITS)
        np.testing.assert_array_equal(clip(once.copy(), LIMITS), once)

    def test_water_reduced_after_gross_power(self):
        # gross power 400 kW can only pump 50 m3/h at 8 kWh/m3
        clipped = clip(make_row(p_tp=400.0, w_rate=200.0))[0]
        assert clipped[P_TP] == 400.0
        assert clipped[W_RATE] == pytest.approx(50.0)
        assert clipped[P_TP] - CFG.ro.kwh_per_m3 * clipped[W_RATE] >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        p_tp=st.floats(0.0, 5000.0, allow_nan=False),
        q=st.sampled_from([7.3, 8.0, 9.7, 3.0, 0.1]),
    )
    def test_water_cap_never_overdraws_gross_power(self, p_tp, q):
        # p_tp / q can round up, so the cap is lowered until q * cap <= p_tp
        # holds exactly, and no further.
        cap = float(water_rate_cap(p_tp, q, 1e12))
        assert q * cap <= p_tp
        assert cap == p_tp / q or q * math.nextafter(cap, math.inf) > p_tp
        cfg = dataclasses.replace(CFG, ro=dataclasses.replace(CFG.ro, kwh_per_m3=q))
        clipped = clip(make_row(p_tp=p_tp, w_rate=1e12), cfg=cfg)[0]
        assert clipped[P_TP] - q * clipped[W_RATE] >= 0.0

    def test_exchange_clamped_when_limits_given(self):
        clipped = clip(make_row(p_exch=2500.0, h_exch=-1700.0), LIMITS)[0]
        assert clipped[P_EXCH] == 1000.0
        assert clipped[H_EXCH] == -1000.0
        unbounded = clip(make_row(p_exch=2500.0, h_exch=-1700.0))[0]
        assert (unbounded[P_EXCH], unbounded[H_EXCH]) == (2500.0, -1700.0)


def project(p_raw, h_raw, p_max=1000.0, h_max=1000.0):
    p, h = project_rows(np.array([p_raw, h_raw], dtype=float), [p_max, h_max]).tolist()
    return tuple(p), tuple(h)


class TestProjectRows:
    def test_feasible_unchanged(self):
        p, h = project([500.0, -300.0, -200.0], [0.0, 0.0, 0.0])
        assert p == (500.0, -300.0, -200.0)
        assert h == (0.0, 0.0, 0.0)

    def test_mean_subtraction(self):
        p, _ = project([600.0, 600.0, 600.0], [0.0, 0.0, 0.0])
        assert p == (0.0, 0.0, 0.0)

    def test_uniform_scaling(self):
        p, _ = project([2000.0, -1000.0, -1000.0], [0.0, 0.0, 0.0])
        assert p == pytest.approx((1000.0, -500.0, -500.0))

    @given(st.lists(st.floats(-5000.0, 5000.0), min_size=3, max_size=3),
           st.lists(st.floats(-5000.0, 5000.0), min_size=3, max_size=3))
    def test_projection_properties(self, p_raw, h_raw):
        p, h = project(p_raw, h_raw, 1000.0, 800.0)
        assert abs(sum(p)) < 1e-9
        assert abs(sum(h)) < 1e-9
        assert sum(abs(x) for x in p) <= 2000.0 + 1e-9
        assert sum(abs(x) for x in h) <= 1600.0 + 1e-9
        # zero-sum plus the magnitude cap bounds every component
        assert all(abs(x) <= 1000.0 + 1e-9 for x in p)
        assert all(abs(x) <= 800.0 + 1e-9 for x in h)

    @given(st.lists(st.floats(-3000.0, 3000.0), min_size=3, max_size=3))
    def test_idempotent(self, raw):
        p1, _ = project(raw, [0.0] * 3)
        p2, _ = project(p1, [0.0] * 3)
        assert p2 == pytest.approx(p1, abs=1e-9)


class TestSettle:
    def test_exactly_balanced(self):
        row = make_row(p_chp=2000.0, b_chp=0.5, p_tp=1800.0, w_rate=100.0, p_gt=0.0, h_gb=0.0)
        # generation: 2000 + (1800 - 800) + 0 = 3000 kW; heat 1000; water 100
        result = balance(row, 3000.0, 1000.0, 100.0, 0.0)
        assert result.penalty == pytest.approx(0.0, abs=1e-9)
        assert result.curtailed == 0.0

    def test_free_curtailment_absorbs_surplus(self):
        # the load exceeds non-wind generation by 500, so 1500 of the
        # 2000 kW of wind is spilled and the balance still closes
        row = make_row(p_chp=1000.0, b_chp=0.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        result = balance(row, 1500.0, 0.0, 0.0, 2000.0)
        assert result.curtailed == pytest.approx(1500.0)
        assert result.d_elec == pytest.approx(0.0)

    def test_water_shortfall_weighted(self):
        row = make_row(p_chp=1000.0, b_chp=0.0, p_tp=800.0, w_rate=100.0, p_gt=0.0, h_gb=0.0)
        result = balance(row, 0.0, 0.0, 150.0, 0.0)
        assert result.d_water == pytest.approx(50.0)
        assert result.penalty == pytest.approx(result.d_elec + result.d_heat + 8.0 * 50.0)

    def test_pumping_draws_on_the_gross_output(self):
        # 100 m3/h at 8 kWh/m3 takes 800 kW of the 5000 kW gross output
        row = make_row(p_chp=1000.0, b_chp=0.0, p_tp=5000.0, w_rate=100.0, p_gt=0.0, h_gb=0.0)
        assert balance(row, 5200.0, 0.0, 100.0, 0.0).d_elec == pytest.approx(0.0, abs=1e-9)

    def test_chp_heat_is_ratio_times_power(self):
        row = make_row(p_chp=5000.0, b_chp=1.4, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        assert balance(row, 5000.0, 7000.0, 0.0, 0.0).penalty == pytest.approx(0.0, abs=1e-9)

    def test_gross_pipeline_loss_mode(self):
        row = make_row(p_chp=1000.0, b_chp=1.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        strict = BalanceOptions(gross_pipeline_loss=True)
        loss = pipeline_heat_loss(CFG.pipeline)
        result = balance(row, 0.0, 1000.0, 0.0, 0.0, strict)
        assert result.d_heat == pytest.approx(abs(1000.0 - required_heat_supply(1000.0, loss)))

    def test_heat_capped_by_water_mode(self):
        row = make_row(p_chp=3000.0, b_chp=1.4, p_tp=1000.0, w_rate=10.0, p_gt=0.0, h_gb=1000.0)
        capped = balance(row, 0.0, 5000.0, 10.0, 0.0, BalanceOptions(cap_heat_by_water=True))
        plain = balance(row, 0.0, 5000.0, 10.0, 0.0)
        # 10 m3 of water can carry far less than 5200 kW of heat
        assert capped.d_heat > plain.d_heat

    def test_exporter_pays_exchange_loss(self):
        row = make_row(p_chp=1000.0, b_chp=1.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0, h_exch=-200.0)
        lossy = balance(row, 0.0, 1000.0, 0.0, 0.0, BalanceOptions(exchange_loss=True))
        loss = pipeline_heat_loss(CFG.pipeline)
        assert lossy.d_heat == pytest.approx(abs(1000.0 - 200.0 - loss - 1000.0))

    @given(
        st.floats(1000.0, 5000.0), st.floats(0.0, 1.4), st.floats(0.0, 5000.0),
        st.floats(0.0, 3000.0), st.floats(0.0, 3000.0), st.floats(0.0, 3000.0),
        st.floats(0.0, 2000.0),
    )
    @settings(max_examples=50)
    def test_penalty_zero_iff_balanced(self, p_chp, b, p_tp, p_gt, h_gb, p_load, wind):
        w = min(100.0, p_tp / 8.0)
        row = make_row(p_chp=p_chp, b_chp=b, p_tp=p_tp, w_rate=w, p_gt=p_gt, h_gb=h_gb)
        result = balance(row, p_load, b * p_chp + h_gb, w, wind)
        surplus = p_chp + (p_tp - 8.0 * w) + p_gt + wind - p_load
        balanced = 0.0 - 1e-9 <= surplus <= wind + 1e-9
        assert (result.penalty <= 1e-6) == balanced


class TestFuelCost:
    def test_all_zero_dispatch_is_free(self):
        zero = np.zeros((1, 3, len(SETPOINTS)))
        assert (fuel_cost(zero, SYS.fleet, PRICE) == 0.0).all()

    def test_single_turbine_reference(self):
        x = np.zeros((1, 3, len(SETPOINTS)))
        x[0, 0, P_GT] = 3000.0
        per_community = fuel_cost(x, SYS.fleet, PRICE)[0]
        assert per_community[0] == pytest.approx(3000.0 / (0.35 * 9.7) * 3.5, rel=1e-12)
        assert per_community[1] == 0.0

    def test_each_output_at_its_efficiency(self):
        # the CHP's power and heat at 0.90, the cogeneration unit's net
        # output and pumping at 0.40, turbine 0.35, boiler 0.90
        row = make_row(p_chp=2000.0, b_chp=0.5, p_tp=2000.0, w_rate=100.0, p_gt=500.0, h_gb=500.0)
        expected = 3.5 / 9.7 * ((2000.0 + 1000.0) / 0.9 + 2000.0 / 0.4 + 500.0 / 0.35 + 500.0 / 0.9)
        assert cost(row) == pytest.approx(expected, rel=1e-12)

    def test_exchange_carries_no_price(self):
        assert cost(make_row()) == cost(make_row(p_exch=800.0, h_exch=-400.0))

    @given(st.floats(1000.0, 4999.0), st.floats(0.0, 100.0))
    @settings(max_examples=25)
    def test_monotone_in_output(self, p_chp, dp):
        assert cost(make_row(p_chp=p_chp + dp)) >= cost(make_row(p_chp=p_chp))


class Step(NamedTuple):
    """One oracle step: setpoints (3, 8), settlement and cost per community."""

    x: np.ndarray
    settled: Settlement
    cost: np.ndarray

    @property
    def penalty(self) -> float:
        return float(sum_last(self.settled.penalty))


def oracle_step(loads, wind, sys_cfg=SYS) -> Step:
    """The oracle's dispatch of one step of (p, h, w) loads per community, settled."""
    p_load, h_load, w_load = (np.array([[load[k] for load in loads]], dtype=float) for k in range(3))
    wind = np.array([wind], dtype=float)
    x = oracle_day(p_load, h_load, w_load, wind, sys_cfg)
    settled = settle(x, p_load, h_load, w_load, wind, sys_cfg.fleet, sys_cfg.options)
    return Step(x[0], Settlement(*(v[0] for v in settled)), fuel_cost(x, sys_cfg.fleet, sys_cfg.price)[0])


class TestOracle:
    def test_all_zero_loads_reports_forced_minima(self):
        step = oracle_step([(0.0, 0.0, 0.0)] * 3, [0.0] * 3)
        assert step.penalty > 1e-6
        for d in step.x:
            assert d[P_CHP] == pytest.approx(1000.0)  # unit cannot switch off
            assert d[P_TP] == pytest.approx(0.0)
            assert d[P_GT] == pytest.approx(0.0)
            assert d[H_GB] == pytest.approx(0.0)
        # cost of running the three units at their forced floors
        assert float(sum_last(step.cost)) == pytest.approx(3 * step.cost[0], rel=1e-9)

    def test_single_loaded_community_uses_cheapest_unit(self):
        # CHP is the cheapest electric source under the default efficiencies,
        # so a 3000 kW electric-only load lands entirely on it.
        step = oracle_step([(3000.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)], [0.0] * 3)
        assert step.penalty > 1e-6  # communities 2 and 3 cannot shed their forced minimum
        assert step.x[0, P_GT] == pytest.approx(0.0, abs=1e-9)
        assert step.x[0, P_TP] == pytest.approx(0.0, abs=1e-9)

    def test_feasible_balanced_scenario(self):
        step = oracle_step([(3000.0, 1500.0, 80.0)] * 3, [500.0] * 3)
        assert step.penalty <= 1e-6

    def test_symmetric_scenario_has_zero_exchanges(self):
        step = oracle_step([(3000.0, 1500.0, 80.0)] * 3, [500.0] * 3)
        np.testing.assert_allclose(step.x[:, P_EXCH:], 0.0, atol=1e-9)

    def test_relabeling_permutes_solution(self):
        loads = [(4000.0, 2000.0, 100.0), (2000.0, 500.0, 40.0), (3000.0, 1500.0, 80.0)]
        wind = [300.0, 800.0, 0.0]
        base = oracle_step(loads, wind)
        perm = [1, 2, 0]
        swapped = oracle_step([loads[i] for i in perm], [wind[i] for i in perm])
        assert float(sum_last(swapped.cost)) == pytest.approx(float(sum_last(base.cost)), rel=1e-9)
        for new_pos, old_pos in enumerate(perm):
            assert swapped.x[new_pos, P_CHP] == pytest.approx(base.x[old_pos, P_CHP], abs=1e-6)
            assert swapped.x[new_pos, P_EXCH] == pytest.approx(base.x[old_pos, P_EXCH], abs=1e-6)

    def test_oracle_zero_penalty_verified_by_balance(self):
        loads = [(4000.0, 2000.0, 100.0), (2500.0, 800.0, 60.0), (2000.0, 1800.0, 50.0)]
        wind = [500.0, 1200.0, 300.0]
        step = oracle_step(loads, wind)
        assert step.penalty <= 1e-6
        for i, cfg in enumerate(SYS.communities):
            assert balance(step.x[i : i + 1], *loads[i], wind[i], cfg=cfg).penalty <= 1e-6

    def test_strict_modes_consistent_with_balance(self):
        strict = dataclasses.replace(
            SYS,
            options=BalanceOptions(gross_pipeline_loss=True, cap_heat_by_water=True, exchange_loss=True),
        )
        loads = [(4000.0, 2000.0, 100.0), (2500.0, 800.0, 60.0), (2000.0, 1800.0, 50.0)]
        wind = [500.0, 1200.0, 300.0]
        step = oracle_step(loads, wind, strict)
        recomputed = sum(
            balance(step.x[i : i + 1], *loads[i], wind[i], strict.options, strict.communities[i]).penalty
            for i in range(3)
        )
        assert step.penalty == pytest.approx(recomputed, abs=1e-6)

    def test_exchanges_conserve(self):
        loads = [(7200.0, 2000.0, 150.0), (1600.0, 800.0, 60.0), (1500.0, 1800.0, 50.0)]
        wind = [1200.0, 1500.0, 400.0]
        step = oracle_step(loads, wind)
        assert abs(step.x[:, P_EXCH].sum()) < 1e-9
        assert abs(step.x[:, H_EXCH].sum()) < 1e-9
        assert np.abs(step.x[:, P_EXCH]).sum() <= 2 * SYS.limits.p_max + 1e-9


class TestSystemConfigValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(communities=(CommunityConfig(id=1), CommunityConfig(id=1), CommunityConfig(id=3)))

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(communities=(CommunityConfig(id=1), CommunityConfig(id=2)))

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError):
            CommunityConfig(id=4)

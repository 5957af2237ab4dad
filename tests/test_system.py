"""Tests for clipping, exchange projection, balances, cost and the oracle."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from iesdispatch.devices import FuelPrice
from iesdispatch.system import (
    BalanceOptions,
    CommunityConfig,
    CommunityLoads,
    DispatchDecision,
    ExchangeLimits,
    SystemConfig,
    clip_to_limits,
    community_cost,
    default_system_config,
    oracle_dispatch,
    power_balance,
    project_exchanges,
    total_cost,
    water_rate_cap,
)
from iesdispatch.thermal import pipeline_heat_loss, required_heat_supply

CFG = CommunityConfig(id=1)
SYS = default_system_config()
PRICE = FuelPrice()
LIMITS = ExchangeLimits()


def make_decision(**kw) -> DispatchDecision:
    base = dict(p_chp=2000.0, b_chp=0.5, p_tp=2000.0, w_rate=100.0, p_gt=500.0, h_gb=500.0)
    base.update(kw)
    return DispatchDecision(**base)


class TestClipToLimits:
    def test_chp_upper_bound(self):
        clipped = clip_to_limits(make_decision(p_chp=6000.0), CFG)
        assert clipped.p_chp == 5000.0

    def test_in_range_unchanged(self):
        decision = make_decision()
        assert clip_to_limits(decision, CFG, LIMITS) == decision

    def test_ratio_upper_bound(self):
        assert clip_to_limits(make_decision(b_chp=1.5), CFG).b_chp == 1.4

    def test_idempotent(self):
        raw = make_decision(p_chp=9000.0, b_chp=-3.0, p_tp=-100.0, w_rate=700.0, p_gt=1e5, h_gb=-5.0)
        once = clip_to_limits(raw, CFG, LIMITS)
        assert clip_to_limits(once, CFG, LIMITS) == once

    def test_water_reduced_after_gross_power(self):
        # gross power 400 kW can only pump 50 m3/h at 8 kWh/m3
        clipped = clip_to_limits(make_decision(p_tp=400.0, w_rate=200.0), CFG)
        assert clipped.p_tp == 400.0
        assert clipped.w_rate == pytest.approx(50.0)
        assert clipped.p_tp - CFG.ro.kwh_per_m3 * clipped.w_rate >= 0.0

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
        clipped = clip_to_limits(make_decision(p_tp=p_tp, w_rate=1e12), cfg)
        assert clipped.p_tp - q * clipped.w_rate >= 0.0

    def test_exchange_clamped_when_limits_given(self):
        clipped = clip_to_limits(make_decision(p_exch=2500.0, h_exch=-1700.0), CFG, LIMITS)
        assert clipped.p_exch == 1000.0
        assert clipped.h_exch == -1000.0


class TestProjectExchanges:
    def test_feasible_unchanged(self):
        p, h = project_exchanges([500.0, -300.0, -200.0], [0.0, 0.0, 0.0], 1000.0, 1000.0)
        assert p == (500.0, -300.0, -200.0)
        assert h == (0.0, 0.0, 0.0)

    def test_mean_subtraction(self):
        p, _ = project_exchanges([600.0, 600.0, 600.0], [0.0, 0.0, 0.0], 1000.0, 1000.0)
        assert p == (0.0, 0.0, 0.0)

    def test_uniform_scaling(self):
        p, _ = project_exchanges([2000.0, -1000.0, -1000.0], [0.0, 0.0, 0.0], 1000.0, 1000.0)
        assert p == pytest.approx((1000.0, -500.0, -500.0))

    @given(st.lists(st.floats(-5000.0, 5000.0), min_size=3, max_size=3),
           st.lists(st.floats(-5000.0, 5000.0), min_size=3, max_size=3))
    def test_projection_properties(self, p_raw, h_raw):
        p, h = project_exchanges(p_raw, h_raw, 1000.0, 800.0)
        assert abs(sum(p)) < 1e-9
        assert abs(sum(h)) < 1e-9
        assert sum(abs(x) for x in p) <= 2000.0 + 1e-9
        assert sum(abs(x) for x in h) <= 1600.0 + 1e-9
        # zero-sum plus the magnitude cap bounds every component
        assert all(abs(x) <= 1000.0 + 1e-9 for x in p)
        assert all(abs(x) <= 800.0 + 1e-9 for x in h)

    @given(st.lists(st.floats(-3000.0, 3000.0), min_size=3, max_size=3))
    def test_idempotent(self, raw):
        p1, _ = project_exchanges(raw, [0.0] * 3, 1000.0, 1000.0)
        p2, _ = project_exchanges(p1, [0.0] * 3, 1000.0, 1000.0)
        assert p2 == pytest.approx(p1, abs=1e-9)


class TestPowerBalance:
    def test_exactly_balanced(self):
        loads = CommunityLoads(p_load=3000.0, h_load=1000.0, w_load=100.0)
        decision = make_decision(p_chp=2000.0, b_chp=0.5, p_tp=1800.0, w_rate=100.0, p_gt=0.0, h_gb=0.0)
        # generation: 2000 + (1800 - 800) + 0 = 3000 kW; heat 1000; water 100
        result = power_balance(decision, loads, wind_avail=0.0, cfg=CFG)
        assert result.penalty == pytest.approx(0.0, abs=1e-9)
        assert result.curtailed == 0.0

    def test_free_curtailment_absorbs_surplus(self):
        # the load exceeds non-wind generation by 500, so 1500 of the
        # 2000 kW of wind is spilled and the balance still closes
        loads = CommunityLoads(p_load=1500.0, h_load=0.0, w_load=0.0)
        decision = make_decision(p_chp=1000.0, b_chp=0.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        result = power_balance(decision, loads, wind_avail=2000.0, cfg=CFG)
        assert result.curtailed == pytest.approx(1500.0)
        assert result.d_elec == pytest.approx(0.0)

    def test_water_shortfall_weighted(self):
        loads = CommunityLoads(p_load=0.0, h_load=0.0, w_load=150.0)
        decision = make_decision(p_chp=1000.0, b_chp=0.0, p_tp=800.0, w_rate=100.0, p_gt=0.0, h_gb=0.0)
        result = power_balance(decision, loads, wind_avail=0.0, cfg=CFG)
        assert result.d_water == pytest.approx(50.0)
        assert result.penalty == pytest.approx(result.d_elec + result.d_heat + 8.0 * 50.0)

    def test_gross_pipeline_loss_mode(self):
        loads = CommunityLoads(p_load=0.0, h_load=1000.0, w_load=0.0)
        decision = make_decision(p_chp=1000.0, b_chp=1.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        strict = BalanceOptions(gross_pipeline_loss=True)
        loss = pipeline_heat_loss(CFG.pipeline)
        result = power_balance(decision, loads, 0.0, CFG, strict)
        assert result.d_heat == pytest.approx(abs(1000.0 - required_heat_supply(1000.0, loss)))

    def test_heat_capped_by_water_mode(self):
        loads = CommunityLoads(p_load=0.0, h_load=5000.0, w_load=10.0)
        decision = make_decision(p_chp=3000.0, b_chp=1.4, p_tp=1000.0, w_rate=10.0, p_gt=0.0, h_gb=1000.0)
        capped = power_balance(decision, loads, 0.0, CFG, BalanceOptions(cap_heat_by_water=True))
        plain = power_balance(decision, loads, 0.0, CFG)
        # 10 m3 of water can carry far less than 5200 kW of heat
        assert capped.d_heat > plain.d_heat

    def test_exporter_pays_exchange_loss(self):
        loads = CommunityLoads(p_load=0.0, h_load=1000.0, w_load=0.0)
        decision = make_decision(p_chp=1000.0, b_chp=1.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0, h_exch=-200.0)
        lossy = power_balance(decision, loads, 0.0, CFG, BalanceOptions(exchange_loss=True))
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
        decision = make_decision(p_chp=p_chp, b_chp=b, p_tp=p_tp, w_rate=w, p_gt=p_gt, h_gb=h_gb)
        loads = CommunityLoads(p_load=p_load, h_load=b * p_chp + h_gb, w_load=w)
        result = power_balance(decision, loads, wind, CFG)
        surplus = p_chp + (p_tp - 8.0 * w) + p_gt + wind - p_load
        balanced = 0.0 - 1e-9 <= surplus <= wind + 1e-9
        assert (result.penalty <= 1e-6) == balanced


class TestTotalCost:
    def test_all_zero_dispatch_is_free(self):
        zero = DispatchDecision(p_chp=0.0, b_chp=0.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        breakdown = total_cost([zero] * 3, SYS.communities, PRICE)
        assert breakdown.total == 0.0

    def test_single_turbine_reference(self):
        gt_only = DispatchDecision(p_chp=0.0, b_chp=0.0, p_tp=0.0, w_rate=0.0, p_gt=3000.0, h_gb=0.0)
        zero = DispatchDecision(p_chp=0.0, b_chp=0.0, p_tp=0.0, w_rate=0.0, p_gt=0.0, h_gb=0.0)
        breakdown = total_cost([gt_only, zero, zero], SYS.communities, PRICE)
        assert breakdown.per_community[0] == pytest.approx(3000.0 / (0.35 * 9.7) * 3.5, rel=1e-12)
        assert breakdown.per_community[1] == 0.0

    def test_total_is_sum(self):
        decisions = [make_decision(p_chp=1000.0 + 500 * i) for i in range(3)]
        breakdown = total_cost(decisions, SYS.communities, PRICE)
        assert breakdown.total == pytest.approx(sum(breakdown.per_community), rel=1e-12)

    def test_exchange_carries_no_price(self):
        base = make_decision()
        with_exchange = dataclasses.replace(base, p_exch=800.0, h_exch=-400.0)
        assert community_cost(base, CFG, PRICE) == community_cost(with_exchange, CFG, PRICE)

    @given(st.floats(1000.0, 4999.0), st.floats(0.0, 100.0))
    @settings(max_examples=25)
    def test_monotone_in_output(self, p_chp, dp):
        lo = community_cost(make_decision(p_chp=p_chp), CFG, PRICE)
        hi = community_cost(make_decision(p_chp=p_chp + dp), CFG, PRICE)
        assert hi >= lo


def _loads(p, h, w):
    return CommunityLoads(p_load=p, h_load=h, w_load=w)


class TestOracle:
    def test_all_zero_loads_reports_forced_minima(self):
        loads = [_loads(0.0, 0.0, 0.0)] * 3
        step = oracle_dispatch(loads, [0.0] * 3, SYS, grid_n=5)
        assert not step.feasible
        for d in step.decisions:
            assert d.p_chp == pytest.approx(1000.0)  # unit cannot switch off
            assert d.p_tp == pytest.approx(0.0)
            assert d.p_gt == pytest.approx(0.0)
            assert d.h_gb == pytest.approx(0.0)
        # cost of running the three units at their forced floors
        floor = community_cost(step.decisions[0], SYS.communities[0], PRICE)
        assert step.cost.total == pytest.approx(3 * floor, rel=1e-9)

    def test_single_loaded_community_uses_cheapest_unit(self):
        # CHP is the cheapest electric source under the default efficiencies,
        # so a 3000 kW electric-only load lands entirely on it.
        loads = [_loads(3000.0, 0.0, 0.0), _loads(0.0, 0.0, 0.0), _loads(0.0, 0.0, 0.0)]
        step = oracle_dispatch(loads, [0.0] * 3, SYS, grid_n=9)
        assert not step.feasible  # communities 2 and 3 cannot shed their forced minimum
        d = step.decisions[0]
        assert d.p_gt == pytest.approx(0.0, abs=1e-9)
        assert d.p_tp == pytest.approx(0.0, abs=1e-9)

    def test_feasible_balanced_scenario(self):
        loads = [_loads(3000.0, 1500.0, 80.0)] * 3
        step = oracle_dispatch(loads, [500.0] * 3, SYS, grid_n=9)
        assert step.feasible
        assert step.penalty <= 1e-6

    def test_symmetric_scenario_has_zero_exchanges(self):
        loads = [_loads(3000.0, 1500.0, 80.0)] * 3
        step = oracle_dispatch(loads, [500.0] * 3, SYS, grid_n=9)
        for d in step.decisions:
            assert d.p_exch == pytest.approx(0.0, abs=1e-9)
            assert d.h_exch == pytest.approx(0.0, abs=1e-9)

    def test_relabeling_permutes_solution(self):
        loads = [_loads(4000.0, 2000.0, 100.0), _loads(2000.0, 500.0, 40.0), _loads(3000.0, 1500.0, 80.0)]
        wind = [300.0, 800.0, 0.0]
        base = oracle_dispatch(loads, wind, SYS, grid_n=7)
        perm = [1, 2, 0]
        swapped = oracle_dispatch([loads[i] for i in perm], [wind[i] for i in perm], SYS, grid_n=7)
        assert swapped.cost.total == pytest.approx(base.cost.total, rel=1e-9)
        for new_pos, old_pos in enumerate(perm):
            assert swapped.decisions[new_pos].p_chp == pytest.approx(base.decisions[old_pos].p_chp, abs=1e-6)
            assert swapped.decisions[new_pos].p_exch == pytest.approx(base.decisions[old_pos].p_exch, abs=1e-6)

    def test_oracle_zero_penalty_verified_by_balance(self):
        loads = [_loads(4000.0, 2000.0, 100.0), _loads(2500.0, 800.0, 60.0), _loads(2000.0, 1800.0, 50.0)]
        wind = [500.0, 1200.0, 300.0]
        step = oracle_dispatch(loads, wind, SYS, grid_n=9)
        assert step.feasible
        for i, d in enumerate(step.decisions):
            result = power_balance(d, loads[i], wind[i], SYS.communities[i])
            assert result.penalty <= 1e-6

    def test_cost_nonincreasing_with_nested_grids(self):
        loads = [_loads(4000.0, 2000.0, 100.0), _loads(2500.0, 800.0, 60.0), _loads(2000.0, 1800.0, 50.0)]
        wind = [500.0, 1200.0, 300.0]
        costs = [oracle_dispatch(loads, wind, SYS, grid_n=n).cost.total for n in (5, 9, 17)]
        assert costs[1] <= costs[0] + 1e-6
        assert costs[2] <= costs[1] + 1e-6

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            oracle_dispatch([_loads(0, 0, 0)] * 3, [0.0] * 3, SYS, grid_n=2)

    def test_strict_modes_consistent_with_balance(self):
        strict = dataclasses.replace(
            SYS,
            options=BalanceOptions(gross_pipeline_loss=True, cap_heat_by_water=True, exchange_loss=True),
        )
        loads = [_loads(4000.0, 2000.0, 100.0), _loads(2500.0, 800.0, 60.0), _loads(2000.0, 1800.0, 50.0)]
        wind = [500.0, 1200.0, 300.0]
        step = oracle_dispatch(loads, wind, strict, grid_n=9)
        recomputed = sum(
            power_balance(step.decisions[i], loads[i], wind[i], strict.communities[i], strict.options).penalty
            for i in range(3)
        )
        assert step.penalty == pytest.approx(recomputed, abs=1e-6)

    def test_exchanges_conserve(self):
        loads = [_loads(7200.0, 2000.0, 150.0), _loads(1600.0, 800.0, 60.0), _loads(1500.0, 1800.0, 50.0)]
        wind = [1200.0, 1500.0, 400.0]
        step = oracle_dispatch(loads, wind, SYS, grid_n=21)
        assert abs(sum(d.p_exch for d in step.decisions)) < 1e-9
        assert abs(sum(d.h_exch for d in step.decisions)) < 1e-9
        assert sum(abs(d.p_exch) for d in step.decisions) <= 2 * SYS.limits.p_max + 1e-9


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

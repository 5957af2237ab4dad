"""The dispatch chain one Python float at a time: the tests' scalar reference.

This is the decode -> clip -> project -> balance -> price chain as it was
written before the array kernels of ``iesdispatch.system`` replaced it,
kept unchanged so that ``tests/test_day_path.py`` can hold every kernel
result equal to it, bit for bit.  It holds its per-community and per-step
values in record types of its own.  Nothing in the package imports it.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from iesdispatch.devices import FuelPrice, gas_cost
from iesdispatch.env import ACTION_DIM, EPISODE_STEPS, MODES, N_AGENTS, RewardParams
from iesdispatch.scenario import ScenarioData
from iesdispatch.system import (
    N_COMMUNITIES,
    SETPOINTS,
    BalanceOptions,
    CommunityConfig,
    ExchangeLimits,
    SystemConfig,
    left_sum,
    water_rate_cap,
)
from iesdispatch.thermal import WATER_DENSITY, pipeline_heat_loss, required_heat_supply, transported_heat


@dataclass(frozen=True)
class CommunityLoads:
    """One community's demand at one step."""

    p_load: float  # kW
    h_load: float  # kW
    w_load: float  # m3/h


@dataclass(frozen=True)
class DispatchDecision:
    """All setpoints of one community for one step, in ``SETPOINTS`` order,
    and the wind it used once the balance has set the curtailment."""

    p_chp: float
    b_chp: float
    p_tp: float
    w_rate: float
    p_gt: float
    h_gb: float
    p_exch: float = 0.0
    h_exch: float = 0.0
    wind_used: float = 0.0

    @property
    def h_chp(self) -> float:
        return self.b_chp * self.p_chp

    def row(self) -> list[float]:
        """The setpoints as a kernel's row of 8 holds them."""
        return [getattr(self, name) for name in SETPOINTS]


@dataclass(frozen=True)
class BalanceResult:
    """Absolute balance residuals of one community after curtailment, in
    the order of ``system.Settlement``."""

    d_elec: float
    d_heat: float
    d_water: float
    curtailed: float
    penalty: float


@dataclass(frozen=True)
class StepRecord:
    """Everything observable about one evaluated step."""

    t: int
    decisions: tuple[DispatchDecision, ...]
    balances: tuple[BalanceResult, ...]
    costs: tuple[float, ...]
    wind_avail: tuple[float, ...]
    reward: float
    done: bool

    @property
    def cost_total(self) -> float:
        return left_sum(self.costs)

    @property
    def penalty_total(self) -> float:
        return left_sum(b.penalty for b in self.balances)

    @property
    def curtailed_total(self) -> float:
        return left_sum(b.curtailed for b in self.balances)


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def clip_to_limits(
    decision: DispatchDecision,
    cfg: CommunityConfig,
    limits: ExchangeLimits | None = None,
    dt: float = 1.0,
) -> DispatchDecision:
    """Clamp every setpoint into its feasible box.

    The water rate is clamped last and also against the gross cogeneration
    output, so the unit never exports negative power: after clipping,
    p_tp - kwh_per_m3 * w_rate >= 0 holds.
    """
    chp, ro, gt, gb = cfg.chp, cfg.ro, cfg.gt, cfg.gb
    p_tp = _clamp(decision.p_tp, ro.p_tp_min, ro.p_tp_max)
    w_hi = float(water_rate_cap(p_tp, ro.kwh_per_m3, ro.w_max / dt))
    p_exch, h_exch = decision.p_exch, decision.h_exch
    if limits is not None:
        p_exch = _clamp(p_exch, -limits.p_max, limits.p_max)
        h_exch = _clamp(h_exch, -limits.h_max, limits.h_max)
    return DispatchDecision(
        p_chp=_clamp(decision.p_chp, chp.p_min, chp.p_max),
        b_chp=_clamp(decision.b_chp, chp.b_min, chp.b_max),
        p_tp=p_tp,
        w_rate=_clamp(decision.w_rate, 0.0, w_hi),
        p_gt=_clamp(decision.p_gt, gt.out_min, gt.out_max),
        h_gb=_clamp(decision.h_gb, gb.out_min, gb.out_max),
        p_exch=p_exch,
        h_exch=h_exch,
        wind_used=max(0.0, decision.wind_used),
    )


def project_exchanges(
    p_exch: Sequence[float],
    h_exch: Sequence[float],
    p_max: float,
    h_max: float,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Project raw exchange vectors onto the conservation constraints.

    Subtracting the mean makes each vector sum to zero; if the summed
    magnitudes then exceed twice the limit, the whole vector is scaled
    uniformly, which preserves the zero sum.  A zero-sum vector whose
    magnitudes fit the limit passes through unchanged.  Because the result
    is zero-sum with sum(|x|) <= 2*limit, every component also satisfies
    |x_i| <= limit.
    """

    def _project(values: Sequence[float], bound: float) -> tuple[float, float, float]:
        v = [float(x) for x in values]
        if len(v) != N_COMMUNITIES:
            raise ValueError(f"expected {N_COMMUNITIES} exchange values, got {len(v)}")
        mean = left_sum(v) / len(v)
        v = [x - mean for x in v]
        total = left_sum(abs(x) for x in v)
        cap = 2.0 * bound
        if total > cap and total > 0.0:
            scale = cap / total
            v = [x * scale for x in v]
        return (v[0], v[1], v[2])

    return _project(p_exch, p_max), _project(h_exch, h_max)


def power_balance(
    decision: DispatchDecision,
    loads: CommunityLoads,
    wind_avail: float,
    cfg: CommunityConfig,
    options: BalanceOptions = BalanceOptions(),
    dt: float = 1.0,
) -> BalanceResult:
    """Balance residuals of one community, with free wind curtailment.

    Any electric surplus up to the available wind is absorbed by curtailing
    wind at no penalty; what remains on either side counts toward the
    kW-equivalent penalty together with the heat and water residuals.
    """
    q = cfg.ro.kwh_per_m3
    gen = decision.p_chp + (decision.p_tp - q * decision.w_rate) + decision.p_gt
    surplus = gen + wind_avail + decision.p_exch - loads.p_load
    curtailed = min(wind_avail, max(0.0, surplus))
    d_elec = abs(surplus - curtailed)

    h_supply = decision.h_chp + decision.h_gb + decision.h_exch
    if options.exchange_loss and decision.h_exch < 0.0:
        h_supply -= pipeline_heat_loss(cfg.pipeline)
    if options.cap_heat_by_water:
        # The heat the water of one step carries, spread over the step.
        h_supply = min(h_supply, transported_heat(cfg.pipeline, decision.w_rate * dt * WATER_DENSITY) / dt)
    h_demand = loads.h_load
    if options.gross_pipeline_loss:
        h_demand = required_heat_supply(loads.h_load, pipeline_heat_loss(cfg.pipeline))
    d_heat = abs(h_supply - h_demand)

    d_water = abs(decision.w_rate - loads.w_load)
    penalty = d_elec + d_heat + q * d_water
    return BalanceResult(d_elec=d_elec, d_heat=d_heat, d_water=d_water, curtailed=curtailed, penalty=penalty)


def community_cost(decision: DispatchDecision, cfg: CommunityConfig, price: FuelPrice) -> float:
    """Fuel cost of one community's dispatch; exchanged energy is unpriced."""
    pump = cfg.ro.kwh_per_m3 * decision.w_rate
    return (
        gas_cost(decision.p_chp, cfg.chp.eta, price)
        + gas_cost(decision.h_chp, cfg.chp.eta, price)
        + gas_cost(decision.p_tp - pump, cfg.ro.eta, price)
        + gas_cost(pump, cfg.ro.eta, price)
        + gas_cost(decision.p_gt, cfg.gt.eta, price)
        + gas_cost(decision.h_gb, cfg.gb.eta, price)
    )


def action_to_setpoints(
    action: Sequence[float],
    cfg: CommunityConfig,
    limits: ExchangeLimits,
    dt: float = 1.0,
) -> DispatchDecision:
    """Affine map from a clamped [-1, 1] action onto physical setpoints.

    The map is a bijection between the action box and the setpoint boxes;
    endpoint actions land exactly on the device limits.
    """
    a = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
    if a.shape != (ACTION_DIM,):
        raise ValueError(f"action must have {ACTION_DIM} entries, got shape {a.shape}")

    def lin(u: float, lo: float, hi: float) -> float:
        return float(lo + (u + 1.0) * 0.5 * (hi - lo))

    return DispatchDecision(
        p_chp=lin(a[0], cfg.chp.p_min, cfg.chp.p_max),
        b_chp=lin(a[1], cfg.chp.b_min, cfg.chp.b_max),
        p_tp=lin(a[2], cfg.ro.p_tp_min, cfg.ro.p_tp_max),
        w_rate=lin(a[3], 0.0, cfg.ro.w_max / dt),
        p_gt=lin(a[4], cfg.gt.out_min, cfg.gt.out_max),
        h_gb=lin(a[5], cfg.gb.out_min, cfg.gb.out_max),
        p_exch=lin(a[6], -limits.p_max, limits.p_max),
        h_exch=lin(a[7], -limits.h_max, limits.h_max),
    )


def decode_action(
    action: Sequence[float],
    cfg: CommunityConfig,
    limits: ExchangeLimits,
    dt: float = 1.0,
) -> DispatchDecision:
    """Affine decode followed by clipping into the feasible boxes."""
    return clip_to_limits(action_to_setpoints(action, cfg, limits, dt), cfg, limits, dt)


def step_reward(cost: float, penalties: Sequence[float], params: RewardParams) -> float:
    """Shared team reward for one step; bounded above by ``params.u``."""
    return params.u - (cost + params.kappa * float(left_sum(penalties))) / params.z


def evaluate_step(
    scenario: ScenarioData,
    t: int,
    actions: np.ndarray,
    system_cfg: SystemConfig,
    reward_params: RewardParams,
    mode: str = "coordinated",
    dt: float = 1.0,
) -> StepRecord:
    """Decode, project, balance and price one joint action. Deterministic."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    actions = np.asarray(actions, dtype=float)
    if actions.shape != (N_AGENTS, ACTION_DIM):
        raise ValueError(f"actions must have shape {(N_AGENTS, ACTION_DIM)}, got {actions.shape}")
    cfgs = system_cfg.communities
    limits = system_cfg.limits

    decisions = [decode_action(actions[i], cfgs[i], limits, dt) for i in range(N_AGENTS)]
    if mode == "independent":
        decisions = [replace(d, p_exch=0.0, h_exch=0.0) for d in decisions]
    p_exch, h_exch = project_exchanges(
        [d.p_exch for d in decisions], [d.h_exch for d in decisions], limits.p_max, limits.h_max
    )
    decisions = [replace(d, p_exch=p_exch[i], h_exch=h_exch[i]) for i, d in enumerate(decisions)]

    balances = []
    final = []
    costs = []
    wind = []
    for i, d in enumerate(decisions):
        loads = CommunityLoads(
            p_load=float(scenario.p_load[i, t]),
            h_load=float(scenario.h_load[i, t]),
            w_load=float(scenario.w_load[i, t]),
        )
        avail = float(scenario.p_wind[i, t])
        bal = power_balance(d, loads, avail, cfgs[i], system_cfg.options, dt)
        balances.append(bal)
        final.append(replace(d, wind_used=avail - bal.curtailed))
        costs.append(community_cost(d, cfgs[i], system_cfg.price))
        wind.append(avail)

    reward = step_reward(left_sum(costs), [b.penalty for b in balances], reward_params)
    return StepRecord(
        t=t,
        decisions=tuple(final),
        balances=tuple(balances),
        costs=tuple(costs),
        wind_avail=tuple(wind),
        reward=reward,
        done=t == EPISODE_STEPS - 1,
    )

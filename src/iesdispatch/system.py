"""Three-community aggregation layer.

Combines the per-device models into community-level dispatch: clipping raw
setpoints into their feasible boxes, projecting the inter-community
exchanges onto the conservation constraint, computing balance residuals and
wind curtailment, pricing a joint dispatch, and an exhaustive grid-search
oracle used as an optimization-free baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .devices import ChpParams, FuelPrice, GasUnitParams, RoCogenParams, gas_cost
from .thermal import (
    PipelineParams,
    deliverable_heat_power,
    pipeline_heat_loss,
    required_heat_supply,
)

N_COMMUNITIES = 3
COMMUNITY_NAMES = {1: "industrial", 2: "commercial", 3: "residential"}

# Tolerances used when ranking oracle candidates; ties within these bands
# fall through to the next criterion so that floating-point noise cannot
# break symmetry between otherwise equivalent dispatches.
_PENALTY_TOL = 1e-9
_COST_TOL = 1e-6
_KEY_TOL = 1e-9
_FEASIBLE_TOL = 1e-6


@dataclass(frozen=True)
class ExchangeLimits:
    """Bounds on the signed electric/heat power moved between communities."""

    p_max: float = 1000.0  # kW
    h_max: float = 1000.0  # kW

    def __post_init__(self) -> None:
        if self.p_max < 0.0 or self.h_max < 0.0:
            raise ValueError("exchange limits must be nonnegative")


@dataclass(frozen=True)
class BalanceOptions:
    """Optional strict-mode couplings for the heat balance.

    All default to off, which treats the heat balance as lossless and
    independent of the water delivery.

    gross_pipeline_loss: add the standing pipe loss to each community's
        heat demand.
    cap_heat_by_water: limit deliverable heat to what the delivered
        fresh-water mass can carry.
    exchange_loss: debit the pipe loss to a community whenever it exports
        heat.
    """

    gross_pipeline_loss: bool = False
    cap_heat_by_water: bool = False
    exchange_loss: bool = False


@dataclass(frozen=True)
class CommunityConfig:
    """Device fleet of one community (one unit of each type)."""

    id: int
    chp: ChpParams = ChpParams()
    ro: RoCogenParams = RoCogenParams()
    gt: GasUnitParams = GasUnitParams(out_min=0.0, out_max=3000.0, eta=0.35)
    gb: GasUnitParams = GasUnitParams(out_min=0.0, out_max=3000.0, eta=0.90)
    pipeline: PipelineParams = PipelineParams()

    def __post_init__(self) -> None:
        if self.id not in COMMUNITY_NAMES:
            raise ValueError(f"community id must be one of {sorted(COMMUNITY_NAMES)}, got {self.id}")

    @property
    def name(self) -> str:
        return COMMUNITY_NAMES[self.id]


@dataclass(frozen=True)
class SystemConfig:
    """The full three-community system."""

    communities: tuple[CommunityConfig, CommunityConfig, CommunityConfig]
    price: FuelPrice = FuelPrice()
    limits: ExchangeLimits = ExchangeLimits()
    options: BalanceOptions = BalanceOptions()

    def __post_init__(self) -> None:
        if len(self.communities) != N_COMMUNITIES:
            raise ValueError(f"exactly {N_COMMUNITIES} communities required, got {len(self.communities)}")
        ids = [c.id for c in self.communities]
        if sorted(ids) != sorted(COMMUNITY_NAMES):
            raise ValueError(f"community ids must be {sorted(COMMUNITY_NAMES)} in some order, got {ids}")


def default_system_config() -> SystemConfig:
    return SystemConfig(communities=tuple(CommunityConfig(id=i) for i in (1, 2, 3)))


@dataclass(frozen=True)
class CommunityLoads:
    """One community's demand at one step."""

    p_load: float  # kW
    h_load: float  # kW
    w_load: float  # m3/h


@dataclass(frozen=True)
class DispatchDecision:
    """All controllable setpoints of one community for one step.

    ``p_tp`` is the gross output of the cogeneration thermal unit; its net
    export is p_tp minus the desalination pumping demand.  Exchanges are
    signed with imports positive.  ``wind_used`` is informational and set
    once the balance has determined curtailment.
    """

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


@dataclass(frozen=True)
class BalanceResult:
    """Absolute balance residuals of one community after curtailment."""

    d_elec: float   # kW
    d_heat: float   # kW
    d_water: float  # m3/h
    curtailed: float  # kW of available wind deliberately unused
    penalty: float  # kW-equivalent: d_elec + d_heat + kwh_per_m3 * d_water


@dataclass(frozen=True)
class CostBreakdown:
    per_community: tuple[float, float, float]
    total: float

    @classmethod
    def from_parts(cls, parts: Sequence[float]) -> "CostBreakdown":
        parts = tuple(float(p) for p in parts)
        return cls(per_community=parts, total=sum(parts))


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def left_sum(values: Iterable[float]) -> float:
    """Add strictly left to right, starting from 0.0.

    The array day path (``env.evaluate_day``) adds in this order, so the
    scalar path must too: ``np.sum`` adds pairwise, and Python's ``sum``
    compensates rounding from 3.12 on.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def water_rate_cap(p_tp, kwh_per_m3, w_cap):
    """Largest water rate the gross cogeneration output ``p_tp`` can pump.

    ``min(w_cap, p_tp / kwh_per_m3)``, lowered one ulp at a time until
    ``kwh_per_m3 * cap <= p_tp`` holds exactly: the quotient can round up,
    and the net output ``p_tp - kwh_per_m3 * w_rate`` would then come out
    just below zero.  Takes floats or arrays.
    """
    cap = np.minimum(w_cap, p_tp / kwh_per_m3)
    over = kwh_per_m3 * cap > p_tp
    while np.any(over):
        cap = np.where(over, np.nextafter(cap, -np.inf), cap)
        over = kwh_per_m3 * cap > p_tp
    return cap


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
        h_supply = min(h_supply, deliverable_heat_power(cfg.pipeline, decision.w_rate, dt))
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


def total_cost(
    decisions: Sequence[DispatchDecision],
    communities: Sequence[CommunityConfig],
    price: FuelPrice,
) -> CostBreakdown:
    if len(decisions) != len(communities):
        raise ValueError("one decision per community required")
    return CostBreakdown.from_parts(
        [community_cost(d, c, price) for d, c in zip(decisions, communities)]
    )


def assert_within_limits(
    decision: DispatchDecision,
    cfg: CommunityConfig,
    limits: ExchangeLimits,
    dt: float = 1.0,
    tol: float = 1e-9,
) -> None:
    """Raise if any setpoint leaves its box; used to re-validate exports."""
    checks = [
        ("p_chp", decision.p_chp, cfg.chp.p_min, cfg.chp.p_max),
        ("b_chp", decision.b_chp, cfg.chp.b_min, cfg.chp.b_max),
        ("p_tp", decision.p_tp, cfg.ro.p_tp_min, cfg.ro.p_tp_max),
        ("w_rate", decision.w_rate, 0.0, cfg.ro.w_max / dt),
        ("p_gt", decision.p_gt, cfg.gt.out_min, cfg.gt.out_max),
        ("h_gb", decision.h_gb, cfg.gb.out_min, cfg.gb.out_max),
        ("p_exch", decision.p_exch, -limits.p_max, limits.p_max),
        ("h_exch", decision.h_exch, -limits.h_max, limits.h_max),
    ]
    for name, value, lo, hi in checks:
        if value < lo - tol or value > hi + tol:
            raise ValueError(f"{name}={value} outside [{lo}, {hi}]")
    if decision.p_tp - cfg.ro.kwh_per_m3 * decision.w_rate < -tol:
        raise ValueError("cogeneration pumping demand exceeds gross output")


# ---------------------------------------------------------------------------
# Grid-search dispatch oracle
# ---------------------------------------------------------------------------
#
# The oracle discretizes the controls that stay free once the zero-residual
# balance equations are substituted in: the CHP electric output and
# heat-to-power ratio per community, and two of the three exchange values
# per carrier (the third follows from conservation).  For each such grid
# point the water rate, boiler output and the cogeneration/turbine split
# are solved directly, choosing minimal imbalance first and minimal fuel
# cost second; a full per-control product grid would almost never contain
# an exactly balanced point.


class _Completion(NamedTuple):
    penalty: np.ndarray
    cost: np.ndarray
    output: np.ndarray  # summed device outputs, used as a deterministic tie-break
    w_rate: np.ndarray
    h_gb: np.ndarray
    p_tp: np.ndarray
    p_gt: np.ndarray
    curtailed: np.ndarray


@dataclass(frozen=True)
class OracleStep:
    """Best dispatch found for one step, plus feasibility of exact balance."""

    decisions: tuple[DispatchDecision, DispatchDecision, DispatchDecision]
    cost: CostBreakdown
    penalty: float
    feasible: bool


def _complete_dispatch(
    p_chp,
    b,
    p_exch,
    h_exch,
    loads: CommunityLoads,
    wind: float,
    cfg: CommunityConfig,
    price: FuelPrice,
    dt: float,
    options: BalanceOptions = BalanceOptions(),
) -> _Completion:
    """Cheapest completion of a community dispatch, numpy-broadcastable.

    For fixed CHP setpoints and exchanges this resolves the remaining
    controls: water tracks its load up to the feasible cap, the boiler
    absorbs the residual heat demand, and the cogeneration/turbine pair
    covers the cheapest electric total inside the zero-residual window,
    filled in merit order.  The strict-mode heat couplings are accounted
    for in the residuals; under ``cap_heat_by_water`` the water rate still
    tracks the water load, so a dispatch that over-produces water purely
    to carry extra heat is not explored.
    """
    p_chp = np.asarray(p_chp, dtype=float)
    b = np.asarray(b, dtype=float)
    p_exch = np.asarray(p_exch, dtype=float)
    h_exch = np.asarray(h_exch, dtype=float)
    ro, gt, gb, chp = cfg.ro, cfg.gt, cfg.gb, cfg.chp
    q = ro.kwh_per_m3

    w_cap = min(ro.w_max / dt, ro.p_tp_max / q)
    w = min(loads.w_load, w_cap)
    pen_water = q * (loads.w_load - w)

    h_chp = b * p_chp
    h_demand = loads.h_load
    if options.gross_pipeline_loss:
        h_demand = required_heat_supply(loads.h_load, pipeline_heat_loss(cfg.pipeline))
    export_adj = (
        np.where(h_exch < 0.0, pipeline_heat_loss(cfg.pipeline), 0.0)
        if options.exchange_loss
        else 0.0
    )
    target = h_demand
    if options.cap_heat_by_water:
        # production beyond what the water stream can carry is wasted fuel
        target = min(h_demand, deliverable_heat_power(cfg.pipeline, w, dt))
    h_gb = np.clip(target - h_exch + export_adj - h_chp, gb.out_min, gb.out_max)
    h_supply = h_chp + h_gb + h_exch - export_adj
    if options.cap_heat_by_water:
        h_supply = np.minimum(h_supply, deliverable_heat_power(cfg.pipeline, w, dt))
    pen_heat = np.abs(h_supply - h_demand)

    pump = q * w
    tp_base = max(ro.p_tp_min, pump)  # gross floor needed to run the pumps
    cog_floor = tp_base - pump
    cog_cap = ro.p_tp_max - tp_base
    gt_cap = gt.out_max - gt.out_min

    p_self = loads.p_load - p_exch
    g_lo = p_chp + cog_floor + gt.out_min
    g_hi = g_lo + cog_cap + gt_cap
    g = np.clip(p_self - wind, g_lo, g_hi)
    surplus = g + wind - p_self
    curtailed = np.clip(surplus, 0.0, wind)
    pen_elec = np.abs(surplus - curtailed)

    extra = g - g_lo
    if ro.eta >= gt.eta:
        cog_extra = np.minimum(extra, cog_cap)
        gt_extra = extra - cog_extra
    else:
        gt_extra = np.minimum(extra, gt_cap)
        cog_extra = extra - gt_extra
    p_tp = tp_base + cog_extra
    p_gt = gt.out_min + gt_extra

    unit = price.gas_price * price.dt / price.hhv
    cost = unit * (
        p_chp * (1.0 + b) / chp.eta + p_tp / ro.eta + p_gt / gt.eta + h_gb / gb.eta
    )
    penalty = pen_elec + pen_heat + pen_water
    output = p_chp + h_chp + p_tp + p_gt + h_gb
    w_arr = np.broadcast_to(np.asarray(w, dtype=float), penalty.shape)
    return _Completion(penalty, cost, output, w_arr, h_gb, p_tp, p_gt, curtailed)


def _lex_best(keys: Sequence[np.ndarray], tols: Sequence[float]) -> int:
    """Index of the lexicographically smallest key tuple, first index wins.

    Each stage keeps candidates within ``tol`` of the stage minimum so that
    bit-level noise between symmetric alternatives does not decide the
    ranking before the later tie-break keys can.
    """
    mask = np.ones(keys[0].shape, dtype=bool)
    for key, tol in zip(keys, tols):
        masked = np.where(mask, key, np.inf)
        best = masked.min()
        if not np.isfinite(best):
            break
        mask &= masked <= best + tol
    return int(mask.argmax())


def _exchange_grids(base: np.ndarray, bound: float):
    """Extended grid holding the base points plus every implied third value."""
    third = -(base[:, None] + base[None, :])
    valid = (np.abs(third) <= bound + 1e-9) & (
        np.abs(base)[:, None] + np.abs(base)[None, :] + np.abs(third) <= 2.0 * bound + 1e-9
    )
    ext = np.unique(np.concatenate([base, third[valid].ravel()]))
    base_idx = np.searchsorted(ext, base)
    third_idx = np.searchsorted(ext, np.where(valid, third, base[0]))
    third_idx = np.minimum(third_idx, len(ext) - 1)
    return ext, base_idx, third, third_idx, valid


class _BestCompletion(NamedTuple):
    penalty: np.ndarray
    cost: np.ndarray
    output: np.ndarray
    chp: np.ndarray
    b: np.ndarray


def _chp_candidates(
    pe: np.ndarray,
    loads: CommunityLoads,
    wind: float,
    cfg: CommunityConfig,
    chp_grid: np.ndarray,
    dt: float,
) -> np.ndarray:
    """CHP grid plus the electric breakpoints per exchange candidate.

    The completion cost is piecewise linear in the CHP output, with kinks
    where the CHP alone covers the residual electric demand (using all
    wind, or none).  Those two points depend on the exchange value, not on
    the grid, so adding them makes the per-exchange evaluation essentially
    resolution independent.
    """
    q = cfg.ro.kwh_per_m3
    w = min(loads.w_load, min(cfg.ro.w_max / dt, cfg.ro.p_tp_max / q))
    cog_floor = max(cfg.ro.p_tp_min, q * w) - q * w
    base = cog_floor + cfg.gt.out_min
    p_self = loads.p_load - pe
    bp_all_wind = np.clip(p_self - wind - base, cfg.chp.p_min, cfg.chp.p_max)
    bp_no_wind = np.clip(p_self - base, cfg.chp.p_min, cfg.chp.p_max)
    grid = np.broadcast_to(chp_grid, (len(pe), len(chp_grid)))
    return np.concatenate([grid, bp_all_wind[:, None], bp_no_wind[:, None]], axis=1)


def _best_over_chp_grid(
    pe: np.ndarray,
    he: np.ndarray,
    loads: CommunityLoads,
    wind: float,
    cfg: CommunityConfig,
    price: FuelPrice,
    chp_grid: np.ndarray,
    b_grid: np.ndarray,
    dt: float,
    options: BalanceOptions = BalanceOptions(),
) -> _BestCompletion:
    """Best CHP candidate (and completion) per exchange candidate.

    ``pe`` and ``he`` are flat arrays of equal length K; the result arrays
    have length K.  Minimal imbalance wins, then fuel cost, then total
    output, then candidate order.
    """
    pe = np.asarray(pe, dtype=float).ravel()
    he = np.asarray(he, dtype=float).ravel()
    chp_cand = _chp_candidates(pe, loads, wind, cfg, chp_grid, dt)  # (K, C)
    n_chp = chp_cand.shape[1]
    n_combo = n_chp * len(b_grid)
    res = _complete_dispatch(
        chp_cand[:, :, None],
        b_grid[None, None, :],
        pe[:, None, None],
        he[:, None, None],
        loads,
        wind,
        cfg,
        price,
        dt,
        options,
    )
    pen_f = res.penalty.reshape(len(pe), n_combo)
    cost_f = res.cost.reshape(len(pe), n_combo)
    out_f = res.output.reshape(len(pe), n_combo)
    mask = np.ones_like(pen_f, dtype=bool)
    for key, tol in ((pen_f, _PENALTY_TOL), (cost_f, _COST_TOL), (out_f, _KEY_TOL)):
        masked = np.where(mask, key, np.inf)
        best = masked.min(axis=1, keepdims=True)
        mask &= masked <= best + tol
    combo = mask.argmax(axis=1)
    rows = np.arange(len(pe))
    return _BestCompletion(
        penalty=pen_f[rows, combo],
        cost=cost_f[rows, combo],
        output=out_f[rows, combo],
        chp=chp_cand[rows, combo // len(b_grid)],
        b=b_grid[combo % len(b_grid)],
    )


class _CommunityTable(NamedTuple):
    penalty: np.ndarray  # (|ext_p|, |ext_h|) best penalty per exchange pair
    cost: np.ndarray
    output: np.ndarray
    chp: np.ndarray      # best CHP electric setpoint per exchange pair
    b: np.ndarray        # best heat-to-power ratio per exchange pair
    chp_grid: np.ndarray
    b_grid: np.ndarray


def _community_table(
    loads: CommunityLoads,
    wind: float,
    cfg: CommunityConfig,
    price: FuelPrice,
    ext_p: np.ndarray,
    ext_h: np.ndarray,
    grid_n: int,
    dt: float,
    options: BalanceOptions = BalanceOptions(),
) -> _CommunityTable:
    chp_grid = np.linspace(cfg.chp.p_min, cfg.chp.p_max, grid_n)
    b_grid = np.linspace(cfg.chp.b_min, cfg.chp.b_max, grid_n)
    shape = (len(ext_p), len(ext_h))
    pen = np.empty(shape)
    cost = np.empty(shape)
    out = np.empty(shape)
    chp = np.empty(shape)
    b = np.empty(shape)
    # Chunk over the electric-exchange axis to bound peak memory.
    for i, pe in enumerate(ext_p):
        best = _best_over_chp_grid(
            np.full(len(ext_h), pe), ext_h, loads, wind, cfg, price, chp_grid, b_grid, dt, options
        )
        pen[i] = best.penalty
        cost[i] = best.cost
        out[i] = best.output
        chp[i] = best.chp
        b[i] = best.b
    return _CommunityTable(pen, cost, out, chp, b, chp_grid, b_grid)


def _system_keys(
    pe: np.ndarray,
    he: np.ndarray,
    chp: np.ndarray,
    b: np.ndarray,
    loads: Sequence[CommunityLoads],
    wind: Sequence[float],
    cfgs: Sequence[CommunityConfig],
    price: FuelPrice,
    dt: float,
    options: BalanceOptions = BalanceOptions(),
):
    """Penalty/cost/tie-break keys of full candidate states.

    ``pe, he, chp, b`` have shape (3,) or (3, K) for K candidate states.
    Returns key arrays of shape (K,) (or scalars for a single state).
    """
    parts = [
        _complete_dispatch(chp[i], b[i], pe[i], he[i], loads[i], wind[i], cfgs[i], price, dt, options)
        for i in range(N_COMMUNITIES)
    ]
    penalty = sum(p.penalty for p in parts)
    cost = sum(p.cost for p in parts)
    exch = sum(np.abs(pe[i]) + np.abs(he[i]) for i in range(N_COMMUNITIES))
    output = sum(p.output for p in parts)
    return penalty, cost, exch, output, parts


def _refine(
    state: dict,
    steps: dict,
    grids: list[tuple[np.ndarray, np.ndarray]],
    loads,
    wind,
    cfgs,
    price,
    limits: ExchangeLimits,
    dt: float,
    options: BalanceOptions = BalanceOptions(),
) -> dict:
    """One coordinate-descent pass at ten times the grid resolution.

    Exchange coordinates come first and are evaluated the same way the
    table phase evaluated them, re-optimizing every community over its CHP
    grid per candidate; that keeps the scan aware of the CHP/exchange
    coupling.  The CHP setpoints themselves are then polished per
    community at fixed exchanges.
    """

    def local_values(center, step, lo, hi):
        vals = center + np.arange(-10, 11) * (step / 10.0)
        vals = np.clip(vals, lo, hi)
        return np.unique(np.append(vals, center))

    pe = np.array(state["pe"], dtype=float)
    he = np.array(state["he"], dtype=float)
    chp = np.array(state["chp"], dtype=float)
    b = np.array(state["b"], dtype=float)

    # Exchange coordinates: vary one free value, conservation fixes the third.
    for which, step, bound in (("pe", steps["pe"], limits.p_max), ("he", steps["he"], limits.h_max)):
        vec = pe if which == "pe" else he
        for j in (0, 1):
            other = vec[1 - j]
            cand = local_values(vec[j], step, -bound, bound)
            third = -(cand + other)
            ok = (np.abs(third) <= bound + 1e-12) & (
                np.abs(cand) + np.abs(other) + np.abs(third) <= 2.0 * bound + 1e-12
            )
            cand, third = cand[ok], third[ok]
            if cand.size == 0:
                continue
            trial = _tile(vec, len(cand))
            trial[j] = cand
            trial[2] = third
            pe_t = trial if which == "pe" else _tile(pe, len(cand))
            he_t = trial if which == "he" else _tile(he, len(cand))
            per_community = [
                _best_over_chp_grid(
                    pe_t[i], he_t[i], loads[i], float(wind[i]), cfgs[i], price,
                    grids[i][0], grids[i][1], dt, options,
                )
                for i in range(N_COMMUNITIES)
            ]
            pen = sum(pc.penalty for pc in per_community)
            cost = sum(pc.cost for pc in per_community)
            out = sum(pc.output for pc in per_community)
            exch = np.abs(pe_t).sum(axis=0) + np.abs(he_t).sum(axis=0)
            best = _lex_best([pen, cost, exch, out], [_PENALTY_TOL, _COST_TOL, _KEY_TOL, _KEY_TOL])
            vec[j] = cand[best]
            vec[2] = third[best]
            for i in range(N_COMMUNITIES):
                chp[i] = per_community[i].chp[best]
                b[i] = per_community[i].b[best]

    # CHP coordinates per community, completion solved at fixed exchanges.
    def scan(pe_t, he_t, chp_t, b_t) -> int:
        pen, cost, exch, out, _ = _system_keys(pe_t, he_t, chp_t, b_t, loads, wind, cfgs, price, dt, options)
        return _lex_best(
            [np.asarray(pen), np.asarray(cost), np.asarray(exch), np.asarray(out)],
            [_PENALTY_TOL, _COST_TOL, _KEY_TOL, _KEY_TOL],
        )

    for i in range(N_COMMUNITIES):
        for key in ("chp", "b"):
            arr = chp if key == "chp" else b
            lo, hi = (
                (cfgs[i].chp.p_min, cfgs[i].chp.p_max)
                if key == "chp"
                else (cfgs[i].chp.b_min, cfgs[i].chp.b_max)
            )
            cand = local_values(arr[i], steps[key][i], lo, hi)
            trial = _tile(arr, len(cand))
            trial[i] = cand
            if key == "chp":
                best = scan(_tile(pe, len(cand)), _tile(he, len(cand)), trial, _tile(b, len(cand)))
            else:
                best = scan(_tile(pe, len(cand)), _tile(he, len(cand)), _tile(chp, len(cand)), trial)
            arr[i] = cand[best]

    return {"pe": pe, "he": he, "chp": chp, "b": b}


def _tile(vec: np.ndarray, k: int) -> np.ndarray:
    return np.repeat(np.asarray(vec, dtype=float)[:, None], k, axis=1)


def oracle_dispatch(
    loads: Sequence[CommunityLoads],
    wind_avail: Sequence[float],
    system_cfg: SystemConfig,
    grid_n: int = 21,
    dt: float = 1.0,
) -> OracleStep:
    """Cheapest exactly-balanced dispatch found by exhaustive grid search.

    Searches a ``grid_n``-point discretization of the free controls,
    restricted to zero-residual completions whenever they exist, then runs
    one coordinate-descent refinement pass at ten times the resolution.
    When no grid point balances exactly, the minimal-penalty dispatch is
    returned with ``feasible`` set to False.  Deterministic for fixed
    inputs; ties prefer smaller exchange magnitudes, then smaller total
    device output.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    if len(loads) != N_COMMUNITIES or len(wind_avail) != N_COMMUNITIES:
        raise ValueError("loads and wind_avail must cover all three communities")
    cfgs = system_cfg.communities
    price = system_cfg.price
    lim = system_cfg.limits

    base_p = np.linspace(-lim.p_max, lim.p_max, grid_n)
    base_h = np.linspace(-lim.h_max, lim.h_max, grid_n)
    ext_p, bp_idx, third_p, tp_idx, valid_p = _exchange_grids(base_p, lim.p_max)
    ext_h, bh_idx, third_h, th_idx, valid_h = _exchange_grids(base_h, lim.h_max)

    options = system_cfg.options
    tables = [
        _community_table(loads[i], float(wind_avail[i]), cfgs[i], price, ext_p, ext_h, grid_n, dt, options)
        for i in range(N_COMMUNITIES)
    ]

    def pick(table: _CommunityTable, attr: str, first: bool) -> np.ndarray:
        arr = getattr(table, attr)
        if first:
            sel = arr[np.ix_(bp_idx, bh_idx)]  # indexed by (i, k)
            return sel[:, None, :, None]
        sel = arr[np.ix_(bp_idx, bh_idx)]  # indexed by (j, l)
        return sel[None, :, None, :]

    def pick_third(table: _CommunityTable, attr: str) -> np.ndarray:
        arr = getattr(table, attr)
        return arr[tp_idx[:, :, None, None], th_idx[None, None, :, :]]

    invalid = ~valid_p[:, :, None, None] | ~valid_h[None, None, :, :]
    total_pen = pick(tables[0], "penalty", True) + pick(tables[1], "penalty", False) + pick_third(tables[2], "penalty")
    total_cost_arr = pick(tables[0], "cost", True) + pick(tables[1], "cost", False) + pick_third(tables[2], "cost")
    total_out = pick(tables[0], "output", True) + pick(tables[1], "output", False) + pick_third(tables[2], "output")
    abs_p = np.abs(base_p)
    abs_h = np.abs(base_h)
    exch = (
        (abs_p[:, None] + abs_p[None, :] + np.abs(third_p))[:, :, None, None]
        + (abs_h[:, None] + abs_h[None, :] + np.abs(third_h))[None, None, :, :]
    )
    total_pen = np.where(invalid, np.inf, total_pen)

    flat = _lex_best(
        [total_pen.ravel(), total_cost_arr.ravel(), exch.ravel(), total_out.ravel()],
        [_PENALTY_TOL, _COST_TOL, _KEY_TOL, _KEY_TOL],
    )
    i, j, k, l = np.unravel_index(flat, total_pen.shape)

    pe = np.array([base_p[i], base_p[j], third_p[i, j]])
    he = np.array([base_h[k], base_h[l], third_h[k, l]])
    chp = np.empty(N_COMMUNITIES)
    b = np.empty(N_COMMUNITIES)
    exch_idx = [(bp_idx[i], bh_idx[k]), (bp_idx[j], bh_idx[l]), (tp_idx[i, j], th_idx[k, l])]
    for ci, (pi, hi) in enumerate(exch_idx):
        chp[ci] = tables[ci].chp[pi, hi]
        b[ci] = tables[ci].b[pi, hi]

    steps = {
        "pe": base_p[1] - base_p[0] if grid_n > 1 else 0.0,
        "he": base_h[1] - base_h[0] if grid_n > 1 else 0.0,
        "chp": [t.chp_grid[1] - t.chp_grid[0] for t in tables],
        "b": [t.b_grid[1] - t.b_grid[0] for t in tables],
    }
    grids = [(t.chp_grid, t.b_grid) for t in tables]
    state = _refine(
        {"pe": pe, "he": he, "chp": chp, "b": b}, steps, grids, loads, wind_avail, cfgs, price, lim, dt, options
    )

    decisions = []
    penalty = 0.0
    for ci in range(N_COMMUNITIES):
        res = _complete_dispatch(
            state["chp"][ci], state["b"][ci], state["pe"][ci], state["he"][ci],
            loads[ci], float(wind_avail[ci]), cfgs[ci], price, dt, options,
        )
        penalty += float(res.penalty)
        decisions.append(
            DispatchDecision(
                p_chp=float(state["chp"][ci]),
                b_chp=float(state["b"][ci]),
                p_tp=float(res.p_tp),
                w_rate=float(res.w_rate),
                p_gt=float(res.p_gt),
                h_gb=float(res.h_gb),
                p_exch=float(state["pe"][ci]),
                h_exch=float(state["he"][ci]),
                wind_used=float(wind_avail[ci]) - float(res.curtailed),
            )
        )
    cost = total_cost(decisions, cfgs, price)
    return OracleStep(
        decisions=tuple(decisions),
        cost=cost,
        penalty=penalty,
        feasible=penalty <= _FEASIBLE_TOL,
    )

"""Three-community aggregation layer.

Combines the per-device models into community-level dispatch, as numpy
kernels over one step or a whole day of steps: clipping raw
setpoints into their feasible boxes, projecting the inter-community
exchanges onto the conservation constraint, computing balance residuals and
wind curtailment, pricing a joint dispatch, and an exact linear-programming
oracle used as the optimal baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
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
        # The kernels, the scenario and the schedule index community i + 1 by position i.
        for i, community in enumerate(self.communities):
            if community.id != i + 1:
                raise ValueError(f"communities[{i}]: id must be {i + 1}, got {community.id}")
        with np.errstate(over="ignore"):
            lo, hi = self.box
            overflow = ~np.isfinite(hi - lo)
        if overflow.any():
            i, k = np.argwhere(overflow)[0]
            raise ValueError(f"community {i + 1}: {SETPOINTS[k]} range [{lo[i, k]}, {hi[i, k]}] is wider than a float holds")

    @cached_property
    def fleet(self) -> "Fleet":
        """The communities' parameters as the dispatch kernels read them, in id order."""
        return fleet_of(self.communities)

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The (3, 8) setpoint limits at this system's step length and exchange limits."""
        return setpoint_box(self.fleet, self.limits, self.price.dt)


def default_system_config() -> SystemConfig:
    return SystemConfig(communities=tuple(CommunityConfig(id=i) for i in (1, 2, 3)))


def left_sum(values: Iterable[float]) -> float:
    """Add strictly left to right, starting from 0.0.

    ``np.sum`` adds pairwise, and Python's ``sum`` compensates rounding
    from 3.12 on; every total that reaches an artifact is added this way,
    so the artifacts do not depend on the Python version.
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
    while over.any():
        cap = np.where(over, np.nextafter(cap, -np.inf), cap)
        over = kwh_per_m3 * cap > p_tp
    return cap


# ---------------------------------------------------------------------------
# Dispatch kernels
# ---------------------------------------------------------------------------
#
# The one implementation of decode -> clip -> project -> balance -> price.
# Setpoints are arrays (..., n, 8) over the steps and n communities, the
# last axis in ``SETPOINTS`` order, which is also an action's; loads, wind
# and results are (..., n).  A day and a single step go through the same
# elementwise operations, so they agree bit for bit.

SETPOINTS = ("p_chp", "b_chp", "p_tp", "w_rate", "p_gt", "h_gb", "p_exch", "h_exch")
P_CHP, B_CHP, P_TP, W_RATE, P_GT, H_GB, P_EXCH, H_EXCH = range(len(SETPOINTS))


class Fleet(NamedTuple):
    """Device parameters of n communities as arrays, one entry per community.

    Three of its fields are the ``PipelineParams`` fields that
    ``thermal.deliverable_heat_power`` reads, so a fleet stands in for them.
    """

    lo: np.ndarray        # (n, 8) setpoint lower limits; exchanges -inf until limits apply
    hi: np.ndarray        # (n, 8) upper limits; w_rate's is w_max per step, exchanges +inf
    q: np.ndarray         # kWh per m3 of fresh water
    eta: np.ndarray       # (n, 6) efficiency of each output ``fuel_cost`` prices
    loss: np.ndarray      # standing pipe loss, kW
    c_water: np.ndarray
    t_supply: np.ndarray
    t_return: np.ndarray


def fleet_of(communities: Sequence[CommunityConfig]) -> Fleet:
    rows = [
        (
            (c.chp.p_min, c.chp.b_min, c.ro.p_tp_min, 0.0, c.gt.out_min, c.gb.out_min, -np.inf, -np.inf),
            (c.chp.p_max, c.chp.b_max, c.ro.p_tp_max, c.ro.w_max, c.gt.out_max, c.gb.out_max, np.inf, np.inf),
            c.ro.kwh_per_m3,
            (c.chp.eta, c.chp.eta, c.ro.eta, c.ro.eta, c.gt.eta, c.gb.eta),
            pipeline_heat_loss(c.pipeline),
            c.pipeline.c_water,
            c.pipeline.t_supply,
            c.pipeline.t_return,
        )
        for c in communities
    ]
    arrays = [np.array(column, dtype=float) for column in zip(*rows)]
    for array in arrays:
        array.setflags(write=False)
    return Fleet(*arrays)


def setpoint_box(fleet: Fleet, limits: ExchangeLimits, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, 8) lower and upper setpoint limits at step length ``dt``, the
    exchanges within ``limits``.  Read-only."""
    lo, hi = fleet.lo.copy(), fleet.hi.copy()
    hi[:, W_RATE] = hi[:, W_RATE] / dt
    lo[:, P_EXCH], hi[:, P_EXCH] = -limits.p_max, limits.p_max
    lo[:, H_EXCH], hi[:, H_EXCH] = -limits.h_max, limits.h_max
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def affine_setpoints(actions, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Clamp actions to [-1, 1] and map them affinely onto [lo, hi]."""
    return lo + (np.minimum(np.maximum(actions, -1.0), 1.0) + 1.0) * 0.5 * (hi - lo)


def clip_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Clamp setpoints into [lo, hi], the water rate also to what the
    clamped gross cogeneration output can pump (``water_rate_cap``)."""
    x = np.minimum(np.maximum(x, lo), hi)
    x[..., W_RATE] = np.minimum(x[..., W_RATE], water_rate_cap(x[..., P_TP], q, hi[:, W_RATE]))
    return x


def sum_last(x: np.ndarray) -> np.ndarray:
    """``left_sum`` over the last axis (``np.sum`` would add pairwise)."""
    return left_sum(np.moveaxis(x, -1, 0))


def project_rows(v: np.ndarray, bound) -> np.ndarray:
    """Project exchange vectors (..., n) onto the conservation constraints.

    Subtracting the mean makes each vector sum to zero; if the summed
    magnitudes then exceed twice the limit, the whole vector is scaled
    uniformly, which preserves the zero sum.  A zero-sum vector whose
    magnitudes fit the limit passes through unchanged.  Because the result
    is zero-sum with sum(|x|) <= 2*limit, every component also satisfies
    |x_i| <= limit.  ``bound`` broadcasts against the leading axes.
    """
    v = v - (sum_last(v) / v.shape[-1])[..., None]
    total = sum_last(np.abs(v))
    cap = 2.0 * np.asarray(bound)
    scale = np.divide(cap, total, out=np.ones_like(total), where=(total > cap) & (total > 0.0))
    return v * scale[..., None]


class Settlement(NamedTuple):
    """Absolute balance residuals after free wind curtailment, each an
    array (..., n): kW, kW, m3/h, the kW of available wind left unused, and
    the kW-equivalent penalty d_elec + d_heat + kwh_per_m3 * d_water."""

    d_elec: np.ndarray
    d_heat: np.ndarray
    d_water: np.ndarray
    curtailed: np.ndarray
    penalty: np.ndarray


def settle(x, p_load, h_load, w_load, wind, fleet: Fleet, options: BalanceOptions) -> Settlement:
    """Balance residuals of setpoints against loads and available wind.

    Any electric surplus up to the available wind is absorbed by curtailing
    wind at no penalty; what remains on either side counts toward the
    kW-equivalent penalty together with the heat and water residuals.
    """
    p_chp, b_chp, p_tp, w_rate, p_gt, h_gb, p_exch, h_exch = np.moveaxis(x, -1, 0)
    q = fleet.q
    surplus = p_chp + (p_tp - q * w_rate) + p_gt + wind + p_exch - p_load
    curtailed = np.minimum(wind, np.maximum(0.0, surplus))
    d_elec = np.abs(surplus - curtailed)

    h_supply = b_chp * p_chp + h_gb + h_exch
    if options.exchange_loss:
        h_supply = np.where(h_exch < 0.0, h_supply - fleet.loss, h_supply)
    if options.cap_heat_by_water:
        h_supply = np.minimum(h_supply, deliverable_heat_power(fleet, w_rate))
    h_demand = required_heat_supply(h_load, fleet.loss) if options.gross_pipeline_loss else h_load
    d_heat = np.abs(h_supply - h_demand)

    d_water = np.abs(w_rate - w_load)
    return Settlement(d_elec, d_heat, d_water, curtailed, d_elec + d_heat + q * d_water)


def fuel_cost(x, fleet: Fleet, price: FuelPrice) -> np.ndarray:
    """Fuel cost (..., n) of setpoints; exchanged energy is unpriced."""
    p_chp, b_chp, p_tp, w_rate, p_gt, h_gb = np.moveaxis(x[..., :P_EXCH], -1, 0)
    pump = fleet.q * w_rate
    outputs = np.stack([p_chp, b_chp * p_chp, p_tp - pump, pump, p_gt, h_gb], axis=-1)
    return sum_last(gas_cost(outputs, fleet.eta, price))


def assert_within_limits(x: np.ndarray, system_cfg: SystemConfig, tol: float = 1e-9) -> None:
    """Raise if any of the setpoints (T, 3, 8) leaves its box, or a
    cogeneration unit pumps more than its gross output; used to re-validate
    exports.  The error names the first such step, community and setpoint."""
    lo, hi = system_cfg.box
    outside = ~((x >= lo - tol) & (x <= hi + tol))  # NaN is outside
    if outside.any():
        t, i, k = np.argwhere(outside)[0]
        raise ValueError(f"step {t}, community {i + 1}: {SETPOINTS[k]}={x[t, i, k]} outside [{lo[i, k]}, {hi[i, k]}]")
    overdraw = ~(x[..., P_TP] - system_cfg.fleet.q * x[..., W_RATE] >= -tol)
    if overdraw.any():
        t, i = np.argwhere(overdraw)[0]
        raise ValueError(f"step {t}, community {i + 1}: cogeneration pumping demand exceeds gross output")


# ---------------------------------------------------------------------------
# Exact step-LP dispatch oracle
# ---------------------------------------------------------------------------
#
# One dispatch step is a small linear program once the CHP heat is written
# h = b_min*p + h_extra with 0 <= h_extra <= (b_max - b_min)*p: fuel cost is
# linear in every output, and each balance residual is a pair of
# nonnegative slacks.  Per community the columns are the device outputs,
# the imported and exported parts of each exchange, the wind used, the
# residual slacks and the inequality rows' slacks (below); the rows are the
# electric, heat and water balances, the CHP ratio and the pumping limit,
# and under ``cap_heat_by_water`` two more that keep the delivered heat
# below the supply and below what the water carries.  Two zero-sum rows
# close the exchanges.  A dense bounded-variable simplex (Bland's rule)
# solves every step of a day, and every export-sign pattern under
# ``exchange_loss`` that can win (``_EXPORT_PATTERNS``), as one batch of
# tableaus with elementwise updates.

(_P, _HX, _TP, _W, _GT, _GB, _PE_IN, _PE_OUT, _HE_IN, _HE_OUT, _WIND,
 _E_SHORT, _E_OVER, _H_SHORT, _H_OVER, _W_SHORT, _W_OVER, _S_CHP, _S_PUMP,
 _HEAT, _S_SUPPLY, _S_CARRY) = range(22)
_ELEC, _HEAT_ROW, _WATER, _CHP_ROW, _PUMP, _SUPPLY, _CARRY = range(7)
# A reduced cost this small counts as zero, and so does a pivot element.
_EPS = 1e-9
# Basic values this close to a bound are reported on it.
_SNAP = 1e-9
# A step whose summed penalty (kW-eq) is at most this balances exactly.
FEASIBLE_TOL = 1e-6
# The export-sign patterns solved under ``exchange_loss``, no-export first.
# All three exporting is left out: the zero-sum heat row then holds every
# heat exchange at zero, and that dispatch, which settles with no debit,
# is open to the no-export pattern too, which wins ties by coming first.
_EXPORT_PATTERNS = tuple(itertools.product((False, True), repeat=N_COMMUNITIES))[:-1]


class _Programs(NamedTuple):
    """K step programs that share their matrix: A x = b, lo <= x <= hi."""

    a: np.ndarray          # (m, n)
    b: np.ndarray          # (K, m)
    lo: np.ndarray         # (K, n)
    hi: np.ndarray         # (K, n)
    objectives: np.ndarray  # (4, n): imbalance, fuel cost, exchange, output
    short: np.ndarray      # (m,) column with +1 in each row, the first basis
    over: np.ndarray       # (m,) column with -1, the first basis where b < 0
    nv: int


def _programs(p_load, h_load, w_load, wind, cfg: SystemConfig) -> _Programs:
    """The programs of (T, 3) loads and wind, step-major, one per export-sign
    pattern (``_EXPORT_PATTERNS`` under ``exchange_loss``, else none exports)."""
    fleet, options, price = cfg.fleet, cfg.options, cfg.price
    box_lo, box_hi = cfg.box
    cap = options.cap_heat_by_water
    nv, nr = (22, 7) if cap else (19, 5)
    m, n = N_COMMUNITIES * nr + 2, N_COMMUNITIES * nv + 2
    a = np.zeros((m, n))
    objectives = np.zeros((4, n))
    lo, hi = np.zeros(n), np.full(n, np.inf)
    short, over = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    b = np.zeros((len(p_load), m))
    h_demand = required_heat_supply(h_load, fleet.loss) if options.gross_pipeline_loss else h_load
    unit = price.gas_price * price.dt / price.hhv
    carry = deliverable_heat_power(fleet, 1.0)
    for i in range(N_COMMUNITIES):
        v, r = i * nv, i * nr
        q, b_min, b_max = fleet.q[i], box_lo[i, B_CHP], box_hi[i, B_CHP]

        def row(k, coeffs, rhs, plus, minus=None):
            """Row k with the given coefficients; its first basic column is
            ``plus`` (coefficient +1), or ``minus`` (-1) where rhs < 0."""
            for col, value in coeffs.items():
                a[r + k, v + col] = value
            b[:, r + k] = rhs
            short[r + k], over[r + k] = v + plus, v + (plus if minus is None else minus)

        row(_ELEC, {_P: 1.0, _TP: 1.0, _W: -q, _GT: 1.0, _WIND: 1.0, _PE_IN: 1.0, _PE_OUT: -1.0,
                    _E_SHORT: 1.0, _E_OVER: -1.0}, p_load[:, i], _E_SHORT, _E_OVER)
        supply = {_P: b_min, _HX: 1.0, _GB: 1.0, _HE_IN: 1.0, _HE_OUT: -1.0}
        if cap:
            row(_HEAT_ROW, {_HEAT: 1.0, _H_SHORT: 1.0, _H_OVER: -1.0}, h_demand[:, i], _H_SHORT, _H_OVER)
            row(_SUPPLY, {_HEAT: 1.0, _S_SUPPLY: 1.0, **{c: -x for c, x in supply.items()}}, 0.0, _S_SUPPLY)
            row(_CARRY, {_HEAT: 1.0, _W: -carry[i], _S_CARRY: 1.0}, 0.0, _S_CARRY)
            lo[v + _HEAT] = -(box_hi[i, H_EXCH] + fleet.loss[i])  # below every supply, so never binding
        else:
            row(_HEAT_ROW, {**supply, _H_SHORT: 1.0, _H_OVER: -1.0}, h_demand[:, i], _H_SHORT, _H_OVER)
        row(_WATER, {_W: 1.0, _W_SHORT: 1.0, _W_OVER: -1.0}, w_load[:, i], _W_SHORT, _W_OVER)
        row(_CHP_ROW, {_HX: 1.0, _P: -(b_max - b_min), _S_CHP: 1.0}, 0.0, _S_CHP)
        row(_PUMP, {_W: q, _TP: -1.0, _S_PUMP: 1.0}, 0.0, _S_PUMP)

        for col, k in ((_P, P_CHP), (_TP, P_TP), (_W, W_RATE), (_GT, P_GT), (_GB, H_GB)):
            lo[v + col], hi[v + col] = box_lo[i, k], box_hi[i, k]
        hi[v + _HX] = (b_max - b_min) * box_hi[i, P_CHP]
        hi[v + _PE_IN] = hi[v + _PE_OUT] = box_hi[i, P_EXCH]
        hi[v + _HE_IN] = hi[v + _HE_OUT] = box_hi[i, H_EXCH]
        a[-2, v + _PE_IN], a[-2, v + _PE_OUT] = 1.0, -1.0
        a[-1, v + _HE_IN], a[-1, v + _HE_OUT] = 1.0, -1.0

        objectives[0, v + np.array([_E_SHORT, _E_OVER, _H_SHORT, _H_OVER, _W_SHORT, _W_OVER])] = (1, 1, 1, 1, q, q)
        eta = fleet.eta[i]
        objectives[1, v + np.array([_P, _HX, _TP, _GT, _GB])] = unit * np.array(
            [(1.0 + b_min) / eta[0], 1.0 / eta[1], 1.0 / eta[2], 1.0 / eta[4], 1.0 / eta[5]]
        )
        objectives[2, v + np.array([_PE_IN, _PE_OUT, _HE_IN, _HE_OUT])] = 1.0
        objectives[3, v + np.array([_P, _HX, _TP, _GT, _GB])] = (1.0 + b_min, 1.0, 1.0, 1.0, 1.0)
    # Fixed at zero, these start the zero-sum rows' basis and never return.
    a[-2, -2] = a[-1, -1] = 1.0
    short[-2:] = over[-2:] = (n - 2, n - 1)
    hi[-2:] = 0.0

    steps = len(p_load)
    if options.exchange_loss:
        exports = np.array(_EXPORT_PATTERNS)
    else:
        exports = np.zeros((1, N_COMMUNITIES), dtype=bool)
    k = steps * len(exports)
    lo, hi = np.broadcast_to(lo, (k, n)).copy(), np.broadcast_to(hi, (k, n)).copy()
    b = np.repeat(b, len(exports), axis=0)
    export = np.tile(exports, (steps, 1))  # (K, 3)
    for i in range(N_COMMUNITIES):
        v, r = i * nv, i * nr
        hi[:, v + _WIND] = np.repeat(wind[:, i], len(exports))
        if options.exchange_loss:
            hi[export[:, i], v + _HE_IN] = 0.0
            hi[~export[:, i], v + _HE_OUT] = 0.0
        debit = np.where(export[:, i], fleet.loss[i], 0.0)
        if cap:
            b[:, r + _SUPPLY] = -debit
        else:
            b[:, r + _HEAT_ROW] += debit
    return _Programs(a, b, lo, hi, objectives, short, over, nv)


def _lexicographic_simplex(prog: _Programs) -> np.ndarray:
    """Optimal (K, n) vertices of the programs, minimizing each objective
    in turn on the optimal face of the ones before.

    Bounded-variable tableau simplex with Bland's rule, run on all K
    tableaus at once.  A stage's face is kept by fixing every nonbasic
    column with a nonzero reduced cost at its bound.
    """
    a, lo, hi = prog.a, prog.lo, prog.hi
    k_all, (m, n) = len(prog.b), a.shape
    res = prog.b - np.sum(a * lo[:, None, :], axis=-1)  # (K, m), nonbasics at their lower bounds
    sign = np.where(res >= 0.0, 1.0, -1.0)
    basis = np.where(res >= 0.0, prog.short, prog.over)
    tab = a * sign[:, :, None]
    beta = np.abs(res)
    cb = prog.objectives[:, basis].transpose(1, 0, 2)  # (K, 4, m)
    z = np.zeros((k_all, len(prog.objectives), n))
    # One row at a time, in order: no (K, 4, m, n) product.  A row whose
    # basic column costs nothing in every tableau would add only zeros.
    for i in np.flatnonzero(cb.any(axis=(0, 1))):
        z += cb[:, :, i, None] * tab[:, None, i]
    z = prog.objectives - z
    ks = np.arange(k_all)
    basic = np.zeros((k_all, n), dtype=bool)
    basic[ks[:, None], basis] = True
    upper = np.zeros((k_all, n), dtype=bool)
    movable = hi > lo
    for stage in range(len(prog.objectives)):
        for _ in range(50 * (m + n)):
            d = z[:, stage]
            enter = movable & ~basic & np.where(upper, d > _EPS, d < -_EPS)
            act = np.flatnonzero(enter.any(axis=1))
            if act.size == 0:
                break
            # A finished stage's reduced costs are not read again.
            _pivot(act, enter[act].argmax(axis=1), tab, beta, z[:, stage:], basis, basic, upper, lo, hi)
        else:
            raise RuntimeError("simplex did not converge")
        movable &= basic | (np.abs(z[:, stage]) <= _EPS)
    x = np.where(upper, hi, lo)
    blo, bhi = lo[ks[:, None], basis], hi[ks[:, None], basis]
    beta = np.where(np.abs(beta - blo) <= _SNAP, blo, np.where(np.abs(beta - bhi) <= _SNAP, bhi, beta))
    x[ks[:, None], basis] = beta
    return x


def _pivot(act, j, tab, beta, z, basis, basic, upper, lo, hi) -> None:
    """Move column ``j`` of each tableau ``act`` off its bound as far as the
    basic values allow: a bound flip, or a pivot with the first blocking
    row by basis index (Bland)."""
    k = np.arange(len(act))
    col = tab[act, :, j]  # (k, m)
    step = np.where(upper[act, j], -1.0, 1.0)
    g = col * step[:, None]
    bas = basis[act]
    val = beta[act]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            g > _EPS, (val - lo[act[:, None], bas]) / g,
            np.where(g < -_EPS, (hi[act[:, None], bas] - val) / -g, np.inf),
        )
    ratio = np.maximum(ratio, 0.0)
    t_row = ratio.min(axis=1)
    span = hi[act, j] - lo[act, j]
    t = np.minimum(span, t_row)
    if not np.isfinite(t).all():
        raise RuntimeError("unbounded dispatch program")
    entering = np.where(upper[act, j], hi[act, j], lo[act, j]) + step * t
    beta[act] = val - (step * t)[:, None] * col

    flip = span <= t_row
    upper[act[flip], j[flip]] ^= True
    piv = ~flip
    act, j, k = act[piv], j[piv], np.arange(piv.sum())
    if act.size == 0:
        return
    tied = ratio[piv] <= t_row[piv, None] * (1.0 + 1e-12) + 1e-12
    r = np.where(tied, bas[piv], np.iinfo(basis.dtype).max).argmin(axis=1)
    leaving = basis[act, r]
    upper[act, leaving] = g[piv, r] < 0.0
    basic[act, leaving] = False
    basic[act, j] = True
    basis[act, r] = j
    beta[act, r] = entering[piv]

    # Only the rows whose multiplier is nonzero in some pivoting tableau
    # change: any other entry would become x - 0*y, which is x but for the
    # sign of a zero, and every test of an entry is against +-_EPS.  Those
    # rows, of every tableau or of the pivoting ones, are gathered, updated
    # and scattered back.
    mult = col[piv]
    rows = np.flatnonzero(mult.any(axis=0))
    whole = act.size == len(tab)
    index = (slice(None), rows) if whole else np.ix_(act, rows)
    pivot_row = tab[act, r] / mult[k, r][:, None]
    block = tab[index]
    block -= mult[:, rows, None] * pivot_row[:, None, :]
    tab[index] = block
    tab[act, r] = pivot_row
    zb = z if whole else z[act]
    zb -= zb[k, :, j][:, :, None] * pivot_row[:, None, :]
    if not whole:
        z[act] = zb


def _setpoints(x: np.ndarray, prog: _Programs, cfg: SystemConfig) -> np.ndarray:
    """(K, 3, 8) setpoints of program solutions, clamped into their boxes."""
    box_lo, box_hi = cfg.box
    c = x[:, : N_COMMUNITIES * prog.nv].reshape(len(x), N_COMMUNITIES, prog.nv)
    p = c[..., _P]
    b = box_lo[:, B_CHP] + c[..., _HX] / p
    rows = np.stack([
        p, b, c[..., _TP], c[..., _W], c[..., _GT], c[..., _GB],
        c[..., _PE_IN] - c[..., _PE_OUT], c[..., _HE_IN] - c[..., _HE_OUT],
    ], axis=-1)
    return clip_box(rows, box_lo, box_hi, cfg.fleet.q)


def oracle_day(p_load, h_load, w_load, wind, system_cfg: SystemConfig) -> np.ndarray:
    """Exact optimal setpoints (T, 3, 8) of each step of (T, 3) loads and wind.

    Per step: the least total imbalance, then the least fuel cost at it,
    then the least exchanged power, then the least device output.  Under
    ``exchange_loss`` every export-sign pattern that can win is solved,
    and the step keeps the pattern whose settled dispatch is best by the
    same keys (the loss is debited only where heat really leaves).  What
    the setpoints cost and leave unbalanced is for ``settle`` and
    ``fuel_cost`` to say.
    """
    p_load, h_load, w_load, wind = (np.asarray(v, dtype=float) for v in (p_load, h_load, w_load, wind))
    steps = len(p_load)
    prog = _programs(p_load, h_load, w_load, wind, system_cfg)
    x = _setpoints(_lexicographic_simplex(prog), prog, system_cfg)
    patterns = len(x) // steps
    if patterns == 1:
        return x
    loads = [np.repeat(v, patterns, axis=0) for v in (p_load, h_load, w_load, wind)]
    settled = settle(x, *loads, system_cfg.fleet, system_cfg.options)
    cost = fuel_cost(x, system_cfg.fleet, system_cfg.price)
    exchange = np.abs(x[..., P_EXCH]) + np.abs(x[..., H_EXCH])
    output = x[..., P_CHP] * (1.0 + x[..., B_CHP]) + x[..., P_TP] + x[..., P_GT] + x[..., H_GB]
    keys = np.stack([sum_last(v) for v in (settled.penalty, cost, exchange, output)], axis=-1)
    return x[patterns * np.arange(steps) + _first_best(keys.reshape(steps, patterns, -1))]


def _first_best(keys: np.ndarray) -> np.ndarray:
    """Per row of (rows, candidates, keys), the first candidate whose keys
    are lexicographically least, each key within ``_SNAP`` of its least."""
    mask = np.ones(keys.shape[:2], dtype=bool)
    for key in np.moveaxis(keys, -1, 0):
        key = np.where(mask, key, np.inf)
        mask &= key <= key.min(axis=1, keepdims=True) + _SNAP
    return mask.argmax(axis=1)

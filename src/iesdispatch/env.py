"""Sequential decision environment over a 24-step dispatch day.

States are the normalized loads and available wind of all three
communities; each community is an agent holding an 8-entry action in
[-1, 1] that maps affinely onto its physical setpoints.  One step decodes
the joint action, projects the exchanges, evaluates balances and fuel
cost, and returns a shared scalar reward.  No action changes the loads or
the wind, so a whole day of joint actions can also be evaluated at once:
``evaluate_day`` does so with arrays, and ``evaluate_step`` is its scalar
reference.  The environment is a value machine: independent instances
can run in parallel, a single instance is not shared between concurrent
callers.

Action layout per agent (all in [-1, 1]):
  0 CHP electric output      4 gas-turbine output
  1 CHP heat-to-power ratio  5 gas-boiler output
  2 cogeneration gross power 6 electric exchange (import positive)
  3 water production rate    7 heat exchange (import positive)
The CHP heat output is controlled through the ratio rather than directly
so the electric/heat coupling always holds, and the cogeneration unit is
controlled through its gross output so its limit stays a plain box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .scenario import N_STEPS, ScenarioData
from .system import (
    BalanceResult,
    CommunityConfig,
    CommunityLoads,
    DispatchDecision,
    ExchangeLimits,
    SystemConfig,
    clip_to_limits,
    community_cost,
    left_sum,
    power_balance,
    project_exchanges,
    water_rate_cap,
)
from .thermal import KJ_PER_KWH, WATER_DENSITY, pipeline_heat_loss

N_AGENTS = 3
STATE_DIM = 12
ACTION_DIM = 8
EPISODE_STEPS = N_STEPS
MODES = ("coordinated", "independent")
OBSERVATION_MODES = ("own", "full")

# State layout: four entries per community, communities in id order.
_QUANTITIES = ("p_load", "h_load", "w_load", "p_wind")


@dataclass(frozen=True)
class RewardParams:
    """Shared reward: u - (cost + kappa * total imbalance) / z.

    ``kappa`` converts the kW-equivalent imbalance into currency per step;
    ``z`` scales the sum into a convenient range and ``u`` keeps the
    reward positive near good dispatches, which also makes it an upper
    bound on any attainable reward.
    """

    z: float = 1e5
    u: float = 10.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.z <= 0.0:
            raise ValueError(f"z must be positive, got {self.z}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")


def compute_scales(scenario: ScenarioData) -> np.ndarray:
    """Per-community, per-quantity normalization scales (3, 4).

    Defaults to each quantity's scenario maximum, floored at 1 so all-zero
    profiles stay well defined.  Persist these with any trained policy so
    evaluation sees the same scaling.
    """
    scales = np.stack([scenario.column(f"{q}_kw" if q != "w_load" else "w_load_m3h").max(axis=1)
                       for q in _QUANTITIES], axis=1)
    return np.maximum(scales, 1.0)


def encode_day(scenario: ScenarioData, scales: np.ndarray) -> np.ndarray:
    """Normalized states of all steps, (24, 12): row t is (p1, h1, w1, wind1, p2, ..., wind3)."""
    raw = np.stack([scenario.p_load, scenario.h_load, scenario.w_load, scenario.p_wind], axis=2)
    return (raw / scales[:, None, :]).transpose(1, 0, 2).reshape(EPISODE_STEPS, STATE_DIM)


def encode_state(scenario: ScenarioData, t: int, scales: np.ndarray) -> np.ndarray:
    """Normalized 12-vector (p1, h1, w1, wind1, p2, ..., wind3) at step t."""
    if not 0 <= t < EPISODE_STEPS:
        raise ValueError(f"step must be in [0, {EPISODE_STEPS}), got {t}")
    return encode_day(scenario, scales)[t]


def agent_observation(state: np.ndarray, agent: int, observation: str = "own") -> np.ndarray:
    """What one actor sees: its own 4-entry block, or the full state."""
    if observation == "full":
        return np.asarray(state, dtype=float)
    if observation != "own":
        raise ValueError(f"observation must be one of {OBSERVATION_MODES}, got {observation!r}")
    return np.asarray(state, dtype=float)[4 * agent : 4 * agent + 4]


def day_observations(states: np.ndarray, observation: str = "own") -> np.ndarray:
    """What each actor sees at every step, (3, 24, observation_dim)."""
    if observation == "full":
        return np.stack([states] * N_AGENTS)
    if observation != "own":
        raise ValueError(f"observation must be one of {OBSERVATION_MODES}, got {observation!r}")
    return np.ascontiguousarray(states.reshape(len(states), N_AGENTS, 4).transpose(1, 0, 2))


def observation_dim(observation: str) -> int:
    return STATE_DIM if observation == "full" else 4


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

    def agent_rewards(self, params: RewardParams) -> tuple[float, ...]:
        """Per-community rewards used when each community learns alone."""
        return tuple(
            params.u - (self.costs[i] + params.kappa * self.balances[i].penalty) / params.z
            for i in range(len(self.costs))
        )


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


@dataclass(frozen=True)
class DayEvaluation:
    """A whole day of evaluated joint actions, as arrays over its steps.

    ``team_reward`` has shape (24,); the others have shape (24, 3), one
    column per community in id order.
    """

    team_reward: np.ndarray
    agent_reward: np.ndarray
    cost: np.ndarray
    penalty: np.ndarray
    curtailed: np.ndarray


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the three communities, left to right like ``left_sum``."""
    return x[:, 0] + x[:, 1] + x[:, 2]


def day_total(x: np.ndarray) -> float:
    """Total of a (24, 3) array, added as the ``StepRecord`` totals of
    the steps would be: each step's communities, then the steps, left to right."""
    return float(left_sum(_row_sum(x).tolist()))


def _project_rows(x: np.ndarray, bound: float) -> np.ndarray:
    """``project_exchanges`` for each row of a (24, 3) array."""
    v = x - (_row_sum(x) / N_AGENTS)[:, None]
    total = _row_sum(np.abs(v))
    cap = 2.0 * bound
    shrink = (total > cap) & (total > 0.0)
    return v * np.where(shrink, cap / np.where(shrink, total, 1.0), 1.0)[:, None]


def evaluate_day(
    scenario: ScenarioData,
    actions: np.ndarray,
    system_cfg: SystemConfig,
    reward_params: RewardParams,
    mode: str = "coordinated",
    dt: float = 1.0,
) -> DayEvaluation:
    """``evaluate_step`` for all 24 steps at once, from actions of shape (24, 3, 8).

    Each quantity goes through the same operations in the same order as
    in the scalar path: clip, affine map, box clip, zero-sum projection,
    balance, fuel cost, reward.  Sums over the communities run left to
    right as ``left_sum`` does, never through ``np.sum``, so every result
    equals ``evaluate_step``'s bit for bit.  ``evaluate_step`` stays the
    reference; the tests hold the two equal.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a = np.clip(np.asarray(actions, dtype=float), -1.0, 1.0)
    if a.shape != (EPISODE_STEPS, N_AGENTS, ACTION_DIM):
        raise ValueError(f"actions must have shape {(EPISODE_STEPS, N_AGENTS, ACTION_DIM)}, got {a.shape}")
    cfgs = system_cfg.communities
    limits, options, price = system_cfg.limits, system_cfg.options, system_cfg.price

    def per_community(get) -> np.ndarray:
        return np.array([get(c) for c in cfgs], dtype=float)

    def setpoint(j: int, lo, hi) -> np.ndarray:
        """action_to_setpoints' affine map of entry j, then clip_to_limits' clamp."""
        return np.clip(lo + (a[:, :, j] + 1.0) * 0.5 * (hi - lo), lo, hi)

    def fuel(output: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """devices.gas_cost, without its argument checks."""
        return price.gas_price * output / (eta * price.hhv) * price.dt

    q = per_community(lambda c: c.ro.kwh_per_m3)
    p_chp = setpoint(0, per_community(lambda c: c.chp.p_min), per_community(lambda c: c.chp.p_max))
    b_chp = setpoint(1, per_community(lambda c: c.chp.b_min), per_community(lambda c: c.chp.b_max))
    p_tp = setpoint(2, per_community(lambda c: c.ro.p_tp_min), per_community(lambda c: c.ro.p_tp_max))
    w_cap = per_community(lambda c: c.ro.w_max / dt)
    w_rate = np.clip(0.0 + (a[:, :, 3] + 1.0) * 0.5 * (w_cap - 0.0), 0.0, water_rate_cap(p_tp, q, w_cap))
    p_gt = setpoint(4, per_community(lambda c: c.gt.out_min), per_community(lambda c: c.gt.out_max))
    h_gb = setpoint(5, per_community(lambda c: c.gb.out_min), per_community(lambda c: c.gb.out_max))
    if mode == "independent":
        p_exch = h_exch = np.zeros((EPISODE_STEPS, N_AGENTS))
    else:
        p_exch = _project_rows(setpoint(6, -limits.p_max, limits.p_max), limits.p_max)
        h_exch = _project_rows(setpoint(7, -limits.h_max, limits.h_max), limits.h_max)

    # power_balance
    wind = scenario.p_wind.T
    surplus = p_chp + (p_tp - q * w_rate) + p_gt + wind + p_exch - scenario.p_load.T
    curtailed = np.minimum(wind, np.maximum(0.0, surplus))
    d_elec = np.abs(surplus - curtailed)
    h_chp = b_chp * p_chp
    h_supply = h_chp + h_gb + h_exch
    loss = per_community(lambda c: pipeline_heat_loss(c.pipeline))
    if options.exchange_loss:
        h_supply = np.where(h_exch < 0.0, h_supply - loss, h_supply)
    if options.cap_heat_by_water:
        # thermal.deliverable_heat_power, in its operation order
        c_water = per_community(lambda c: c.pipeline.c_water)
        t_drop = per_community(lambda c: c.pipeline.t_supply - c.pipeline.t_return)
        carried = c_water * (w_rate * dt * WATER_DENSITY) * t_drop / KJ_PER_KWH / dt
        h_supply = np.minimum(h_supply, carried)
    h_load = scenario.h_load.T
    h_demand = h_load + loss if options.gross_pipeline_loss else h_load
    d_heat = np.abs(h_supply - h_demand)
    d_water = np.abs(w_rate - scenario.w_load.T)
    penalty = d_elec + d_heat + q * d_water

    # community_cost
    chp_eta = per_community(lambda c: c.chp.eta)
    ro_eta = per_community(lambda c: c.ro.eta)
    pump = q * w_rate
    cost = (
        fuel(p_chp, chp_eta)
        + fuel(h_chp, chp_eta)
        + fuel(p_tp - pump, ro_eta)
        + fuel(pump, ro_eta)
        + fuel(p_gt, per_community(lambda c: c.gt.eta))
        + fuel(h_gb, per_community(lambda c: c.gb.eta))
    )

    u, kappa, z = reward_params.u, reward_params.kappa, reward_params.z
    return DayEvaluation(
        team_reward=u - (_row_sum(cost) + kappa * _row_sum(penalty)) / z,
        agent_reward=u - (cost + kappa * penalty) / z,
        cost=cost,
        penalty=penalty,
        curtailed=curtailed,
    )


class DispatchEnv:
    """One day's scenario and settings, with its states encoded once.

    ``states`` (24, 12) and ``observations`` (3, 24, observation_dim) are
    fixed by the scenario, since no action changes the loads or the wind;
    ``reset``/``step`` drive one 24-step episode at a time over them.
    """

    def __init__(
        self,
        scenario: ScenarioData,
        system_cfg: SystemConfig,
        reward_params: RewardParams = RewardParams(),
        mode: str = "coordinated",
        observation: str = "own",
        scales: np.ndarray | None = None,
        dt: float = 1.0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if observation not in OBSERVATION_MODES:
            raise ValueError(f"observation must be one of {OBSERVATION_MODES}, got {observation!r}")
        self.scenario = scenario
        self.system_cfg = system_cfg
        self.reward_params = reward_params
        self.mode = mode
        self.observation = observation
        self.scales = compute_scales(scenario) if scales is None else np.asarray(scales, dtype=float)
        self.dt = dt
        self.states = encode_day(scenario, self.scales)
        self.observations = day_observations(self.states, observation)
        self.states.setflags(write=False)
        self.observations.setflags(write=False)
        self._t = 0

    @property
    def t(self) -> int:
        return self._t

    def reset(self) -> np.ndarray:
        self._t = 0
        return self.states[0].copy()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, float, bool, StepRecord]:
        if self._t >= EPISODE_STEPS:
            raise RuntimeError("episode finished; call reset() first")
        record = evaluate_step(
            self.scenario, self._t, actions, self.system_cfg, self.reward_params, self.mode, self.dt
        )
        self._t += 1
        if record.done:
            next_state = np.zeros(STATE_DIM)
        else:
            next_state = self.states[self._t].copy()
        return next_state, record.reward, record.done, record

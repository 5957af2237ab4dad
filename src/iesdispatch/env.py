"""The dispatch day as a decision problem, evaluated a whole day at a time.

States are the normalized loads and available wind of all three
communities; each community is an agent holding an 8-entry action in
[-1, 1] that maps affinely onto its physical setpoints.  No action
changes the loads or the wind, so an episode is 24 known contexts and
needs no stateful step loop: ``evaluate_day`` decodes a day of joint
actions, projects the exchanges, evaluates balances and fuel cost and
returns the rewards of every step at once, through the array kernels of
``system``; ``settle_day`` does the same for setpoints already in their
boxes.  Everything here is a pure function or an immutable value, safe
to share between concurrent callers.

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

from dataclasses import dataclass

import numpy as np

from .scenario import N_STEPS, ScenarioData
from .system import (
    H_EXCH,
    P_EXCH,
    Settlement,
    SystemConfig,
    affine_setpoints,
    clip_box,
    fuel_cost,
    left_sum,
    project_rows,
    settle,
    sum_last,
)

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


def day_observations(states: np.ndarray, observation: str = "own") -> np.ndarray:
    """What each actor sees at every step, (3, 24, observation_dim): its
    own 4-entry block of the state, or the full state."""
    if observation == "full":
        return np.stack([states] * N_AGENTS)
    if observation != "own":
        raise ValueError(f"observation must be one of {OBSERVATION_MODES}, got {observation!r}")
    return np.ascontiguousarray(states.reshape(len(states), N_AGENTS, 4).transpose(1, 0, 2))


def observation_dim(observation: str) -> int:
    return STATE_DIM if observation == "full" else 4


def _reward(cost, penalty, params: RewardParams):
    return params.u - (cost + params.kappa * penalty) / params.z


@dataclass(frozen=True)
class DayEvaluation:
    """Evaluated joint actions as arrays over their steps.

    ``setpoints`` (T, 3, 8) are the decoded, clipped and projected
    setpoints in ``system.SETPOINTS`` order, ``team_reward`` has shape
    (T,), and ``wind``, ``cost``, ``agent_reward`` and the fields of
    ``balance`` have shape (T, 3), one column per community in id order.
    ``dt`` is the step length in hours, the system's ``price.dt``.
    """

    setpoints: np.ndarray
    wind: np.ndarray
    balance: Settlement
    cost: np.ndarray
    team_reward: np.ndarray
    agent_reward: np.ndarray
    dt: float


def day_total(x: np.ndarray) -> float:
    """Total of a (24, 3) array: each step's communities, then the steps,
    left to right."""
    return float(left_sum(sum_last(x).tolist()))


def decode_joint(actions: np.ndarray, system_cfg: SystemConfig, mode: str) -> np.ndarray:
    """Setpoints (..., 3, 8) of joint actions (..., 3, 8): clamp, affine map
    and box clip, then the exchanges projected onto conservation, or zeroed
    in independent mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    limits = system_cfg.limits
    lo, hi = system_cfg.box
    x = clip_box(affine_setpoints(actions, lo, hi), lo, hi, system_cfg.fleet.q)
    if mode == "independent":
        x[..., P_EXCH:] = 0.0
    else:
        x[..., P_EXCH] = project_rows(x[..., P_EXCH], limits.p_max)
        x[..., H_EXCH] = project_rows(x[..., H_EXCH], limits.h_max)
    return x


def settle_day(
    scenario: ScenarioData, setpoints: np.ndarray, system_cfg: SystemConfig, reward_params: RewardParams
) -> DayEvaluation:
    """Balance, price and reward a day of setpoints (24, 3, 8) already in
    their boxes against the scenario's loads and wind."""
    p_load, h_load, w_load, wind = (q.T for q in (scenario.p_load, scenario.h_load, scenario.w_load, scenario.p_wind))
    fleet = system_cfg.fleet
    balance = settle(setpoints, p_load, h_load, w_load, wind, fleet, system_cfg.options)
    cost = fuel_cost(setpoints, fleet, system_cfg.price)
    return DayEvaluation(
        setpoints=setpoints,
        wind=wind,
        balance=balance,
        cost=cost,
        team_reward=_reward(sum_last(cost), sum_last(balance.penalty), reward_params),
        agent_reward=_reward(cost, balance.penalty, reward_params),
        dt=system_cfg.price.dt,
    )


def evaluate_day(
    scenario: ScenarioData,
    actions: np.ndarray,
    system_cfg: SystemConfig,
    reward_params: RewardParams,
    mode: str = "coordinated",
) -> DayEvaluation:
    """Decode, project, balance, price and reward a day of joint actions
    (24, 3, 8), all steps at once. Deterministic."""
    actions = np.asarray(actions, dtype=float)
    if actions.shape != (EPISODE_STEPS, N_AGENTS, ACTION_DIM):
        raise ValueError(f"actions must have shape {(EPISODE_STEPS, N_AGENTS, ACTION_DIM)}, got {actions.shape}")
    return settle_day(scenario, decode_joint(actions, system_cfg, mode), system_cfg, reward_params)


class DispatchEnv:
    """One day's scenario and settings, with its states encoded once.

    ``states`` (24, 12) and ``observations`` (3, 24, observation_dim) are
    fixed by the scenario, since no action changes the loads or the wind,
    and are read-only; nothing here changes after construction.
    """

    def __init__(
        self,
        scenario: ScenarioData,
        system_cfg: SystemConfig,
        reward_params: RewardParams = RewardParams(),
        mode: str = "coordinated",
        observation: str = "own",
        scales: np.ndarray | None = None,
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
        self.states = encode_day(scenario, self.scales)
        self.observations = day_observations(self.states, observation)
        self.states.setflags(write=False)
        self.observations.setflags(write=False)

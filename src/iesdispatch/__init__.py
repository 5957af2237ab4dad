"""Three-community integrated energy dispatch: simulator, trainer, oracle."""

from .devices import (
    ChpParams,
    FuelPrice,
    GasUnitParams,
    LimitViolation,
    RoCogenParams,
    chp_heat_output,
    cogen_net_power,
    gas_cost,
    ro_osmotic_pressure,
    ro_power_demand,
    ro_specific_energy,
)
from .env import DispatchEnv, RewardParams, StepRecord, decode_action, encode_state, step_reward
from .learner import (
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    gae_advantages,
    train_independent,
    train_mappo,
)
from .scenario import ScenarioData, ScenarioSpec, generate_scenario, load_scenario, save_scenario
from .system import (
    BalanceOptions,
    BalanceResult,
    CommunityConfig,
    CommunityLoads,
    CostBreakdown,
    DispatchDecision,
    ExchangeLimits,
    SystemConfig,
    clip_to_limits,
    community_cost,
    default_system_config,
    oracle_day,
    oracle_dispatch,
    power_balance,
    project_exchanges,
    total_cost,
)
from .thermal import (
    PipelineParams,
    pipeline_heat_loss,
    required_heat_supply,
    transported_heat,
)

__version__ = "0.1.0"

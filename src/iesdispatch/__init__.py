"""Three-community integrated energy dispatch: simulator, trainer, oracle."""

from .devices import (
    ChpParams,
    FuelPrice,
    GasUnitParams,
    RoCogenParams,
    gas_cost,
    ro_osmotic_pressure,
    ro_specific_energy,
)
from .env import DayEvaluation, DispatchEnv, RewardParams, evaluate_day, settle_day
from .learner import (
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    gae_advantages,
    greedy_day,
    train_independent,
    train_mappo,
)
from .scenario import ScenarioData, ScenarioSpec, generate_scenario, load_scenario, save_scenario
from .system import (
    BalanceOptions,
    CommunityConfig,
    ExchangeLimits,
    SystemConfig,
    default_system_config,
    oracle_day,
)
from .thermal import (
    PipelineParams,
    pipeline_heat_loss,
    required_heat_supply,
    transported_heat,
)

__version__ = "0.1.0"

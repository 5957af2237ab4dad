"""Water-heat co-transmission: heat carried by the fresh-water delivery pipe.

Heat produced on the generation side is loaded onto the fresh-water stream
and separated again at the consumer, so one pipeline moves both products.
These helpers quantify the heat a given water mass can carry, the standing
radiative loss of the pipe, and the grossed-up supply requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WATER_DENSITY = 1000.0  # kg per m3
KJ_PER_KWH = 3600.0


@dataclass(frozen=True)
class PipelineParams:
    """Supply pipeline between the heat source and the consumer side."""

    c_water: float = 4.186          # kJ/(kg*K)
    thermal_resistance: float = 2.0  # (m*K)/W between medium and surroundings
    length: float = 1000.0           # m
    t_env: float = -10.0             # deg C, ambient around the pipe
    t_supply: float = 90.0           # deg C, water entering the pipe
    t_return: float = 40.0           # deg C, water after heat separation

    def __post_init__(self) -> None:
        if self.c_water <= 0.0:
            raise ValueError(f"c_water must be positive, got {self.c_water}")
        if self.thermal_resistance <= 0.0:
            raise ValueError(f"thermal_resistance must be positive, got {self.thermal_resistance}")
        if self.length < 0.0:
            raise ValueError(f"length must be nonnegative, got {self.length}")
        if self.t_supply <= self.t_return:
            raise ValueError(
                f"t_supply must exceed t_return, got ({self.t_supply}, {self.t_return})"
            )


def transported_heat(params: PipelineParams, mass_kg):
    """Heat (kWh) delivered by ``mass_kg`` of water cooling from supply to
    return; the mass and the fields of ``params`` may be floats or arrays."""
    if np.any(np.less(mass_kg, 0.0)):
        raise ValueError(f"water mass must be nonnegative, got {np.min(mass_kg)}")
    return params.c_water * mass_kg * (params.t_supply - params.t_return) / KJ_PER_KWH


def pipeline_heat_loss(params: PipelineParams) -> float:
    """Standing radiative loss (kW) of the pipe at supply temperature."""
    return 2.0 * math.pi * (params.t_supply - params.t_env) / params.thermal_resistance * params.length / 1000.0


def required_heat_supply(h_load_kw, loss_kw):
    """Heat (kW) the source must provide: consumer load plus pipe loss (floats or arrays)."""
    if np.any(np.less(h_load_kw, 0.0)):
        raise ValueError(f"heat load must be nonnegative, got {np.min(h_load_kw)}")
    if np.any(np.less(loss_kw, 0.0)):
        raise ValueError(f"loss must be nonnegative, got {np.min(loss_kw)}")
    return h_load_kw + loss_kw


def deliverable_heat_power(params: PipelineParams, w_rate_m3h):
    """Largest heat power (kW) a water flow (m3/h) can carry (floats or arrays)."""
    return transported_heat(params, w_rate_m3h * WATER_DENSITY)

"""Parameters and fuel cost of the four controllable units of a community.

Each community runs a back-pressure CHP unit with a variable heat-to-power
ratio, a water-electricity cogeneration unit (a thermal generator whose
output also drives a reverse-osmosis desalination train), a gas turbine and
a gas boiler.  Their dispatch physics (limits, pumping demand, CHP heat)
is written once, as the array kernels of ``system``; here are the
immutable parameter records, the membrane analysis functions and the gas
cost, all pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChpParams:
    """Back-pressure CHP unit: electric output plus heat at ratio b.

    ``eta`` is the fuel-to-output efficiency and applies to both the
    electric and the heat product.
    """

    p_min: float = 1000.0  # kW electric
    p_max: float = 5000.0  # kW electric
    b_min: float = 0.0     # heat-to-power ratio, dimensionless
    b_max: float = 1.4
    eta: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 < self.p_min < self.p_max:
            raise ValueError(f"need 0 < p_min < p_max, got ({self.p_min}, {self.p_max})")
        if not 0.0 <= self.b_min < self.b_max:
            raise ValueError(f"need 0 <= b_min < b_max, got ({self.b_min}, {self.b_max})")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class RoCogenParams:
    """Water-electricity cogeneration unit.

    A thermal generator of gross electric output in [p_tp_min, p_tp_max] kW
    feeds a reverse-osmosis train.  Producing water at ``w_rate`` m3/h draws
    ``kwh_per_m3 * w_rate`` kW of pumping power from the gross output; the
    remainder is exported.  ``osmotic_coeff`` ((MPa*L)/mol) and ``salinity``
    (mol/L) parameterise the membrane physics used by the analysis
    functions; dispatch itself uses only the fixed conversion coefficient.
    """

    p_tp_min: float = 0.0       # kW gross
    p_tp_max: float = 5000.0    # kW gross
    osmotic_coeff: float = 4.17
    salinity: float = 0.6
    kwh_per_m3: float = 8.0     # total electricity per m3 of fresh water
    w_max: float = 500.0        # m3 per dispatch step
    recovery_rate: float = 0.5  # operating recovery rate, in (0, 1)
    eta: float = 0.40           # fuel-to-electricity efficiency of the thermal unit

    def __post_init__(self) -> None:
        if self.p_tp_min < 0.0 or self.p_tp_min >= self.p_tp_max:
            raise ValueError(f"need 0 <= p_tp_min < p_tp_max, got ({self.p_tp_min}, {self.p_tp_max})")
        if not 0.0 < self.recovery_rate < 1.0:
            raise ValueError(f"recovery_rate must be in (0, 1), got {self.recovery_rate}")
        if self.kwh_per_m3 <= 0.0:
            raise ValueError(f"kwh_per_m3 must be positive, got {self.kwh_per_m3}")
        if self.w_max <= 0.0:
            raise ValueError(f"w_max must be positive, got {self.w_max}")
        if self.osmotic_coeff <= 0.0 or self.salinity <= 0.0:
            raise ValueError("osmotic_coeff and salinity must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class GasUnitParams:
    """Single-product gas unit: electric for a turbine, thermal for a boiler."""

    out_min: float = 0.0
    out_max: float = 3000.0  # kW
    eta: float = 0.35

    def __post_init__(self) -> None:
        if self.out_min < 0.0 or self.out_min >= self.out_max:
            raise ValueError(f"need 0 <= out_min < out_max, got ({self.out_min}, {self.out_max})")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class FuelPrice:
    """Natural-gas price data: currency per m3, heating value, step length."""

    gas_price: float = 3.5  # currency per m3
    hhv: float = 9.7        # kWh per m3, higher heating value
    dt: float = 1.0         # dispatch interval, hours

    def __post_init__(self) -> None:
        if self.gas_price <= 0.0 or self.hhv <= 0.0 or self.dt <= 0.0:
            raise ValueError("gas_price, hhv and dt must all be positive")


def ro_osmotic_pressure(params: RoCogenParams, recovery: float) -> float:
    """Osmotic pressure (MPa) across the membrane at a given recovery rate.

    The brine concentrates as recovery rises, so pressure grows as
    coeff * salinity / (1 - recovery).
    """
    if recovery < 0.0 or recovery >= 1.0:
        raise ValueError(f"recovery rate must be in [0, 1), got {recovery}")
    return params.osmotic_coeff * params.salinity / (1.0 - recovery)


def ro_specific_energy(params: RoCogenParams, recovery: float) -> float:
    """Ideal pumping energy per unit permeate volume (MJ/m3).

    Integrates the osmotic pressure over the produced volume:
    coeff * salinity * (1/B) * ln(1/(1-B)).  Tends to coeff * salinity as
    B -> 0+ and increases monotonically with B.
    """
    if recovery <= 0.0 or recovery >= 1.0:
        raise ValueError(f"recovery rate must be in (0, 1), got {recovery}")
    return (
        params.osmotic_coeff
        * params.salinity
        * (1.0 / recovery)
        * math.log(1.0 / (1.0 - recovery))
    )


def gas_cost(output_kw, eta, price: FuelPrice):
    """Fuel cost (currency) of producing ``output_kw`` for one interval.

    Linear and homogeneous in the output:
    gas_price * output / (eta * hhv) * dt.  Takes floats or arrays.
    """
    if np.any(np.less(output_kw, 0.0)):
        raise ValueError(f"output must be nonnegative, got {np.min(output_kw)}")
    if not np.all(np.greater(eta, 0.0) & np.less_equal(eta, 1.0)):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return price.gas_price * output_kw / (eta * price.hhv) * price.dt

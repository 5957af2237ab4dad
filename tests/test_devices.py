"""Unit tests for the device parameters, membrane physics and fuel cost."""

import math

import pytest
from hypothesis import given, strategies as st

from iesdispatch.devices import (
    ChpParams,
    FuelPrice,
    GasUnitParams,
    RoCogenParams,
    gas_cost,
    ro_osmotic_pressure,
    ro_specific_energy,
)

RO = RoCogenParams()
PRICE = FuelPrice()


class TestOsmoticPressure:
    def test_zero_recovery_reduces_to_base_pressure(self):
        assert ro_osmotic_pressure(RO, 0.0) == pytest.approx(4.17 * 0.6, rel=1e-12)

    def test_half_recovery_doubles_pressure(self):
        # coeff * salinity / (1 - 0.5) = 2.502 / 0.5
        assert ro_osmotic_pressure(RO, 0.5) == pytest.approx(2.502 / 0.5, rel=1e-12)

    def test_recovery_04(self):
        assert ro_osmotic_pressure(RO, 0.4) == pytest.approx(2.502 / 0.6, rel=1e-12)

    def test_rejects_full_recovery(self):
        with pytest.raises(ValueError):
            ro_osmotic_pressure(RO, 1.0)
        with pytest.raises(ValueError):
            ro_osmotic_pressure(RO, -0.1)

    @given(st.floats(0.0, 0.98), st.floats(0.001, 0.009))
    def test_strictly_increasing(self, b, db):
        assert ro_osmotic_pressure(RO, b + db) > ro_osmotic_pressure(RO, b)


class TestSpecificEnergy:
    def test_limit_toward_zero_recovery(self):
        # (1/B) ln(1/(1-B)) -> 1, so the value tends to coeff * salinity
        assert ro_specific_energy(RO, 1e-9) == pytest.approx(2.502, rel=1e-6)

    def test_half_recovery(self):
        assert ro_specific_energy(RO, 0.5) == pytest.approx(2.502 * 2.0 * math.log(2.0), rel=1e-12)

    def test_high_recovery(self):
        expected = 2.502 * (1.0 / 0.9) * math.log(10.0)
        assert ro_specific_energy(RO, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ro_specific_energy(RO, bad)

    def test_monotone_on_grid(self):
        # strictly increasing across the whole (0, 1) operating range
        grid = [0.01 * k for k in range(1, 100)]
        values = [ro_specific_energy(RO, b) for b in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGasCost:
    def test_zero_output(self):
        assert gas_cost(0.0, 0.5, PRICE) == 0.0

    def test_reference_value(self):
        # 3000 kW at eta 0.35: 3000 / (0.35 * 9.7) * 3.5 for one hour
        expected = 3000.0 / (0.35 * 9.7) * 3.5
        assert gas_cost(3000.0, 0.35, PRICE) == pytest.approx(expected, rel=1e-12)

    def test_linearity_half(self):
        assert gas_cost(1500.0, 0.35, PRICE) == pytest.approx(gas_cost(3000.0, 0.35, PRICE) / 2.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gas_cost(-1.0, 0.5, PRICE)
        with pytest.raises(ValueError):
            gas_cost(100.0, 0.0, PRICE)
        with pytest.raises(ValueError):
            gas_cost(100.0, 1.1, PRICE)

    @given(st.floats(0.0, 1e5), st.floats(0.0, 1e5), st.floats(0.05, 1.0))
    def test_additivity(self, a, b, eta):
        total = gas_cost(a + b, eta, PRICE)
        assert total == pytest.approx(gas_cost(a, eta, PRICE) + gas_cost(b, eta, PRICE), rel=1e-9, abs=1e-9)

    @given(st.floats(0.0, 1e6), st.floats(0.05, 1.0))
    def test_nonnegative(self, out, eta):
        assert gas_cost(out, eta, PRICE) >= 0.0


class TestParamValidation:
    def test_chp_invariants(self):
        with pytest.raises(ValueError):
            ChpParams(p_min=0.0)
        with pytest.raises(ValueError):
            ChpParams(p_min=5000.0, p_max=5000.0)
        with pytest.raises(ValueError):
            ChpParams(b_min=1.4, b_max=1.4)

    def test_ro_invariants(self):
        with pytest.raises(ValueError):
            RoCogenParams(recovery_rate=0.0)
        with pytest.raises(ValueError):
            RoCogenParams(kwh_per_m3=0.0)
        with pytest.raises(ValueError):
            RoCogenParams(w_max=-1.0)
        with pytest.raises(ValueError):
            RoCogenParams(p_tp_min=-1.0)

    def test_gas_unit_invariants(self):
        with pytest.raises(ValueError):
            GasUnitParams(out_min=-1.0)
        with pytest.raises(ValueError):
            GasUnitParams(out_min=3000.0, out_max=3000.0)

    def test_fuel_price_invariants(self):
        with pytest.raises(ValueError):
            FuelPrice(gas_price=0.0)
        with pytest.raises(ValueError):
            FuelPrice(hhv=-9.7)
        with pytest.raises(ValueError):
            FuelPrice(dt=0.0)

"""Unit tests for the water-heat co-transmission helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from iesdispatch.thermal import (
    PipelineParams,
    deliverable_heat_power,
    pipeline_heat_loss,
    required_heat_supply,
    transported_heat,
)

PIPE = PipelineParams()


class TestTransportedHeat:
    def test_no_flow(self):
        assert transported_heat(PIPE, 0.0) == 0.0

    def test_reference_mass(self):
        # 4.186 kJ/(kg K) * 1e5 kg * 50 K, converted to kWh
        assert transported_heat(PIPE, 1e5) == pytest.approx(4.186 * 1e5 * 50.0 / 3600.0, rel=1e-12)

    def test_linearity_in_delta_t(self):
        wide = PipelineParams(t_supply=140.0, t_return=40.0)
        assert transported_heat(wide, 1e5) == pytest.approx(2.0 * transported_heat(PIPE, 1e5), rel=1e-12)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            transported_heat(PIPE, -1.0)


class TestPipelineLoss:
    def test_no_gradient_no_loss(self):
        pipe = PipelineParams(t_env=90.0, t_supply=90.0, t_return=40.0)
        assert pipeline_heat_loss(pipe) == 0.0

    def test_reference_loss(self):
        pipe = PipelineParams(t_supply=90.0, t_env=-10.0, thermal_resistance=2.0, length=1000.0)
        assert pipeline_heat_loss(pipe) == pytest.approx(2.0 * math.pi * 50.0, rel=1e-12)

    def test_halved_length(self):
        pipe = PipelineParams(t_supply=90.0, t_env=-10.0, thermal_resistance=2.0, length=500.0)
        assert pipeline_heat_loss(pipe) == pytest.approx(math.pi * 50.0 * 2.0 / 2.0, rel=1e-12)

    @given(st.floats(0.0, 5000.0), st.floats(-30.0, 89.0))
    def test_linear_in_length_and_gradient(self, length, t_env):
        pipe = PipelineParams(length=length, t_env=t_env)
        base = PipelineParams(length=1.0, t_env=t_env)
        assert pipeline_heat_loss(pipe) == pytest.approx(length * pipeline_heat_loss(base), rel=1e-9, abs=1e-12)


class TestRequiredSupply:
    def test_lossless(self):
        assert required_heat_supply(1000.0, 0.0) == 1000.0

    def test_sum(self):
        loss = pipeline_heat_loss(PipelineParams(thermal_resistance=2.0, length=1000.0, t_supply=90.0, t_env=-10.0))
        assert required_heat_supply(1000.0, loss) == pytest.approx(1000.0 + 100.0 * math.pi, rel=1e-12)

    def test_standby_loss_only(self):
        assert required_heat_supply(0.0, 314.159) == pytest.approx(314.159)

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e4))
    def test_never_below_load(self, load, loss):
        assert required_heat_supply(load, loss) >= load

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            required_heat_supply(-1.0, 0.0)
        with pytest.raises(ValueError):
            required_heat_supply(1.0, -0.1)


class TestDeliverableHeat:
    def test_matches_transported_heat_of_delivered_mass(self):
        # 100 m3/h carries the heat of 1e5 kg of water each hour
        assert deliverable_heat_power(PIPE, 100.0) == pytest.approx(
            transported_heat(PIPE, 1e5), rel=1e-12
        )


class TestPipelineValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PipelineParams(c_water=0.0)
        with pytest.raises(ValueError):
            PipelineParams(thermal_resistance=0.0)
        with pytest.raises(ValueError):
            PipelineParams(length=-1.0)
        with pytest.raises(ValueError):
            PipelineParams(t_supply=40.0, t_return=40.0)

"""Scenario CSV round-trips, schema rejection, and generator properties."""

import numpy as np
import pytest

from iesdispatch.scenario import (
    N_STEPS,
    ScenarioData,
    ScenarioFormatError,
    ScenarioSpec,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)


@pytest.fixture
def scenario():
    return generate_scenario(ScenarioSpec())


class TestRoundTrip:
    def test_save_load_identity(self, scenario, tmp_path):
        path = tmp_path / "scenario.csv"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        for name in ("p_load", "h_load", "w_load", "p_wind"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(scenario, name))

    def test_hash_stable(self, scenario, tmp_path):
        path = tmp_path / "scenario.csv"
        save_scenario(scenario, path)
        assert scenario_hash(load_scenario(path)) == scenario_hash(scenario)


class TestSchemaErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_valid_file_loads(self, scenario, tmp_path):
        path = tmp_path / "ok.csv"
        save_scenario(scenario, path)
        assert load_scenario(path).p_load.shape == (3, 24)

    def test_wrong_row_count(self, scenario, tmp_path):
        path = tmp_path / "short.csv"
        save_scenario(scenario, path)
        lines = path.read_text().strip().splitlines()
        self._write(tmp_path, lines[:-1])
        with pytest.raises(ScenarioFormatError, match="expected 72 data rows"):
            load_scenario(tmp_path / "bad.csv")

    def test_negative_value_names_cell(self, scenario, tmp_path):
        path = tmp_path / "neg.csv"
        save_scenario(scenario, path)
        lines = path.read_text().strip().splitlines()
        parts = lines[5].split(",")
        parts[2] = "-1.0"
        lines[5] = ",".join(parts)
        self._write(tmp_path, lines)
        with pytest.raises(ScenarioFormatError, match="row 6, column p_load_kw"):
            load_scenario(tmp_path / "bad.csv")

    def test_oversized_cell_names_row(self, scenario, tmp_path):
        # One cell longer than the csv module's field size limit (131072).
        path = tmp_path / "big.csv"
        save_scenario(scenario, path)
        lines = path.read_text().strip().splitlines()
        parts = lines[4].split(",")
        parts[3] = "1" * 131073
        lines[4] = ",".join(parts)
        self._write(tmp_path, lines)
        with pytest.raises(ScenarioFormatError, match=r"bad\.csv: row 5"):
            load_scenario(tmp_path / "bad.csv")

    def test_bad_header(self, tmp_path):
        self._write(tmp_path, ["a,b,c,d,e,f"])
        with pytest.raises(ScenarioFormatError, match="header"):
            load_scenario(tmp_path / "bad.csv")

    def test_wrong_column_count(self, scenario, tmp_path):
        path = tmp_path / "cols.csv"
        save_scenario(scenario, path)
        lines = path.read_text().strip().splitlines()
        lines[3] = lines[3] + ",99"
        self._write(tmp_path, lines)
        with pytest.raises(ScenarioFormatError, match="row 4"):
            load_scenario(tmp_path / "bad.csv")

    def test_duplicate_row(self, scenario, tmp_path):
        path = tmp_path / "dup.csv"
        save_scenario(scenario, path)
        lines = path.read_text().strip().splitlines()
        lines[2] = lines[1]
        self._write(tmp_path, lines)
        with pytest.raises(ScenarioFormatError, match="duplicate"):
            load_scenario(tmp_path / "bad.csv")

    def test_non_numeric_cell(self, scenario, tmp_path):
        path = tmp_path / "nan.csv"
        save_scenario(scenario, path)
        lines = path.read_text().strip().splitlines()
        parts = lines[10].split(",")
        parts[4] = "oops"
        lines[10] = ",".join(parts)
        self._write(tmp_path, lines)
        with pytest.raises(ScenarioFormatError, match="not a number"):
            load_scenario(tmp_path / "bad.csv")


class TestValidation:
    def test_shape_enforced(self):
        with pytest.raises(ScenarioFormatError):
            ScenarioData(
                p_load=np.zeros((3, 23)),
                h_load=np.zeros((3, 24)),
                w_load=np.zeros((3, 24)),
                p_wind=np.zeros((3, 24)),
            )

    def test_negative_rejected(self):
        bad = np.zeros((3, 24))
        bad[1, 5] = -2.0
        with pytest.raises(ScenarioFormatError):
            ScenarioData(p_load=bad, h_load=np.zeros((3, 24)), w_load=np.zeros((3, 24)), p_wind=np.zeros((3, 24)))


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        spec = ScenarioSpec(noise_std=0.05, seed=7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_scenario(generate_scenario(spec), a)
        save_scenario(generate_scenario(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_amplitude(self):
        scenario = generate_scenario(ScenarioSpec(amplitude=0.0))
        for name in ("p_load", "h_load", "w_load", "p_wind"):
            assert np.all(getattr(scenario, name) == 0.0)

    def test_night_wind_exceeds_twice_absorbable_load(self, scenario):
        # The commercial community (index 1) idles near its must-run floor
        # overnight: its wind is at least twice the load it can absorb
        # locally above that floor, which is what makes the curtailment
        # comparison between the two operating modes interesting.
        floor = 1000.0  # CHP minimum electric output
        night = list(range(0, 6)) + [22, 23]
        for t in night:
            absorbable = scenario.p_load[1, t] - floor
            assert scenario.p_wind[1, t] >= 2.0 * absorbable

    def test_night_wind_exportable_within_limits(self, scenario):
        # the overnight commercial surplus stays within the 1000 kW
        # exchange cap, so a zero-curtailment coordinated dispatch exists
        floor = 1000.0
        night = list(range(0, 6)) + [22, 23]
        for t in night:
            surplus = scenario.p_wind[1, t] - (scenario.p_load[1, t] - floor)
            assert 0.0 < surplus <= 1000.0

    def test_profiles_differ_between_communities(self, scenario):
        assert not np.allclose(scenario.p_load[0], scenario.p_load[1])
        assert not np.allclose(scenario.h_load[2], scenario.h_load[1])

    def test_uniform_profile_is_symmetric(self):
        scenario = generate_scenario(ScenarioSpec(profile="uniform"))
        for name in ("p_load", "h_load", "w_load", "p_wind"):
            arr = getattr(scenario, name)
            np.testing.assert_array_equal(arr[0], arr[1])
            np.testing.assert_array_equal(arr[0], arr[2])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(profile="unknown")
        with pytest.raises(ValueError):
            ScenarioSpec(amplitude=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(noise_std=-0.1)

    def test_24_steps(self, scenario):
        assert scenario.p_load.shape[1] == N_STEPS

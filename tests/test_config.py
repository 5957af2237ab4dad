"""Configuration tests: the built-in defaults and the reading of user trees."""

import re
import sys
from pathlib import Path

import pytest
import yaml

from iesdispatch.config import ConfigError, config_hash, default_config_tree, load_config
from iesdispatch.env import RewardParams
from iesdispatch.learner import TrainConfig
from iesdispatch.scenario import ScenarioSpec
from iesdispatch.system import default_system_config

# Checkpoints trained under the defaults carry this hash; it changes only
# when the default system or environment does.
DEFAULT_HASH = "0acd52b129f2c957ffa21581460810746304e6712117d3617cb3dc56246eb398"
ROOT = Path(__file__).resolve().parent.parent


def test_default_hash_is_pinned():
    assert config_hash(load_config()) == DEFAULT_HASH


def test_defaults_are_the_dataclass_defaults():
    cfg = load_config()
    assert cfg.system == default_system_config()
    assert cfg.train == TrainConfig()
    assert cfg.reward == RewardParams()
    assert cfg.generator == ScenarioSpec()


def test_float_keys_take_ints(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("system: {exchange: {p_max_kw: 500}}\nenv: {reward: {z: 1000}}\n", encoding="utf-8")
    cfg = load_config(path)
    assert type(cfg.system.limits.p_max) is float and cfg.system.limits.p_max == 500.0
    assert type(cfg.reward.z) is float and cfg.reward.z == 1000.0


def _readme_config() -> str:
    """The README's first ``yaml`` block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```yaml\n(.*?)```", readme, re.DOTALL).group(1)


def test_the_readme_example_loads(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(_readme_config(), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.reward.z == 1.0e5 and cfg.train.episodes == 5000


def test_a_wrong_type_names_the_value():
    # YAML 1.1 reads an exponent without a sign as text.
    with pytest.raises(ConfigError, match=re.escape("env.reward.z: expected float or int, got str '1.0e5'")):
        load_config(None, {"env": {"reward": {"z": yaml.safe_load("1.0e5")}}})


@pytest.mark.parametrize("text, key", [
    ("system:\n  price: {gas_price_per_m3: .inf}\n", "system.price.gas_price_per_m3"),
    ("system:\n  exchange: {p_max_kw: .nan}\n", "system.exchange.p_max_kw"),
    ("env:\n  reward: {kappa: .nan}\n", "env.reward.kappa"),
    ("env:\n  reward: {z: -.inf}\n", "env.reward.z"),
    ("system:\n  communities: [{chp: {eta: .nan}}, {}, {}]\n", "system.communities[0].chp.eta"),
])
def test_a_non_finite_float_names_its_key(tmp_path, text, key):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{key}: expected a finite number, got ")):
        load_config(path)


@pytest.mark.parametrize("overrides, message", [
    ({"system": {"exchange": {"p_max_kw": 1.0e308}}}, "system: community 1: p_exch range [-1e+308, 1e+308] is wider"),
    ({"system": {"exchange": {"h_max_kw": 1.0e308}}}, "system: community 1: h_exch range [-1e+308, 1e+308] is wider"),
    ({"system": {"price": {"dt_h": 1.0e-310}}}, "system: community 1: w_rate range [0.0, inf] is wider"),
])
def test_a_setpoint_range_that_overflows_is_a_config_error(overrides, message):
    """``hi - lo`` of every setpoint box must be a float, or the action map
    turns every setpoint into inf or nan."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)} than a float holds$"):
        load_config(None, overrides)


def test_communities_out_of_id_order_are_a_config_error(tmp_path):
    """The kernels read community i + 1 at position i, as the scenario and
    the schedule do: listed out of order, one community's fleet would
    dispatch another's loads."""
    path = tmp_path / "config.yaml"
    path.write_text("system: {communities: [{id: 2, chp: {p_max_kw: 2000.0}}, {id: 1}, {}]}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape('system: communities[0]: id must be 1, got 2')}$"):
        load_config(path)


@pytest.mark.parametrize("overrides, key", [
    ({"train": {"seed": -1}}, "train: seed must be nonnegative, got -1"),
    ({"scenario": {"generator": {"seed": -3}}}, "scenario.generator: seed must be nonnegative, got -3"),
])
def test_a_negative_seed_names_its_key(overrides, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(None, overrides)


def test_seeds_are_checked_in_the_dataclasses():
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        ScenarioSpec(seed=-1)
    assert TrainConfig(seed=0).seed == 0 and ScenarioSpec(seed=0).seed == 0


def _spy_loaders(monkeypatch) -> list:
    """Record the loader of every ``yaml.load`` call."""
    used = []
    real = yaml.load

    def load(stream, Loader):
        used.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", load)
    return used


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_read_the_same_trees():
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    texts = [
        _readme_config(),
        yaml.safe_dump(default_config_tree()),
        yaml.safe_dump(WORKLOADS["oracle-strict"].config(1), sort_keys=True),
        "z: 1.0e5\ny: 1.0e+5\nx: 1e5\n",
        "a: .inf\nb: -.inf\nc: ~\nd: 0x1F\ne: 1_000\nf: 2024-01-01\ng: yes\n",
        "base: &b {p_max_kw: 500}\nexchange: *b\nmerged: {<<: *b, h_max_kw: 1}\n",
        "seed: 1\nseed: 2\n",
    ]
    for text in texts:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader), text


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_invalid_yaml_is_a_config_error_under_either_loader(tmp_path, monkeypatch, loader):
    if loader == "CSafeLoader" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(yaml, "CSafeLoader", getattr(yaml, loader), raising=False)
    used = _spy_loaders(monkeypatch)
    path = tmp_path / "bad.yaml"
    for text in ("version: 1\n- a\n", "train: [1, 2\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)
    assert used == [getattr(yaml, loader)] * 2


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_a_file_that_is_not_utf8_is_named_under_either_loader(tmp_path, monkeypatch, loader):
    if loader == "CSafeLoader" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(yaml, "CSafeLoader", getattr(yaml, loader), raising=False)
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"\xfftrain: {seed: 3}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not valid UTF-8: "):
        load_config(path)


def test_the_libyaml_loader_is_used_where_present(tmp_path, monkeypatch):
    used = _spy_loaders(monkeypatch)
    path = tmp_path / "config.yaml"
    path.write_text("seed: 3\n", encoding="utf-8")
    assert load_config(path).tree["seed"] == 3
    assert used == [yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader]

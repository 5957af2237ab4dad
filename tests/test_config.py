"""Configuration tests: the built-in defaults and the reading of user trees."""

from iesdispatch.config import config_hash, load_config
from iesdispatch.env import RewardParams
from iesdispatch.learner import TrainConfig
from iesdispatch.scenario import ScenarioSpec
from iesdispatch.system import default_system_config

# Checkpoints trained under the defaults carry this hash; it changes only
# when the default system or environment does.
DEFAULT_HASH = "0acd52b129f2c957ffa21581460810746304e6712117d3617cb3dc56246eb398"


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

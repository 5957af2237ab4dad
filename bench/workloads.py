"""What each workload runs: the system, the days, the configs and the verb calls.

The benchmark writes the whole ``system`` tree into every config it hands
to the program, so the device limits, prices and pipe constants that the
program dispatches are exactly the ones the output checks and the LP bound
read from this module.  The values are the reference system documented in
the package README.
"""

from __future__ import annotations

from dataclasses import dataclass

KAPPA = 1.5
REWARD = {"z": 1.0e5, "u": 10.0, "kappa": KAPPA}
# Desk-scale training settings of the acceptance suite.
DESK_TRAIN = {
    "actor_lr": 3.0e-4,
    "critic_lr": 1.0e-3,
    "batch": 96,
    "clip_eps": 0.2,
    "discount": 0.0,
    "gae_lambda": 0.95,
    "epochs_per_update": 8,
}
TRAIN_EPISODES = 1000
# Multiplicative load and wind jitter of the noisy oracle days, standing for
# day-ahead forecast error.
NOISE_STD = 0.05
N_NOISY_DAYS = 2
STRICT_OPTIONS = {"gross_pipeline_loss": True, "cap_heat_by_water": True, "exchange_loss": True}
DEFAULT_OPTIONS = {"gross_pipeline_loss": False, "cap_heat_by_water": False, "exchange_loss": False}


def _community(cid: int) -> dict:
    return {
        "id": cid,
        "chp": {"p_min_kw": 1000.0, "p_max_kw": 5000.0, "b_min": 0.0, "b_max": 1.4, "eta": 0.90},
        "ro": {
            "p_tp_min_kw": 0.0,
            "p_tp_max_kw": 5000.0,
            "osmotic_coeff": 4.17,
            "salinity_mol_per_l": 0.6,
            "kwh_per_m3": 8.0,
            "w_max_m3": 500.0,
            "recovery_rate": 0.5,
            "eta": 0.40,
        },
        "gt": {"out_min_kw": 0.0, "out_max_kw": 3000.0, "eta": 0.35},
        "gb": {"out_min_kw": 0.0, "out_max_kw": 3000.0, "eta": 0.90},
        "pipeline": {
            "c_water_kj_per_kg_k": 4.186,
            "thermal_resistance_mk_per_w": 2.0,
            "length_m": 1000.0,
            "t_env_c": -10.0,
            "t_supply_c": 90.0,
            "t_return_c": 40.0,
        },
    }


def system_tree(strict: bool) -> dict:
    return {
        "exchange": {"p_max_kw": 1000.0, "h_max_kw": 1000.0},
        "price": {"gas_price_per_m3": 3.5, "hhv_kwh_per_m3": 9.7, "dt_h": 1.0},
        "options": dict(STRICT_OPTIONS if strict else DEFAULT_OPTIONS),
        "communities": [_community(i) for i in (1, 2, 3)],
    }


@dataclass(frozen=True)
class Day:
    """One scenario the benchmark writes with the ``generate-scenario`` verb."""

    name: str
    profile: str
    noise_std: float = 0.0
    seed: int = 0

    def config(self) -> dict:
        generator = {"profile": self.profile, "amplitude": 1.0, "noise_std": self.noise_std, "seed": self.seed}
        return {"version": 1, "scenario": {"path": None, "generator": generator}}


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "train" (then "evaluate") or "oracle"
    mode: str = "coordinated"
    strict: bool = False

    def days(self, seed: int) -> list[Day]:
        if self.verb == "train":
            return [Day("complementary-winter", "complementary-winter")]
        noisy = [
            Day(f"noisy-{k}", "complementary-winter", NOISE_STD, seed * N_NOISY_DAYS + k)
            for k in range(N_NOISY_DAYS)
        ]
        return [Day("complementary-winter", "complementary-winter"), Day("uniform", "uniform"), *noisy]

    def config(self, seed: int) -> dict:
        """The run config passed to the main verb (and to ``evaluate``)."""
        tree = {
            "version": 1,
            "mode": self.mode,
            "seed": seed,
            "system": system_tree(self.strict),
            "env": {"observation": "own", "reward": dict(REWARD)},
        }
        if self.verb == "train":
            tree["train"] = {**DESK_TRAIN, "episodes": TRAIN_EPISODES, "seed": seed}
        return tree


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-coordinated", "train", mode="coordinated"),
        Workload("train-independent", "train", mode="independent"),
        Workload("oracle-default", "oracle"),
        Workload("oracle-strict", "oracle", strict=True),
    )
}

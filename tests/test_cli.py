"""End-to-end command-line tests on a temporary directory."""

import csv
import json

import pytest

from iesdispatch.cli import main

SMOKE_CONFIG = """
train:
  actor_lr: 3.0e-4
  critic_lr: 1.0e-3
  episodes: 12
  discount: 0.0
env:
  reward: {kappa: 1.5}
"""


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(SMOKE_CONFIG, encoding="utf-8")
    scenario = tmp_path / "scenario.csv"
    assert main(["generate-scenario", "--out", str(scenario)]) == 0
    return tmp_path, cfg, scenario


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestGenerateScenario:
    def test_writes_72_rows(self, workspace):
        _, _, scenario = workspace
        rows = read_csv(scenario)
        assert len(rows) == 72
        assert set(rows[0]) == {"community", "step", "p_load_kw", "h_load_kw", "w_load_m3h", "p_wind_kw"}

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate-scenario", "--out", str(a), "--seed", "5"]) == 0
        assert main(["generate-scenario", "--out", str(b), "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainEvaluate:
    def test_pipeline(self, workspace):
        tmp, cfg, scenario = workspace
        run = tmp / "run"
        assert main([
            "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run), "--seed", "1",
        ]) == 0
        assert (run / "checkpoint.json").exists()
        log = read_csv(run / "training_log.csv")
        assert len(log) == 12
        assert set(log[0]) == {"episode", "mean_reward", "total_cost", "total_penalty", "curtailment_kwh"}
        curve = read_csv(run / "reward_curve.csv")
        assert len(curve) == 12

        out = tmp / "eval"
        assert main([
            "evaluate", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint", str(run / "checkpoint.json"), "--out", str(out),
        ]) == 0
        schedule = read_csv(out / "schedule.csv")
        assert len(schedule) == 72
        summary = read_json(out / "summary.json")
        total_from_rows = sum(float(r["cost_yuan"]) for r in schedule)
        assert summary["total_cost"] == pytest.approx(total_from_rows, rel=1e-12)

    def test_missing_scenario_fails_before_compute(self, workspace, capsys):
        tmp, cfg, _ = workspace
        code = main([
            "train", "--config", str(cfg), "--scenario", str(tmp / "missing.csv"), "--out", str(tmp / "x"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert not (tmp / "x").exists()

    def test_train_determinism_bytes(self, workspace):
        tmp, cfg, scenario = workspace
        outs = []
        for name in ("r1", "r2"):
            out = tmp / name
            assert main([
                "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(out), "--seed", "3",
            ]) == 0
            outs.append(out)
        for fname in ("checkpoint.json", "training_log.csv", "reward_curve.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_mode_one_evaluation_has_zero_exchange_columns(self, workspace):
        tmp, cfg, scenario = workspace
        run = tmp / "indep"
        assert main([
            "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run),
            "--mode", "independent", "--episodes", "8", "--seed", "2",
        ]) == 0
        out = tmp / "indep_eval"
        assert main([
            "evaluate", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint", str(run / "checkpoint.json"), "--out", str(out),
        ]) == 0
        for row in read_csv(out / "schedule.csv"):
            assert float(row["p_exch_kw"]) == 0.0
            assert float(row["h_exch_kw"]) == 0.0

    def test_train_with_kwh_per_m3_not_a_power_of_two(self, workspace, capsys):
        # q * (p_tp / q) can exceed p_tp by one ulp; the water cap must not
        # let the pumping demand overdraw the cogeneration output.
        tmp, _, scenario = workspace
        cfg = tmp / "q73.yaml"
        communities = ", ".join(["{ro: {kwh_per_m3: 7.3}}"] * 3)
        cfg.write_text(SMOKE_CONFIG + f"system: {{communities: [{communities}]}}\n", encoding="utf-8")
        for seed in range(4):
            code = main([
                "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(tmp / f"run{seed}"),
                "--episodes", "40", "--seed", str(seed),
            ])
            assert code == 0, capsys.readouterr().err

    def test_config_hash_mismatch_rejected(self, workspace, capsys):
        tmp, cfg, scenario = workspace
        run = tmp / "run"
        assert main([
            "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run), "--seed", "1",
        ]) == 0
        other_cfg = tmp / "other.yaml"
        other_cfg.write_text(
            SMOKE_CONFIG + "system:\n  exchange: {p_max_kw: 500.0}\n", encoding="utf-8"
        )
        code = main([
            "evaluate", "--config", str(other_cfg), "--scenario", str(scenario),
            "--checkpoint", str(run / "checkpoint.json"), "--out", str(tmp / "bad"),
        ])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "CheckpointMismatch"


# Corruptions of a trained coordinated checkpoint, each with a word the
# error message must contain.
CHECKPOINT_CORRUPTIONS = {
    "missing-key": (lambda c: c.pop("scales"), "scales"),
    "two-actors": (lambda c: c["actors"].pop(), "actors"),
    "two-critics": (lambda c: c["critics"].append(c["critics"][0]), "critics"),
    "actor-input-width": (lambda c: c["actors"][1]["w1"].pop(), "actor 1"),
    "critic-input-width": (lambda c: c["critics"][0]["w1"].pop(), "critic 0"),
}


class TestCheckpointValidation:
    @pytest.mark.parametrize("case", CHECKPOINT_CORRUPTIONS)
    def test_corrupt_checkpoint_rejected(self, workspace, capsys, case):
        corrupt, word = CHECKPOINT_CORRUPTIONS[case]
        tmp, cfg, scenario = workspace
        run = tmp / "run"
        assert main([
            "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run), "--episodes", "4",
        ]) == 0
        path = run / "checkpoint.json"
        payload = read_json(path)
        corrupt(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main([
            "evaluate", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint", str(path), "--out", str(tmp / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert word in err["message"]
        assert not (tmp / "eval").exists()


class TestCompare:
    def test_identical_checkpoints_zero_deltas(self, workspace):
        tmp, cfg, scenario = workspace
        run = tmp / "run"
        assert main([
            "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run), "--seed", "1",
        ]) == 0
        ckpt = str(run / "checkpoint.json")
        out = tmp / "cmp"
        assert main([
            "compare", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint-a", ckpt, "--checkpoint-b", ckpt, "--out", str(out),
        ]) == 0
        payload = read_json(out / "comparison.json")
        assert payload["delta_total_cost_b_minus_a"] == 0.0
        assert payload["cheaper"] == "tie"
        assert all(v == 0.0 for v in payload["delta_per_community_b_minus_a"].values())


class TestOracleCommand:
    def test_oracle_schedule_balances(self, workspace):
        tmp, cfg, scenario = workspace
        out = tmp / "oracle"
        assert main([
            "oracle", "--config", str(cfg), "--scenario", str(scenario),
            "--grid-n", "9", "--out", str(out),
        ]) == 0
        rows = read_csv(out / "oracle_schedule.csv")
        assert len(rows) == 72
        for row in rows:
            assert float(row["penalty_kw_eq"]) <= 1e-6
        summary = read_json(out / "oracle_summary.json")
        assert summary["infeasible_steps"] == []
        assert summary["total_cost"] == pytest.approx(sum(float(r["cost_yuan"]) for r in rows), rel=1e-12)

    def test_grid_refinement_never_raises_cost(self, workspace):
        tmp, cfg, scenario = workspace
        costs = []
        for n in (5, 9):
            out = tmp / f"oracle{n}"
            assert main([
                "oracle", "--config", str(cfg), "--scenario", str(scenario),
                "--grid-n", str(n), "--out", str(out),
            ]) == 0
            costs.append(read_json(out / "oracle_summary.json")["total_cost"])
        assert costs[1] <= costs[0] + 1e-6


class TestConfigValidation:
    def test_unknown_key_rejected(self, workspace, capsys):
        tmp, _, scenario = workspace
        bad = tmp / "bad.yaml"
        bad.write_text("trian:\n  episodes: 5\n", encoding="utf-8")
        code = main([
            "train", "--config", str(bad), "--scenario", str(scenario), "--out", str(tmp / "x"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "trian" in err["message"]

    def test_bad_value_rejected(self, workspace, capsys):
        tmp, _, scenario = workspace
        bad = tmp / "bad.yaml"
        for text in (
            "train:\n  clip_eps: 1.5\n",
            # Integer keys take no float, not even one int() would truncate.
            "seed: 1.5\n",
            "version: 1.9\n",
            "system: {communities: [{id: 1.7}, {}, {}]}\n",
        ):
            bad.write_text(text, encoding="utf-8")
            code = main([
                "train", "--config", str(bad), "--scenario", str(scenario), "--out", str(tmp / "x"),
                "--episodes", "4",
            ])
            assert code == 1, text
            assert json.loads(capsys.readouterr().err)["error"] == "ConfigError", text
            assert not (tmp / "x").exists(), text

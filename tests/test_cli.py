"""End-to-end command-line tests on a temporary directory."""

import builtins
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from iesdispatch import cli, env, learner, nets, system
from iesdispatch.cli import main, write_schedule_csv
from iesdispatch.config import load_config
from iesdispatch.env import DispatchEnv, evaluate_day, settle_day
from iesdispatch.scenario import ScenarioSpec, generate_scenario

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

    @pytest.mark.parametrize("mode", ["coordinated", "independent"])
    def test_train_bytes_do_not_depend_on_blas_threads(self, workspace, mode):
        # The gradient vectors exceed the length above which a BLAS dot
        # product splits its sum across threads.
        tmp, cfg, scenario = workspace
        outs = []
        for threads in ("1", "2"):
            out = tmp / f"threads{threads}"
            env_vars = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": str(Path(cli.__file__).parents[1]),
            }
            subprocess.run(
                [sys.executable, "-m", "iesdispatch.cli", "train", "--config", str(cfg), "--scenario",
                 str(scenario), "--out", str(out), "--mode", mode, "--seed", "3"],
                env=env_vars, check=True, capture_output=True,
            )
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
    "actor-input-width": (lambda c: c["actors"][1]["w1"].pop(), "actor 1"),
    "scales-shape": (lambda c: c.update(scales=[1.0, 2.0]), "scales"),
    "actors-not-a-list": (lambda c: c.update(actors=3), "actors"),
    "w1-not-an-array": (lambda c: c["actors"][0].update(w1={}), "actor 0.w1"),
    "log_std-not-a-number": (lambda c: c["actors"][2].update(log_std="x"), "actor 2.log_std"),
    "nonfinite-weights": (lambda c: c["actors"][1]["w2"][0].__setitem__(0, float("nan")), "actor 1.w2"),
    "unknown-mode": (lambda c: c.update(mode="centralized"), "mode must be one of"),
    "unknown-observation": (lambda c: c.update(observation="global"), "observation must be one of"),
    "scale-zero": (lambda c: c["scales"][2].__setitem__(1, 0.0), "scales must be positive"),
    "scale-nonfinite": (lambda c: c["scales"][0].__setitem__(0, float("inf")), "scales"),
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

    @pytest.mark.parametrize("content, reason", [
        (b"not json\n", "Expecting value"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode"),
    ], ids=["text", "not-utf-8"])
    def test_a_checkpoint_that_is_not_json_is_named(self, workspace, capsys, content, reason):
        tmp, cfg, scenario = workspace
        path = tmp / "checkpoint.json"
        path.write_bytes(content)
        code = main([
            "evaluate", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint", str(path), "--out", str(tmp / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"checkpoint {path}: not valid JSON: {reason}")
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


class TestCompareLoads:
    def test_each_checkpoint_is_loaded_once(self, workspace, monkeypatch):
        tmp, cfg, scenario = workspace
        paths = []
        for seed in ("1", "2"):
            run = tmp / f"run{seed}"
            assert main([
                "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run),
                "--episodes", "4", "--seed", seed,
            ]) == 0
            paths.append(str(run / "checkpoint.json"))
        loaded = []
        real = learner.load_checkpoint
        monkeypatch.setattr(learner, "load_checkpoint", lambda path: loaded.append(path) or real(path))
        assert main([
            "compare", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint-a", paths[0], "--checkpoint-b", paths[1], "--out", str(tmp / "cmp"),
        ]) == 0
        assert loaded == paths


class TestScheduleRows:
    def test_wind_used_is_available_less_curtailed_in_every_row(self, workspace):
        # A noisy day on which the oracle's search and the balance once
        # curtailed one ulp apart (community 2 at steps 5 and 23).
        tmp, _, _ = workspace
        cfg = tmp / "noisy.yaml"
        cfg.write_text(SMOKE_CONFIG + "scenario: {generator: {noise_std: 0.05, seed: 22}}\n", encoding="utf-8")
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp / "oracle")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "run"), "--episodes", "4"]) == 0
        assert main([
            "evaluate", "--config", str(cfg), "--checkpoint", str(tmp / "run" / "checkpoint.json"),
            "--out", str(tmp / "eval"),
        ]) == 0
        for path in (tmp / "oracle" / "oracle_schedule.csv", tmp / "eval" / "schedule.csv"):
            for row in read_csv(path):
                used, avail, curtailed = (float(row[k]) for k in ("wind_used_kw", "wind_avail_kw", "curtailed_kw"))
                assert used == avail - curtailed, (path.name, row["step"], row["community"])


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 and later compute it for floats: with
    Neumaier's compensation of the rounding error."""
    values = list(values)
    if not all(type(v) is float for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


class TestPythonVersion:
    def test_a_compensating_sum_changes_no_artifact(self, workspace, monkeypatch):
        tmp, cfg, scenario = workspace

        def run(name):
            out = tmp / name
            assert main([
                "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(out), "--seed", "3",
            ]) == 0
            assert main([
                "evaluate", "--config", str(cfg), "--scenario", str(scenario),
                "--checkpoint", str(out / "checkpoint.json"), "--out", str(out / "eval"),
            ]) == 0
            return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

        left_to_right = run("left")
        for module in (cli, env, learner, nets, system):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert run("compensated") == left_to_right


def zero_action_day():
    scenario = generate_scenario(ScenarioSpec())
    return evaluate_day(scenario, np.zeros((24, 3, 8)), system.default_system_config())


def chp_out_of_box(x):
    x[1, 0, system.P_CHP] = 6000.0


def chp_not_a_number(x):
    x[1, 0, system.P_CHP] = float("nan")


def exchange_not_conserving(x):
    x[1, 0, system.P_EXCH] += 10.0


# Corruptions of the setpoints of step 1, each with the words the error must contain.
EXPORT_CORRUPTIONS = {
    "out-of-box": (chp_out_of_box, "step 1, community 1: p_chp"),
    "nan": (chp_not_a_number, "step 1, community 1: p_chp"),
    "not-conserving": (exchange_not_conserving, "step 1: exchanges do not conserve"),
}


def corrupted(day, corrupt):
    setpoints = day.setpoints.copy()
    corrupt(setpoints)
    return replace(day, setpoints=setpoints)


class TestExportRecheck:
    @pytest.mark.parametrize("case", EXPORT_CORRUPTIONS)
    def test_write_schedule_csv_refuses(self, tmp_path, case):
        corrupt, word = EXPORT_CORRUPTIONS[case]
        day = corrupted(zero_action_day(), corrupt)
        with pytest.raises(ValueError, match=word):
            write_schedule_csv(tmp_path / "schedule.csv", day, system.default_system_config())
        assert not (tmp_path / "schedule.csv").exists()

    def test_write_schedule_csv_names_a_cell_that_is_not_finite(self, tmp_path):
        day = zero_action_day()
        cost = day.cost.copy()
        cost[2, 1] = float("-inf")
        with pytest.raises(ValueError, match=r"^step 2, community 2: cost_yuan is -inf, not finite$"):
            write_schedule_csv(tmp_path / "schedule.csv", replace(day, cost=cost), system.default_system_config())
        assert not (tmp_path / "schedule.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_json_refuses_what_json_cannot_hold(self, tmp_path, value):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "summary.json", {"total_cost": value})
        assert not (tmp_path / "summary.json").exists()

    def test_write_json_names_the_file_and_the_key(self, tmp_path):
        path = tmp_path / "summary.json"
        payload = {"total_cost": 1.0, "per_community_cost": {"1": 2.0, "2": float("inf"), "3": float("nan")}}
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: per_community_cost\.2 is inf, not finite$"):
            cli.write_json(path, payload)
        assert not path.exists()

    @pytest.mark.parametrize("case", EXPORT_CORRUPTIONS)
    def test_evaluate_exits_1_with_a_json_error(self, workspace, capsys, monkeypatch, case):
        corrupt, word = EXPORT_CORRUPTIONS[case]
        tmp, cfg, scenario = workspace
        run = tmp / "run"
        assert main([
            "train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(run), "--episodes", "4",
        ]) == 0
        greedy_day = learner.greedy_day
        monkeypatch.setattr(learner, "greedy_day", lambda *args: corrupted(greedy_day(*args), corrupt))
        capsys.readouterr()
        code = main([
            "evaluate", "--config", str(cfg), "--scenario", str(scenario),
            "--checkpoint", str(run / "checkpoint.json"), "--out", str(tmp / "eval"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert word in err["message"]
        assert not (tmp / "eval" / "schedule.csv").exists()


def left_to_right(values):
    """Add strictly left to right from 0.0, as the export contract says,
    without the package's own ``left_sum``."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestExportContract:
    """What ``oracle`` and ``evaluate`` write is the day they evaluated:
    every cell parses back to its array value, and every summary field is
    the left-to-right sum of the cells, exactly."""

    NOISY_STRICT = SMOKE_CONFIG + (
        "scenario: {generator: {noise_std: 0.05, seed: 22}}\n"
        "system: {options: {gross_pipeline_loss: true, cap_heat_by_water: true, exchange_loss: true}}\n"
    )

    def check(self, rows, summary, day, dt=1.0):
        column = {col: [float(r[col]) for r in rows] for col in cli.SCHEDULE_COLUMNS[3:]}
        x = day.setpoints
        expected = {
            "p_chp_kw": x[..., system.P_CHP],
            "b_chp": x[..., system.B_CHP],
            "h_chp_kw": x[..., system.B_CHP] * x[..., system.P_CHP],
            "p_tp_kw": x[..., system.P_TP],
            "w_rate_m3h": x[..., system.W_RATE],
            "p_gt_kw": x[..., system.P_GT],
            "h_gb_kw": x[..., system.H_GB],
            "p_exch_kw": x[..., system.P_EXCH],
            "h_exch_kw": x[..., system.H_EXCH],
            "wind_avail_kw": day.wind,
            "wind_used_kw": day.wind - day.balance.curtailed,
            "curtailed_kw": day.balance.curtailed,
            "d_elec_kw": day.balance.d_elec,
            "d_heat_kw": day.balance.d_heat,
            "d_water_m3h": day.balance.d_water,
            "penalty_kw_eq": day.balance.penalty,
            "cost_yuan": day.cost,
        }
        assert set(expected) == set(column)
        for col, value in expected.items():
            assert column[col] == value.ravel().tolist(), col
        assert [(int(r["step"]), int(r["community"])) for r in rows] == [(t, i) for t in range(24) for i in (1, 2, 3)]

        per_community = {
            str(i): left_to_right(float(r["cost_yuan"]) for r in rows if r["community"] == str(i)) for i in (1, 2, 3)
        }
        avail = left_to_right(v * dt for v in column["wind_avail_kw"])
        curtailed = left_to_right(v * dt for v in column["curtailed_kw"])
        assert summary["per_community_cost"] == per_community
        assert summary["total_cost"] == left_to_right(per_community.values())
        assert summary["total_penalty_kw_eq"] == left_to_right(column["penalty_kw_eq"])
        assert summary["wind_avail_kwh"] == avail
        assert summary["wind_used_kwh"] == left_to_right(v * dt for v in column["wind_used_kw"])
        assert summary["curtailed_kwh"] == curtailed
        assert summary["curtailment_rate"] == curtailed / avail
        exchange = left_to_right(abs(p) + abs(h) for p, h in zip(column["p_exch_kw"], column["h_exch_kw"]))
        assert summary["exchange_abs_kwh"] == exchange * dt

    def test_oracle_and_evaluate(self, tmp_path):
        cfg_path = tmp_path / "noisy.yaml"
        cfg_path.write_text(self.NOISY_STRICT, encoding="utf-8")
        run_cfg = load_config(cfg_path)
        scenario = generate_scenario(run_cfg.generator)

        assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "oracle")]) == 0
        rows = read_csv(tmp_path / "oracle" / "oracle_schedule.csv")
        summary = read_json(tmp_path / "oracle" / "oracle_summary.json")
        setpoints = system.oracle_day(
            scenario.p_load.T, scenario.h_load.T, scenario.w_load.T, scenario.p_wind.T, run_cfg.system
        )
        self.check(rows, summary, settle_day(scenario, setpoints, run_cfg.system))
        step_penalties = [
            left_to_right(float(r["penalty_kw_eq"]) for r in rows if r["step"] == str(t)) for t in range(24)
        ]
        assert summary["infeasible_steps"] == [t for t, p in enumerate(step_penalties) if p > system.FEASIBLE_TOL]
        assert summary["infeasible_steps"]  # the strict couplings leave some steps unbalanced

        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(run), "--episodes", "4"]) == 0
        assert main([
            "evaluate", "--config", str(cfg_path), "--checkpoint", str(run / "checkpoint.json"),
            "--out", str(tmp_path / "eval"),
        ]) == 0
        ckpt = learner.load_checkpoint(run / "checkpoint.json")
        env = DispatchEnv(scenario, run_cfg.system, mode=ckpt.mode, observation=ckpt.observation, scales=ckpt.scales)
        self.check(
            read_csv(tmp_path / "eval" / "schedule.csv"),
            read_json(tmp_path / "eval" / "summary.json"),
            learner.greedy_day(env, ckpt.actors),
        )


class TestOracleCommand:
    def test_oracle_schedule_balances(self, workspace):
        tmp, cfg, scenario = workspace
        out = tmp / "oracle"
        assert main(["oracle", "--config", str(cfg), "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = read_csv(out / "oracle_schedule.csv")
        assert len(rows) == 72
        for row in rows:
            assert float(row["penalty_kw_eq"]) <= 1e-6
        summary = read_json(out / "oracle_summary.json")
        assert summary["infeasible_steps"] == []
        assert "grid_n" not in summary
        assert summary["total_cost"] == pytest.approx(sum(float(r["cost_yuan"]) for r in rows), rel=1e-12)


class TestUsageErrors:
    """A command line that does not parse fails as every other failure does."""

    @pytest.mark.parametrize("argv", [
        ["train", "--episodes", "x", "--out", "t"],
        ["train", "--mode", "bogus", "--out", "t"],
        ["oracle", "--grid-n", "21", "--out", "o"],
        ["oracle", "--seed", "1", "--out", "o"],
        [],
        ["no-such-verb"],
    ], ids=["bad-int", "bad-choice", "removed-option", "removed-seed-option", "no-verb", "unknown-verb"])
    def test_exit_1_with_a_json_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "UsageError"
        assert "Traceback" not in err and "usage:" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
    def test_help_still_prints_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestBadOutPath:
    """An output path below a file fails with a JSON error before any work."""

    @pytest.mark.parametrize("verb", ["oracle", "train", "generate-scenario"])
    def test_exit_1_before_the_work(self, workspace, capsys, monkeypatch, verb):
        tmp, cfg, scenario = workspace
        blocker = tmp / "a-file"
        blocker.write_text("", encoding="utf-8")
        def fail(*args, **kwargs):
            pytest.fail("work started")

        monkeypatch.setattr(cli, "oracle_day", fail)
        monkeypatch.setattr(cli.L, "train", fail)
        argv = {
            "oracle": ["oracle", "--config", str(cfg), "--scenario", str(scenario), "--out", str(blocker / "sub")],
            "train": ["train", "--config", str(cfg), "--scenario", str(scenario), "--out", str(blocker / "sub")],
            "generate-scenario": ["generate-scenario", "--out", str(blocker / "x.csv")],
        }[verb]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] in {"NotADirectoryError", "FileExistsError"}


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
            # Not YAML at all.
            "version: 1\n- a\n",
        ):
            bad.write_text(text, encoding="utf-8")
            code = main([
                "train", "--config", str(bad), "--scenario", str(scenario), "--out", str(tmp / "x"),
                "--episodes", "4",
            ])
            assert code == 1, text
            assert json.loads(capsys.readouterr().err)["error"] == "ConfigError", text
            assert not (tmp / "x").exists(), text

    def test_a_non_finite_float_writes_no_summary(self, workspace, capsys):
        tmp, _, scenario = workspace
        bad = tmp / "inf.yaml"
        bad.write_text("system:\n  price: {gas_price_per_m3: .inf}\n", encoding="utf-8")
        code = main(["oracle", "--config", str(bad), "--scenario", str(scenario), "--out", str(tmp / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "system.price.gas_price_per_m3: expected a finite number, got inf"}
        assert not (tmp / "o").exists()

    def test_an_overflowing_cost_writes_no_output(self, workspace, capsys):
        """A finite gas price whose costs overflow: the first cell that is
        not finite is named, and neither file is written."""
        tmp, _, scenario = workspace
        big = tmp / "big.yaml"
        big.write_text("system:\n  price: {gas_price_per_m3: 1.0e+308}\n", encoding="utf-8")
        code = main(["oracle", "--config", str(big), "--scenario", str(scenario), "--out", str(tmp / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "step 0, community 1: cost_yuan is inf, not finite"}
        assert list((tmp / "o").iterdir()) == []

    def test_an_overflowing_setpoint_range_creates_no_output(self, workspace, capsys):
        tmp, _, scenario = workspace
        big = tmp / "big.yaml"
        big.write_text("system:\n  exchange: {p_max_kw: 1.0e+308}\n", encoding="utf-8")
        argv = ["train", "--config", str(big), "--scenario", str(scenario), "--episodes", "4", "--out", str(tmp / "x")]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("system: community 1: p_exch range [-1e+308, 1e+308] is wider")
        assert not (tmp / "x").exists()

    @pytest.mark.parametrize("case", ["train-seed-option", "generator-seed-key", "generate-scenario-seed-option"])
    def test_a_negative_seed_creates_no_output(self, workspace, capsys, case):
        tmp, _, scenario = workspace
        bad = tmp / "seed.yaml"
        bad.write_text("scenario:\n  generator: {seed: -3}\n", encoding="utf-8")
        train = ["--episodes", "4", "--out", str(tmp / "x")]
        argv, key = {
            "train-seed-option": (["train", "--seed", "-1", "--scenario", str(scenario), *train], "train: seed"),
            "generator-seed-key": (["train", "--config", str(bad), *train], "scenario.generator: seed"),
            "generate-scenario-seed-option": (
                ["generate-scenario", "--seed", "-1", "--out", str(tmp / "x")], "scenario.generator: seed"
            ),
        }[case]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert key in err["message"] and "nonnegative" in err["message"]
        assert not (tmp / "x").exists()


class TestNotUtf8:
    """A config or scenario file that is not UTF-8 fails naming the file."""

    @pytest.mark.parametrize("flag", ["--config", "--scenario"])
    def test_exit_1_naming_the_file(self, workspace, capsys, flag):
        tmp, cfg, scenario = workspace
        bad = {"--config": cfg, "--scenario": scenario}[flag]
        bad.write_bytes(b"\xff" + bad.read_bytes() if flag == "--config" else bad.read_bytes() + b"\xff")
        capsys.readouterr()
        code = main(["oracle", "--config", str(cfg), "--scenario", str(scenario), "--out", str(tmp / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"--config": "ConfigError", "--scenario": "ScenarioFormatError"}[flag]
        assert err["message"].startswith(f"{bad}: not valid UTF-8: ")
        assert not (tmp / "o").exists()


class TestDivergedTraining:
    def test_writes_the_log_of_the_episodes_before_it(self, workspace, capsys, monkeypatch):
        tmp, cfg, scenario = workspace
        argv = ["train", "--config", str(cfg), "--scenario", str(scenario), "--seed", "1", "--out"]
        assert main([*argv, str(tmp / "full")]) == 0
        days = []
        real_evaluate_day = learner.evaluate_day

        def evaluate_day(*args):
            day = real_evaluate_day(*args)
            days.append(day)
            if len(days) == 2:  # episode 5, the second of the second update batch
                day.cost[1, 3, 0] = float("nan")
            return day

        monkeypatch.setattr(learner, "evaluate_day", evaluate_day)
        capsys.readouterr()
        assert main([*argv, str(tmp / "diverged")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "TrainingDiverged", "message": "episode 5: mean reward is nan"}
        assert sorted(p.name for p in (tmp / "diverged").iterdir()) == ["training_log.csv"]
        log = (tmp / "diverged" / "training_log.csv").read_text(encoding="utf-8").splitlines()
        full = (tmp / "full" / "training_log.csv").read_text(encoding="utf-8").splitlines()
        assert [row["episode"] for row in read_csv(tmp / "diverged" / "training_log.csv")] == ["0", "1", "2", "3", "4"]
        assert log == full[:6]


class TestHalfHourSteps:
    """A 0.5 h step length, set in the config file, through every verb."""

    CONFIG = SMOKE_CONFIG + "system: {price: {dt_h: 0.5}}\n"

    def run_verbs(self, tmp, name):
        cfg, scenario = tmp / "half.yaml", tmp / "scenario.csv"
        out = tmp / name
        common = ["--config", str(cfg), "--scenario", str(scenario)]
        assert main(["oracle", *common, "--out", str(out / "oracle")]) == 0
        assert main(["train", *common, "--out", str(out / "run"), "--episodes", "4", "--seed", "1"]) == 0
        assert main(["evaluate", *common, "--checkpoint", str(out / "run" / "checkpoint.json"), "--out", str(out / "eval")]) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_energies_are_half_the_power_sums(self, tmp_path):
        (tmp_path / "half.yaml").write_text(self.CONFIG, encoding="utf-8")
        # One water load above 500 m3/h, which only the 0.5 h box (up to
        # 1000 m3/h) can meet.
        scenario = tmp_path / "scenario.csv"
        assert main(["generate-scenario", "--out", str(scenario)]) == 0
        rows = read_csv(scenario)
        rows[0]["w_load_m3h"] = "600.0"
        with scenario.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

        artifacts = self.run_verbs(tmp_path, "a")
        assert self.run_verbs(tmp_path, "b") == artifacts
        largest_water_rate = {}
        for verb, schedule, summary in (
            ("oracle", "oracle_schedule.csv", "oracle_summary.json"),
            ("eval", "schedule.csv", "summary.json"),
        ):
            rows = read_csv(tmp_path / "a" / verb / schedule)
            totals = read_json(tmp_path / "a" / verb / summary)
            column = {col: [float(r[col]) for r in rows] for col in cli.SCHEDULE_COLUMNS[3:]}
            power = {
                "wind_avail_kwh": column["wind_avail_kw"],
                "wind_used_kwh": column["wind_used_kw"],
                "curtailed_kwh": column["curtailed_kw"],
                "exchange_abs_kwh": [abs(p) + abs(h) for p, h in zip(column["p_exch_kw"], column["h_exch_kw"])],
            }
            assert sorted(key for key in totals if key.endswith("_kwh")) == sorted(power)
            for key, values in power.items():
                assert totals[key] == left_to_right(values) * 0.5, (verb, key)
            largest_water_rate[verb] = max(column["w_rate_m3h"])
        # 500 m3 a step is 1000 m3/h over half an hour.
        assert max(largest_water_rate.values()) <= 1000.0
        assert largest_water_rate["oracle"] == 600.0

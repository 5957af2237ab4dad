"""Each output check passes on the program's real outputs and fails on a
corrupted copy of them; the tracer changes no output byte.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

import copy
import csv

import pytest

import checks
import lpbound
import worker
from iesdispatch.cli import main as cli_main
from tracer import Tracer
from workloads import KAPPA, WORKLOADS, system_tree

SEED = 1
# Day optima of the built-in complementary winter day at kappa = 1.5,
# solved once with HiGHS and recorded here.
ELASTIC_COORDINATED = 249839.06
ELASTIC_INDEPENDENT = 256895.19


@pytest.fixture(scope="session")
def oracle_dir(tmp_path_factory):
    """The oracle's schedule of the complementary winter and uniform days."""
    out = tmp_path_factory.mktemp("oracle")
    runner = worker.Runner(cli_main)
    scenarios = worker.set_up(runner, WORKLOADS["oracle-default"], SEED, out)
    for day in ("complementary-winter", "uniform"):
        runner.call("oracle", "--config", out / "config.yaml", "--scenario", scenarios[day], "--out", out / day)
    assert runner.failed == 0, runner.errors
    return out


def load(oracle_dir, day="complementary-winter"):
    rows = checks.read_schedule(oracle_dir / day / "oracle_schedule.csv")
    summary = checks.read_json(oracle_dir / day / "oracle_summary.json")
    scenario = checks.read_scenario(oracle_dir / "days" / f"{day}.csv")
    return rows, summary, scenario


def row(rows, step, community):
    return next(r for r in rows if int(r["step"]) == step and int(r["community"]) == community)


def test_real_oracle_outputs_pass_every_check(oracle_dir):
    system = system_tree(strict=False)
    for day in ("complementary-winter", "uniform"):
        rows, summary, scenario = load(oracle_dir, day)
        assert checks.check_schedule(rows, summary, scenario, system) == []
        assert checks.check_oracle_steps(rows, summary, lpbound.step_bounds(scenario, system)) == []
        assert checks.check_oracle_day(day, rows, summary) == []


def corrupt(rows, step=5, community=2, **changes):
    rows = copy.deepcopy(rows)
    target = row(rows, step, community)
    for key, change in changes.items():
        target[key] = change(target[key])
    return rows


@pytest.mark.parametrize(
    "changes, expected",
    [
        ({"cost_yuan": lambda v: v + 1.0}, "cost"),
        ({"h_chp_kw": lambda v: v + 1.0}, "b_chp x p_chp"),
        ({"d_heat_kw": lambda v: v + 1.0}, "d_heat_kw"),
        ({"penalty_kw_eq": lambda v: v + 1.0}, "penalty_kw_eq"),
        ({"p_exch_kw": lambda v: v * 0.5}, "exchanges sum to"),
        ({"h_exch_kw": lambda v: v + 10.0}, "exchanges sum to"),
        ({"p_gt_kw": lambda v: 3500.0}, "p_gt_kw 3500.0 outside"),
        ({"w_rate_m3h": lambda v: -1.0}, "w_rate_m3h -1.0 outside"),
        ({"curtailed_kw": lambda v: -5.0}, "outside [0, available wind]"),
        ({"wind_used_kw": lambda v: v - 5.0}, "wind used + curtailed"),
        ({"wind_avail_kw": lambda v: v + 5.0}, "scenario"),
    ],
)
def test_a_corrupted_row_fails_the_schedule_check(oracle_dir, changes, expected):
    rows, summary, scenario = load(oracle_dir)
    problems = checks.check_schedule(corrupt(rows, **changes), summary, scenario, system_tree(False))
    assert any(expected in p for p in problems), problems


def test_a_corrupted_summary_fails_the_schedule_check(oracle_dir):
    rows, summary, scenario = load(oracle_dir)
    for key in ("total_cost", "total_penalty_kw_eq", "curtailed_kwh", "exchange_abs_kwh"):
        bad = dict(summary, **{key: summary[key] + 1.0})
        assert any(key in p for p in checks.check_schedule(rows, bad, scenario, system_tree(False)))
    bad = copy.deepcopy(summary)
    bad["per_community_cost"]["3"] += 1.0
    assert any("community 3" in p for p in checks.check_schedule(rows, bad, scenario, system_tree(False)))


def test_a_missing_row_fails_the_schedule_check(oracle_dir):
    rows, summary, scenario = load(oracle_dir)
    assert checks.check_schedule(rows[:-1], summary, scenario, system_tree(False))


def test_strict_couplings_change_the_recomputed_residuals(oracle_dir):
    """Rows dispatched without the strict couplings do not pass as strict rows."""
    rows, summary, scenario = load(oracle_dir)
    problems = checks.check_schedule(rows, summary, scenario, system_tree(strict=True))
    assert any("d_heat_kw" in p for p in problems)


def test_an_oracle_step_off_the_lp_optimum_fails(oracle_dir):
    rows, summary, scenario = load(oracle_dir)
    bounds = lpbound.step_bounds(scenario, system_tree(False))
    below = checks.check_oracle_steps(corrupt(rows, step=7, cost_yuan=lambda v: v * 0.99), summary, bounds)
    assert any("step 7" in p and "below the LP lower bound" in p for p in below)
    unbalanced = checks.check_oracle_steps(corrupt(rows, step=7, penalty_kw_eq=lambda v: 3.0), summary, bounds)
    assert any("reported feasible with imbalance" in p for p in unbalanced)


@pytest.mark.parametrize("share, fails", [(0.5, False), (2.0, True)])
def test_the_oracle_gap_is_the_stated_one(oracle_dir, share, fails):
    rows, summary, scenario = load(oracle_dir)
    bounds = lpbound.step_bounds(scenario, system_tree(False))
    for community in (1, 2, 3):
        rows = corrupt(rows, step=7, community=community, cost_yuan=lambda v: v * (1.0 + share * checks.ORACLE_GAP))
    problems = checks.check_oracle_steps(rows, summary, bounds)
    assert any("step 7" in p and "above the LP optimum" in p for p in problems) == fails, problems


def test_the_known_optima_of_the_two_fixed_days(oracle_dir):
    rows, summary, _ = load(oracle_dir, "uniform")
    moved = corrupt(rows, p_exch_kw=lambda v: 100.0)
    assert checks.check_oracle_day("uniform", moved, summary)
    rows, summary, _ = load(oracle_dir)
    assert checks.check_oracle_day("complementary-winter", rows, dict(summary, curtailed_kwh=12.5))


def test_elastic_lp_matches_the_recorded_day_optima(oracle_dir):
    _, _, scenario = load(oracle_dir)
    system = system_tree(False)
    coordinated = lpbound.elastic_day_bound(scenario, system, KAPPA, exchanges=True)
    independent = lpbound.elastic_day_bound(scenario, system, KAPPA, exchanges=False)
    assert coordinated == pytest.approx(ELASTIC_COORDINATED, abs=0.01)
    assert independent == pytest.approx(ELASTIC_INDEPENDENT, abs=0.01)


def test_a_policy_objective_below_the_bound_fails(oracle_dir):
    _, _, scenario = load(oracle_dir)
    bound = lpbound.elastic_day_bound(scenario, system_tree(False), KAPPA)
    assert checks.check_policy_bound(bound * 1.001, bound) == []
    assert checks.check_policy_bound(bound * 0.999, bound)


def test_strict_relaxation_stays_below_the_strict_oracle(oracle_dir, tmp_path):
    """The eight export-sign programs bound the strict oracle from below."""
    _, _, scenario = load(oracle_dir)
    system = system_tree(strict=True)
    runner = worker.Runner(cli_main)
    worker.write_yaml(tmp_path / "config.yaml", WORKLOADS["oracle-strict"].config(SEED))
    runner.call("oracle", "--config", tmp_path / "config.yaml",
                "--scenario", oracle_dir / "days" / "complementary-winter.csv", "--out", tmp_path)
    rows = checks.read_schedule(tmp_path / "oracle_schedule.csv")
    summary = checks.read_json(tmp_path / "oracle_summary.json")
    assert checks.check_schedule(rows, summary, scenario, system) == []
    assert checks.check_oracle_steps(rows, summary, lpbound.step_bounds(scenario, system)) == []


def write_log(path, rewards):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("episode", "mean_reward", "total_cost", "total_penalty", "curtailment_kwh"))
        for i, r in enumerate(rewards):
            writer.writerow((i, r, 0.0, 0.0, 0.0))
    return path


def test_training_log_properties(tmp_path):
    rising = [7.0 + 0.01 * i for i in range(100)]
    assert checks.check_training_log(write_log(tmp_path / "ok.csv", rising), 100, 10.0) == []
    above_u = rising[:50] + [10.5] + rising[51:]
    assert checks.check_training_log(write_log(tmp_path / "u.csv", above_u), 100, 10.0)
    falling = rising[::-1]
    assert checks.check_training_log(write_log(tmp_path / "down.csv", falling), 100, 10.0)
    assert checks.check_training_log(write_log(tmp_path / "short.csv", rising[:99]), 100, 10.0)


def test_traced_round_writes_the_same_bytes_as_an_untraced_one(tmp_path, monkeypatch):
    import iesdispatch.env
    import iesdispatch.system

    monkeypatch.setattr(worker, "TRAIN_EPISODES", 8)
    workload = WORKLOADS["train-coordinated"]
    runner = worker.Runner(cli_main)
    scenarios = worker.set_up(runner, workload, SEED, tmp_path)
    plain = worker.run_round(runner, workload, SEED, tmp_path, scenarios)
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_round(runner, workload, SEED, tmp_path, scenarios)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.errors
    assert plain["hashes"] and traced["hashes"] == plain["hashes"]
    assert tracer.absent == []
    assert tracer.calls["learner.act"] == 8 * 24 * 3
    assert tracer.calls["learner.greedy_rollout"] == 1
    assert all(tracer.self_s[name] >= 0.0 for name in tracer.self_s)
    assert iesdispatch.env.power_balance is iesdispatch.system.power_balance
    assert not hasattr(iesdispatch.system.power_balance, "__wrapped__")


def test_a_callable_that_is_gone_is_reported_absent(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "TRACED", (*tracer_module.TRACED, ("system.gone", "iesdispatch.system", "gone")))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["system.gone"]
    assert tracer.metrics()["system.gone.calls"] == (0, "count")

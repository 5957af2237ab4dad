"""Acceptance suite: one test per release criterion, one printed line each.

The learning runs use the desk-scale run configuration (every value an
ordinary config entry): penalty weight 1.5, discount 0 (actions never
influence the next state, which is scenario-driven), eight optimization
epochs per update and a larger step size than the reference settings so
the runs finish in minutes.  Heavy artifacts (oracle day, trained
policies) are computed once per session and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from iesdispatch.cli import main
from iesdispatch.devices import (
    FuelPrice,
    RoCogenParams,
    gas_cost,
    ro_osmotic_pressure,
    ro_specific_energy,
)
from iesdispatch.env import (
    ACTION_DIM,
    N_AGENTS,
    DispatchEnv,
    RewardParams,
    day_total,
    decode_joint,
    settle_day,
)
from iesdispatch.learner import (
    Critic,
    GaussianActor,
    TrainConfig,
    actor_loss_and_grads,
    critic_loss_and_grads,
    gae_advantages,
    greedy_day,
    log_prob_loss_and_grads,
    prob_ratio,
    train_independent,
    train_mappo,
)
from iesdispatch.scenario import ScenarioSpec, generate_scenario
from iesdispatch.system import (
    B_CHP,
    H_EXCH,
    H_GB,
    P_CHP,
    P_EXCH,
    P_GT,
    P_TP,
    W_RATE,
    default_system_config,
    oracle_day,
    sum_last,
)
from iesdispatch.thermal import PipelineParams, pipeline_heat_loss, transported_heat

SYS = default_system_config()
REWARD = RewardParams(kappa=1.5)
SEEDS = (1, 2, 3, 4, 5)


def desk_config(episodes: int, seed: int) -> TrainConfig:
    return TrainConfig(
        actor_lr=3e-4,
        critic_lr=1e-3,
        batch=96,
        episodes=episodes,
        clip_eps=0.2,
        discount=0.0,
        gae_lambda=0.95,
        epochs_per_update=8,
        seed=seed,
    )


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def day_totals(day):
    """Cost, penalty, curtailment and available wind of an evaluated day."""
    return tuple(day_total(x) for x in (day.cost, day.balance.penalty, day.balance.curtailed, day.wind))


def oracle_of(scenario):
    """The oracle's day of a scenario, settled."""
    setpoints = oracle_day(scenario.p_load.T, scenario.h_load.T, scenario.w_load.T, scenario.p_wind.T, SYS)
    return settle_day(scenario, setpoints, SYS, REWARD)


@pytest.fixture(scope="session")
def scenario():
    return generate_scenario(ScenarioSpec())


@pytest.fixture(scope="session")
def oracle(scenario):
    return oracle_of(scenario)


@pytest.fixture(scope="session")
def coordinated_run(scenario):
    env = DispatchEnv(scenario, SYS, REWARD)
    result = train_mappo(env, desk_config(episodes=5000, seed=1))
    return result, greedy_day(env, result.actors)


@pytest.fixture(scope="session")
def comparison_runs(scenario, coordinated_run):
    coordinated = [day_totals(coordinated_run[1])]
    for seed in SEEDS[1:]:
        env = DispatchEnv(scenario, SYS, REWARD)
        result = train_mappo(env, desk_config(episodes=5000, seed=seed))
        coordinated.append(day_totals(greedy_day(env, result.actors)))
    independent = []
    for seed in SEEDS:
        env = DispatchEnv(scenario, SYS, REWARD, mode="independent")
        result = train_independent(env, desk_config(episodes=3500, seed=seed))
        independent.append(day_totals(greedy_day(env, result.actors)))
    return coordinated, independent


class TestCriterion1Physics:
    def test_physics_unit_suite(self):
        t0 = time.time()
        ro = RoCogenParams()
        price = FuelPrice()
        pipe = PipelineParams()
        checks = [
            (ro_osmotic_pressure(ro, 0.5), 2.502 / 0.5),
            (ro_osmotic_pressure(ro, 0.4), 2.502 / 0.6),
            (ro_specific_energy(ro, 0.5), 2.502 * 2.0 * math.log(2.0)),
            (ro_specific_energy(ro, 0.9), 2.502 * (1.0 / 0.9) * math.log(10.0)),
            (
                pipeline_heat_loss(PipelineParams(t_supply=90.0, t_env=-10.0, thermal_resistance=2.0, length=1000.0)),
                2.0 * math.pi * 50.0,
            ),
            (
                pipeline_heat_loss(PipelineParams(t_supply=90.0, t_env=-10.0, thermal_resistance=2.0, length=500.0)),
                math.pi * 50.0,
            ),
            (transported_heat(pipe, 1e5), 4.186 * 1e5 * 50.0 / 3600.0),
            (
                transported_heat(PipelineParams(t_supply=140.0, t_return=40.0), 1e5),
                4.186 * 1e5 * 100.0 / 3600.0,
            ),
            (gas_cost(3000.0, 0.35, price), 3000.0 / (0.35 * 9.7) * 3.5),
            (gas_cost(1500.0, 0.35, price), 3000.0 / (0.35 * 9.7) * 3.5 / 2.0),
        ]
        worst = max(abs(got - want) / abs(want) for got, want in checks)
        grid = [0.01 * k for k in range(1, 100)]
        energies = [ro_specific_energy(ro, b) for b in grid]
        monotone = all(b > a for a, b in zip(energies, energies[1:]))
        elapsed = time.time() - t0
        report(
            "criterion 1 (physics unit suite)",
            worst <= 1e-12 and monotone and elapsed < 1.0,
            f"max rel err {worst:.2e}, monotone={monotone}, {elapsed:.2f}s",
        )


class TestCriterion2Constraints:
    def test_constraint_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        n_joint = 33_334  # 100,002 raw per-community actions in total
        raw = rng.uniform(-1.6, 1.6, size=(n_joint, N_AGENTS, ACTION_DIM))
        limits = SYS.limits
        x = decode_joint(raw, SYS, "coordinated")
        for i, cfg in enumerate(SYS.communities):
            d = x[:, i]
            assert (cfg.chp.p_min <= d[:, P_CHP]).all() and (d[:, P_CHP] <= cfg.chp.p_max).all()
            assert (cfg.chp.b_min <= d[:, B_CHP]).all() and (d[:, B_CHP] <= cfg.chp.b_max).all()
            assert (cfg.ro.p_tp_min <= d[:, P_TP]).all() and (d[:, P_TP] <= cfg.ro.p_tp_max).all()
            assert (0.0 <= d[:, W_RATE]).all() and (d[:, W_RATE] <= cfg.ro.w_max).all()
            assert (cfg.gt.out_min <= d[:, P_GT]).all() and (d[:, P_GT] <= cfg.gt.out_max).all()
            assert (cfg.gb.out_min <= d[:, H_GB]).all() and (d[:, H_GB] <= cfg.gb.out_max).all()
            assert (d[:, P_TP] - cfg.ro.kwh_per_m3 * d[:, W_RATE] >= -1e-9).all()
        p_exch, h_exch = x[..., P_EXCH], x[..., H_EXCH]
        worst_sum = float(max(np.abs(sum_last(p_exch)).max(), np.abs(sum_last(h_exch)).max()))
        assert (sum_last(np.abs(p_exch)) <= 2.0 * limits.p_max + 1e-9).all()
        assert (sum_last(np.abs(h_exch)) <= 2.0 * limits.h_max + 1e-9).all()
        assert (np.abs(p_exch) <= limits.p_max + 1e-9).all()
        assert (np.abs(h_exch) <= limits.h_max + 1e-9).all()
        elapsed = time.time() - t0
        report(
            "criterion 2 (constraint suite)",
            worst_sum <= 1e-9 and elapsed < 10.0,
            f"{3 * n_joint} actions, worst |sum| {worst_sum:.2e} kW, {elapsed:.1f}s",
        )


def _fd_grads(loss_fn, params, h=1e-6):
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_fn()
            arr[idx] = keep - h
            down = loss_fn()
            arr[idx] = keep
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads[name] = g
    return grads


def _worst_rel_err(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestCriterion3Gradients:
    def test_gradient_suite(self):
        t0 = time.time()
        worst = 0.0
        for net_idx in range(20):
            rng = np.random.default_rng(100 + net_idx)
            obs_dim = int(rng.integers(3, 6))
            act_dim = int(rng.integers(2, 4))
            batch = 6
            actor = GaussianActor(obs_dim, act_dim, rng=rng, hidden=8)
            actor.net.w3[...] = rng.standard_normal(actor.net.w3.shape) * 0.3
            actor.log_std[...] = rng.uniform(-1.5, 0.3, act_dim)
            obs = rng.standard_normal((batch, obs_dim))
            actions = rng.standard_normal((batch, act_dim)) * 0.8

            # log-density gradients
            _, analytic = log_prob_loss_and_grads(actor, obs, actions)
            numeric = _fd_grads(lambda: log_prob_loss_and_grads(actor, obs, actions)[0], actor.params())
            worst = max(worst, _worst_rel_err(analytic, numeric))

            # clipped surrogate at non-kink points: shift the stored
            # log-probabilities until every ratio is clear of the clip edges
            advantages = rng.standard_normal(batch)
            advantages = np.where(np.abs(advantages) < 0.1, 0.5, advantages)
            clip_eps = 0.2
            lp_now = actor.log_probs(obs, actions)
            offset = 0.05
            for _ in range(50):
                lp_old = lp_now - offset * np.sign(rng.standard_normal(batch))
                ratio = np.exp(lp_now - lp_old)
                margin = np.minimum(np.abs(ratio - (1 - clip_eps)), np.abs(ratio - (1 + clip_eps)))
                if np.all(margin > 1e-2):
                    break
                offset += 0.03
            _, analytic = actor_loss_and_grads(actor, obs, actions, lp_old, advantages, clip_eps)
            numeric = _fd_grads(
                lambda: actor_loss_and_grads(actor, obs, actions, lp_old, advantages, clip_eps)[0],
                actor.params(),
            )
            worst = max(worst, _worst_rel_err(analytic, numeric))

            # critic squared-error loss
            critic = Critic(obs_dim, rng=rng, hidden=8)
            returns = rng.standard_normal(batch)
            _, analytic = critic_loss_and_grads(critic, obs, returns)
            numeric = _fd_grads(lambda: critic_loss_and_grads(critic, obs, returns)[0], critic.params())
            worst = max(worst, _worst_rel_err(analytic, numeric))
        elapsed = time.time() - t0
        report(
            "criterion 3 (gradient suite)",
            worst <= 1e-4 and elapsed < 30.0,
            f"20 networks, worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion4GaeOracle:
    def test_gae_against_reward_to_go(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 40))
            rewards = rng.standard_normal(n) * 10.0
            values = rng.standard_normal(n) * 10.0
            adv, ret = gae_advantages(rewards, values, discount=1.0, gae_lambda=1.0)
            to_go = np.cumsum(rewards[::-1])[::-1]
            worst = max(worst, float(np.max(np.abs(adv - (to_go - values)))))
            worst = max(worst, float(np.max(np.abs(ret - to_go))))
        report("criterion 4 (advantage oracle)", worst <= 1e-9, f"100 episodes, worst abs err {worst:.2e}")


class TestCriterion5RatioIdentity:
    def test_ratio_is_one_for_identical_parameters(self):
        rng = np.random.default_rng(55)
        actor = GaussianActor(4, ACTION_DIM, rng=rng)
        obs = rng.standard_normal((1000, 4))
        actions = rng.standard_normal((1000, ACTION_DIM))
        lp_new = actor.log_probs(obs, actions)
        lp_old = actor.log_probs(obs.copy(), actions.copy())
        ratios = prob_ratio(lp_new, lp_old)
        exact = bool(np.all(ratios == 1.0))
        report("criterion 5 (ratio identity)", exact, f"1000 pairs, all ratios == 1: {exact}")


class TestCriterion6DeskScaleLearning:
    def test_coordinated_learning_reaches_oracle_band(self, coordinated_run, oracle):
        result, day = coordinated_run
        cost = day_total(day.cost)
        oracle_cost = day_total(oracle.cost)
        rel_gap = abs(cost - oracle_cost) / oracle_cost
        rewards = [row.mean_reward for row in result.log]
        decile = len(rewards) // 10
        first, last = float(np.mean(rewards[:decile])), float(np.mean(rewards[-decile:]))
        ok = rel_gap <= 0.10 and last > first
        report(
            "criterion 6 (desk-scale learning)",
            ok,
            f"cost {cost:.0f} vs oracle {oracle_cost:.0f} ({100 * rel_gap:.1f}%), "
            f"reward deciles {first:.3f} -> {last:.3f}",
        )


class TestCriterion7ModeComparison:
    def test_coordination_beats_independence(self, comparison_runs, oracle):
        coordinated, independent = comparison_runs
        oracle_curtailed = day_total(oracle.balance.curtailed)
        co_cost = float(np.mean([c[0] for c in coordinated]))
        in_cost = float(np.mean([c[0] for c in independent]))
        co_rate = float(np.mean([c[2] / c[3] for c in coordinated]))
        in_rate = float(np.mean([c[2] / c[3] for c in independent]))
        ok = (
            co_cost <= in_cost
            and co_rate <= 0.02
            and in_rate >= 0.10
            and oracle_curtailed <= 1e-6
        )
        report(
            "criterion 7 (mode comparison)",
            ok,
            f"mean cost coordinated {co_cost:.0f} <= independent {in_cost:.0f}; "
            f"curtailment {100 * co_rate:.2f}% vs {100 * in_rate:.2f}%; "
            f"oracle curtails {oracle_curtailed:.2f} kWh",
        )


class TestCriterion8DecouplingSanity:
    def test_modes_agree_without_coupling(self):
        uniform = generate_scenario(ScenarioSpec(profile="uniform"))
        exchanges_zero = bool((np.abs(oracle_of(uniform).setpoints[..., P_EXCH:]) < 1e-9).all())
        env_co = DispatchEnv(uniform, SYS, REWARD)
        res_co = train_mappo(env_co, desk_config(episodes=1500, seed=1))
        cost_co = day_total(greedy_day(env_co, res_co.actors).cost)
        env_in = DispatchEnv(uniform, SYS, REWARD, mode="independent")
        res_in = train_independent(env_in, desk_config(episodes=1500, seed=1))
        cost_in = day_total(greedy_day(env_in, res_in.actors).cost)
        gap = abs(cost_co - cost_in) / max(cost_co, cost_in)
        ok = exchanges_zero and gap <= 0.03
        report(
            "criterion 8 (decoupling sanity)",
            ok,
            f"oracle exchanges zero: {exchanges_zero}; costs {cost_co:.0f} vs {cost_in:.0f} ({100 * gap:.2f}%)",
        )


class TestCriterion9Determinism:
    def test_bytewise_reproducibility(self, tmp_path):
        cfg_text = (
            "train: {actor_lr: 3.0e-4, critic_lr: 1.0e-3, episodes: 20, discount: 0.0, epochs_per_update: 8}\n"
            "env:\n  reward: {kappa: 1.5}\n"
        )
        cfg = tmp_path / "config.yaml"
        cfg.write_text(cfg_text, encoding="utf-8")
        scenario_path = tmp_path / "scenario.csv"
        assert main(["generate-scenario", "--out", str(scenario_path)]) == 0
        artifacts = []
        for name in ("one", "two"):
            run_dir = tmp_path / name
            assert main([
                "train", "--config", str(cfg), "--scenario", str(scenario_path),
                "--out", str(run_dir), "--seed", "7",
            ]) == 0
            eval_dir = tmp_path / f"{name}_eval"
            assert main([
                "evaluate", "--config", str(cfg), "--scenario", str(scenario_path),
                "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(eval_dir),
            ]) == 0
            artifacts.append(
                (
                    (run_dir / "training_log.csv").read_bytes(),
                    (run_dir / "checkpoint.json").read_bytes(),
                    (eval_dir / "schedule.csv").read_bytes(),
                    (eval_dir / "summary.json").read_bytes(),
                )
            )
        identical = artifacts[0] == artifacts[1]
        report("criterion 9 (determinism)", identical, f"byte-identical artifacts: {identical}")

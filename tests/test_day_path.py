"""The array dispatch kernels against the tests' scalar reference, bit for bit.

Every dispatch number of the package comes from the array kernels of
``iesdispatch.system``: training's ``evaluate_day``, ``evaluate_step`` (and
so ``DispatchEnv.step``), ``greedy_rollout``, the oracle's rows and the
scalar functions of the public API.  These tests hold each of them equal,
with ``==`` and not a tolerance, to ``scalar_reference``, the same chain
written one Python float at a time, and hold one-pass training equal to a
collector that steps through the day one transition at a time.
"""

import itertools

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from iesdispatch import cli, env as env_module, learner, system as system_module
from iesdispatch.config import load_config
from iesdispatch.devices import ChpParams, GasUnitParams, RoCogenParams
from iesdispatch.env import (
    ACTION_DIM,
    EPISODE_STEPS,
    MODES,
    N_AGENTS,
    OBSERVATION_MODES,
    STATE_DIM,
    DispatchEnv,
    RewardParams,
    agent_observation,
    encode_state,
    evaluate_day,
    evaluate_step,
    observation_dim,
)
from iesdispatch.learner import LogRow, TrainConfig, _Episode, sample_action
from iesdispatch.scenario import PROFILES, ScenarioSpec, generate_scenario
from iesdispatch.system import (
    BalanceOptions,
    CommunityConfig,
    CommunityLoads,
    DispatchDecision,
    SystemConfig,
    left_sum,
    oracle_dispatch,
)
from iesdispatch.thermal import PipelineParams

OPTION_SETS = [BalanceOptions(*flags) for flags in itertools.product((False, True), repeat=3)]


def system(kwh_per_m3: float, options: BalanceOptions, mixed: bool) -> SystemConfig:
    """Three communities with the given water coefficient; ``mixed`` gives
    each its own device limits, so per-community parameters cannot be mixed up."""
    communities = []
    for i in (1, 2, 3):
        if mixed:
            communities.append(CommunityConfig(
                id=i,
                chp=ChpParams(p_min=800.0 + 100 * i, p_max=4000.0 + 500 * i, b_max=1.1 + 0.1 * i),
                ro=RoCogenParams(kwh_per_m3=kwh_per_m3, p_tp_max=3000.0 + 1000 * i, w_max=300.0 + 100 * i, eta=0.3 + 0.05 * i),
                gt=GasUnitParams(out_min=50.0 * i, out_max=2000.0 + 500 * i, eta=0.3 + 0.02 * i),
                gb=GasUnitParams(out_min=0.0, out_max=2500.0 + 250 * i, eta=0.8 + 0.03 * i),
                pipeline=PipelineParams(length=700.0 + 300 * i, t_return=35.0 + 5 * i),
            ))
        else:
            communities.append(CommunityConfig(id=i, ro=RoCogenParams(kwh_per_m3=kwh_per_m3)))
    return SystemConfig(communities=tuple(communities), options=options)


def random_actions(rng: np.random.Generator) -> np.ndarray:
    """Actions in [-3, 3], with a fifth of the entries snapped onto the box
    edges, the centre or the far outside."""
    actions = rng.uniform(-3.0, 3.0, (EPISODE_STEPS, N_AGENTS, ACTION_DIM))
    snap = rng.random(actions.shape) < 0.2
    actions[snap] = rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], size=int(snap.sum()))
    return actions


def reference_agent_rewards(record, params):
    return [params.u - (c + params.kappa * b.penalty) / params.z for c, b in zip(record.costs, record.balances)]


class TestEvaluateDay:
    @settings(max_examples=120, deadline=None)
    @given(
        profile=st.sampled_from(PROFILES),
        noise_std=st.sampled_from([0.0, 0.05, 0.5]),
        scenario_seed=st.integers(0, 10_000),
        action_seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(MODES),
        options=st.sampled_from(OPTION_SETS),
        kwh_per_m3=st.sampled_from([8.0, 7.3]),
        mixed=st.booleans(),
        dt=st.sampled_from([1.0, 0.5]),
    )
    def test_equals_evaluate_step(
        self, profile, noise_std, scenario_seed, action_seed, mode, options, kwh_per_m3, mixed, dt
    ):
        scenario = generate_scenario(ScenarioSpec(profile=profile, noise_std=noise_std, seed=scenario_seed))
        sys_cfg = system(kwh_per_m3, options, mixed)
        params = RewardParams(kappa=1.5)
        actions = random_actions(np.random.default_rng(action_seed))

        day = evaluate_day(scenario, actions, sys_cfg, params, mode, dt)
        expected = [ref.evaluate_step(scenario, t, actions[t], sys_cfg, params, mode, dt) for t in range(EPISODE_STEPS)]

        assert day.records() == expected
        assert [evaluate_step(scenario, t, actions[t], sys_cfg, params, mode, dt) for t in range(EPISODE_STEPS)] == expected
        np.testing.assert_array_equal(day.team_reward, [r.reward for r in expected])
        np.testing.assert_array_equal(day.agent_reward, [reference_agent_rewards(r, params) for r in expected])
        np.testing.assert_array_equal(day.cost, [r.costs for r in expected])
        np.testing.assert_array_equal(day.balance.penalty, [[b.penalty for b in r.balances] for r in expected])
        np.testing.assert_array_equal(day.balance.curtailed, [[b.curtailed for b in r.balances] for r in expected])

    @pytest.mark.parametrize("shape", [(24, 3), (24, 2, 8), (23, 3, 8), (25, 3, 8)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            evaluate_day(generate_scenario(ScenarioSpec()), np.zeros(shape), system(8.0, BalanceOptions(), False), RewardParams())

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            evaluate_day(generate_scenario(ScenarioSpec()), np.zeros((24, 3, 8)), system(8.0, BalanceOptions(), False), RewardParams(), "solo")


class TestScalarAdapters:
    """The public per-community functions are adapters over the kernels."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-8000.0, 8000.0), min_size=8, max_size=8),
        action=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
        exchanges=st.lists(st.floats(-5000.0, 5000.0), min_size=6, max_size=6),
        loads=st.tuples(st.floats(0.0, 9000.0), st.floats(0.0, 6000.0), st.floats(0.0, 600.0), st.floats(0.0, 3000.0)),
        community=st.integers(0, 2),
        options=st.sampled_from(OPTION_SETS),
        kwh_per_m3=st.sampled_from([8.0, 7.3]),
        mixed=st.booleans(),
        with_limits=st.booleans(),
        dt=st.sampled_from([1.0, 0.5]),
    )
    def test_adapters_equal_the_reference(
        self, values, action, exchanges, loads, community, options, kwh_per_m3, mixed, with_limits, dt
    ):
        sys_cfg = system(kwh_per_m3, options, mixed)
        cfg, limits, price = sys_cfg.communities[community], sys_cfg.limits, sys_cfg.price
        raw = DispatchDecision(*values, wind_used=values[0])

        clipped = system_module.clip_to_limits(raw, cfg, limits if with_limits else None, dt)
        assert clipped == ref.clip_to_limits(raw, cfg, limits if with_limits else None, dt)
        assert env_module.action_to_setpoints(action, cfg, limits, dt) == ref.action_to_setpoints(action, cfg, limits, dt)
        decoded = env_module.decode_action(action, cfg, limits, dt)
        assert decoded == ref.decode_action(action, cfg, limits, dt)
        assert system_module.project_exchanges(exchanges[:3], exchanges[3:], 700.0, 900.0) == ref.project_exchanges(
            exchanges[:3], exchanges[3:], 700.0, 900.0
        )
        community_loads = CommunityLoads(*loads[:3])
        for decision in (clipped, decoded):
            assert system_module.power_balance(decision, community_loads, loads[3], cfg, options, dt) == ref.power_balance(
                decision, community_loads, loads[3], cfg, options, dt
            )
            assert system_module.community_cost(decision, cfg, price) == ref.community_cost(decision, cfg, price)
        params = RewardParams(kappa=1.5)
        assert env_module.step_reward(values[0], exchanges[:3], params) == ref.step_reward(values[0], exchanges[:3], params)


class TestDayStates:
    @pytest.mark.parametrize("observation", OBSERVATION_MODES)
    def test_precomputed_states_match_encode_state(self, observation):
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=2))
        env = DispatchEnv(scenario, system(8.0, BalanceOptions(), False), observation=observation)
        for t in range(EPISODE_STEPS):
            state = encode_state(scenario, t, env.scales)
            np.testing.assert_array_equal(env.states[t], state)
            for k in range(N_AGENTS):
                np.testing.assert_array_equal(env.observations[k, t], agent_observation(state, k, observation))


def step_by_step_collect(env, actors, critics, rng, independent):
    """Reference collector: one transition at a time, with one batch-1
    forward per network, one noise draw per agent and step, and the scalar
    reference's ``evaluate_step``.  The one-pass ``learner._collect_episode``
    must reproduce it."""
    obs_dim = observation_dim(env.observation)
    states = np.empty((EPISODE_STEPS, STATE_DIM))
    obs_arr = np.empty((N_AGENTS, EPISODE_STEPS, obs_dim))
    actions = np.empty((N_AGENTS, EPISODE_STEPS, ACTION_DIM))
    log_probs = np.empty((N_AGENTS, EPISODE_STEPS))
    team_rewards = np.empty(EPISODE_STEPS)
    agent_rewards = np.empty((N_AGENTS, EPISODE_STEPS))
    values = np.empty((N_AGENTS if independent else 1, EPISODE_STEPS))
    records = []

    for t in range(EPISODE_STEPS):
        state = encode_state(env.scenario, t, env.scales)
        states[t] = state
        per_agent = [agent_observation(state, k, env.observation) for k in range(N_AGENTS)]
        for k in range(N_AGENTS):
            obs_arr[k, t] = per_agent[k]
            actions[k, t], log_probs[k, t] = sample_action(
                actors[k].mean_action(per_agent[k]), actors[k].clamped_log_std(), rng
            )
        if independent:
            for k in range(N_AGENTS):
                values[k, t] = critics[k].net.forward(per_agent[k])[0][0, 0]
        else:
            values[0, t] = critics[0].net.forward(state)[0][0, 0]
        record = ref.evaluate_step(env.scenario, t, actions[:, t, :], env.system_cfg, env.reward_params, env.mode, env.dt)
        team_rewards[t] = record.reward
        agent_rewards[:, t] = reference_agent_rewards(record, env.reward_params)
        records.append(record)

    row = LogRow(
        episode=-1,
        mean_reward=float(team_rewards.mean()),
        total_cost=float(left_sum(r.cost_total for r in records)),
        total_penalty=float(left_sum(r.penalty_total for r in records)),
        curtailment_kwh=float(left_sum(r.curtailed_total for r in records)) * env.dt,
    )
    return _Episode(states, obs_arr, actions, log_probs, team_rewards, agent_rewards, values), row


class TestOnePassTraining:
    @pytest.mark.parametrize("options", [BalanceOptions(), BalanceOptions(True, True, True)], ids=["default", "strict"])
    @pytest.mark.parametrize("observation", OBSERVATION_MODES)
    @pytest.mark.parametrize("mode", MODES)
    def test_training_equals_the_step_by_step_collector(self, monkeypatch, mode, observation, options):
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=4))
        env = DispatchEnv(scenario, system(8.0, options, False), RewardParams(kappa=1.5), mode, observation)
        cfg = TrainConfig(actor_lr=3e-4, critic_lr=1e-3, batch=48, episodes=8, discount=0.0, seed=5)
        independent = mode == "independent"

        one_pass = learner._train(env, cfg, independent)
        monkeypatch.setattr(learner, "_collect_episode", step_by_step_collect)
        stepped = learner._train(env, cfg, independent)

        assert one_pass.log == stepped.log
        for fast, slow in zip(one_pass.actors + one_pass.critics, stepped.actors + stepped.critics):
            for name, value in fast.params().items():
                assert np.array_equal(value, slow.params()[name]), name

    def test_greedy_rollout_equals_stepping_the_means(self):
        env = DispatchEnv(generate_scenario(ScenarioSpec(noise_std=0.05, seed=6)), system(7.3, BalanceOptions(), True))
        result = learner.train_mappo(env, TrainConfig(batch=48, episodes=4, seed=2))
        records = learner.greedy_rollout(env, result.actors)
        state = env.reset()
        for t in range(EPISODE_STEPS):
            means = np.stack([
                result.actors[k].mean_action(agent_observation(state, k, env.observation)) for k in range(N_AGENTS)
            ])
            assert records[t] == ref.evaluate_step(env.scenario, t, means, env.system_cfg, env.reward_params)
            state, _, _, record = env.step(means)
            assert record == records[t]


class TestOracleRows:
    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    def test_oracle_rows_equal_the_reference(self, strict):
        options = {"gross_pipeline_loss": strict, "cap_heat_by_water": strict, "exchange_loss": strict}
        run_cfg = load_config(None, {"system": {"options": options}})
        sys_cfg, dt = run_cfg.system, run_cfg.system.price.dt
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=22))
        for t in range(EPISODE_STEPS):
            loads = [CommunityLoads(*(float(q[i, t]) for q in (scenario.p_load, scenario.h_load, scenario.w_load)))
                     for i in range(N_AGENTS)]
            wind = [float(scenario.p_wind[i, t]) for i in range(N_AGENTS)]
            step = oracle_dispatch(loads, wind, sys_cfg, grid_n=5, dt=dt)
            record = cli._oracle_record(step, scenario, run_cfg, t)

            cfgs = sys_cfg.communities
            balances = tuple(
                ref.power_balance(d, loads[i], wind[i], cfgs[i], sys_cfg.options, dt) for i, d in enumerate(step.decisions)
            )
            costs = tuple(ref.community_cost(d, cfgs[i], sys_cfg.price) for i, d in enumerate(step.decisions))
            assert record.balances == balances
            assert record.costs == costs == step.cost.per_community
            assert record.wind_avail == tuple(wind)
            assert record.reward == ref.step_reward(left_sum(costs), [b.penalty for b in balances], run_cfg.reward)
            assert record.decisions == step.decisions
            assert step.penalty == left_sum(b.penalty for b in balances)
            assert [d.wind_used for d in step.decisions] == [wind[i] - balances[i].curtailed for i in range(N_AGENTS)]

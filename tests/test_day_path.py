"""The array dispatch kernels against the tests' scalar reference, bit for bit.

Every dispatch number of the package comes from the array kernels of
``iesdispatch.system``: training's and ``greedy_day``'s ``evaluate_day``
and the oracle's rows through ``settle_day``.  These tests hold each of
them, and each kernel on its own, equal with ``==`` and not a tolerance to
``scalar_reference``, the same chain written one Python float at a time,
and hold batched training equal to a collector that steps through each
day one transition at a time.
"""

import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from iesdispatch import learner
from iesdispatch.config import load_config
from iesdispatch.devices import ChpParams, FuelPrice, GasUnitParams, RoCogenParams
from iesdispatch.env import (
    ACTION_DIM,
    EPISODE_STEPS,
    MODES,
    N_AGENTS,
    OBSERVATION_MODES,
    DispatchEnv,
    RewardParams,
    evaluate_day,
    settle_day,
)
from iesdispatch.learner import LogRow, TrainConfig, sample_action
from iesdispatch.scenario import PROFILES, ScenarioSpec, generate_scenario
from iesdispatch.system import (
    BalanceOptions,
    CommunityConfig,
    Settlement,
    SystemConfig,
    affine_setpoints,
    clip_box,
    fleet_of,
    fuel_cost,
    left_sum,
    oracle_day,
    project_rows,
    setpoint_box,
    settle,
    sum_last,
)
from iesdispatch.thermal import PipelineParams

OPTION_SETS = [BalanceOptions(*flags) for flags in itertools.product((False, True), repeat=3)]


def system(kwh_per_m3: float, options: BalanceOptions, mixed: bool, dt: float = 1.0) -> SystemConfig:
    """Three communities with the given water coefficient and step length
    (h); ``mixed`` gives each its own device limits, so per-community
    parameters cannot be mixed up."""
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
    return SystemConfig(communities=tuple(communities), price=FuelPrice(dt=dt), options=options)


def random_actions(rng: np.random.Generator) -> np.ndarray:
    """Actions in [-3, 3], with a fifth of the entries snapped onto the box
    edges, the centre or the far outside."""
    actions = rng.uniform(-3.0, 3.0, (EPISODE_STEPS, N_AGENTS, ACTION_DIM))
    snap = rng.random(actions.shape) < 0.2
    actions[snap] = rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], size=int(snap.sum()))
    return actions


def reference_agent_rewards(record, params):
    return [params.u - (c + params.kappa * b.penalty) / params.z for c, b in zip(record.costs, record.balances)]


def reference_state(scenario, t, scales):
    """The normalized 12-entry state at step t, one division at a time."""
    quantities = (scenario.p_load, scenario.h_load, scenario.w_load, scenario.p_wind)
    return np.array([float(q[i, t]) / float(scales[i, j]) for i in range(N_AGENTS) for j, q in enumerate(quantities)])


def reference_observation(state, agent, observation):
    return state if observation == "full" else state[4 * agent : 4 * agent + 4]


def assert_day_equals(day, records, params):
    """Every array of an evaluated day equals, with ``==``, the reference's
    records of its steps."""
    expected = {
        "setpoints": [[d.row() for d in r.decisions] for r in records],
        "wind": [r.wind_avail for r in records],
        "cost": [r.costs for r in records],
        "team_reward": [r.reward for r in records],
        "agent_reward": [reference_agent_rewards(r, params) for r in records],
    }
    for name, value in expected.items():
        np.testing.assert_array_equal(getattr(day, name), value, err_msg=name)
    for name in Settlement._fields:
        np.testing.assert_array_equal(
            getattr(day.balance, name), [[getattr(b, name) for b in r.balances] for r in records], err_msg=name
        )
    np.testing.assert_array_equal(day.wind - day.balance.curtailed, [[d.wind_used for d in r.decisions] for r in records])


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
    def test_equals_the_reference_steps(
        self, profile, noise_std, scenario_seed, action_seed, mode, options, kwh_per_m3, mixed, dt
    ):
        scenario = generate_scenario(ScenarioSpec(profile=profile, noise_std=noise_std, seed=scenario_seed))
        sys_cfg = system(kwh_per_m3, options, mixed, dt)
        params = RewardParams(kappa=1.5)
        actions = random_actions(np.random.default_rng(action_seed))

        day = evaluate_day(scenario, actions, sys_cfg, params, mode)
        expected = [ref.evaluate_step(scenario, t, actions[t], sys_cfg, params, mode, sys_cfg.price.dt) for t in range(EPISODE_STEPS)]
        assert_day_equals(day, expected, params)
        assert day.dt == dt

    @settings(max_examples=80, deadline=None)
    @given(
        n_days=st.integers(1, 5),
        profile=st.sampled_from(PROFILES),
        scenario_seed=st.integers(0, 10_000),
        action_seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(MODES),
        options=st.sampled_from(OPTION_SETS),
        mixed=st.booleans(),
        dt=st.sampled_from([1.0, 0.5]),
    )
    def test_a_batch_equals_its_days_one_at_a_time(
        self, n_days, profile, scenario_seed, action_seed, mode, options, mixed, dt
    ):
        scenario = generate_scenario(ScenarioSpec(profile=profile, noise_std=0.05, seed=scenario_seed))
        sys_cfg = system(7.3, options, mixed, dt)
        params = RewardParams(kappa=1.5)
        rng = np.random.default_rng(action_seed)
        actions = np.stack([random_actions(rng) for _ in range(n_days)])

        batch = evaluate_day(scenario, actions, sys_cfg, params, mode)
        for e, day_actions in enumerate(actions):
            day = evaluate_day(scenario, day_actions, sys_cfg, params, mode)
            for name in ("setpoints", "cost", "team_reward", "agent_reward"):
                np.testing.assert_array_equal(getattr(batch, name)[e], getattr(day, name), err_msg=name, strict=True)
            for name in Settlement._fields:
                np.testing.assert_array_equal(
                    getattr(batch.balance, name)[e], getattr(day.balance, name), err_msg=name, strict=True
                )
            np.testing.assert_array_equal(batch.wind, day.wind, strict=True)
            assert batch.dt == day.dt

    @pytest.mark.parametrize("shape", [(24, 3), (24, 2, 8), (23, 3, 8), (25, 3, 8), (2, 23, 3, 8)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            evaluate_day(generate_scenario(ScenarioSpec()), np.zeros(shape), system(8.0, BalanceOptions(), False), RewardParams())

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            evaluate_day(generate_scenario(ScenarioSpec()), np.zeros((24, 3, 8)), system(8.0, BalanceOptions(), False), RewardParams(), "solo")


class TestKernelsOnOneCommunity:
    """Each kernel on one community's row equals the reference's scalar function."""

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
    def test_kernels_equal_the_reference(
        self, values, action, exchanges, loads, community, options, kwh_per_m3, mixed, with_limits, dt
    ):
        sys_cfg = system(kwh_per_m3, options, mixed, dt)
        cfg, limits, price = sys_cfg.communities[community], sys_cfg.limits, sys_cfg.price
        fleet = fleet_of((cfg,))

        lo, hi = setpoint_box(fleet, limits if with_limits else None, dt)
        clipped = clip_box(np.array([values]), lo, hi, fleet.q)
        assert clipped[0].tolist() == ref.clip_to_limits(ref.DispatchDecision(*values), cfg, limits if with_limits else None, dt).row()
        lo, hi = setpoint_box(fleet, limits, dt)
        mapped = affine_setpoints(np.array([action]), lo, hi)
        assert mapped[0].tolist() == ref.action_to_setpoints(action, cfg, limits, dt).row()
        decoded = clip_box(mapped, lo, hi, fleet.q)
        assert decoded[0].tolist() == ref.decode_action(action, cfg, limits, dt).row()
        projected = project_rows(np.array([exchanges[:3], exchanges[3:]]), [700.0, 900.0])
        assert tuple(map(tuple, projected.tolist())) == ref.project_exchanges(exchanges[:3], exchanges[3:], 700.0, 900.0)

        community_loads = ref.CommunityLoads(*loads[:3])
        for x in (clipped, decoded):
            settled = settle(x, *loads, fleet, options)
            decision = ref.DispatchDecision(*x[0].tolist())
            assert [float(v[0]) for v in settled] == list(
                astuple(ref.power_balance(decision, community_loads, loads[3], cfg, options, dt))
            )
            assert float(fuel_cost(x, fleet, price)[0]) == ref.community_cost(decision, cfg, price)


class TestDayStates:
    @pytest.mark.parametrize("observation", OBSERVATION_MODES)
    def test_precomputed_states_equal_the_reference(self, observation):
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=2))
        env = DispatchEnv(scenario, system(8.0, BalanceOptions(), False), observation=observation)
        for t in range(EPISODE_STEPS):
            state = reference_state(scenario, t, env.scales)
            np.testing.assert_array_equal(env.states[t], state)
            for k in range(N_AGENTS):
                np.testing.assert_array_equal(env.observations[k, t], reference_observation(state, k, observation))


def reference_observations(env):
    """The day's states (24, 12) and each actor's observations (3, 24, in),
    one division at a time."""
    states = np.stack([reference_state(env.scenario, t, env.scales) for t in range(EPISODE_STEPS)])
    return states, np.stack([[reference_observation(s, k, env.observation) for s in states] for k in range(N_AGENTS)])


def step_by_step_collect(env, actors, critics, rng, episodes):
    """Reference collector: the means and values of one ``forward`` per
    network over the day's 24 reference observations, then one transition
    at a time, with one noise draw per agent and step and the scalar
    reference's ``evaluate_step``, episode after episode.  The batched
    ``learner._collect_batch`` must reproduce it."""
    independent = env.mode == "independent"
    states, observations = reference_observations(env)
    means = [actor.net.forward(obs)[0] for actor, obs in zip(actors, observations)]
    critic_inputs = observations if independent else [states]
    values = np.stack([critic.net.forward(x)[0][:, 0] for critic, x in zip(critics, critic_inputs)])
    n = len(episodes)
    actions = np.empty((n, EPISODE_STEPS, N_AGENTS, ACTION_DIM))
    log_probs = np.empty((n, EPISODE_STEPS, N_AGENTS))
    rewards = np.empty((len(values), n, EPISODE_STEPS))
    rows = []

    for e, episode in enumerate(episodes):
        records = []
        for t in range(EPISODE_STEPS):
            for k in range(N_AGENTS):
                actions[e, t, k], log_probs[e, t, k] = sample_action(means[k][t], actors[k].clamped_log_std(), rng)
            record = ref.evaluate_step(env.scenario, t, actions[e, t], env.system_cfg, env.reward_params, env.mode, env.system_cfg.price.dt)
            rewards[:, e, t] = reference_agent_rewards(record, env.reward_params) if independent else record.reward
            records.append(record)
        rows.append(LogRow(
            episode=episode,
            mean_reward=float(np.mean([r.reward for r in records])),
            total_cost=float(left_sum(r.cost_total for r in records)),
            total_penalty=float(left_sum(r.penalty_total for r in records)),
            curtailment_kwh=float(left_sum(r.curtailed_total for r in records)) * env.system_cfg.price.dt,
        ))
    return actions, log_probs, rewards, values, rows


def episode_gae(rewards, values, discount, gae_lambda):
    """Reference advantages of one episode and reward stream, one Python
    float at a time."""
    advantages = np.empty(len(rewards))
    running = next_value = 0.0
    for t in reversed(range(len(rewards))):
        delta = float(rewards[t]) + discount * next_value - float(values[t])
        running = delta + discount * gae_lambda * running
        advantages[t] = running
        next_value = float(values[t])
    return advantages, advantages + values


def episode_by_episode_update(actors, critics, actor_opts, critic_opts, actions, log_probs, rewards, values, env, cfg):
    """Reference update: the buffer stacked one episode at a time, the
    advantages of each episode and reward stream from ``episode_gae``,
    normalized per stream, then the epochs of full-batch steps, each
    network on the day's 24 rows with the (E, 24, ...) arrays in episode
    order."""
    independent = env.mode == "independent"
    n = len(actions)
    agent_actions = [np.stack([actions[e, :, k] for e in range(n)]) for k in range(N_AGENTS)]
    agent_log_probs = [np.stack([log_probs[e, :, k] for e in range(n)]) for k in range(N_AGENTS)]
    advantages, returns = [], []
    for stream_rewards, stream_values in zip(rewards, values):
        parts = [episode_gae(r, stream_values, cfg.discount, cfg.gae_lambda) for r in stream_rewards]
        advantages.append(learner.normalize_advantages(np.concatenate([adv for adv, _ in parts])).reshape(n, -1))
        returns.append(np.stack([ret for _, ret in parts]))
    for _ in range(cfg.epochs_per_update):
        for k in range(N_AGENTS):
            _, grads = learner.actor_loss_and_grads(
                actors[k],
                env.observations[k],
                agent_actions[k],
                agent_log_probs[k],
                advantages[k if independent else 0],
                cfg.clip_eps,
            )
            learner.clip_grads_(grads.vector, learner.MAX_GRAD_NORM)
            actor_opts[k].step(grads.vector)
        for ci, critic in enumerate(critics):
            _, grads = learner.critic_loss_and_grads(
                critic, env.observations[ci] if independent else env.states, returns[ci]
            )
            learner.clip_grads_(grads.vector, learner.MAX_GRAD_NORM)
            critic_opts[ci].step(grads.vector)


class TestOnePassTraining:
    def check_against_the_reference(self, monkeypatch, env, cfg, batch_sizes):
        one_pass = learner._train(env, cfg)
        seen = []

        def update(*args):
            seen.append(len(args[4]))
            episode_by_episode_update(*args)

        monkeypatch.setattr(learner, "_collect_batch", step_by_step_collect)
        monkeypatch.setattr(learner, "_update", update)
        stepped = learner._train(env, cfg)

        assert seen == batch_sizes
        assert one_pass.log == stepped.log
        assert [row.episode for row in one_pass.log] == list(range(cfg.episodes))
        for fast, slow in zip(one_pass.actors + one_pass.critics, stepped.actors + stepped.critics):
            for name, value in fast.params().items():
                assert np.array_equal(value, slow.params()[name]), name

    @pytest.mark.parametrize("options", [BalanceOptions(), BalanceOptions(True, True, True)], ids=["default", "strict"])
    @pytest.mark.parametrize("observation", OBSERVATION_MODES)
    @pytest.mark.parametrize("mode", MODES)
    def test_training_equals_the_step_by_step_collector(self, monkeypatch, mode, observation, options):
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=4))
        env = DispatchEnv(scenario, system(8.0, options, False), RewardParams(kappa=1.5), mode, observation)
        cfg = TrainConfig(actor_lr=3e-4, critic_lr=1e-3, batch=48, episodes=8, discount=0.0, seed=5)
        self.check_against_the_reference(monkeypatch, env, cfg, [2, 2, 2, 2])

    @pytest.mark.parametrize("mode", MODES)
    def test_a_half_hour_step(self, monkeypatch, mode):
        """The log's curtailment energy and the water box follow the
        system's step length."""
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=4))
        sys_cfg = system(8.0, BalanceOptions(True, True, True), False, dt=0.5)
        env = DispatchEnv(scenario, sys_cfg, RewardParams(kappa=1.5), mode)
        cfg = TrainConfig(actor_lr=3e-4, critic_lr=1e-3, batch=48, episodes=8, discount=0.0, seed=5)
        self.check_against_the_reference(monkeypatch, env, cfg, [2, 2, 2, 2])

    @pytest.mark.parametrize("observation", OBSERVATION_MODES)
    @pytest.mark.parametrize("mode", MODES)
    def test_discounted_advantages_and_a_partial_batch(self, monkeypatch, mode, observation):
        """Five episodes per update, then a trailing batch of three, with
        the advantage recursion running over every step."""
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=4))
        env = DispatchEnv(scenario, system(8.0, BalanceOptions(), False), RewardParams(kappa=1.5), mode, observation)
        cfg = TrainConfig(
            actor_lr=3e-4, critic_lr=1e-3, batch=100, episodes=13, discount=0.99, gae_lambda=0.9, seed=5
        )
        self.check_against_the_reference(monkeypatch, env, cfg, [5, 5, 3])

    def test_greedy_day_equals_the_means_stepped(self):
        env = DispatchEnv(generate_scenario(ScenarioSpec(noise_std=0.05, seed=6)), system(7.3, BalanceOptions(), True))
        result = learner.train_mappo(env, TrainConfig(batch=48, episodes=4, seed=2))
        _, observations = reference_observations(env)
        means = np.stack([actor.net.forward(obs)[0] for actor, obs in zip(result.actors, observations)], axis=1)
        records = [ref.evaluate_step(env.scenario, t, means[t], env.system_cfg, env.reward_params) for t in range(EPISODE_STEPS)]
        assert_day_equals(learner.greedy_day(env, result.actors), records, env.reward_params)


class TestOracleRows:
    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    def test_oracle_rows_equal_the_reference(self, strict):
        options = {"gross_pipeline_loss": strict, "cap_heat_by_water": strict, "exchange_loss": strict}
        run_cfg = load_config(None, {"system": {"options": options}})
        sys_cfg, dt = run_cfg.system, run_cfg.system.price.dt
        scenario = generate_scenario(ScenarioSpec(noise_std=0.05, seed=22))
        setpoints = oracle_day(scenario.p_load.T, scenario.h_load.T, scenario.w_load.T, scenario.p_wind.T, sys_cfg)
        day = settle_day(scenario, setpoints, sys_cfg, run_cfg.reward)
        cfgs = sys_cfg.communities
        records = []
        for t in range(EPISODE_STEPS):
            loads = [ref.CommunityLoads(*(float(q[i, t]) for q in (scenario.p_load, scenario.h_load, scenario.w_load)))
                     for i in range(N_AGENTS)]
            wind = [float(scenario.p_wind[i, t]) for i in range(N_AGENTS)]
            decisions = [ref.DispatchDecision(*row) for row in setpoints[t].tolist()]
            balances = tuple(
                ref.power_balance(d, loads[i], wind[i], cfgs[i], sys_cfg.options, dt) for i, d in enumerate(decisions)
            )
            costs = tuple(ref.community_cost(d, cfgs[i], sys_cfg.price) for i, d in enumerate(decisions))
            records.append(ref.StepRecord(
                t=t,
                decisions=tuple(replace(d, wind_used=wind[i] - balances[i].curtailed) for i, d in enumerate(decisions)),
                balances=balances,
                costs=costs,
                wind_avail=tuple(wind),
                reward=ref.step_reward(left_sum(costs), [b.penalty for b in balances], run_cfg.reward),
                done=t == EPISODE_STEPS - 1,
            ))
        assert_day_equals(day, records, run_cfg.reward)
        assert sum_last(day.balance.penalty).tolist() == [r.penalty_total for r in records]

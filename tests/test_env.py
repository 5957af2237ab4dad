"""Environment tests: state encoding, action decoding, reward, day evaluation."""

import numpy as np
import pytest

from iesdispatch.env import (
    ACTION_DIM,
    EPISODE_STEPS,
    N_AGENTS,
    STATE_DIM,
    DispatchEnv,
    RewardParams,
    compute_scales,
    day_observations,
    decode_joint,
    encode_day,
    evaluate_day,
)
from iesdispatch.scenario import ScenarioData, ScenarioSpec, generate_scenario
from iesdispatch.system import (
    B_CHP,
    H_EXCH,
    H_GB,
    P_CHP,
    P_EXCH,
    P_GT,
    P_TP,
    W_RATE,
    affine_setpoints,
    clip_box,
    default_system_config,
    fleet_of,
    setpoint_box,
    sum_last,
)

SYS = default_system_config()
CFG = SYS.communities[0]
LIMITS = SYS.limits


@pytest.fixture
def scenario():
    return generate_scenario(ScenarioSpec())


def decode(action):
    """One community's action decoded into its box, exchanges not projected."""
    fleet = fleet_of((CFG,))
    lo, hi = setpoint_box(fleet, LIMITS, 1.0)
    return clip_box(affine_setpoints(np.asarray([action], dtype=float), lo, hi), lo, hi, fleet.q)[0]


def random_day(seed):
    return np.random.default_rng(seed).uniform(-1, 1, (EPISODE_STEPS, N_AGENTS, ACTION_DIM))


class TestEncodeDay:
    def test_zero_scenario_encodes_to_zero(self):
        zero = generate_scenario(ScenarioSpec(amplitude=0.0))
        states = encode_day(zero, compute_scales(zero))
        assert states.shape == (EPISODE_STEPS, STATE_DIM)
        assert np.all(states == 0.0)

    def test_scale_normalizes_to_one(self, scenario):
        scales = compute_scales(scenario)
        t = int(np.argmax(scenario.p_load[0]))
        assert encode_day(scenario, scales)[t, 0] == pytest.approx(1.0)

    def test_permuting_communities_permutes_blocks(self, scenario):
        perm = [2, 0, 1]
        swapped = ScenarioData(
            p_load=scenario.p_load[perm],
            h_load=scenario.h_load[perm],
            w_load=scenario.w_load[perm],
            p_wind=scenario.p_wind[perm],
        )
        scales = compute_scales(scenario)
        states = encode_day(scenario, scales)
        swapped_states = encode_day(swapped, scales[perm])
        for new_pos, old_pos in enumerate(perm):
            np.testing.assert_allclose(
                swapped_states[:, 4 * new_pos : 4 * new_pos + 4],
                states[:, 4 * old_pos : 4 * old_pos + 4],
            )

    def test_observation_slicing(self, scenario):
        states = encode_day(scenario, compute_scales(scenario))
        own = day_observations(states, "own")
        assert own.shape == (N_AGENTS, EPISODE_STEPS, 4)
        np.testing.assert_array_equal(own[1], states[:, 4:8])
        np.testing.assert_array_equal(day_observations(states, "full")[1], states)
        with pytest.raises(ValueError):
            day_observations(states, "partial")

    def test_env_holds_read_only_states(self, scenario):
        env = DispatchEnv(scenario, SYS, observation="full")
        np.testing.assert_array_equal(env.states, encode_day(scenario, compute_scales(scenario)))
        assert env.observations.shape == (N_AGENTS, EPISODE_STEPS, STATE_DIM)
        for array in (env.states, env.observations):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_env_rejects_unknown_settings(self, scenario):
        with pytest.raises(ValueError):
            DispatchEnv(scenario, SYS, mode="solo")
        with pytest.raises(ValueError):
            DispatchEnv(scenario, SYS, observation="partial")


class TestDecodeAction:
    def test_lower_endpoint(self):
        d = decode(np.full(ACTION_DIM, -1.0))
        assert d[P_CHP] == CFG.chp.p_min
        assert d[B_CHP] == CFG.chp.b_min
        assert d[P_TP] == CFG.ro.p_tp_min
        assert d[W_RATE] == 0.0
        assert d[P_GT] == CFG.gt.out_min
        assert d[H_GB] == CFG.gb.out_min
        assert d[P_EXCH] == -LIMITS.p_max
        assert d[H_EXCH] == -LIMITS.h_max

    def test_upper_endpoint(self):
        d = decode(np.full(ACTION_DIM, 1.0))
        assert d[P_CHP] == 5000.0
        assert d[B_CHP] == 1.4
        assert d[P_EXCH] == 1000.0

    def test_midpoint(self):
        d = decode(np.zeros(ACTION_DIM))
        assert d[P_CHP] == pytest.approx(3000.0)
        assert d[P_EXCH] == pytest.approx(0.0)

    def test_out_of_box_actions_clamped_first(self):
        assert decode(np.full(ACTION_DIM, 9.0))[P_CHP] == 5000.0

    def test_affine_map_is_bijective_on_box(self):
        lo, hi = setpoint_box(fleet_of((CFG,)), LIMITS, 1.0)
        actions = np.random.default_rng(0).uniform(-1.0, 1.0, (100, 1, ACTION_DIM))
        recovered = 2.0 * (affine_setpoints(actions, lo, hi) - lo) / (hi - lo) - 1.0
        np.testing.assert_allclose(recovered, actions, atol=1e-12)

    def test_joint_decode_projects_or_masks_the_exchanges(self):
        actions = np.random.default_rng(4).uniform(-1.6, 1.6, (500, N_AGENTS, ACTION_DIM))
        x = decode_joint(actions, SYS, "coordinated")
        for k, bound in ((P_EXCH, LIMITS.p_max), (H_EXCH, LIMITS.h_max)):
            assert np.abs(sum_last(x[..., k])).max() < 1e-9
            assert (sum_last(np.abs(x[..., k])) <= 2.0 * bound + 1e-9).all()
        masked = decode_joint(actions, SYS, "independent")
        assert (masked[..., P_EXCH:] == 0.0).all()
        np.testing.assert_array_equal(masked[..., :P_EXCH], x[..., :P_EXCH])
        with pytest.raises(ValueError):
            decode_joint(actions, SYS, "solo")


class TestReward:
    def test_team_reward_formula(self, scenario):
        params = RewardParams(z=2e4, u=7.0, kappa=1.5)
        day = evaluate_day(scenario, random_day(1), SYS, params)
        penalty = sum_last(day.balance.penalty)
        assert (day.team_reward == params.u - (sum_last(day.cost) + params.kappa * penalty) / params.z).all()
        assert (day.agent_reward == params.u - (day.cost + params.kappa * day.balance.penalty) / params.z).all()

    def test_doubling_z_halves_cost_term(self, scenario):
        actions = random_day(2)
        lo = evaluate_day(scenario, actions, SYS, RewardParams(z=1e5)).team_reward
        hi = evaluate_day(scenario, actions, SYS, RewardParams(z=2e5)).team_reward
        np.testing.assert_allclose(10.0 - hi, (10.0 - lo) / 2.0, rtol=1e-12)

    def test_never_exceeds_offset(self, scenario):
        params = RewardParams()
        for seed in range(5):
            day = evaluate_day(scenario, random_day(seed), SYS, params, "independent")
            assert (day.team_reward <= params.u).all()
            assert (day.agent_reward <= params.u).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RewardParams(z=0.0)
        with pytest.raises(ValueError):
            RewardParams(kappa=-1.0)


class TestEvaluateDay:
    def test_one_row_per_step(self, scenario):
        day = evaluate_day(scenario, np.zeros((EPISODE_STEPS, N_AGENTS, ACTION_DIM)), SYS, RewardParams())
        assert day.setpoints.shape == (EPISODE_STEPS, N_AGENTS, ACTION_DIM)
        assert day.team_reward.shape == (EPISODE_STEPS,)
        for array in (day.wind, day.cost, day.agent_reward, *day.balance):
            assert array.shape == (EPISODE_STEPS, N_AGENTS)

    def test_independent_mode_masks_exchanges(self, scenario):
        day = evaluate_day(scenario, random_day(3), SYS, RewardParams(), "independent")
        assert (day.setpoints[..., P_EXCH:] == 0.0).all()

    def test_exchanges_projected_zero_sum(self, scenario):
        day = evaluate_day(scenario, random_day(4), SYS, RewardParams())
        assert np.abs(sum_last(day.setpoints[..., P_EXCH])).max() < 1e-9
        assert np.abs(sum_last(day.setpoints[..., H_EXCH])).max() < 1e-9

    def test_deterministic(self, scenario):
        actions = random_day(5)
        a = evaluate_day(scenario, actions, SYS, RewardParams())
        b = evaluate_day(scenario, actions.copy(), SYS, RewardParams())
        for x, y in zip((a.setpoints, a.team_reward, a.cost, *a.balance), (b.setpoints, b.team_reward, b.cost, *b.balance)):
            np.testing.assert_array_equal(x, y)

    def test_symmetric_scenario_produces_equal_blocks(self):
        uniform = generate_scenario(ScenarioSpec(profile="uniform"))
        day = evaluate_day(uniform, np.zeros((EPISODE_STEPS, N_AGENTS, ACTION_DIM)), SYS, RewardParams())
        np.testing.assert_allclose(day.cost, day.cost[:, :1].repeat(N_AGENTS, axis=1))
        np.testing.assert_allclose(day.balance.penalty, day.balance.penalty[:, :1].repeat(N_AGENTS, axis=1))

    def test_wind_used_bounded_by_available(self, scenario):
        day = evaluate_day(scenario, random_day(6), SYS, RewardParams())
        used = day.wind - day.balance.curtailed
        assert (used >= -1e-9).all() and (used <= day.wind + 1e-9).all()
        np.testing.assert_array_equal(day.wind, scenario.p_wind.T)


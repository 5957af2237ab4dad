"""Learner tests: densities, ratios, surrogate, advantages, training loop."""

import math

import numpy as np
import pytest

from iesdispatch import learner
from iesdispatch.env import DispatchEnv, RewardParams
from iesdispatch.learner import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Checkpoint,
    Critic,
    GaussianActor,
    RewardMonitor,
    TrainConfig,
    TrainingDiverged,
    actor_loss_and_grads,
    clipped_surrogate,
    critic_loss_and_grads,
    gae_advantages,
    gaussian_log_prob,
    greedy_day,
    load_checkpoint,
    normalize_advantages,
    prob_ratio,
    sample_action,
    save_checkpoint,
    train_independent,
    train_mappo,
)
from iesdispatch.scenario import ScenarioSpec, generate_scenario
from iesdispatch.system import P_EXCH, default_system_config

SYS = default_system_config()


def small_env(mode="coordinated"):
    return DispatchEnv(generate_scenario(ScenarioSpec()), SYS, RewardParams(kappa=1.5), mode=mode)


class TestGaussianDensity:
    def test_log_prob_at_mean(self):
        mean = np.zeros(4)
        log_std = np.array([-0.5, 0.0, 0.3, -1.0])
        lp = gaussian_log_prob(mean, log_std, mean)
        expected = -float(np.sum(log_std)) - 2.0 * math.log(2.0 * math.pi)
        assert lp == pytest.approx(expected, rel=1e-12)

    def test_sampling_deterministic_per_seed(self):
        mean = np.array([0.3, -0.2])
        log_std = np.array([-1.0, -0.5])
        a1, lp1 = sample_action(mean, log_std, np.random.default_rng(9))
        a2, lp2 = sample_action(mean, log_std, np.random.default_rng(9))
        np.testing.assert_array_equal(a1, a2)
        assert lp1 == lp2

    def test_degenerate_std_returns_mean(self):
        mean = np.array([0.4, -0.8])
        action, _ = sample_action(mean, np.full(2, -100.0), np.random.default_rng(0))
        np.testing.assert_array_equal(action, mean)

    def test_one_day_draw_equals_draws_step_by_step(self):
        rng = np.random.default_rng(1)
        mean = rng.normal(size=(24, 3, 8))
        log_std = rng.uniform(-2.0, 0.0, (3, 8))
        actions, log_probs = sample_action(mean, log_std, np.random.default_rng(9))
        step_rng = np.random.default_rng(9)
        for t in range(24):
            for k in range(3):
                action, log_prob = sample_action(mean[t, k], log_std[k], step_rng)
                np.testing.assert_array_equal(actions[t, k], action)
                assert log_probs[t, k] == log_prob


class TestProbRatio:
    def test_identical_policies_give_exactly_one(self):
        rng = np.random.default_rng(0)
        actor = GaussianActor(4, 8, rng=rng)
        obs = rng.standard_normal((1000, 4))
        actions = rng.standard_normal((1000, 8))
        lp = actor.log_probs(obs, actions)
        assert np.all(prob_ratio(lp, lp.copy()) == 1.0)

    def test_log_two_doubles(self):
        assert prob_ratio(np.array([math.log(2.0)]), np.array([0.0]))[0] == pytest.approx(2.0, rel=1e-12)

    def test_quarter(self):
        assert prob_ratio(np.array([-math.log(4.0)]), np.array([0.0]))[0] == pytest.approx(0.25, rel=1e-12)

    def test_overflow_guard(self):
        assert np.isfinite(prob_ratio(np.array([1e5]), np.array([0.0])))[0]


class TestClippedSurrogate:
    def test_unclipped(self):
        assert clipped_surrogate(np.array([1.0]), np.array([1.0]), 0.2) == pytest.approx(-1.0)

    def test_clip_active_above(self):
        assert clipped_surrogate(np.array([2.0]), np.array([1.0]), 0.2) == pytest.approx(-1.2)

    def test_clip_active_below_with_negative_advantage(self):
        assert clipped_surrogate(np.array([0.5]), np.array([-1.0]), 0.2) == pytest.approx(0.8)

    def test_pessimistic_bound_for_positive_advantage(self):
        rng = np.random.default_rng(0)
        ratios = rng.uniform(0.0, 3.0, 500)
        advs = rng.uniform(0.0, 2.0, 500)
        loss = clipped_surrogate(ratios, advs, 0.2)
        assert loss >= -float(np.mean(ratios * advs))


class TestGae:
    def test_all_zero(self):
        adv, ret = gae_advantages(np.zeros(5), np.zeros(5), 0.99, 0.95)
        np.testing.assert_array_equal(adv, np.zeros(5))
        np.testing.assert_array_equal(ret, np.zeros(5))

    def test_undiscounted_suffix_sums(self):
        adv, _ = gae_advantages([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1.0, 1.0)
        np.testing.assert_allclose(adv, [3.0, 2.0, 1.0])

    def test_lambda_zero_gives_td_errors(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(10)
        values = rng.standard_normal(10)
        adv, _ = gae_advantages(rewards, values, 0.9, 0.0)
        expected = np.empty(10)
        for t in range(10):
            next_v = values[t + 1] if t < 9 else 0.0
            expected[t] = rewards[t] + 0.9 * next_v - values[t]
        np.testing.assert_allclose(adv, expected, atol=1e-12)

    def test_reward_to_go_identity(self):
        rng = np.random.default_rng(1)
        rewards = rng.standard_normal(24)
        values = rng.standard_normal(24)
        adv, ret = gae_advantages(rewards, values, 1.0, 1.0)
        to_go = np.cumsum(rewards[::-1])[::-1]
        np.testing.assert_allclose(adv, to_go - values, atol=1e-9)
        np.testing.assert_allclose(ret, to_go, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gae_advantages(np.zeros(3), np.zeros(4), 0.9, 0.9)

    def test_normalization(self):
        adv = normalize_advantages(np.array([1.0, 2.0, 3.0, 4.0]))
        assert adv.mean() == pytest.approx(0.0, abs=1e-12)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)


def assert_close_relative(new, tiled, rel=1e-12):
    """Each array within ``rel`` of its tiled counterpart, relative to the
    largest entry of that array."""
    new, tiled = np.asarray(new), np.asarray(tiled)
    assert new.shape == tiled.shape
    assert np.max(np.abs(new - tiled)) <= rel * np.max(np.abs(tiled))


def episode_batch(seed, episodes):
    """An actor with one log-std entry above and one below its clamp band,
    a critic, the day's 24 rows and (E, 24, ...) episode arrays whose
    ratios fall inside and outside the clip band."""
    rng = np.random.default_rng(seed)
    actor = GaussianActor(4, 8, rng=rng)
    actor.net.w3[...] = rng.standard_normal(actor.net.w3.shape) * 0.3
    actor.log_std[...] = rng.uniform(-1.5, 0.3, 8)
    actor.log_std[2] = LOG_STD_MAX + 0.5
    actor.log_std[5] = LOG_STD_MIN - 1.0
    critic = Critic(4, rng=rng)
    obs = rng.uniform(0.0, 1.5, (24, 4))
    actions = rng.standard_normal((episodes, 24, 8))
    log_prob_old = actor.log_probs(obs, actions) + rng.uniform(-0.5, 0.5, (episodes, 24))
    advantages = rng.standard_normal((episodes, 24))
    returns = rng.standard_normal((episodes, 24))
    return actor, critic, obs, actions, log_prob_old, advantages, returns


class TestEpisodeAxis:
    """Losses on the day's 24 rows with leading episode axes against the
    same losses on the E x 24 rows tiled episode-major."""

    @pytest.mark.parametrize("episodes", [1, 4, 5])
    def test_equals_the_tiled_rows(self, episodes):
        actor, critic, obs, actions, lp_old, advantages, returns = episode_batch(episodes, episodes)
        ratio = np.exp(actor.log_probs(obs, actions) - lp_old)
        assert ((ratio > 0.8) & (ratio < 1.2)).any() and ((ratio < 0.8) | (ratio > 1.2)).any()
        tiled_obs = np.tile(obs, (episodes, 1))
        flat = [x.reshape(episodes * 24, *x.shape[2:]) for x in (actions, lp_old, advantages, returns)]

        new = (
            actor_loss_and_grads(actor, obs, actions, lp_old, advantages, 0.2),
            critic_loss_and_grads(critic, obs, returns),
        )
        tiled = (
            actor_loss_and_grads(actor, tiled_obs, flat[0], flat[1], flat[2], 0.2),
            critic_loss_and_grads(critic, tiled_obs, flat[3]),
        )
        for (loss, grads), (tiled_loss, tiled_grads) in zip(new, tiled):
            assert list(grads) == list(tiled_grads)
            if episodes == 1:
                assert loss == tiled_loss
                assert np.array_equal(grads.vector, tiled_grads.vector)
            assert_close_relative(loss, tiled_loss)
            for name in grads:
                assert_close_relative(grads[name], tiled_grads[name])
        assert new[0][1]["log_std"][2] == 0.0 and new[0][1]["log_std"][5] == 0.0

    def test_loss_gradients_do_not_alias(self):
        """Gradients from one call survive a later call on the same networks."""
        actor, critic, obs, actions, lp_old, advantages, returns = episode_batch(0, 4)
        _, actor_grads = actor_loss_and_grads(actor, obs, actions, lp_old, advantages, 0.2)
        _, critic_grads = critic_loss_and_grads(critic, obs, returns)
        kept = actor_grads.vector.copy(), critic_grads.vector.copy()
        actor_loss_and_grads(actor, obs, actions[::-1], lp_old, -advantages, 0.2)
        critic_loss_and_grads(critic, obs, -returns)
        np.testing.assert_array_equal(actor_grads.vector, kept[0])
        np.testing.assert_array_equal(critic_grads.vector, kept[1])
        for grads in (actor_grads, critic_grads):
            for name, grad in grads.items():
                assert np.shares_memory(grad, grads.vector), name


class TestRewardMonitor:
    def test_nan_aborts(self):
        monitor = RewardMonitor()
        with pytest.raises(TrainingDiverged):
            monitor.observe(float("nan"), 0)

    def test_sustained_collapse_aborts(self):
        monitor = RewardMonitor(window=5, drop_fraction=0.5)
        monitor.observe(0.0, 0)
        monitor.observe(10.0, 1)
        with pytest.raises(TrainingDiverged):
            for ep in range(2, 20):
                monitor.observe(1.0, ep)

    def test_recovery_resets_streak(self):
        monitor = RewardMonitor(window=5, drop_fraction=0.5)
        monitor.observe(0.0, 0)
        monitor.observe(10.0, 1)
        for ep in range(2, 40):
            monitor.observe(1.0 if ep % 4 else 9.0, ep)


class TestTrainingLoop:
    def test_zero_learning_rate_keeps_parameters_and_flat_reward(self):
        env = small_env()
        cfg = TrainConfig(actor_lr=0.0, critic_lr=0.0, episodes=8, seed=3)
        result = train_mappo(env, cfg)
        fresh = np.random.default_rng(3)
        reference = GaussianActor(4, 8, rng=fresh)
        for name, arr in result.actors[0].params().items():
            np.testing.assert_array_equal(arr, reference.params()[name])
        rewards = [row.mean_reward for row in result.log]
        # identical policy throughout, so episodes differ only through
        # sampling noise; parameters did not move
        assert len(rewards) == 8

    def test_smoke_run_improves(self):
        env = small_env()
        cfg = TrainConfig(actor_lr=3e-4, critic_lr=1e-3, episodes=200, discount=0.0, epochs_per_update=8, seed=0)
        result = train_mappo(env, cfg)
        rewards = [row.mean_reward for row in result.log]
        assert np.mean(rewards[-50:]) >= np.mean(rewards[:50])

    def test_seed_determinism(self):
        cfg = TrainConfig(actor_lr=3e-4, critic_lr=1e-3, episodes=12, seed=11)
        log_a = train_mappo(small_env(), cfg).log
        log_b = train_mappo(small_env(), cfg).log
        assert [(r.mean_reward, r.total_cost, r.total_penalty) for r in log_a] == [
            (r.mean_reward, r.total_cost, r.total_penalty) for r in log_b
        ]

    def test_independent_mode_has_zero_exchanges_and_three_critics(self):
        env = small_env(mode="independent")
        cfg = TrainConfig(actor_lr=3e-4, critic_lr=1e-3, episodes=8, seed=5)
        result = train_independent(env, cfg)
        assert len(result.critics) == 3
        day = greedy_day(env, result.actors)
        assert (day.setpoints[..., P_EXCH:] == 0.0).all()

    def test_trailing_episodes_are_trained_on(self, monkeypatch):
        batches = []
        real_update = learner._update

        def counting_update(*args):
            batches.append(len(args[4]))
            real_update(*args)

        monkeypatch.setattr(learner, "_update", counting_update)
        train_mappo(small_env(), TrainConfig(episodes=7, batch=96, seed=0))
        assert batches == [4, 3]

    def test_nan_team_reward_names_its_episode(self, monkeypatch):
        days = []
        real_evaluate_day = learner.evaluate_day

        def evaluate_day(*args):
            day = real_evaluate_day(*args)
            days.append(day)
            if len(days) == 6:
                day.team_reward[3] = float("nan")
            return day

        monkeypatch.setattr(learner, "evaluate_day", evaluate_day)
        with pytest.raises(TrainingDiverged, match=r"^episode 5: mean reward is nan$"):
            train_mappo(small_env(), TrainConfig(episodes=12, batch=96, seed=0))

    def test_independent_requires_independent_env(self):
        with pytest.raises(ValueError):
            train_independent(small_env(mode="coordinated"), TrainConfig(episodes=1))

    def test_mappo_uses_one_critic_over_global_state(self):
        env = small_env()
        result = train_mappo(env, TrainConfig(episodes=4, seed=0))
        assert len(result.critics) == 1
        assert result.critics[0].net.in_dim == 12

    def test_full_observability_option(self):
        env = DispatchEnv(
            generate_scenario(ScenarioSpec()), SYS, RewardParams(kappa=1.5), observation="full"
        )
        result = train_mappo(env, TrainConfig(episodes=4, seed=0))
        assert result.actors[0].net.in_dim == 12
        assert greedy_day(env, result.actors).setpoints.shape == (24, 3, 8)

    def test_greedy_day_deterministic(self):
        env = small_env()
        result = train_mappo(env, TrainConfig(episodes=8, seed=2))
        a = greedy_day(env, result.actors)
        b = greedy_day(env, result.actors)
        np.testing.assert_array_equal(a.setpoints, b.setpoints)
        np.testing.assert_array_equal(a.cost, b.cost)
        assert a.cost.shape == (24, 3)


def assert_params_view_the_vector(networks):
    for net in networks:
        vector = net.net.vector
        params = net.params()
        assert sum(p.size for p in params.values()) == vector.size
        for name, arr in params.items():
            assert np.shares_memory(arr, vector), name
        if isinstance(net, GaussianActor):
            assert np.shares_memory(net.log_std, params["log_std"])


class TestFlatParameters:
    def test_views_after_construction_training_and_loading(self, tmp_path):
        env = small_env(mode="independent")
        rng = np.random.default_rng(0)
        assert_params_view_the_vector([GaussianActor(4, 8, rng=rng), Critic(4, rng=rng), GaussianActor(4, 8)])
        result = train_independent(env, TrainConfig(actor_lr=3e-4, critic_lr=1e-3, episodes=8, seed=5))
        assert_params_view_the_vector(result.actors + result.critics)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result, "h1", "h2")
        ckpt = load_checkpoint(path)
        assert_params_view_the_vector(ckpt.actors + ckpt.critics)
        for loaded, trained in zip(ckpt.actors + ckpt.critics, result.actors + result.critics):
            np.testing.assert_array_equal(loaded.net.vector, trained.net.vector)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_policy(self, tmp_path):
        env = small_env()
        result = train_mappo(env, TrainConfig(episodes=4, seed=7))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result, config_hash="abc", scenario_hash="def")
        ckpt = load_checkpoint(path)
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.mode == "coordinated"
        assert ckpt.config_hash == "abc"
        obs = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_array_equal(ckpt.actors[0].net.forward(obs)[0], result.actors[0].net.forward(obs)[0])
        np.testing.assert_array_equal(ckpt.scales, result.scales)

    def test_bytes_deterministic(self, tmp_path):
        env = small_env()
        result = train_mappo(env, TrainConfig(episodes=4, seed=7))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, result, "h1", "h2")
        save_checkpoint(p2, result, "h1", "h2")
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestTrainConfigValidation:
    def test_defaults_are_reference_settings(self):
        cfg = TrainConfig()
        assert cfg.actor_lr == 4e-5
        assert cfg.critic_lr == 4e-4
        assert cfg.batch == 96
        assert cfg.episodes == 25000

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            TrainConfig(clip_eps=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch=0)
        with pytest.raises(ValueError):
            TrainConfig(discount=1.5)
        with pytest.raises(ValueError):
            TrainConfig(actor_lr=-1e-4)

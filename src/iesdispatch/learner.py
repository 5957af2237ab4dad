"""Policy optimization for the dispatch environment, written from scratch.

Per-agent diagonal-Gaussian actors over the 8-entry action box, trained
with a clipped-surrogate objective on generalized-advantage estimates.
Two trainers share the machinery: the coordinated one keeps one critic
over the global state for all agents (centralized training, decentralized
execution), the independent one keeps a fully separate actor-critic pair
per community with exchanges masked off in the environment and each
community optimizing its own cost.  Single-worker and fully deterministic
for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .env import (
    ACTION_DIM,
    EPISODE_STEPS,
    MODES,
    N_AGENTS,
    OBSERVATION_MODES,
    STATE_DIM,
    DispatchEnv,
    RewardParams,
    StepRecord,
    day_total,
    evaluate_day,
    observation_dim,
)
from .nets import HIDDEN_UNITS, Adam, Mlp, clip_grads_

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_STD_INIT = -1.2
# Exploration noise adapts on its own, faster schedule than the means: the
# per-parameter optimizer normalizes away gradient scale, so the log-std
# entries get their own learning rate.
LOG_STD_LR_MULT = 8.0
RATIO_EXP_CLAMP = 20.0
MAX_GRAD_NORM = 0.5
ADV_EPS = 1e-8
CHECKPOINT_VERSION = 1
_LOG_2PI = math.log(2.0 * math.pi)


class TrainingDiverged(RuntimeError):
    """Raised when the reward trace collapses or turns NaN."""


@dataclass
class TrainConfig:
    """Training hyperparameters; the defaults are the reference settings."""

    actor_lr: float = 4e-5
    critic_lr: float = 4e-4
    batch: int = 96
    episodes: int = 25000
    clip_eps: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs_per_update: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.actor_lr < 0.0 or self.critic_lr < 0.0:
            raise ValueError("learning rates must be nonnegative")
        for name in ("batch", "episodes", "epochs_per_update"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError(f"clip_eps must be in (0, 1), got {self.clip_eps}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Exact log-density of a diagonal Gaussian; batched over leading axis."""
    mean = np.asarray(mean, dtype=float)
    action = np.asarray(action, dtype=float)
    log_std = np.asarray(log_std, dtype=float)
    z = (action - mean) * np.exp(-log_std)
    dim = mean.shape[-1]
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_std, axis=-1) - 0.5 * dim * _LOG_2PI


def sample_action(
    mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw actions and their log-densities; callers clamp log_std first.

    Batched over the leading axes of ``mean``.  The noise is one draw of
    ``mean``'s shape, which consumes the generator in C order: a (24, 3, 8)
    draw yields the numbers that 72 draws of 8, step by step and agent by
    agent, would.
    """
    mean = np.asarray(mean, dtype=float)
    noise = rng.standard_normal(mean.shape)
    action = mean + np.exp(log_std) * noise
    return action, gaussian_log_prob(mean, log_std, action)


def prob_ratio(log_prob_new: np.ndarray, log_prob_old: np.ndarray) -> np.ndarray:
    """exp(new - old), with the exponent clamped against overflow."""
    diff = np.clip(
        np.asarray(log_prob_new, dtype=float) - np.asarray(log_prob_old, dtype=float),
        -RATIO_EXP_CLAMP,
        RATIO_EXP_CLAMP,
    )
    return np.exp(diff)


def clipped_surrogate(ratio: np.ndarray, advantage: np.ndarray, clip_eps: float) -> float:
    """Batch-mean pessimistic policy loss: -min(r*A, clip(r)*A)."""
    ratio = np.asarray(ratio, dtype=float)
    advantage = np.asarray(advantage, dtype=float)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    return float(-np.minimum(ratio * advantage, clipped * advantage).mean())


def gae_advantages(
    rewards: Sequence[float],
    values: Sequence[float],
    discount: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates over one complete episode.

    The terminal bootstrap value is zero.  Returns the raw (unnormalized)
    advantages and the value targets advantages + values.  With
    discount = gae_lambda = 1 the advantages are exactly reward-to-go
    minus value; with gae_lambda = 0 they degenerate to one-step TD
    errors.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ValueError(f"rewards and values lengths differ: {rewards.shape} vs {values.shape}")
    advantages = np.empty_like(rewards)
    running = 0.0
    next_value = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + discount * next_value - values[t]
        running = delta + discount * gae_lambda * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    advantages = np.asarray(advantages, dtype=float)
    return (advantages - advantages.mean()) / (advantages.std() + ADV_EPS)


class GaussianActor:
    """ 128x128 tanh trunk producing the action mean, plus a learned,
    state-independent log standard deviation per action entry."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int = ACTION_DIM,
        rng: np.random.Generator | None = None,
        hidden: int = HIDDEN_UNITS,
    ) -> None:
        self.net = Mlp(obs_dim, act_dim, hidden, rng)
        self.log_std = np.full(act_dim, LOG_STD_INIT)

    def clamped_log_std(self) -> np.ndarray:
        return np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        return self.net.forward(obs)[0][0]

    def log_probs(self, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        mean, _ = self.net.forward(obs)
        return gaussian_log_prob(mean, self.clamped_log_std(), actions)

    def params(self) -> dict[str, np.ndarray]:
        out = dict(self.net.params())
        out["log_std"] = self.log_std
        return out


class Critic:
    """State-value network with the same trunk and a scalar head."""

    def __init__(
        self,
        obs_dim: int,
        rng: np.random.Generator | None = None,
        hidden: int = HIDDEN_UNITS,
    ) -> None:
        self.net = Mlp(obs_dim, 1, hidden, rng, out_gain=1.0)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


def actor_loss_and_grads(
    actor: GaussianActor,
    obs: np.ndarray,
    actions: np.ndarray,
    log_prob_old: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Clipped-surrogate loss and its exact gradients for one actor."""
    mean, cache = actor.net.forward(obs)
    log_std = actor.clamped_log_std()
    lp_new = gaussian_log_prob(mean, log_std, actions)
    ratio = prob_ratio(lp_new, log_prob_old)
    loss = clipped_surrogate(ratio, advantages, clip_eps)

    inv_std = np.exp(-log_std)
    z = (actions - mean) * inv_std
    batch = len(advantages)
    through_raw = ratio * advantages <= np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    inside_band = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    dmin_dratio = np.where(through_raw, advantages, advantages * inside_band)
    dratio_dlp = np.where(np.abs(lp_new - log_prob_old) < RATIO_EXP_CLAMP, ratio, 0.0)
    dlp = -(dmin_dratio * dratio_dlp) / batch
    dmean = dlp[:, None] * (z * inv_std)
    grads = actor.net.backward(cache, dmean)
    in_range = (actor.log_std >= LOG_STD_MIN) & (actor.log_std <= LOG_STD_MAX)
    grads["log_std"] = (dlp[:, None] * (z * z - 1.0)).sum(axis=0) * in_range
    return loss, grads


def critic_loss_and_grads(
    critic: Critic, obs: np.ndarray, returns: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error against the value targets, with gradients."""
    out, cache = critic.net.forward(obs)
    err = out[:, 0] - returns
    loss = float(np.mean(err * err))
    grads = critic.net.backward(cache, (2.0 / len(err)) * err[:, None])
    return loss, grads


def log_prob_loss_and_grads(
    actor: GaussianActor, obs: np.ndarray, actions: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean log-density of given actions and its exact gradients.

    Diagnostic companion to the surrogate loss; also the objective one
    would use to imitate recorded dispatch decisions.
    """
    mean, cache = actor.net.forward(obs)
    log_std = actor.clamped_log_std()
    lp = gaussian_log_prob(mean, log_std, actions)
    loss = float(lp.mean())
    inv_std = np.exp(-log_std)
    z = (actions - mean) * inv_std
    batch = len(lp)
    dmean = (z * inv_std) / batch
    grads = actor.net.backward(cache, dmean)
    in_range = (actor.log_std >= LOG_STD_MIN) & (actor.log_std <= LOG_STD_MAX)
    grads["log_std"] = ((z * z - 1.0) / batch).sum(axis=0) * in_range
    return loss, grads


class RewardMonitor:
    """Divergence detector over the per-episode mean reward trace."""

    def __init__(self, window: int = 500, drop_fraction: float = 0.5) -> None:
        self.window = window
        self.drop_fraction = drop_fraction
        self.best = -math.inf
        self.worst = math.inf
        self.streak = 0

    def observe(self, mean_reward: float, episode: int) -> None:
        if math.isnan(mean_reward) or math.isinf(mean_reward):
            raise TrainingDiverged(f"episode {episode}: mean reward is {mean_reward}")
        self.best = max(self.best, mean_reward)
        self.worst = min(self.worst, mean_reward)
        span = self.best - self.worst
        if span > 0.0 and mean_reward < self.best - self.drop_fraction * span:
            self.streak += 1
        else:
            self.streak = 0
        if self.streak >= self.window:
            raise TrainingDiverged(
                f"episode {episode}: mean reward stayed more than "
                f"{self.drop_fraction:.0%} of its range below the best value "
                f"for {self.window} consecutive episodes"
            )


@dataclass
class LogRow:
    """One line of the training log, aggregated over an episode."""

    episode: int
    mean_reward: float
    total_cost: float
    total_penalty: float
    curtailment_kwh: float


@dataclass
class TrainResult:
    mode: str
    observation: str
    actors: list[GaussianActor]
    critics: list[Critic]
    scales: np.ndarray
    reward_params: RewardParams
    cfg: TrainConfig
    log: list[LogRow]


class _Episode:
    """Arrays for one complete episode, the unit entering the buffer."""

    __slots__ = ("states", "obs", "actions", "log_probs", "team_rewards", "agent_rewards", "values")

    def __init__(self, states, obs, actions, log_probs, team_rewards, agent_rewards, values):
        self.states = states
        self.obs = obs
        self.actions = actions
        self.log_probs = log_probs
        self.team_rewards = team_rewards
        self.agent_rewards = agent_rewards
        self.values = values


def _collect_episode(
    env: DispatchEnv,
    actors: list[GaussianActor],
    critics: list[Critic],
    rng: np.random.Generator,
    independent: bool,
) -> tuple[_Episode, LogRow]:
    """Sample and evaluate one day in a single pass over its 24 known states.

    The loads and wind do not depend on the actions, so every state is known
    before the first action: one forward per network over all steps, one
    noise draw and one ``evaluate_day``.  Each number equals the one a
    step-by-step rollout would produce (see ``Mlp.forward_rows`` and
    ``sample_action``), so training is unchanged bit for bit.
    """
    obs = env.observations
    means = np.stack([actor.net.forward_rows(obs[k]) for k, actor in enumerate(actors)], axis=1)
    log_std = np.stack([actor.clamped_log_std() for actor in actors])
    actions, log_probs = sample_action(means, log_std, rng)
    critic_inputs = obs if independent else [env.states]
    values = np.stack([critic.net.forward_rows(x)[:, 0] for critic, x in zip(critics, critic_inputs)])
    day = evaluate_day(env.scenario, actions, env.system_cfg, env.reward_params, env.mode, env.dt)
    row_stats = LogRow(
        episode=-1,
        mean_reward=float(day.team_reward.mean()),
        total_cost=day_total(day.cost),
        total_penalty=day_total(day.balance.penalty),
        curtailment_kwh=day_total(day.balance.curtailed) * env.dt,
    )
    episode = _Episode(
        env.states,
        obs,
        actions.transpose(1, 0, 2),
        log_probs.T,
        day.team_reward,
        day.agent_reward.T,
        values,
    )
    return episode, row_stats


def _update(
    actors: list[GaussianActor],
    critics: list[Critic],
    actor_opts: list[Adam],
    critic_opts: list[Adam],
    buffer: list[_Episode],
    cfg: TrainConfig,
    independent: bool,
) -> None:
    states = np.concatenate([ep.states for ep in buffer])
    obs = [np.concatenate([ep.obs[k] for ep in buffer]) for k in range(N_AGENTS)]
    actions = [np.concatenate([ep.actions[k] for ep in buffer]) for k in range(N_AGENTS)]
    log_probs_old = [np.concatenate([ep.log_probs[k] for ep in buffer]) for k in range(N_AGENTS)]

    n_streams = N_AGENTS if independent else 1
    advantages: list[np.ndarray] = []
    returns: list[np.ndarray] = []
    for s in range(n_streams):
        adv_parts = []
        ret_parts = []
        for ep in buffer:
            rewards = ep.agent_rewards[s] if independent else ep.team_rewards
            adv, ret = gae_advantages(rewards, ep.values[s], cfg.discount, cfg.gae_lambda)
            adv_parts.append(adv)
            ret_parts.append(ret)
        advantages.append(normalize_advantages(np.concatenate(adv_parts)))
        returns.append(np.concatenate(ret_parts))

    for _ in range(cfg.epochs_per_update):
        for k in range(N_AGENTS):
            adv = advantages[k] if independent else advantages[0]
            _, grads = actor_loss_and_grads(
                actors[k], obs[k], actions[k], log_probs_old[k], adv, cfg.clip_eps
            )
            clip_grads_(grads, MAX_GRAD_NORM)
            actor_opts[k].step(grads)
        for ci, critic in enumerate(critics):
            inputs = obs[ci] if independent else states
            _, grads = critic_loss_and_grads(critic, inputs, returns[ci])
            clip_grads_(grads, MAX_GRAD_NORM)
            critic_opts[ci].step(grads)


def _train(env: DispatchEnv, cfg: TrainConfig, independent: bool) -> TrainResult:
    rng = np.random.default_rng(cfg.seed)
    obs_dim = observation_dim(env.observation)
    actors = [GaussianActor(obs_dim, ACTION_DIM, rng) for _ in range(N_AGENTS)]
    if independent:
        critics = [Critic(obs_dim, rng) for _ in range(N_AGENTS)]
    else:
        critics = [Critic(STATE_DIM, rng)]
    actor_opts = [
        Adam(actor.params(), cfg.actor_lr, lr_overrides={"log_std": LOG_STD_LR_MULT * cfg.actor_lr})
        for actor in actors
    ]
    critic_opts = [Adam(critic.params(), cfg.critic_lr) for critic in critics]

    monitor = RewardMonitor()
    buffer: list[_Episode] = []
    buffered_steps = 0
    log: list[LogRow] = []
    for episode in range(cfg.episodes):
        ep, stats = _collect_episode(env, actors, critics, rng, independent)
        buffer.append(ep)
        buffered_steps += EPISODE_STEPS
        if buffered_steps >= cfg.batch:
            _update(actors, critics, actor_opts, critic_opts, buffer, cfg, independent)
            buffer.clear()
            buffered_steps = 0
        stats.episode = episode
        log.append(stats)
        monitor.observe(stats.mean_reward, episode)
    if buffer:  # the episodes after the last full batch
        _update(actors, critics, actor_opts, critic_opts, buffer, cfg, independent)

    return TrainResult(
        mode=env.mode,
        observation=env.observation,
        actors=actors,
        critics=critics,
        scales=env.scales,
        reward_params=env.reward_params,
        cfg=cfg,
        log=log,
    )


def train_mappo(env: DispatchEnv, cfg: TrainConfig) -> TrainResult:
    """Coordinated trainer: per-agent actors, one critic over the global state."""
    return _train(env, cfg, independent=False)


def train_independent(env: DispatchEnv, cfg: TrainConfig) -> TrainResult:
    """Mode-one trainer: separate actor-critic pairs, no energy interaction.

    The environment must mask the exchange entries, so it has to run in
    independent mode; each community optimizes its own cost and imbalance.
    """
    if env.mode != "independent":
        raise ValueError("train_independent requires an environment in independent mode")
    return _train(env, cfg, independent=True)


def greedy_rollout(env: DispatchEnv, actors: Sequence[GaussianActor]) -> list[StepRecord]:
    """One deterministic episode driven by the policy means, no sampling,
    evaluated in one ``evaluate_day`` and returned as per-step records."""
    means = np.stack([actor.net.forward_rows(env.observations[k]) for k, actor in enumerate(actors)], axis=1)
    return evaluate_day(env.scenario, means, env.system_cfg, env.reward_params, env.mode, env.dt).records()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    mode: str
    observation: str
    config_hash: str
    scenario_hash: str
    reward_params: RewardParams
    scales: np.ndarray
    actors: list[GaussianActor]
    critics: list[Critic]


def _arrays_to_lists(params: dict[str, np.ndarray]) -> dict[str, list]:
    return {name: arr.tolist() for name, arr in params.items()}


def save_checkpoint(path: str | Path, result: TrainResult, config_hash: str, scenario_hash: str) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "mode": result.mode,
        "observation": result.observation,
        "config_hash": config_hash,
        "scenario_hash": scenario_hash,
        "reward": {
            "z": result.reward_params.z,
            "u": result.reward_params.u,
            "kappa": result.reward_params.kappa,
        },
        "scales": result.scales.tolist(),
        "actors": [_arrays_to_lists(actor.params()) for actor in result.actors],
        "critics": [_arrays_to_lists(critic.params()) for critic in result.critics],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def _require(blob: dict, keys, where: str) -> None:
    missing = [key for key in keys if key not in blob]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, checking its keys and network shapes against
    its mode and observation before any of it is used."""
    with Path(path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    where = f"checkpoint {path}"
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: top level must be an object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    _require(
        payload,
        ("mode", "observation", "config_hash", "scenario_hash", "reward", "scales", "actors", "critics"),
        where,
    )
    mode, observation = payload["mode"], payload["observation"]
    if mode not in MODES:
        raise ValueError(f"{where}: mode must be one of {MODES}, got {mode!r}")
    if observation not in OBSERVATION_MODES:
        raise ValueError(f"{where}: observation must be one of {OBSERVATION_MODES}, got {observation!r}")
    independent = mode == "independent"
    obs_dim = observation_dim(observation)
    critic_dim = obs_dim if independent else STATE_DIM
    n_critics = N_AGENTS if independent else 1
    if len(payload["actors"]) != N_AGENTS:
        raise ValueError(f"{where}: {len(payload['actors'])} actors, expected {N_AGENTS}")
    if len(payload["critics"]) != n_critics:
        raise ValueError(f"{where}: {len(payload['critics'])} critics, expected {n_critics} for mode {mode!r}")

    def input_weights(blob: dict, name: str, expected: int) -> np.ndarray:
        _require(blob, ("w1",), f"{where}: {name}")
        w1 = np.asarray(blob["w1"], dtype=float)
        if w1.ndim != 2 or w1.shape[0] != expected:
            raise ValueError(f"{where}: {name} has input weights of shape {w1.shape}, expected {expected} inputs")
        return w1

    def rebuild_actor(k: int, blob: dict) -> GaussianActor:
        w1 = input_weights(blob, f"actor {k}", obs_dim)
        _require(blob, ("log_std",), f"{where}: actor {k}")
        actor = GaussianActor(obs_dim=obs_dim, act_dim=ACTION_DIM, hidden=w1.shape[1])
        actor.net.set_params(blob)
        actor.log_std[...] = np.asarray(blob["log_std"], dtype=float)
        return actor

    def rebuild_critic(k: int, blob: dict) -> Critic:
        w1 = input_weights(blob, f"critic {k}", critic_dim)
        critic = Critic(obs_dim=critic_dim, hidden=w1.shape[1])
        critic.net.set_params(blob)
        return critic

    reward = payload["reward"]
    _require(reward, ("z", "u", "kappa"), f"{where}: reward")
    return Checkpoint(
        mode=mode,
        observation=observation,
        config_hash=payload["config_hash"],
        scenario_hash=payload["scenario_hash"],
        reward_params=RewardParams(z=reward["z"], u=reward["u"], kappa=reward["kappa"]),
        scales=np.asarray(payload["scales"], dtype=float),
        actors=[rebuild_actor(k, blob) for k, blob in enumerate(payload["actors"])],
        critics=[rebuild_critic(k, blob) for k, blob in enumerate(payload["critics"])],
    )

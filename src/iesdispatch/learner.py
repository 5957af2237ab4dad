"""Policy optimization for the dispatch environment, written from scratch.

Per-agent diagonal-Gaussian actors over the 8-entry action box, trained
with a clipped-surrogate objective on generalized-advantage estimates of
the trainer's reward.  The environment's mode lays out the critics: a
coordinated environment gets one critic over the global state for all
agents, fitting the team reward (centralized training, decentralized
execution); an independent one, whose exchanges are masked off, gets a
separate critic per community, each fitting that community's own reward.
Single-worker and fully deterministic for a fixed seed.
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
    DayEvaluation,
    DispatchEnv,
    day_total,
    evaluate_day,
    observation_dim,
)
from .nets import HIDDEN_UNITS, Adam, Mlp, Params, clip_grads_
from .system import sum_last

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
CHECKPOINT_VERSION = 3
# The trainer's networks (and so a checkpoint's) hold float32 parameters:
# their matmuls and optimizer steps take most of a training round.  The
# log-densities, ratios, advantages and the dispatch physics stay float64.
NET_DTYPE = np.float32
_LOG_2PI = math.log(2.0 * math.pi)


class TrainingDiverged(RuntimeError):
    """Raised when the reward trace collapses or turns NaN.  Raised out of
    training, it holds in ``log`` the rows of the episodes before the one
    that diverged."""

    def __init__(self, message: str, log: Sequence[LogRow] = ()) -> None:
        super().__init__(message)
        self.log = list(log)


@dataclass(frozen=True)
class RewardParams:
    """The trainer's reward: u - (cost + kappa * total imbalance) / z.

    ``kappa`` converts the kW-equivalent imbalance into currency per step;
    ``z`` scales the sum into a convenient range and ``u`` keeps the
    reward positive near good dispatches, which also makes it an upper
    bound on any attainable reward.
    """

    z: float = 1e5
    u: float = 10.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.z <= 0.0:
            raise ValueError(f"z must be positive, got {self.z}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")


def _reward(cost, penalty, params: RewardParams):
    return params.u - (cost + params.kappa * penalty) / params.z


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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
    """Generalized advantage estimates over complete episodes, the steps
    along the last axis; leading axes are independent episodes.

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
    advantages = np.empty(rewards.shape)  # C order: a stream normalizes episode-major
    running = 0.0
    next_value = 0.0
    for t in range(rewards.shape[-1] - 1, -1, -1):
        delta = rewards[..., t] + discount * next_value - values[..., t]
        running = delta + discount * gae_lambda * running
        advantages[..., t] = running
        next_value = values[..., t]
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
        dtype: type = np.float64,
    ) -> None:
        self.net = Mlp(obs_dim, act_dim, hidden, rng, tail={"log_std": (act_dim,)}, dtype=dtype)
        self.log_std = self.net.params()["log_std"]
        self.log_std[...] = LOG_STD_INIT

    def clamped_log_std(self) -> np.ndarray:
        """The log-std within its bounds, in float64 for the loss math."""
        return np.clip(self.log_std.astype(float), LOG_STD_MIN, LOG_STD_MAX)

    def log_probs(self, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        mean, _ = self.net.forward(obs)
        return gaussian_log_prob(mean, self.clamped_log_std(), actions)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


class Critic:
    """State-value network with the same trunk and a scalar head."""

    def __init__(
        self,
        obs_dim: int,
        rng: np.random.Generator | None = None,
        hidden: int = HIDDEN_UNITS,
        dtype: type = np.float64,
    ) -> None:
        self.net = Mlp(obs_dim, 1, hidden, rng, out_gain=1.0, dtype=dtype)

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()


def _over_episodes(x: np.ndarray) -> np.ndarray:
    """``x`` (..., R, n) summed over its leading episode axes."""
    return x.reshape(-1, *x.shape[-2:]).sum(axis=0)


def _log_density_grads(
    actor: GaussianActor, mean: np.ndarray, cache: tuple, actions: np.ndarray, dlp: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of a loss whose derivative by each log-density of
    ``actions`` (..., R, act) is ``dlp`` (..., R), through the mean network
    on the R rows and the log-std."""
    inv_std = np.exp(-actor.clamped_log_std())
    z = (actions - mean) * inv_std
    grads = actor.net.backward(cache, _over_episodes(dlp[..., None] * (z * inv_std)))
    in_range = (actor.log_std >= LOG_STD_MIN) & (actor.log_std <= LOG_STD_MAX)
    grads["log_std"][...] = (dlp[..., None] * (z * z - 1.0)).reshape(-1, len(in_range)).sum(axis=0) * in_range
    return grads


def actor_loss_and_grads(
    actor: GaussianActor,
    obs: np.ndarray,
    actions: np.ndarray,
    log_prob_old: np.ndarray,
    advantages: np.ndarray,
    clip_eps: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Clipped-surrogate loss and its exact gradients for one actor: the
    network runs on ``obs`` (R, in); the other arrays may carry leading
    episode axes (..., R) that share those rows."""
    mean, cache = actor.net.forward(obs)
    lp_new = gaussian_log_prob(mean, actor.clamped_log_std(), actions)
    ratio = prob_ratio(lp_new, log_prob_old)
    loss = clipped_surrogate(ratio, advantages, clip_eps)

    through_raw = ratio * advantages <= np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    inside_band = (ratio > 1.0 - clip_eps) & (ratio < 1.0 + clip_eps)
    dmin_dratio = np.where(through_raw, advantages, advantages * inside_band)
    dratio_dlp = np.where(np.abs(lp_new - log_prob_old) < RATIO_EXP_CLAMP, ratio, 0.0)
    dlp = -(dmin_dratio * dratio_dlp) / advantages.size
    return loss, _log_density_grads(actor, mean, cache, actions, dlp)


def critic_loss_and_grads(
    critic: Critic, obs: np.ndarray, returns: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error against the value targets, with gradients; the
    targets (..., R) may carry leading episode axes over the R rows."""
    out, cache = critic.net.forward(obs)
    err = out[:, 0] - returns
    loss = float(np.mean(err * err))
    grads = critic.net.backward(cache, _over_episodes(((2.0 / err.size) * err)[..., None]))
    return loss, grads


def log_prob_loss_and_grads(
    actor: GaussianActor, obs: np.ndarray, actions: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean log-density of given actions and its exact gradients.

    Diagnostic companion to the surrogate loss; also the objective one
    would use to imitate recorded dispatch decisions.
    """
    mean, cache = actor.net.forward(obs)
    lp = gaussian_log_prob(mean, actor.clamped_log_std(), actions)
    return float(lp.mean()), _log_density_grads(actor, mean, cache, actions, np.full(lp.shape, 1.0 / lp.size))


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
    log: list[LogRow]


def _policy_means(env: DispatchEnv, actors: Sequence[GaussianActor]) -> np.ndarray:
    """The actors' means (24, 3, 8) over the day's known observations, one
    ``forward`` per actor on its 24 rows, the call the update makes."""
    return np.stack([actor.net.forward(obs)[0] for actor, obs in zip(actors, env.observations)], axis=1)


def _critic_inputs(env: DispatchEnv) -> np.ndarray:
    """What each critic sees at every step, (critics, 24, in): each
    community's observations when independent, else the global state."""
    return env.observations if env.mode == "independent" else env.states[None]


def _collect_batch(
    env: DispatchEnv,
    actors: list[GaussianActor],
    critics: list[Critic],
    rng: np.random.Generator,
    episodes: range,
    reward: RewardParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[LogRow]]:
    """Sample and evaluate the days of one update batch.

    The loads and wind do not depend on the actions, and the parameters do
    not change before the update, so every episode of the batch sees the
    same 24 states, means and values: one ``forward`` per network on the
    24 rows (the one the update's first epoch makes), one noise draw of
    shape (E, 24, 3, 8) (the numbers E draws of (24, 3, 8) would give) and
    one ``evaluate_day`` of the whole batch.

    Returns the actions (E, 24, 3, 8), their log-densities (E, 24, 3), the
    rewards (S, E, 24) of the S reward streams (the team's, of its summed
    costs and imbalances, or each community's own when independent), the
    values (S, 24) and one ``LogRow`` per episode, its mean reward the
    team's.
    """
    means = _policy_means(env, actors)
    log_std = np.stack([actor.clamped_log_std() for actor in actors])
    actions, log_probs = sample_action(np.broadcast_to(means, (len(episodes), *means.shape)), log_std, rng)
    values = np.stack([critic.net.forward(x)[0][:, 0] for critic, x in zip(critics, _critic_inputs(env))])
    day = evaluate_day(env.scenario, actions, env.system_cfg, env.mode)
    team = _reward(sum_last(day.cost), sum_last(day.balance.penalty), reward)
    if env.mode == "independent":
        rewards = np.moveaxis(_reward(day.cost, day.balance.penalty, reward), -1, 0)
    else:
        rewards = team[None]
    rows = [
        LogRow(
            episode=episode,
            mean_reward=float(team[e].mean()),
            total_cost=day_total(day.cost[e]),
            total_penalty=day_total(day.balance.penalty[e]),
            curtailment_kwh=day_total(day.balance.curtailed[e]) * day.dt,
        )
        for e, episode in enumerate(episodes)
    ]
    return actions, log_probs, rewards, values, rows


def _update(
    actors: list[GaussianActor],
    critics: list[Critic],
    actor_opts: list[Adam],
    critic_opts: list[Adam],
    actions: np.ndarray,
    log_probs: np.ndarray,
    rewards: np.ndarray,
    values: np.ndarray,
    env: DispatchEnv,
    cfg: TrainConfig,
) -> None:
    """Several epochs of full-batch steps on one batch of ``_collect_batch``.
    Its E episodes saw the same 24 states, so each network runs on those 24
    rows and its loss sums the E episodes' gradients at the output.  Actor
    k takes the advantages of stream k, or of the one team stream."""
    advantages, returns = gae_advantages(
        rewards, np.broadcast_to(values[:, None, :], rewards.shape), cfg.discount, cfg.gae_lambda
    )
    advantages = [normalize_advantages(adv) for adv in advantages]

    for _ in range(cfg.epochs_per_update):
        for k in range(N_AGENTS):
            _, grads = actor_loss_and_grads(
                actors[k], env.observations[k], actions[:, :, k], log_probs[:, :, k],
                advantages[k % len(advantages)], cfg.clip_eps,
            )
            clip_grads_(grads.vector, MAX_GRAD_NORM)
            actor_opts[k].step(grads.vector)
        for critic, opt, inputs, target in zip(critics, critic_opts, _critic_inputs(env), returns):
            _, grads = critic_loss_and_grads(critic, inputs, target)
            clip_grads_(grads.vector, MAX_GRAD_NORM)
            opt.step(grads.vector)


def train(env: DispatchEnv, cfg: TrainConfig, reward: RewardParams) -> TrainResult:
    """Train three actors on ``reward`` with the critics that ``env.mode``
    lays out (``_critic_inputs``)."""
    rng = np.random.default_rng(cfg.seed)
    obs_dim = observation_dim(env.observation)
    actors = [GaussianActor(obs_dim, ACTION_DIM, rng, dtype=NET_DTYPE) for _ in range(N_AGENTS)]
    critics = [Critic(x.shape[1], rng, dtype=NET_DTYPE) for x in _critic_inputs(env)]
    actor_lr = np.full_like(actors[0].net.vector, cfg.actor_lr)
    Params(actor_lr, actors[0].net.shapes)["log_std"][...] = LOG_STD_LR_MULT * cfg.actor_lr
    actor_opts = [Adam(actor.net.vector, actor_lr) for actor in actors]
    critic_opts = [Adam(critic.net.vector, cfg.critic_lr) for critic in critics]

    monitor = RewardMonitor()
    log: list[LogRow] = []
    # ``batch`` counts steps; an update takes whole episodes, the last one
    # whatever episodes remain.
    per_update = math.ceil(cfg.batch / EPISODE_STEPS)
    for first in range(0, cfg.episodes, per_update):
        episodes = range(first, min(first + per_update, cfg.episodes))
        *batch, rows = _collect_batch(env, actors, critics, rng, episodes, reward)
        for row in rows:
            try:
                monitor.observe(row.mean_reward, row.episode)
            except TrainingDiverged as exc:
                raise TrainingDiverged(str(exc), log) from None
            log.append(row)
        _update(actors, critics, actor_opts, critic_opts, *batch, env, cfg)

    return TrainResult(
        mode=env.mode,
        observation=env.observation,
        actors=actors,
        critics=critics,
        scales=env.scales,
        log=log,
    )


def greedy_day(env: DispatchEnv, actors: Sequence[GaussianActor]) -> DayEvaluation:
    """One deterministic day driven by the policy means, no sampling,
    evaluated in one ``evaluate_day``."""
    return evaluate_day(env.scenario, _policy_means(env, actors), env.system_cfg, env.mode)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    mode: str
    observation: str
    config_hash: str
    scenario_hash: str
    scales: np.ndarray
    actors: list[GaussianActor]


def _arrays_to_lists(params: dict[str, np.ndarray]) -> dict[str, list]:
    return {name: arr.tolist() for name, arr in params.items()}


def save_checkpoint(path: str | Path, result: TrainResult, config_hash: str, scenario_hash: str) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "mode": result.mode,
        "observation": result.observation,
        "config_hash": config_hash,
        "scenario_hash": scenario_hash,
        "scales": result.scales.tolist(),
        "actors": [_arrays_to_lists(actor.params()) for actor in result.actors],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")), encoding="utf-8")


def _require(blob: dict, keys, where: str) -> None:
    if not isinstance(blob, dict):
        raise ValueError(f"{where}: must be an object, got {type(blob).__name__}")
    missing = [key for key in keys if key not in blob]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")


def _checked_array(who: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; a ``None`` in
    ``shape`` takes any length."""
    try:
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{who} must be an array of numbers") from None
    if value.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, value.shape)):
        raise ValueError(f"{who} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{who} must be finite")
    return value


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, checking its keys and network shapes against
    its mode and observation before any of it is used."""
    where = f"checkpoint {path}"
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{where}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: top level must be an object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    _require(payload, ("mode", "observation", "config_hash", "scenario_hash", "scales", "actors"), where)
    mode, observation = payload["mode"], payload["observation"]
    if mode not in MODES:
        raise ValueError(f"{where}: mode must be one of {MODES}, got {mode!r}")
    if observation not in OBSERVATION_MODES:
        raise ValueError(f"{where}: observation must be one of {OBSERVATION_MODES}, got {observation!r}")
    scales = _checked_array(f"{where}: scales", payload["scales"], (N_AGENTS, STATE_DIM // N_AGENTS))
    if not (scales > 0.0).all():
        raise ValueError(f"{where}: scales must be positive")
    obs_dim = observation_dim(observation)
    actors = payload["actors"]
    if not isinstance(actors, list) or len(actors) != N_AGENTS:
        raise ValueError(f"{where}: actors must be a list of {N_AGENTS} networks")

    def rebuild(k: int, blob: dict) -> GaussianActor:
        """A float32 actor as wide as ``w1``, every parameter read through
        ``_checked_array`` and refused unless each of its entries is a
        float32 value, so none is rounded on loading."""
        who = f"{where}: actor {k}"
        _require(blob, ("w1",), who)
        hidden = _checked_array(f"{who}.w1", blob["w1"], (obs_dim, None)).shape[1]
        net = GaussianActor(obs_dim, hidden=hidden, dtype=NET_DTYPE)
        _require(blob, net.params(), who)
        for name, param in net.params().items():
            value = _checked_array(f"{who}.{name}", blob[name], param.shape)
            with np.errstate(over="ignore"):
                param[...] = value
            if not (param == value).all():
                raise ValueError(f"{who}.{name} must hold float32 values")
        return net

    return Checkpoint(
        mode=mode,
        observation=observation,
        config_hash=payload["config_hash"],
        scenario_hash=payload["scenario_hash"],
        scales=scales,
        actors=[rebuild(k, blob) for k, blob in enumerate(actors)],
    )

"""On-policy PPO: rollout collection, generalized advantage estimation,
clipped-surrogate updates with value and entropy terms, and an Adam
optimizer with global gradient-norm clipping.

Rollouts may fan out over N independent environment instances (stepped
round-robin in-process); the update phase is single-writer. A run with one
worker and a fixed seed is exactly reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError
from .policy_net import HALF_LOG_2PI, PolicyNetwork, sample_action, squash_correction


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    epochs_per_update: int = 10
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    total_steps: int = 200_000
    buffer_size: int = 2048
    kl_target: float = 0.02
    hidden: tuple = (64, 64)

    def __post_init__(self):
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must be in (0, 1)")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.buffer_size < 1 or self.minibatch_size < 1:
            raise ValueError("buffer and minibatch sizes must be >= 1")
        if self.epochs_per_update < 1:
            raise ValueError("epochs_per_update must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if not self.kl_target > 0.0:
            raise ValueError("kl_target must be > 0")
        for name in ("learning_rate", "value_coef", "entropy_coef", "max_grad_norm"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")


def compute_gae(rewards, values, dones, bootstrap_value, gamma: float, lam: float):
    """Generalized advantage estimation over one trajectory axis.

    Accepts (T,) or (T, N) arrays; ``bootstrap_value`` is the critic's value
    of the observation after the last step (scalar or (N,)). Returns
    ``(advantages, returns)`` with returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if rewards.shape != values.shape or rewards.shape != dones.shape:
        raise ValueError(
            f"length mismatch: rewards {rewards.shape}, values {values.shape}, "
            f"dones {dones.shape}"
        )
    T = rewards.shape[0]
    advantages = np.zeros_like(rewards)
    next_value = np.broadcast_to(
        np.asarray(bootstrap_value, dtype=np.float64), rewards.shape[1:]
    ).copy() if rewards.ndim > 1 else float(bootstrap_value)
    gae = np.zeros(rewards.shape[1:]) if rewards.ndim > 1 else 0.0
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        advantages[t] = gae
        next_value = values[t]
    return advantages, advantages + values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-std per update batch (mean-centered only when the
    batch is constant)."""
    adv = np.asarray(advantages, dtype=np.float64)
    centered = adv - adv.mean()
    std = adv.std()
    return centered / std if std > 0 else centered


class Adam:
    """Adaptive moment estimation over a dict of named parameter arrays."""

    def __init__(self, params: dict, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g**2
            update = self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)
            self.params[k] -= update


def clip_grad_norm(grads: dict, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm."""
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


@dataclass
class UpdateRecord:
    update: int
    steps: int
    mean_reward: float
    mean_profit: float
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float


@dataclass
class TrainingLog:
    records: list = field(default_factory=list)

    def append(self, rec: UpdateRecord) -> None:
        self.records.append(rec)

    def to_csv(self, path, header_comment: str | None = None) -> None:
        cols = [
            "update",
            "steps",
            "mean_reward",
            "mean_profit",
            "policy_loss",
            "value_loss",
            "entropy",
            "approx_kl",
        ]
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for r in self.records:
                writer.writerow(
                    [
                        r.update,
                        r.steps,
                        repr(r.mean_reward),
                        repr(r.mean_profit),
                        repr(r.policy_loss),
                        repr(r.value_loss),
                        repr(r.entropy),
                        repr(r.approx_kl),
                    ]
                )


class LossAndGrads(NamedTuple):
    total: float
    policy_loss: float
    value_loss: float
    entropy: float
    ratio: np.ndarray  # (B,) probability ratio new / old
    grads: dict  # d total / d parameter, in ``param_names()`` order


def loss_and_grads(
    policy: PolicyNetwork,
    obs: np.ndarray,
    actions_pre: np.ndarray,
    log_prob_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
) -> LossAndGrads:
    """Total PPO loss on one minibatch and its exact gradient.

    total = -mean(min(r * A, clip(r, 1 - eps, 1 + eps) * A))
            + value_coef * mean((V - R)^2) - entropy_coef * H,
    with r = exp(log_prob_new - log_prob_old) of the recorded pre-squash
    actions and H the entropy of the pre-squash Gaussian. The backward pass
    is the closed form for the tanh MLP. Each line keeps the operation order
    of a reverse-mode sweep over the forward pass (``* -0.5 * 2.0`` rather
    than a negation; the three ``log_std`` terms summed std path, density,
    entropy), so gradients and every artifact downstream match that sweep
    bit for bit.
    """
    p = policy.params
    n_layers = len(policy.layer_dims) - 1
    B, A = actions_pre.shape
    hs = [np.asarray(obs, dtype=np.float64)]
    for i in range(n_layers):
        hs.append(np.tanh(hs[i] @ p[f"W{i}"] + p[f"b{i}"]))
    h = hs[-1]
    mean = h @ p["Wp"] + p["bp"]
    value = h @ p["Wv"] + p["bv"]
    log_std = p["log_std"]
    std = np.exp(log_std)
    diff = actions_pre - mean
    z = diff / std
    logp = (z**2 * -0.5).sum(axis=1) - log_std.sum() - A * HALF_LOG_2PI
    if policy.squash:
        logp = logp - squash_correction(np.tanh(actions_pre))
    ratio = np.exp(logp - log_prob_old)
    lo, hi = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, lo, hi) * advantages
    policy_loss = -np.minimum(surr1, surr2).mean()
    value_err = value - returns.reshape(-1, 1)
    value_loss = (value_err**2).mean()
    entropy = log_std.sum() + A * (0.5 + HALF_LOG_2PI)
    total = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy

    # the min takes the unclipped branch on ties; the clip passes gradient
    # only strictly inside (lo, hi)
    g_min = -1.0 / B
    take1 = surr1 <= surr2
    inside = (ratio > lo) & (ratio < hi)
    g_logp = (g_min * take1 * advantages + g_min * ~take1 * advantages * inside) * ratio
    g_z = g_logp[:, None] * -0.5 * 2.0 * z
    g_mean = -(g_z / std)
    g_std = (-g_z * diff / std**2).sum(axis=0)
    g_value = cfg.value_coef / B * 2.0 * value_err

    grads = {
        "Wp": h.T @ g_mean,
        "bp": g_mean.sum(axis=0),
        "Wv": h.T @ g_value,
        "bv": g_value.sum(axis=0),
        "log_std": g_std * std + (-g_logp).sum() - cfg.entropy_coef,
    }
    g_h = g_mean @ p["Wp"].T + g_value @ p["Wv"].T
    for i in reversed(range(n_layers)):
        g_pre = g_h * (1.0 - hs[i + 1] * hs[i + 1])
        grads[f"W{i}"] = hs[i].T @ g_pre
        grads[f"b{i}"] = g_pre.sum(axis=0)
        if i:
            g_h = g_pre @ p[f"W{i}"].T
    return LossAndGrads(
        total=float(total),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        entropy=float(entropy),
        ratio=ratio,
        grads={name: grads[name] for name in policy.param_names()},
    )


def scalar_action(action, obs) -> float:
    """The environment action of a one-action policy: its sampled scalar."""
    return float(action[0])


def train(
    env_factory,
    policy: PolicyNetwork,
    reward_fn,
    cfg: PpoConfig,
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
    env_action=scalar_action,
) -> TrainingLog:
    """Run PPO until ``cfg.total_steps`` environment steps.

    ``env_factory`` builds a fresh environment per rollout worker;
    ``env_action(action, obs)`` maps a sampled action and the observation
    it was sampled at to the environment's raw action (the meta controller
    blends the workers' proposals there); ``reward_fn(profit, alpha)``
    shapes the raw settlement profit into the training reward. The policy
    is updated in place. Raises :class:`DivergenceError` if policy outputs,
    losses or parameters go non-finite.
    """
    if policy.frozen:
        raise ValueError("cannot train a frozen policy")
    if not 1 <= workers <= cfg.buffer_size:
        raise ValueError(f"workers must be in [1, buffer_size={cfg.buffer_size}], got {workers}")

    ss = np.random.SeedSequence(seed)
    env_seeds, sample_seed, shuffle_seed = ss.spawn(3)
    env_rngs = [np.random.default_rng(s) for s in env_seeds.spawn(workers)]
    sample_rng = np.random.default_rng(sample_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    envs = [env_factory() for _ in range(workers)]
    obs = [envs[i].reset(rng=env_rngs[i]) for i in range(workers)]

    T = cfg.buffer_size // workers
    A = policy.action_dim
    obs_dim = policy.layer_dims[0]
    optimizer = Adam(policy.params, lr=cfg.learning_rate)
    log = TrainingLog()

    steps_done = 0
    update = 0
    while steps_done < cfg.total_steps:
        buf_obs = np.empty((T, workers, obs_dim))
        buf_pre = np.empty((T, workers, A))
        buf_logp = np.empty((T, workers))
        buf_rew = np.empty((T, workers))
        buf_raw = np.empty((T, workers))
        buf_val = np.empty((T, workers))
        buf_done = np.zeros((T, workers))

        for t in range(T):
            for i in range(workers):
                x = obs[i]
                mean, log_std, value = policy.forward(x)
                s = sample_action(mean, log_std, sample_rng, squash=policy.squash)
                next_obs, settled, done = envs[i].step(env_action(s.action, x))

                buf_obs[t, i] = x
                buf_pre[t, i] = s.pre_squash
                buf_logp[t, i] = s.log_prob
                buf_rew[t, i] = float(reward_fn(settled.profit, settled.alpha))
                buf_raw[t, i] = settled.profit
                buf_val[t, i] = value
                buf_done[t, i] = 1.0 if done else 0.0
                obs[i] = envs[i].reset(rng=env_rngs[i]) if done else next_obs

        bootstrap = np.array([policy.value(obs[i]) for i in range(workers)])
        advantages, returns = compute_gae(
            buf_rew, buf_val, buf_done, bootstrap, cfg.gamma, cfg.gae_lambda
        )

        flat_obs = buf_obs.reshape(-1, obs_dim)
        flat_pre = buf_pre.reshape(-1, A)
        flat_logp = buf_logp.reshape(-1)
        flat_adv = normalize_advantages(advantages.reshape(-1))
        flat_ret = returns.reshape(-1)
        n = flat_obs.shape[0]

        pl_sum = vl_sum = ent_last = kl_mean = 0.0
        n_batches = 0
        for _ in range(cfg.epochs_per_update):
            perm = shuffle_rng.permutation(n)
            kl_epoch = []
            for start in range(0, n, cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                lg = loss_and_grads(
                    policy,
                    flat_obs[idx],
                    flat_pre[idx],
                    flat_logp[idx],
                    flat_adv[idx],
                    flat_ret[idx],
                    cfg,
                )
                if not np.isfinite(lg.total):
                    raise DivergenceError(f"non-finite loss at update {update}")
                clip_grad_norm(lg.grads, cfg.max_grad_norm)
                optimizer.step(lg.grads)
                policy.clamp_log_std()

                r = lg.ratio
                kl_epoch.append(float(np.mean(r - 1.0 - np.log(r))))
                pl_sum += lg.policy_loss
                vl_sum += lg.value_loss
                ent_last = lg.entropy
                n_batches += 1
            kl_mean = float(np.mean(kl_epoch))
            if kl_mean > cfg.kl_target:
                break

        for name in policy.param_names():
            if not np.all(np.isfinite(policy.params[name])):
                raise DivergenceError(f"non-finite parameter {name} at update {update}")

        steps_done += T * workers
        update += 1
        policy.step_count = steps_done
        log.append(
            UpdateRecord(
                update=update,
                steps=steps_done,
                mean_reward=float(buf_rew.mean()),
                mean_profit=float(buf_raw.mean()),
                policy_loss=pl_sum / max(1, n_batches),
                value_loss=vl_sum / max(1, n_batches),
                entropy=ent_last,
                approx_kl=kl_mean,
            )
        )
        if checkpoint_cb is not None:
            checkpoint_cb(policy, update)
    return log

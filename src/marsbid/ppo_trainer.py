"""On-policy PPO: rollout collection, generalized advantage estimation,
clipped-surrogate updates with value and entropy terms, and an Adam
optimizer with global gradient-norm clipping.

Rollouts may fan out over N workers, each with its own rng and its own
current episode tape from the one environment's pure ``episode``; a buffer
is read off the tapes as one block: one forward, one action draw and one
settlement. The update phase is single-writer. A run with a fixed seed is
exactly reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .bidding_env import map_action, settle
from .errors import DivergenceError
from .policy_net import (
    HALF_LOG_2PI,
    ParamVector,
    PolicyNetwork,
    sample_action,
    squash_correction,
)


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
    """Adaptive moment estimation over one flat float64 parameter vector,
    updated in place: ``PolicyNetwork.params.flat``, whose named arrays
    are views into it."""

    def __init__(self, params: np.ndarray, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, grad: np.ndarray) -> None:
        """One update, in the operation order of
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        params -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, with no temporaries."""
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.b1
        np.multiply(grad, 1 - self.b1, out=num)
        m += num
        v *= self.b2
        np.multiply(grad, grad, out=num)
        num *= 1 - self.b2
        v += num
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, bc1, out=num)
        num *= self.lr
        num /= den
        self.params -= num


def clip_grad_norm(grads: ParamVector, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm, summed array by array in
    ``param_names()`` order."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        grads.flat *= max_norm / total
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
        """One column per :class:`UpdateRecord` field, each cell its value's
        ``repr``."""
        cols = [f.name for f in fields(UpdateRecord)]
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for r in self.records:
                writer.writerow([repr(getattr(r, c)) for c in cols])


class LossAndGrads(NamedTuple):
    total: float
    policy_loss: float
    value_loss: float
    entropy: float
    ratio: np.ndarray  # (B,) probability ratio new / old
    grads: ParamVector  # d total / d parameter, laid out as ``policy.params``


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

    grads = p.zeros_like()
    grads["Wp"] = h.T @ g_mean
    grads["bp"] = g_mean.sum(axis=0)
    grads["Wv"] = h.T @ g_value
    grads["bv"] = g_value.sum(axis=0)
    grads["log_std"] = g_std * std + (-g_logp).sum() - cfg.entropy_coef
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
        grads=grads,
    )


def scalar_action(actions, obs) -> np.ndarray:
    """The environment actions of a one-action policy: its sampled
    scalars, one per row."""
    return actions[:, 0]


def train(
    env,
    policy: PolicyNetwork,
    reward_fn,
    cfg: PpoConfig,
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
    env_action=scalar_action,
) -> TrainingLog:
    """Run PPO until ``cfg.total_steps`` environment steps.

    Each rollout worker reads the next rows of its current tape and, at
    each episode end, draws the next from ``env.episode(rng=...)`` with its
    own rng. ``env_action(actions, obs)`` maps an (N, A) block of sampled
    actions and their (N, obs_dim) observations to N raw actions (the meta
    controller blends the workers' proposals there); ``reward_fn(profit,
    alpha)`` shapes each step's profit, one call per step in (t, worker)
    order. The policy is updated in place. Raises :class:`DivergenceError`
    if policy outputs, losses or parameters go non-finite.
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

    tapes = [env.episode(rng=env_rng) for env_rng in env_rngs]
    cursors = [0] * workers  # each worker's next row of its tape

    T = cfg.buffer_size // workers
    obs_dim = policy.layer_dims[0]
    optimizer = Adam(policy.params.flat, lr=cfg.learning_rate)
    log = TrainingLog()

    steps_done = 0
    update = 0
    while steps_done < cfg.total_steps:
        buf_obs = np.empty((T, workers, obs_dim))
        buf_dispatch = np.empty((6, T, workers))
        buf_done = np.zeros((T, workers))
        for i in range(workers):
            t = 0
            while t < T:
                tape, c = tapes[i], cursors[i]
                k = min(T - t, len(tape) - c)
                buf_obs[t : t + k, i] = tape.obs[c : c + k]
                buf_dispatch[:, t : t + k, i] = tape.dispatch[:, c : c + k]
                t, cursors[i] = t + k, c + k
                if cursors[i] == len(tape):
                    buf_done[t - 1, i] = 1.0
                    tapes[i] = env.episode(rng=env_rngs[i])
                    cursors[i] = 0

        # rows in (t, i) order: the draw equals one (A,) draw per step
        flat_obs = buf_obs.reshape(-1, obs_dim)
        mean, log_std, flat_val = policy.forward(flat_obs)
        s = sample_action(mean, log_std, sample_rng, squash=policy.squash)
        settled = settle(map_action(env_action(s.action, flat_obs)), *buf_dispatch.reshape(6, -1))
        # per step: a shaper may keep state, and its scalar arithmetic is
        # not guaranteed to match a vector version bit for bit
        buf_rew = np.array(
            [float(reward_fn(pi, alpha)) for pi, alpha in zip(settled.profit, settled.alpha)]
        ).reshape(T, workers)
        buf_raw = settled.profit.reshape(T, workers)

        bootstrap = policy.forward(np.array([tape.obs[c] for tape, c in zip(tapes, cursors)]))[2]
        advantages, returns = compute_gae(
            buf_rew, flat_val.reshape(T, workers), buf_done, bootstrap, cfg.gamma, cfg.gae_lambda
        )

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
                    s.pre_squash[idx],
                    s.log_prob[idx],
                    flat_adv[idx],
                    flat_ret[idx],
                    cfg,
                )
                if not np.isfinite(lg.total):
                    raise DivergenceError(f"non-finite loss at update {update}")
                clip_grad_norm(lg.grads, cfg.max_grad_norm)
                optimizer.step(lg.grads.flat)
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

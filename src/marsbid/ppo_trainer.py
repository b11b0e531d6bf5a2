"""On-policy PPO: rollout collection, generalized advantage estimation,
clipped-surrogate updates with value and entropy terms, and an Adam
optimizer with global gradient-norm clipping.

Rollouts may fan out over N workers, each with its own rng and its own
current episode tape from the one environment's pure ``episode``; a buffer
is read off the tapes as one block: one forward, one action draw and one
settlement. The update phase is single-writer: each epoch gathers its
shuffled rows once, each minibatch is a slice of them, and every
minibatch's gradient is written into one buffer that ``train`` owns. A run
with a fixed seed is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .bidding_env import map_action, settle
from .errors import DivergenceError
from .market_data import write_table
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
        if any(size < 1 for size in self.hidden):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden}")
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
    T = len(rewards)
    bootstrap = np.broadcast_to(np.asarray(bootstrap_value, dtype=np.float64), rewards.shape[1:])
    # per column over Python floats, far cheaper than a numpy call per row;
    # the operation order below fixes the bits
    columns = (x.reshape(T, bootstrap.size).T.tolist() for x in (rewards, values, dones))
    advantages = np.empty((bootstrap.size, T))
    for j, (rew, val, done, next_value) in enumerate(zip(*columns, bootstrap.ravel().tolist())):
        adv, gae = [0.0] * T, 0.0
        for t in range(T - 1, -1, -1):
            nonterminal = 1.0 - done[t]
            delta = rew[t] + gamma * next_value * nonterminal - val[t]
            gae = delta + gamma * lam * nonterminal * gae
            adv[t] = gae
            next_value = val[t]
        advantages[j] = adv
    advantages = advantages.T.reshape(rewards.shape)
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
    ``param_names()`` order over one squared copy of ``grads.flat``."""
    squares, pos, total = grads.flat * grads.flat, 0, 0.0
    for g in grads.values():
        total += float(squares[pos : pos + g.size].sum())
        pos += g.size
    total = float(np.sqrt(total))
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


def write_log(path, records: list, header_comment: str | None = None) -> None:
    """A training log as CSV: one column per :class:`UpdateRecord` field,
    each cell its value's ``repr``."""
    cols = [f.name for f in fields(UpdateRecord)]
    columns = [np.array([getattr(r, c) for r in records]) for c in cols]
    write_table(path, header_comment, cols, columns)


class LossAndGrads(NamedTuple):
    total: float
    policy_loss: float
    value_loss: float
    entropy: float
    ratio: np.ndarray  # (B,) probability ratio new / old
    grads: ParamVector  # d total / d parameter: the ``grads`` argument, or a new one


def loss_and_grads(
    policy: PolicyNetwork,
    obs: np.ndarray,
    actions_pre: np.ndarray,
    log_prob_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
    grads: ParamVector | None = None,
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

    ``grads``, laid out as ``policy.params``, receives the gradient in place
    like numpy's ``out=``: every view is overwritten, so a reused buffer needs
    no reset; None allocates one. An outer product (inner dimension 1) is
    the broadcast ``a * b``, which has the bits of ``a @ b``.
    """
    p = policy.params
    grads = p.zeros_like() if grads is None else grads
    n_layers = len(policy.layer_dims) - 1
    B, A = actions_pre.shape
    hs = [np.asarray(obs, dtype=np.float64)]
    for i in range(n_layers):
        out = hs[i] @ p[f"W{i}"]
        out += p[f"b{i}"]
        hs.append(np.tanh(out, out=out))
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
    surr2 = np.minimum(np.maximum(ratio, lo), hi) * advantages
    policy_loss = -(np.minimum(surr1, surr2).sum() / B)
    value_err = value - returns.reshape(-1, 1)
    value_loss = (value_err**2).sum() / B
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

    np.matmul(h.T, g_mean, out=grads["Wp"])
    g_mean.sum(axis=0, out=grads["bp"])
    np.matmul(h.T, g_value, out=grads["Wv"])
    g_value.sum(axis=0, out=grads["bv"])
    grads["log_std"] = g_std * std + (-g_logp).sum() - cfg.entropy_coef
    g_h = g_mean * p["Wp"].T if A == 1 else g_mean @ p["Wp"].T
    g_h += g_value * p["Wv"].T
    for i in reversed(range(n_layers)):
        g_pre = hs[i + 1] * hs[i + 1]  # then g_h * (1 - h * h), in place
        np.subtract(1.0, g_pre, out=g_pre)
        g_pre *= g_h
        np.matmul(hs[i].T, g_pre, out=grads[f"W{i}"])
        g_pre.sum(axis=0, out=grads[f"b{i}"])
        if i:
            g_h = g_pre @ p[f"W{i}"].T
    losses = (float(total), float(policy_loss), float(value_loss), float(entropy))
    return LossAndGrads(*losses, ratio, grads)


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
) -> list[UpdateRecord]:
    """Run PPO until ``cfg.total_steps`` environment steps.

    Each rollout worker reads the next rows of its current tape and, at
    each episode end, draws the next from ``env.episode(rng=...)`` with its
    own rng. ``env_action(actions, obs)`` maps an (N, A) block of sampled
    actions and their (N, obs_dim) observations to N raw actions (the meta
    controller blends the workers' proposals there); ``reward_fn(profit,
    alpha)`` shapes a buffer's profits and allocations, one call per buffer
    with rows in (t, worker) order, so a stateful shaper sees the stream a
    step-by-step rollout would. The policy is updated in place. Raises :class:`DivergenceError`
    if policy outputs, settled profits, losses, gradient norms or parameters go non-finite.
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
    grads = policy.params.zeros_like()  # every minibatch's gradient, in place
    log = []

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
        bootstrap = policy.forward(np.array([tape.obs[c] for tape, c in zip(tapes, cursors)]))[2]
        # an overflow fails closed at a check, as one error and not a trail
        # of warnings
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = map_action(env_action(s.action, flat_obs))
            settled = settle(alpha, *buf_dispatch.reshape(6, -1))
            if not np.isfinite(settled.profit).all():
                raise DivergenceError(f"non-finite profit at update {update}")
            buf_rew = np.reshape(reward_fn(settled.profit, settled.alpha), (T, workers))
            buf_raw = settled.profit.reshape(T, workers)
            buf_val = flat_val.reshape(T, workers)
            advantages, returns = compute_gae(
                buf_rew, buf_val, buf_done, bootstrap, cfg.gamma, cfg.gae_lambda
            )
            flat_adv = normalize_advantages(advantages.reshape(-1))
        flat_ret = returns.reshape(-1)
        n = flat_obs.shape[0]

        pl_sum = vl_sum = ent_last = kl_mean = 0.0
        n_batches = 0
        for _ in range(cfg.epochs_per_update):
            perm = shuffle_rng.permutation(n)
            epoch = [x[perm] for x in (flat_obs, s.pre_squash, s.log_prob, flat_adv, flat_ret)]
            kl_epoch = []
            for start in range(0, n, cfg.minibatch_size):
                batch = [x[start : start + cfg.minibatch_size] for x in epoch]
                with np.errstate(over="ignore", invalid="ignore"):
                    lg = loss_and_grads(policy, *batch, cfg, grads=grads)
                    norm = clip_grad_norm(grads, cfg.max_grad_norm)
                if not np.isfinite(lg.total):
                    raise DivergenceError(f"non-finite loss at update {update}")
                if not np.isfinite(norm):  # clipping by an inf norm zeroes the update
                    raise DivergenceError(f"non-finite gradient norm at update {update}")
                optimizer.step(grads.flat)
                policy.clamp_log_std()

                r = lg.ratio
                kl_epoch.append(float((r - 1.0 - np.log(r)).sum() / len(r)))
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

"""Hierarchical bidding: frozen role-specialized workers blended by a
softmax meta controller.

Phase 1 ("university") trains each worker with its role reward and freezes
it. Phase 2 trains the meta controller: at every hour the workers propose
their deterministic mean actions, the meta policy emits Gaussian logits that
softmax into simplex weights, and the executed action is the weighted linear
combination of the proposals. The meta reward is the concave utility of the
realized profit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .policy_net import PolicyNetwork
from .ppo_trainer import PpoConfig, TrainingLog, train
from .reward_shaping import (
    ShapingParams,
    reward_meta,
    reward_neutral,
    reward_safe,
    reward_spec,
)

SIMPLEX_TOL = 1e-9

ROLE_REWARDS = {
    "safe": reward_safe,
    "spec": reward_spec,
    "neutral": reward_neutral,
}


@dataclass(frozen=True)
class AgentEnsemble:
    """Ordered frozen workers; role tags must be unique."""

    workers: tuple  # of (role, PolicyNetwork)

    def __post_init__(self):
        roles = [r for r, _ in self.workers]
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate role tags in ensemble: {roles}")
        for role, net in self.workers:
            if not net.frozen:
                raise ValueError(f"worker {role!r} must be frozen before blending")

    @property
    def k(self) -> int:
        return len(self.workers)

    @property
    def roles(self) -> tuple:
        return tuple(r for r, _ in self.workers)

    def proposals(self, obs) -> np.ndarray:
        """Every worker's deterministic mean action, one forward each: shape
        (K,) for one observation, (N, K) for an (N, obs_dim) block."""
        return np.stack([net.act_deterministic(obs)[..., 0] for _, net in self.workers], axis=-1)


def blend(weights, worker_actions):
    """Weighted linear combination of worker proposals, row by row over the
    last axis: a float for (K,) inputs, (N,) for (N, K) ones.

    Validates the simplex constraint to 1e-9 and pins each result inside
    [min, max] of its proposals, which the exact convex combination can
    leave only by float rounding. The stacked matmul matches ``w @ a`` of
    each row bit for bit; einsum and ``(w * a).sum(-1)`` do not.
    """
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(worker_actions, dtype=np.float64)
    if w.shape != a.shape:
        raise ValueError(f"weights shape {w.shape} != actions shape {a.shape}")
    bad = np.any(w < -SIMPLEX_TOL, axis=-1) | (np.abs(w.sum(axis=-1) - 1.0) > SIMPLEX_TOL)
    if np.any(bad):
        raise ValueError(f"weights {w[bad]} violate the simplex beyond {SIMPLEX_TOL}")
    dot = (w[..., None, :] @ a[..., :, None])[..., 0, 0]
    return np.clip(dot, a.min(axis=-1), a.max(axis=-1))


def softmax(logits) -> np.ndarray:
    """Softmax over the last axis, row by row."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Blend(NamedTuple):
    """An episode of blended hours: the executed actions (T,), the simplex
    weights (T, K) and the worker proposals (T, K) they combined."""

    action: np.ndarray
    weights: np.ndarray
    proposals: np.ndarray


class BlendPolicy:
    """The hierarchical policy as one runner policy ``tape -> Blend``.

    ``meta`` is a meta :class:`PolicyNetwork`, whose mean logits softmax
    into the weights, or fixed simplex weights (the static baseline). Each
    network runs one forward over the whole tape.
    """

    def __init__(self, ensemble: AgentEnsemble, meta):
        self.ensemble = ensemble
        self.meta = meta if isinstance(meta, PolicyNetwork) else np.asarray(meta, dtype=np.float64)

    @property
    def roles(self) -> tuple:
        return self.ensemble.roles

    def __call__(self, tape) -> Blend:
        proposals = self.ensemble.proposals(tape.obs)
        if isinstance(self.meta, PolicyNetwork):
            weights = softmax(self.meta.forward(tape.obs)[0])
        else:
            weights = np.tile(self.meta, (len(tape), 1))
        return Blend(blend(weights, proposals), weights, proposals)


def train_worker(
    env,
    cfg: PpoConfig,
    seed_seq: np.random.SeedSequence,
    role: str,
    reward_fn,
    workers: int = 1,
    checkpoint_cb=None,
):
    """Initialise a squashed one-action policy tagged ``role`` and train it
    with PPO on ``reward_fn(profit, alpha)``.

    The init seed is ``seed_seq.generate_state(1)[0]`` and the rollout seed
    ``seed_seq.generate_state(2)[1]``. Returns ``(net, log)``; the net is
    left unfrozen.
    """
    net = PolicyNetwork(
        obs_dim=env.obs_dim,
        hidden=tuple(cfg.hidden),
        action_dim=1,
        role=role,
        squash=True,
        seed=int(seed_seq.generate_state(1)[0]),
    )
    log = train(
        env,
        net,
        reward_fn,
        cfg,
        seed=int(seed_seq.generate_state(2)[1]),
        workers=workers,
        checkpoint_cb=checkpoint_cb,
    )
    return net, log


def train_university(
    env,
    cfg: PpoConfig,
    shaping: ShapingParams,
    roles=("safe", "spec"),
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
):
    """Phase 1: train one worker per role on its role reward, then freeze.

    Role rewards are divided by ``shaping.s_linear`` before entering PPO so
    gradients are conditioned the same way as the vanilla baseline; positive
    scaling leaves the optimal policy unchanged. ``checkpoint_cb(net,
    update)`` is passed to every worker's training; ``net.role`` tells the
    workers apart.

    Returns ``(ensemble, logs)`` with logs keyed by role.
    """
    trained = []
    logs: dict[str, TrainingLog] = {}
    role_seeds = np.random.SeedSequence(seed).spawn(len(roles))
    for role, role_seed in zip(roles, role_seeds):
        if role not in ROLE_REWARDS:
            raise ValueError(f"no role reward defined for {role!r}")
        reward = ROLE_REWARDS[role]

        def shaped(pi, alpha, _reward=reward):
            return _reward(pi, alpha, shaping) / shaping.s_linear

        net, logs[role] = train_worker(
            env,
            cfg,
            role_seed,
            role,
            shaped,
            workers=workers,
            checkpoint_cb=checkpoint_cb,
        )
        net.freeze()
        trained.append((role, net))
    return AgentEnsemble(workers=tuple(trained)), logs


def train_meta(
    env,
    ensemble: AgentEnsemble,
    cfg: PpoConfig,
    shaping: ShapingParams,
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
):
    """Phase 2: train the meta controller over the frozen ensemble.

    Returns ``(meta_policy, log)``. With ``cfg.total_steps == 0`` the meta
    policy is returned at initialization (near-uniform weights). The seeds
    depend on ``seed`` alone, so meta controllers over ensembles of
    different sizes share their init and rollout seeds (common random
    numbers): the same body weights at init and the same episode starts.
    """
    ss = np.random.SeedSequence(seed)
    init_seed, train_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    meta = PolicyNetwork(
        obs_dim=env.obs_dim,
        hidden=tuple(cfg.hidden),
        action_dim=ensemble.k,
        role="meta",
        squash=False,
        seed=init_seed,
    )
    log = train(
        env,
        meta,
        lambda pi, alpha: reward_meta(pi, shaping),
        cfg,
        seed=train_seed,
        workers=workers,
        checkpoint_cb=checkpoint_cb,
        env_action=lambda logits, obs: blend(softmax(logits), ensemble.proposals(obs)),
    )
    return meta, log

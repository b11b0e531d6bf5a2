"""Hierarchical bidding: frozen role-specialized workers blended by a
softmax meta controller.

Phase 1 ("university") trains each worker with its role reward and freezes
it. Phase 2 trains the meta controller: at every step the workers propose
their deterministic mean actions, the meta policy emits Gaussian logits that
softmax into simplex weights, and the executed action is the weighted linear
combination of the proposals. The meta reward is the concave utility of the
realized profit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidding_env import EpisodeLedger, StepOutcome, StrategicBiddingEnv
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
        """Deterministic mean action of every worker, shape (K,)."""
        return np.array(
            [float(net.act_deterministic(obs.vector)[0]) for _, net in self.workers]
        )

    def param_hashes(self) -> dict:
        return {role: net.param_hash() for role, net in self.workers}


def blend(weights, worker_actions) -> float:
    """Weighted linear combination of worker proposals.

    Validates the simplex constraint to 1e-9 and pins the result inside
    [min, max] of the proposals, which the exact convex combination can
    leave only by float rounding.
    """
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(worker_actions, dtype=np.float64)
    if w.shape != a.shape:
        raise ValueError(f"weights shape {w.shape} != actions shape {a.shape}")
    if np.any(w < -SIMPLEX_TOL) or abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"weights {w} violate the simplex beyond {SIMPLEX_TOL}")
    return float(np.clip(float(w @ a), a.min(), a.max()))


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def meta_weights(
    meta_policy: PolicyNetwork,
    obs,
    rng: np.random.Generator | None = None,
):
    """Blend weights from the meta policy.

    Deterministic mode (``rng`` is None) softmaxes the mean logits. Sampling
    mode draws Gaussian logits and softmaxes them; the returned log-prob is
    that of the pre-softmax Gaussian draw, which is what PPO updates.

    Returns ``(weights, logits, log_prob)``; log_prob is None when
    deterministic.
    """
    vec = obs.vector if hasattr(obs, "vector") else np.asarray(obs)
    if rng is None:
        mean, _, _ = meta_policy.forward(vec)
        return softmax(mean), mean, None
    sample = meta_policy.sample(vec, rng)
    return softmax(sample.action), sample.action, sample.log_prob


class BlendedActionEnv:
    """Adapter that lets the PPO trainer drive the meta controller.

    Presents the base environment's observations but takes K-dimensional
    logit actions: logits softmax into weights, workers propose their mean
    actions, and the blend is executed downstream.
    """

    def __init__(self, env: StrategicBiddingEnv, ensemble: AgentEnsemble):
        self.env = env
        self.ensemble = ensemble
        self._obs = None

    @property
    def obs_dim(self) -> int:
        return self.env.obs_dim

    def reset(self, start=None, rng=None):
        self._obs = self.env.reset(start=start, rng=rng)
        return self._obs

    def step(self, logits) -> StepOutcome:
        weights = softmax(np.asarray(logits, dtype=np.float64))
        proposals = self.ensemble.proposals(self._obs)
        out = self.env.step(blend(weights, proposals))
        self._obs = out.observation_next
        return out


def train_worker(
    env_factory,
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
        obs_dim=env_factory().obs_dim,
        hidden=tuple(cfg.hidden),
        action_dim=1,
        role=role,
        squash=True,
        seed=int(seed_seq.generate_state(1)[0]),
    )
    log = train(
        env_factory,
        net,
        reward_fn,
        cfg,
        seed=int(seed_seq.generate_state(2)[1]),
        workers=workers,
        checkpoint_cb=checkpoint_cb,
    )
    return net, log


def train_university(
    env_factory,
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
            env_factory,
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
    env_factory,
    ensemble: AgentEnsemble,
    cfg: PpoConfig,
    shaping: ShapingParams,
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
):
    """Phase 2: train the meta controller over the frozen ensemble.

    Returns ``(meta_policy, log)``. With ``cfg.total_steps == 0`` the meta
    policy is returned at initialization (near-uniform weights).
    """
    ss = np.random.SeedSequence(seed)
    init_seed, train_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    meta = PolicyNetwork(
        obs_dim=env_factory().obs_dim,
        hidden=tuple(cfg.hidden),
        action_dim=ensemble.k,
        role="meta",
        squash=False,
        seed=init_seed,
    )
    log = train(
        lambda: BlendedActionEnv(env_factory(), ensemble),
        meta,
        lambda pi, alpha: reward_meta(pi, shaping),
        cfg,
        seed=train_seed,
        workers=workers,
        checkpoint_cb=checkpoint_cb,
    )
    return meta, log


def run_hierarchical_episode(
    env: StrategicBiddingEnv,
    ensemble: AgentEnsemble,
    meta,
    shaping: ShapingParams | None = None,
    deterministic: bool = True,
    start: int | None = None,
    rng: np.random.Generator | None = None,
) -> EpisodeLedger:
    """Roll one episode, recording weights, proposals and rewards per step.

    ``meta`` is either a trained meta :class:`PolicyNetwork` or a callable
    ``obs -> weights`` (useful for static or diagnostic weightings).
    """
    shaping = shaping or ShapingParams()
    ledger = EpisodeLedger(roles=ensemble.roles)
    obs = env.reset(start=start, rng=rng)
    sample_rng = None if deterministic else (rng or np.random.default_rng(0))
    done = False
    while not done:
        record = env.current_record()
        vol = env.volatility_at(env.current_index)
        proposals = ensemble.proposals(obs)
        if callable(meta) and not isinstance(meta, PolicyNetwork):
            weights = np.asarray(meta(obs), dtype=np.float64)
        else:
            weights, _, _ = meta_weights(meta, obs, rng=sample_rng)
        out = env.step(blend(weights, proposals))
        ledger.append(
            record,
            out,
            volatility=vol,
            weights=weights,
            proposals=proposals,
            r_meta=reward_meta(out.reward_raw, shaping),
        )
        obs = out.observation_next
        done = out.done
    return ledger

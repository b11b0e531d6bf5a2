"""Non-hierarchical comparison policies.

* vanilla PPO on the raw profit (scaled for conditioning),
* PPO with rolling-tail CVaR shaping,
* a bang-bang moving-average heuristic over the realized DA-RT spread,
* best-single selection by train-split Sharpe ratio.

The static equal-weight blend of the frozen workers is
``mars_hierarchy.BlendPolicy`` with uniform weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mars_hierarchy import train_worker
from .ppo_trainer import PpoConfig
from .reward_shaping import CvarRewardShaper, ShapingParams


@dataclass(frozen=True)
class RollingOptConfig:
    window: int = 24
    hysteresis: float = 0.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")


def rolling_opt_action(history, cfg: RollingOptConfig, prev_action: float = 0.0) -> float:
    """Bang-bang rule on the trailing mean DA-RT spread.

    ``history`` holds the realized (lmp_da - lmp_rt) spreads for at least
    ``cfg.window`` past hours. Goes full DA (+1) when the mean spread clears
    the hysteresis band, full RT (-1) below it, and holds the previous
    action inside the band.
    """
    spreads = np.asarray(history, dtype=np.float64)
    if spreads.size < cfg.window:
        raise ValueError(f"need {cfg.window} hours of history, got {spreads.size}")
    s = float(spreads[-cfg.window :].mean())
    if s > cfg.hysteresis:
        return 1.0
    if s < -cfg.hysteresis:
        return -1.0
    return prev_action


class RollingOptPolicy:
    """Stateful wrapper holding the previous action between steps."""

    def __init__(self, cfg: RollingOptConfig | None = None):
        self.cfg = cfg or RollingOptConfig()
        self.prev_action = 0.0

    def __call__(self, obs, env) -> float:
        spread = env.spread_history(self.cfg.window)
        self.prev_action = rolling_opt_action(spread, self.cfg, self.prev_action)
        return self.prev_action


def train_vanilla(
    env_factory,
    cfg: PpoConfig,
    shaping: ShapingParams,
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
):
    """Monolithic PPO agent on raw profit divided by s_linear."""
    return train_worker(
        env_factory,
        cfg,
        np.random.SeedSequence(seed),
        "vanilla",
        lambda pi, alpha: pi / shaping.s_linear,
        workers=workers,
        checkpoint_cb=checkpoint_cb,
    )


def train_cvar(
    env_factory,
    cfg: PpoConfig,
    shaping: ShapingParams,
    seed: int = 0,
    workers: int = 1,
    checkpoint_cb=None,
):
    """PPO with rolling-quantile tail-penalty shaping (risk-averse
    baseline). The quantile window sees raw dollars; the shaped reward is
    scaled like the vanilla agent's."""
    shaper = CvarRewardShaper(shaping)
    return train_worker(
        env_factory,
        cfg,
        np.random.SeedSequence(seed),
        "cvar",
        lambda pi, alpha: shaper(pi, alpha) / shaping.s_linear,
        workers=workers,
        checkpoint_cb=checkpoint_cb,
    )


def select_best_single(candidates: dict, sharpe_by_name: dict) -> str:
    """Pick the candidate with the highest train-split Sharpe.

    ``candidates`` maps name -> policy; ``sharpe_by_name`` maps name -> the
    train-split Sharpe ratio (None counts as worst). Ties break on name
    order for determinism.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    ranked = sorted(
        candidates,
        key=lambda name: (
            -(sharpe_by_name.get(name) if sharpe_by_name.get(name) is not None else -np.inf),
            name,
        ),
    )
    return ranked[0]

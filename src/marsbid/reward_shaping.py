"""Training-reward transforms of the raw hourly profit.

Role rewards credit each specialist only for profit earned through its own
market and fine it for exposure to the other one; the meta controller gets a
concave utility that penalizes outcome magnitude; the neutral and CVaR
variants back the ablation and baseline configurations. All functions are
pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShapingParams:
    lambda_role: float = 0.5
    lambda_risk: float = 5.0
    s_linear: float = 1000.0
    s_var: float = 100.0
    neutral_band: float = 0.2
    cvar_alpha: float = 0.05
    cvar_window: int = 200

    def __post_init__(self):
        if self.lambda_role < 0:
            raise ValueError("lambda_role must be >= 0")
        if self.s_linear <= 0 or self.s_var <= 0:
            raise ValueError("scale factors must be > 0")
        if not 0.0 < self.cvar_alpha < 1.0:
            raise ValueError("cvar_alpha must be in (0, 1)")
        if not 0.0 <= self.neutral_band <= 0.5:
            raise ValueError("neutral_band must be in [0, 0.5]")
        if self.cvar_window < 1:
            raise ValueError("cvar_window must be >= 1")


def _check_finite(**kwargs):
    for name, v in kwargs.items():
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name}: {v!r}")


def _check_alpha(alpha: float):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} out of [0, 1]")


def reward_safe(pi: float, alpha: float, p: ShapingParams) -> float:
    """DA specialist: profit share from the DA market minus a fine on any
    real-time exposure."""
    _check_finite(pi=pi, alpha=alpha)
    _check_alpha(alpha)
    return pi * alpha - abs(pi) * (1.0 - alpha) * p.lambda_role


def reward_spec(pi: float, alpha: float, p: ShapingParams) -> float:
    """RT specialist: mirror image of the safe reward."""
    _check_finite(pi=pi, alpha=alpha)
    _check_alpha(alpha)
    return pi * (1.0 - alpha) - abs(pi) * alpha * p.lambda_role


def reward_meta(pi: float, p: ShapingParams) -> float:
    """Concave utility: linear profit term minus a quadratic magnitude
    penalty, discouraging jackpot-seeking."""
    _check_finite(pi=pi)
    return pi / p.s_linear - 0.5 * p.lambda_risk * (pi / p.s_var) ** 2


def reward_neutral(pi: float, alpha: float, p: ShapingParams) -> float:
    """Balanced-allocation role: profit, fined in proportion to how far the
    allocation strays beyond ``neutral_band`` from a 50/50 split."""
    _check_finite(pi=pi, alpha=alpha)
    _check_alpha(alpha)
    if p.neutral_band >= 0.5:
        raise ValueError("neutral_band must be < 0.5 for the neutral reward")
    excess = max(0.0, abs(alpha - 0.5) - p.neutral_band)
    return pi - abs(pi) * p.lambda_role * excess / (0.5 - p.neutral_band)


def reward_cvar_shaped(pi: float, history, p: ShapingParams) -> float:
    """Tail-penalty shaping: fine outcomes that fall below the rolling
    empirical alpha-quantile of recent profits.

    This realizes a risk-averse PPO baseline as reward shaping over the raw
    profit, an approximation of CVaR-optimizing RL rather than a
    distributional critic. Passes profit through unchanged until ``history``
    holds at least 20 values.
    """
    _check_finite(pi=pi)
    hist = np.asarray(history, dtype=np.float64)
    if hist.size < 20:
        return pi
    q = float(np.quantile(hist, p.cvar_alpha))
    return pi - p.lambda_risk * max(0.0, q - pi)


class CvarRewardShaper:
    """Stateful wrapper feeding a rolling profit window into
    :func:`reward_cvar_shaped`. The current step is shaped against the
    window of profits strictly before it."""

    def __init__(self, params: ShapingParams):
        self.params = params
        self._window: list[float] = []

    def __call__(self, pi: float, alpha: float) -> float:
        shaped = reward_cvar_shaped(pi, self._window, self.params)
        self._window.append(pi)
        if len(self._window) > self.params.cvar_window:
            del self._window[0]
        return shaped

"""Training-reward transforms of the raw hourly profit.

Role rewards credit each specialist only for profit earned through its own
market and fine it for exposure to the other one; the meta controller gets a
concave utility that penalizes outcome magnitude; the neutral and CVaR
variants back the ablation and baseline configurations.

Every reward is elementwise over numpy arrays (floats work too), so PPO
shapes a whole rollout buffer in one call. Each element gets the bits the
scalar formula gives it: the meta utility squares through libm ``pow``, as
Python's ``**`` does. The CVaR shaper alone keeps state, a window of past
profits, and walks a block in order. :data:`TRAINING_REWARDS` says which
reward PPO trains each role on.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
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
        # the neutral reward divides by 0.5 - neutral_band
        if not 0.0 <= self.neutral_band < 0.5:
            raise ValueError("neutral_band must be in [0, 0.5)")
        if self.cvar_window < 1:
            raise ValueError("cvar_window must be >= 1")


def _check(pi, alpha=0.0):
    if not np.all(np.isfinite(pi) & (0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError("rewards need finite profits and alpha in [0, 1]")


def reward_safe(pi, alpha, p: ShapingParams):
    """DA specialist: profit share from the DA market minus a fine on any
    real-time exposure."""
    _check(pi, alpha)
    return pi * alpha - np.abs(pi) * (1.0 - alpha) * p.lambda_role


def reward_spec(pi, alpha, p: ShapingParams):
    """RT specialist: mirror image of the safe reward."""
    _check(pi, alpha)
    return pi * (1.0 - alpha) - np.abs(pi) * alpha * p.lambda_role


def reward_meta(pi, p: ShapingParams):
    """Concave utility: linear profit term minus a quadratic magnitude
    penalty, discouraging jackpot-seeking."""
    _check(pi)
    return pi / p.s_linear - 0.5 * p.lambda_risk * np.float_power(pi / p.s_var, 2)


def reward_neutral(pi, alpha, p: ShapingParams):
    """Balanced-allocation role: profit, fined in proportion to how far the
    allocation strays beyond ``neutral_band`` from a 50/50 split."""
    _check(pi, alpha)
    excess = np.maximum(0.0, np.abs(alpha - 0.5) - p.neutral_band)
    return pi - np.abs(pi) * p.lambda_role * excess / (0.5 - p.neutral_band)


def linear_quantile(ascending, q: float) -> float:
    """The q-quantile of an ascending sequence under numpy's default
    ("linear") rule, in the operation order of ``np.quantile``."""
    v = (len(ascending) - 1) * q
    lo = math.floor(v)
    t = v - lo
    a = ascending[lo]
    b = ascending[min(lo + 1, len(ascending) - 1)]
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


class CvarRewardShaper:
    """Tail-penalty shaping: fine each profit that falls below the empirical
    ``cvar_alpha``-quantile of the last ``cvar_window`` profits before it,
    across calls, and pass it through while there are fewer than 20. This
    realizes a risk-averse PPO baseline as reward shaping over the raw
    profit, an approximation of CVaR-optimizing RL rather than a
    distributional critic.

    A call shapes a block of profits (or one float) in order; ``alpha`` is
    unused. The window is kept both in arrival order and sorted, so a step
    costs one bisect and no sort."""

    def __init__(self, params: ShapingParams):
        self.params = params
        self._window: deque = deque()
        self._ascending: list = []

    def __call__(self, profit, alpha):
        profit = np.asarray(profit, dtype=np.float64)
        _check(profit)
        p = self.params
        shaped = []
        for pi in profit.ravel().tolist():
            if len(self._ascending) < 20:
                shaped.append(pi)
            else:
                tail = linear_quantile(self._ascending, p.cvar_alpha) - pi
                shaped.append(pi - p.lambda_risk * max(0.0, tail))
            if len(self._window) == p.cvar_window:
                # removes a value equal to the oldest: only 0.0 and -0.0 are
                # equal yet differ, and a zero's sign cannot change a reward
                del self._ascending[bisect.bisect_left(self._ascending, self._window.popleft())]
            self._window.append(pi)
            bisect.insort(self._ascending, pi)
        return np.reshape(shaped, profit.shape)[()]


def _cvar_reward(p: ShapingParams):
    shaper = CvarRewardShaper(p)
    return lambda pi, alpha: shaper(pi, alpha) / p.s_linear


# role -> params -> the block reward ``(profit, alpha) -> rewards`` PPO
# trains that role on. Worker and baseline rewards are divided by s_linear,
# so every one-action policy's gradients are conditioned alike (a positive
# scale leaves the optimal policy unchanged); the meta controller trains on
# its utility as it is. Each cvar lookup starts a fresh window.
TRAINING_REWARDS = {
    "safe": lambda p: lambda pi, alpha: reward_safe(pi, alpha, p) / p.s_linear,
    "spec": lambda p: lambda pi, alpha: reward_spec(pi, alpha, p) / p.s_linear,
    "neutral": lambda p: lambda pi, alpha: reward_neutral(pi, alpha, p) / p.s_linear,
    "meta": lambda p: lambda pi, alpha: reward_meta(pi, p),
    "vanilla": lambda p: lambda pi, alpha: pi / p.s_linear,
    "cvar": _cvar_reward,
}
# the roles a university worker may take; the meta controller and the
# single-agent baselines save their checkpoints under their own role names
WORKER_ROLES = ("safe", "spec", "neutral")

"""Non-hierarchical comparison policies: a bang-bang moving-average
heuristic over the realized DA-RT spread, and best-single selection by
train-split Sharpe ratio.

Vanilla PPO and CVaR-shaped PPO are ``mars_hierarchy.train_worker`` with the
roles ``"vanilla"`` and ``"cvar"``. The static equal-weight blend of the
frozen workers is ``mars_hierarchy.BlendPolicy`` with uniform weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RollingOptConfig:
    window: int = 24
    hysteresis: float = 0.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")


def _bang_bang(mean_spread: float, hysteresis: float, prev_action: float) -> float:
    if mean_spread > hysteresis:
        return 1.0
    if mean_spread < -hysteresis:
        return -1.0
    return prev_action


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
    return _bang_bang(float(spreads[-cfg.window :].mean()), cfg.hysteresis, prev_action)


class RollingOptPolicy:
    """:func:`rolling_opt_action` as a runner policy: one sliding-window mean
    of the spreads before each tape hour, then a scan from a neutral action."""

    def __init__(self, cfg: RollingOptConfig | None = None):
        self.cfg = cfg or RollingOptConfig()

    def __call__(self, tape) -> np.ndarray:
        w = self.cfg.window
        if tape.start < w:
            raise ValueError(f"only {tape.start} hours of history before the tape, need {w}")
        f = tape.series.fields
        hours = slice(tape.start - w, tape.start + len(tape) - 1)
        spread = f["lmp_da"][hours] - f["lmp_rt"][hours]
        means = np.lib.stride_tricks.sliding_window_view(spread, w).mean(axis=1)
        actions = [0.0]
        for s in means.tolist():
            actions.append(_bang_bang(s, self.cfg.hysteresis, actions[-1]))
        return np.array(actions[1:])


def select_best_single(sharpe_by_name: dict) -> str:
    """Pick the name with the highest train-split Sharpe.

    ``sharpe_by_name`` maps candidate name -> the train-split Sharpe ratio
    (None counts as worst). Ties break on name order for determinism.
    """
    if not sharpe_by_name:
        raise ValueError("no candidates to select from")
    return min(
        sharpe_by_name,
        key=lambda name: (
            -(sharpe_by_name[name] if sharpe_by_name[name] is not None else -np.inf),
            name,
        ),
    )

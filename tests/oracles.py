"""Closed-form reference formulas that the tests check the program against.

They live here, not in ``marsbid``, because the program itself never calls
them: training uses ``ppo_trainer.loss_and_grads``, and the environment
builds its observations from per-hour arrays computed once.
"""

import numpy as np

from marsbid.bidding_env import OBS_HISTORY_HOURS
from marsbid.market_data import day_of_week, hour_of_day
from marsbid.policy_net import gaussian_log_prob, squash_correction


def ppo_loss(log_prob_new, log_prob_old, advantages_normalized, clip_epsilon: float) -> float:
    """Clipped-surrogate loss: negative mean of min(ratio * A, clipped
    ratio * A)."""
    ratio = np.exp(np.asarray(log_prob_new) - np.asarray(log_prob_old))
    adv = np.asarray(advantages_normalized)
    surr = np.minimum(ratio * adv, np.clip(ratio, 1 - clip_epsilon, 1 + clip_epsilon) * adv)
    return float(-surr.mean())


def log_prob_of_action(mean, log_std, a_raw) -> np.ndarray:
    """Log density of a squashed action value in (-1, 1)."""
    a = np.asarray(a_raw, dtype=np.float64)
    u = np.arctanh(a)
    return gaussian_log_prob(u, mean, log_std) - squash_correction(a)


def rolling_volatility(prices) -> float:
    """Population standard deviation of a 24-hour price window."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.shape != (OBS_HISTORY_HOURS,):
        raise ValueError(f"expected exactly {OBS_HISTORY_HOURS} prices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite price in volatility window")
    return float(arr.std())


def observation(env, i: int, unit) -> np.ndarray:
    """The observation entering hour ``i`` with the unit in state ``unit``,
    assembled field by field: the 24 preceding DA prices and their
    volatility over price_scale, the load forecast over load_scale, the unit
    state, the time encodings and, when enabled, the weather."""
    f = env.series.fields
    hist = f["lmp_da"][i - OBS_HISTORY_HOURS : i]
    hod = hour_of_day(env.series.timestamps).astype(np.float64)
    dow = day_of_week(env.series.timestamps).astype(np.float64)
    time_enc = np.column_stack(
        [
            np.sin(2 * np.pi * hod / 24.0),
            np.cos(2 * np.pi * hod / 24.0),
            np.sin(2 * np.pi * dow / 7.0),
            np.cos(2 * np.pi * dow / 7.0),
        ]
    )
    weather = ()
    if env.include_weather:
        t_scale, w_scale = env.WEATHER_SCALES
        weather = (float(f["temperature"][i]) / t_scale, float(f["wind_speed"][i]) / w_scale)
    return np.concatenate(
        [
            hist / env.price_scale,
            [
                rolling_volatility(hist) / env.price_scale,
                float(f["load_forecast"][i]) / env.load_scale,
            ],
            (
                1.0 if unit.committed else 0.0,
                min(1.0, unit.hours_in_state / 24.0),
                unit.prev_output / env.spec.p_max,
            ),
            tuple(time_enc[i]),
            weather,
        ]
    )

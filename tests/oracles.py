"""Closed-form reference formulas that the tests check the program against.

They live here, not in ``marsbid``, because the program itself never calls
them: training uses ``ppo_trainer.loss_and_grads``, and the environment
settles and observes an episode from a tape built once per reset, not hour
by hour as :func:`stepwise_episode` does.
"""

import numpy as np

from marsbid.bidding_env import OBS_HISTORY_HOURS, UnitState
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


def settle_hour(alpha, lmp_da, lmp_rt, gas_price, spec, unit, dispatch_mode="always_on"):
    """Clear one hour at the given DA and RT prices ($/MWh) and gas price
    ($/MMBtu) and advance the unit, all in one step.

    Returns ``((alpha, profit, revenue_da, revenue_rt, cost_marginal,
    cost_startup, penalty), next_unit)``.
    """
    mc = spec.heat_rate * gas_price
    penalty = 0.0
    startup = False
    if dispatch_mode == "always_on":
        startup = not unit.committed
        capacity = spec.p_max
        committed = True
    else:
        want_on = mc <= max(lmp_da, lmp_rt)
        committed = unit.committed
        if unit.committed and not want_on:
            if unit.hours_in_state < spec.min_up:
                penalty += spec.mutd_penalty
            else:
                committed = False
        elif not unit.committed and want_on:
            if unit.hours_in_state < spec.min_down:
                penalty += spec.mutd_penalty
            else:
                committed = True
                startup = True
        if not committed:
            capacity = 0.0
        elif startup:
            capacity = min(spec.p_max, max(spec.p_min, spec.ramp_rate))
        else:
            lo = max(spec.p_min, unit.prev_output - spec.ramp_rate)
            hi = min(spec.p_max, unit.prev_output + spec.ramp_rate)
            capacity = min(max(spec.p_max, lo), hi)
            penalty += spec.ramp_penalty * (spec.p_max - capacity)

    q_da = alpha * capacity
    q_rt = capacity - q_da
    revenue_da = lmp_da * q_da
    revenue_rt = lmp_rt * q_rt
    cost_marginal = mc * (q_da + q_rt)
    cost_startup = spec.startup_cost if startup else 0.0
    profit = revenue_da + revenue_rt - cost_marginal - cost_startup - penalty
    next_unit = UnitState(
        committed=committed,
        hours_in_state=unit.hours_in_state + 1 if committed == unit.committed else 1,
        prev_output=capacity,
    )
    return (alpha, profit, revenue_da, revenue_rt, cost_marginal, cost_startup, penalty), next_unit


def stepwise_episode(env, start: int, actions):
    """An episode of ``env`` from ``start`` under raw ``actions``, hour by
    hour: observe, clamp and map the action, settle, advance the unit.

    Returns ``(obs, columns)``: the (T, obs_dim) observations and a (7, T)
    array of the settled columns in ``Settlement`` field order.
    """
    f = env.series.fields
    unit = UnitState(committed=True, hours_in_state=env.spec.min_up, prev_output=env.spec.p_max)
    obs, rows = [], []
    for t, a in enumerate(actions):
        i = start + t
        obs.append(observation(env, i, unit))
        alpha = (min(1.0, max(-1.0, a)) + 1.0) / 2.0
        row, unit = settle_hour(
            alpha,
            f["lmp_da"].item(i),
            f["lmp_rt"].item(i),
            f["gas_price"].item(i),
            env.spec,
            unit,
            env.dispatch_mode,
        )
        rows.append(row)
    return np.array(obs), np.array(rows).T

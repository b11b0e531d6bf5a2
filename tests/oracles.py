"""Closed-form reference formulas that the tests check the program against.

They live here, not in ``marsbid``, because the program itself never calls
them: training uses ``ppo_trainer.loss_and_grads`` and steps Adam over one
flat parameter vector, not array by array as :class:`DictAdam` does; the
environment settles and observes an episode from a tape built once per
reset, not hour by hour as :func:`stepwise_episode` does; and every policy
runs one forward per block of rows, not one per hour as
:func:`stepwise_rollouts` and the ``row_*`` functions do; and every
CSV, the metric tables included, is joined block by block by
``market_data.write_table``, not written through ``csv.writer`` one
``repr`` at a time as :func:`csv_writer_table` does; and the synthetic
regime chain is the parity of a cumulative sum of switches, not a state
flipped hour by hour as in :func:`loop_regimes`; and
``market_data.generate_synthetic`` uses each noise draw as soon as it is
drawn, not after drawing them all as :func:`drawn_first_synthetic` does; and
``market_data.ingest_csv`` checks and parses a file column by column, not row by row as :func:`rowwise_ingest_csv` does;
and ``market_data.repair_gaps`` takes each hour-of-week mean over a strided
slice, not over a mask of the whole series as :func:`masked_repair_gaps`
does; and the rewards shape a whole buffer of numpy arrays per call, not
one float per call as the ``scalar_*`` rewards and
:class:`ScalarCvarShaper` do; and ``evaluation.rolling_opt`` takes one
sliding-window mean over a whole tape, not one mean per hour as
:func:`rolling_opt_action` does; and ``ppo_trainer.compute_gae`` runs its
recursion over Python floats one column at a time, not over numpy rows as
:func:`numpy_gae` does; and ``ppo_trainer.loss_and_grads`` writes into one
reused gradient buffer, with broadcast outer products, not into fresh
arrays as :func:`fresh_loss_and_grads` does.
"""

import bisect
import csv
import io
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from marsbid.bidding_env import OBS_HISTORY_HOURS
from marsbid.errors import MarketDataError
from marsbid.market_data import (
    _NONNEGATIVE_FIELDS,
    GAS_BASE,
    LOAD_AMPLITUDE,
    LOAD_BASE,
    LOAD_NOISE_STD,
    CSV_COLUMNS,
    FIELD_NAMES,
    SEASONAL_PERIOD,
    MarketSeries,
    _nan_runs,
    day_of_week,
    format_timestamp,
    hour_of_day,
    hour_of_week,
    parse_timestamp,
)
from marsbid.policy_net import (
    HALF_LOG_2PI,
    gaussian_log_prob,
    sample_action,
    squash_correction,
)
from marsbid.reward_shaping import linear_quantile


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


class Unit(NamedTuple):
    """The unit entering an hour: commitment status and ramp memory."""

    committed: bool
    hours_in_state: int
    prev_output: float


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
    next_unit = Unit(
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
    unit = Unit(committed=True, hours_in_state=env.spec.min_up, prev_output=env.spec.p_max)
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


class DictAdam:
    """Adam over a dict of named parameter arrays, one array at a time,
    each moment rebuilt as a fresh array."""

    def __init__(self, params: dict, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g**2
            update = self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)
            self.params[k] -= update


def dict_clip_grad_norm(grads: dict, max_norm: float) -> float:
    """Global-norm clipping of a dict of gradient arrays, array by array."""
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total

def numpy_gae(rewards, values, dones, bootstrap_value, gamma: float, lam: float):
    """Generalized advantage estimation as one numpy recursion over the rows
    of a (T,) or (T, N) buffer; returns ``(advantages, returns)``."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    advantages = np.zeros_like(rewards)
    next_value = np.broadcast_to(np.asarray(bootstrap_value, dtype=np.float64), rewards.shape[1:])
    gae = np.zeros(rewards.shape[1:])
    for t in range(rewards.shape[0] - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        advantages[t] = gae
        next_value = values[t]
    return advantages, advantages + values


def fresh_loss_and_grads(policy, obs, actions_pre, log_prob_old, advantages, returns, cfg):
    """The PPO loss of one minibatch and its gradient, as
    ``(total, policy_loss, value_loss, entropy, ratio, grads)``, with every
    intermediate a fresh array, matrix products for the outer products,
    ``np.clip`` and ``.mean()``, and ``grads`` a new ``ParamVector``."""
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
    return float(total), float(policy_loss), float(value_loss), float(entropy), ratio, grads


# -- one row at a time -----------------------------------------------------------


def row_forward(net, x):
    """``net``'s forward pass of one observation as plain 2-D matmuls of a
    (1, obs_dim) row: ``(mean, log_std, value)``."""
    h = np.asarray(x, dtype=np.float64)[None, :]
    for i in range(len(net.layer_dims) - 1):
        h = np.tanh(h @ net.params[f"W{i}"] + net.params[f"b{i}"])
    mean = h @ net.params["Wp"] + net.params["bp"]
    value = h @ net.params["Wv"] + net.params["bv"]
    return mean[0], net.params["log_std"].copy(), float(value[0, 0])


def row_act(net, x) -> np.ndarray:
    """Deterministic action of one observation."""
    mean = row_forward(net, x)[0]
    return np.tanh(mean) if net.squash else mean


def row_softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def row_blend(weights, actions) -> float:
    """One hour's blend: the dot of two (K,) vectors, pinned to the hull."""
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(actions, dtype=np.float64)
    return float(np.clip(float(w @ a), a.min(), a.max()))


def row_proposals(ensemble, x) -> np.ndarray:
    return np.array([float(row_act(net, x)[0]) for _, net in ensemble.workers])


def greedy_rows(net, tape) -> np.ndarray:
    """A greedy policy's raw actions, one forward per tape row."""
    return np.array([row_act(net, obs)[0] for obs in tape.obs])


def blend_rows(ensemble, meta, tape):
    """``BlendPolicy`` one tape row at a time: ``(actions, weights,
    proposals)``."""
    proposals = np.array([row_proposals(ensemble, obs) for obs in tape.obs])
    if hasattr(meta, "params"):
        weights = np.array([row_softmax(row_forward(meta, obs)[0]) for obs in tape.obs])
    else:
        weights = np.tile(np.asarray(meta, dtype=np.float64), (len(tape), 1))
    actions = np.array([row_blend(w, p) for w, p in zip(weights, proposals)])
    return actions, weights, proposals


def rolling_opt_action(history, window, hysteresis, prev_action=0.0) -> float:
    """Bang-bang rule on the trailing mean DA-RT spread.

    ``history`` holds the realized (lmp_da - lmp_rt) spreads for at least
    ``window`` past hours. Goes full DA (+1) when the mean spread clears
    the hysteresis band, full RT (-1) below it, and holds the previous
    action inside the band.
    """
    spreads = np.asarray(history, dtype=np.float64)
    if spreads.size < window:
        raise ValueError(f"need {window} hours of history, got {spreads.size}")
    mean_spread = float(spreads[-window:].mean())
    if mean_spread > hysteresis:
        return 1.0
    if mean_spread < -hysteresis:
        return -1.0
    return prev_action


def rolling_opt_scan(tape, window, hysteresis) -> np.ndarray:
    """The rolling-opt actions of a tape: :func:`rolling_opt_action` on the
    realized spreads before each hour, from a neutral action."""
    f = tape.series.fields
    spread = f["lmp_da"] - f["lmp_rt"]
    actions = [0.0]
    for i in range(tape.start, tape.start + len(tape)):
        actions.append(rolling_opt_action(spread[i - window : i], window, hysteresis, actions[-1]))
    return np.array(actions[1:])


class Buffer(NamedTuple):
    """One rollout buffer, indexed (t, worker)."""

    obs: np.ndarray
    pre: np.ndarray
    logp: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    bootstrap: np.ndarray


def stepwise_rollouts(env_factory, policy, reward_fn, seed, workers, T, n_buffers, row_action):
    """The rollout buffers ``ppo_trainer.train`` collects with ``seed`` and
    ``workers``, made step by step with a frozen ``policy``: per step and
    worker, in round-robin order, one forward, one (A,) action draw and one
    ``env.step`` at ``row_action(action, obs)``, with a reset at each
    episode end. ``reward_fn`` shapes each step as a one-element block."""
    env_seeds, sample_seed, _ = np.random.SeedSequence(seed).spawn(3)
    env_rngs = [np.random.default_rng(s) for s in env_seeds.spawn(workers)]
    sample_rng = np.random.default_rng(sample_seed)
    envs = [env_factory() for _ in range(workers)]
    obs = [envs[i].reset(rng=env_rngs[i]) for i in range(workers)]
    A = policy.action_dim
    buffers = []
    for _ in range(n_buffers):
        buf = Buffer(
            obs=np.empty((T, workers, policy.layer_dims[0])),
            pre=np.empty((T, workers, A)),
            logp=np.empty((T, workers)),
            rewards=np.empty((T, workers)),
            values=np.empty((T, workers)),
            dones=np.zeros((T, workers)),
            bootstrap=np.empty(workers),
        )
        for t in range(T):
            for i in range(workers):
                x = obs[i]
                mean, log_std, value = row_forward(policy, x)
                s = sample_action(mean, log_std, sample_rng, squash=policy.squash)
                next_obs, settled, done = envs[i].step(row_action(s.action, x))
                buf.obs[t, i] = x
                buf.pre[t, i] = s.pre_squash
                buf.logp[t, i] = s.log_prob
                one_step = reward_fn(np.array([settled.profit]), np.array([settled.alpha]))
                buf.rewards[t, i] = one_step[0]
                buf.values[t, i] = value
                buf.dones[t, i] = 1.0 if done else 0.0
                obs[i] = envs[i].reset(rng=env_rngs[i]) if done else next_obs
        buf.bootstrap[:] = [row_forward(policy, x)[2] for x in obs]
        buffers.append(buf)
    return buffers


def scalar_reward_safe(pi: float, alpha: float, p) -> float:
    return pi * alpha - abs(pi) * (1.0 - alpha) * p.lambda_role


def scalar_reward_spec(pi: float, alpha: float, p) -> float:
    return pi * (1.0 - alpha) - abs(pi) * alpha * p.lambda_role


def scalar_reward_meta(pi: float, p) -> float:
    return pi / p.s_linear - 0.5 * p.lambda_risk * (pi / p.s_var) ** 2


def scalar_reward_neutral(pi: float, alpha: float, p) -> float:
    excess = max(0.0, abs(alpha - 0.5) - p.neutral_band)
    return pi - abs(pi) * p.lambda_role * excess / (0.5 - p.neutral_band)


class ScalarCvarShaper:
    """The CVaR shaper one float per call: each profit is shaped against
    the window of the profits before it, kept in arrival order and
    sorted."""

    def __init__(self, p):
        self.p = p
        self._window: deque = deque()
        self._ascending: list = []

    def __call__(self, pi: float) -> float:
        shaped = pi
        if len(self._ascending) >= 20:
            quantile = linear_quantile(self._ascending, self.p.cvar_alpha)
            shaped = pi - self.p.lambda_risk * max(0.0, quantile - pi)
        if len(self._window) == self.p.cvar_window:
            del self._ascending[bisect.bisect_left(self._ascending, self._window.popleft())]
        self._window.append(pi)
        bisect.insort(self._ascending, pi)
        return shaped


def repr_cell(value, missing: str) -> str:
    """One value's CSV cell on its own: ``missing`` for NaN, else ``repr``."""
    return missing if isinstance(value, float) and math.isnan(value) else repr(value)


def csv_writer_table(path, header_comment, header, rows) -> None:
    """A CSV written through ``csv.writer``, which quotes any cell that
    holds a comma, a quote or a line break: the optional ``# header_comment``
    line, the header, then ``rows``, each a sequence of string cells. Each
    row is written with the default CR LF line terminator, then ended with
    LF instead: ``csv.writer`` quotes a carriage return only when its line
    terminator holds one, and a bare one ends a record for ``csv.reader``."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        for row in [header, *rows]:
            line = io.StringIO()
            csv.writer(line).writerow(row)
            fh.write(line.getvalue()[: -len("\r\n")] + "\n")


def loop_regimes(rng: np.random.Generator, n: int, dwell_hours: float) -> np.ndarray:
    """The synthetic regime chain hour by hour: from state 0, switch where
    the hour's draw is below 1 / dwell_hours."""
    p_switch = 1.0 / dwell_hours
    draws = rng.random(n)
    states = np.empty(n, dtype=np.int8)
    state = 0
    for t in range(n):
        if draws[t] < p_switch:
            state = 1 - state
        states[t] = state
    return states


def drawn_first_synthetic(cfg) -> dict:
    """The synthetic market's fields and regimes, every noise series drawn
    before any is used: regimes, DA noise, RT noise, spike uniforms, spike
    sizes, load, temperature and wind noise, then the daily gas steps."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_hours
    ts = np.arange(cfg.start, cfg.start + n, dtype=np.int64)
    hod = hour_of_day(ts).astype(np.float64)
    diurnal = np.sin(2.0 * np.pi * (hod - 6.0) / 24.0)
    regimes = loop_regimes(rng, n, cfg.regime_dwell_hours)
    da_noise, rt_noise = rng.standard_normal(n), rng.standard_normal(n)
    spike_u, spike_mag = rng.random(n), rng.exponential(1.0, n)
    load_noise, temp_noise = rng.standard_normal(n), rng.standard_normal(n)
    wind_noise, gas_steps = rng.standard_normal(n), rng.standard_normal(n)

    volatile = regimes == 1
    mean = np.where(volatile, cfg.volatile_mean, cfg.calm_mean)
    std = np.where(volatile, cfg.volatile_std, cfg.calm_std)
    lmp_da = mean + cfg.diurnal_amplitude * diurnal + std * da_noise
    spread_scale = np.where(volatile, cfg.volatile_std / cfg.calm_std, 1.0)
    lmp_rt = lmp_da + cfg.rt_spread_std * spread_scale * rt_noise
    if cfg.rt_spike_prob > 0.0:
        hit = volatile & (spike_u < cfg.rt_spike_prob)
        lmp_rt = lmp_rt + np.where(hit, cfg.rt_spike_mean * (1.0 + spike_mag), 0.0)
    load_shape = LOAD_BASE + LOAD_AMPLITUDE * diurnal
    days = (ts // 24) - (ts[0] // 24)
    day_steps = np.zeros(int(days[-1]) + 1)
    day_steps[1:] = gas_steps[1 : day_steps.size]
    return {
        "lmp_da": lmp_da,
        "lmp_rt": lmp_rt,
        "load_actual": np.maximum(0.0, load_shape + LOAD_NOISE_STD * load_noise),
        "load_forecast": np.maximum(0.0, load_shape),
        "temperature": 12.0 + 8.0 * np.sin(2.0 * np.pi * (hod - 8.0) / 24.0) + 1.5 * temp_noise,
        "wind_speed": np.maximum(0.0, 5.0 + 2.5 * wind_noise),
        "gas_price": np.clip(GAS_BASE + np.cumsum(0.05 * day_steps), 0.5, None)[days],
        "regimes": regimes,
    }


def rowwise_ingest_csv(path) -> MarketSeries:
    """An hourly market CSV read row by row, each row checked in turn: field
    count, timestamp, duplicate, each value (a number, or blank for a gap,
    never infinite) in ``FIELD_NAMES`` order, then the non-negative fields;
    the first fault raises."""
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise MarketDataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    missing_cols = [c for c in CSV_COLUMNS if c not in header]
    if missing_cols:
        raise MarketDataError(f"{path}: header missing columns {missing_cols}")
    ts_idx = header.index("timestamp")
    field_idx = [(name, header.index(name)) for name in FIELD_NAMES]

    stamps: dict[int, None] = {}  # file order
    columns: dict[str, list] = {name: [] for name in FIELD_NAMES}
    for rownum, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise MarketDataError(f"{path}: malformed row {rownum}: wrong field count")
        ts = parse_timestamp(row[ts_idx])
        if ts in stamps:
            raise MarketDataError(
                f"{path}: duplicate timestamp {format_timestamp(ts)} at row {rownum}"
            )
        stamps[ts] = None
        for name, i in field_idx:
            cell = row[i].strip()
            try:
                value = float(cell) if cell else np.nan
            except ValueError:
                value = math.inf
            if math.isinf(value):
                raise MarketDataError(
                    f"{path}: malformed row {rownum}: bad value {cell!r} for {name}"
                )
            columns[name].append(value)
        for name in _NONNEGATIVE_FIELDS:
            value = columns[name][-1]
            if value < 0:
                raise MarketDataError(
                    f"{name} must be non-negative, got {value} at {format_timestamp(ts)}"
                )

    if not stamps:
        raise MarketDataError(f"{path}: no data rows")
    hours = np.fromiter(stamps, dtype=np.int64, count=len(stamps))
    timeline = np.arange(hours.min(), hours.max() + 1, dtype=np.int64)
    fields = {name: np.full(timeline.size, np.nan) for name in FIELD_NAMES}
    for name in FIELD_NAMES:
        fields[name][hours - timeline[0]] = columns[name]
    return MarketSeries(timestamps=timeline, fields=fields, provenance="ingested")


def masked_repair_gaps(series: MarketSeries) -> MarketSeries:
    """Gaps under 4 hours filled linearly, longer or boundary ones with
    hour-of-week means, each mean taken over a mask of the whole series."""
    how = hour_of_week(series.timestamps)
    new_fields, new_mask = {}, {}
    for name in FIELD_NAMES:
        values = series.fields[name].copy()
        mask = series.fill_mask[name].copy()
        isnan = np.isnan(values)
        known = ~isnan
        if known.sum() < 2:
            raise MarketDataError(f"field {name}: fewer than 2 observed values")
        seasonal = np.full(SEASONAL_PERIOD, np.nan)
        for h in range(SEASONAL_PERIOD):
            sel = known & (how % SEASONAL_PERIOD == h)
            if sel.any():
                seasonal[h] = values[sel].mean()
        overall = values[known].mean()
        for start, stop in _nan_runs(isnan):
            length = stop - start
            at_boundary = start == 0 or stop == len(values)
            if at_boundary and length > SEASONAL_PERIOD:
                raise MarketDataError(
                    f"field {name}: {length}h gap at series boundary exceeds "
                    f"seasonal period {SEASONAL_PERIOD}"
                )
            if length < 4 and not at_boundary:
                left, right = values[start - 1], values[stop]
                steps = np.arange(1, length + 1, dtype=np.float64)
                values[start:stop] = left + (right - left) * steps / (length + 1)
            else:
                fill = seasonal[how[start:stop] % SEASONAL_PERIOD]
                values[start:stop] = np.where(np.isnan(fill), overall, fill)
            mask[start:stop] = True
        new_fields[name] = values
        new_mask[name] = mask
    return MarketSeries(
        timestamps=series.timestamps.copy(),
        fields=new_fields,
        provenance=series.provenance,
        fill_mask=new_mask,
        regimes=None if series.regimes is None else series.regimes.copy(),
    )

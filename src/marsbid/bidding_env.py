"""StrategicBiddingEnv: the two-settlement bidding simulator.

One agent action per hour, a scalar in [-1, 1] mapped to the day-ahead
allocation ratio alpha in [0, 1]. alpha * capacity is settled at the DA
price, the remainder at the RT price; marginal fuel cost, startup cost and
constraint fines complete the hourly profit.

Two dispatch modes:

* ``always_on`` (default): the unit runs at p_max every hour, so the full
  capacity splits across the two settlements and constraint fines never
  fire. Startup cost applies only if a step begins with the unit offline.
* ``economic``: the unit shuts down when marginal cost exceeds both LMPs,
  subject to minimum up/down times (infeasible transitions are blocked and
  fined) and ramp limits (clamped to feasibility and fined per MW clamped).

The dynamics are exogenous: :func:`unit_schedule`, the unit's state and
dispatch over a whole tape, reads the prices but never alpha. So an
episode is a pure function of its start: one schedule fixes it as a
:class:`Tape`, its observations and, per hour, the capacity, marginal cost,
startup cost and fines. :func:`settle` is then elementwise arithmetic in
alpha, for one hour or for a whole tape at once, and ``step`` is a cursor
over the tape. This needs dynamics that do not depend on the action; a
storage unit, whose state of charge follows its bids, would need a scan.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError
from .market_data import MarketSeries, day_of_week, hour_of_day, write_table

OBS_HISTORY_HOURS = 24
# Observation cells of the unit state, after the price window, the
# volatility and the load forecast.
UNIT_CELLS = slice(OBS_HISTORY_HOURS + 2, OBS_HISTORY_HOURS + 5)


@dataclass(frozen=True)
class GeneratorSpec:
    """Physical and cost parameters of the traded unit."""

    p_max: float = 100.0
    p_min: float = 20.0
    ramp_rate: float = 50.0  # MW per hour
    min_up: int = 4
    min_down: int = 4
    startup_cost: float = 500.0
    heat_rate: float = 7.5  # MMBtu per MWh; marginal cost = heat_rate * gas
    ramp_penalty: float = 25.0  # $ per MW clamped
    mutd_penalty: float = 1000.0  # $ per blocked transition

    def __post_init__(self):
        # the observations divide by p_max
        if not (0 <= self.p_min <= self.p_max and self.p_max > 0):
            raise ValueError("generator requires 0 <= p_min <= p_max and p_max > 0")
        if self.ramp_rate <= 0:
            raise ValueError("ramp_rate must be > 0")
        if self.min_up < 0 or self.min_down < 0:
            raise ValueError("min_up and min_down must be >= 0")
        if min(self.startup_cost, self.ramp_penalty, self.mutd_penalty) < 0:
            raise ValueError("costs must be >= 0")
        if self.heat_rate < 0:
            raise ValueError(f"heat_rate must be >= 0, got {self.heat_rate}")

    def marginal_cost(self, gas_price: float) -> float:
        return self.heat_rate * gas_price


class Settlement(NamedTuple):
    """What alpha settled: floats for one hour, arrays over a tape. The
    profit decomposes exactly into the other money fields."""

    alpha: float
    profit: float
    revenue_da: float
    revenue_rt: float
    cost_marginal: float
    cost_startup: float
    penalty: float


def map_action(a_raw):
    """Map raw actions in [-1, 1] to DA allocation ratios (a+1)/2,
    elementwise.

    Out-of-range finite values are clamped; stochastic policies routinely
    emit samples beyond the nominal bounds.
    """
    if not np.all(np.isfinite(a_raw)):
        raise ValueError(f"non-finite action {a_raw!r}")
    return (np.minimum(np.maximum(a_raw, -1.0), 1.0) + 1.0) / 2.0


def unit_schedule(spec: GeneratorSpec, dispatch_mode: str, lmp_da, lmp_rt, marginal_cost):
    """The unit's schedule over a tape's prices and marginal costs ($/MWh);
    alpha plays no part.

    Returns a (6, T) float64 array. Its rows are the unit entering each hour
    (committed 1 or 0, hours in that state, previous output in MW), then the
    hour's capacity to settle, startup cost and fines in $. The unit starts
    committed at full output with its minimum-up time already served, so
    ``always_on``, which keeps it there, never pays a startup cost or a fine
    and needs no scan.
    """
    n = len(lmp_da)
    if dispatch_mode == "always_on":
        schedule = np.zeros((6, n))
        schedule[0] = 1.0
        schedule[1] = spec.min_up + np.arange(n, dtype=np.float64)
        schedule[2:4] = spec.p_max
        return schedule
    if dispatch_mode != "economic":
        raise ValueError(f"unknown dispatch mode {dispatch_mode!r}")
    committed, hours_in_state, prev_output = True, spec.min_up, spec.p_max
    rows = []
    for da, rt, mc in zip(lmp_da.tolist(), lmp_rt.tolist(), marginal_cost.tolist()):
        penalty = 0.0
        startup = False
        want_on = mc <= max(da, rt)
        on = committed
        if committed and not want_on:
            if hours_in_state < spec.min_up:
                penalty += spec.mutd_penalty  # shutdown blocked
            else:
                on = False
        elif not committed and want_on:
            if hours_in_state < spec.min_down:
                penalty += spec.mutd_penalty  # startup blocked
            else:
                on = startup = True
        if not on:
            capacity = 0.0
        elif startup:
            # Startup ramps from zero; exempt from the ramp fine.
            capacity = min(spec.p_max, max(spec.p_min, spec.ramp_rate))
        else:
            lo = max(spec.p_min, prev_output - spec.ramp_rate)
            hi = min(spec.p_max, prev_output + spec.ramp_rate)
            capacity = min(max(spec.p_max, lo), hi)
            penalty += spec.ramp_penalty * (spec.p_max - capacity)
        cost_startup = spec.startup_cost if startup else 0.0
        rows.append((committed, hours_in_state, prev_output, capacity, cost_startup, penalty))
        hours_in_state = hours_in_state + 1 if on == committed else 1
        committed, prev_output = on, capacity
    return np.array(rows, dtype=np.float64).reshape(n, 6).T


def settle(alpha, lmp_da, lmp_rt, marginal_cost, capacity, cost_startup, penalty) -> Settlement:
    """Clear the two-settlement market per the profit equation, elementwise:
    one hour's floats, or an alpha per hour and the rows of a tape's
    ``dispatch``."""
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError(f"alpha {alpha} out of [0, 1]")
    q_da = alpha * capacity
    q_rt = capacity - q_da
    revenue_da = lmp_da * q_da
    revenue_rt = lmp_rt * q_rt
    cost_marginal = marginal_cost * (q_da + q_rt)
    profit = revenue_da + revenue_rt - cost_marginal - cost_startup - penalty
    return Settlement(alpha, profit, revenue_da, revenue_rt, cost_marginal, cost_startup, penalty)


@dataclass(frozen=True)
class Tape:
    """One episode's exogenous hours, fixed when the episode resets.

    ``obs[t]`` is the read-only observation entering series hour
    ``start + t``. ``dispatch`` is a read-only (6, T) array whose rows are
    the hour arguments of :func:`settle`: lmp_da, lmp_rt, marginal cost,
    capacity, startup cost and fines.
    """

    series: MarketSeries
    start: int
    obs: np.ndarray
    dispatch: np.ndarray

    def __len__(self) -> int:
        return self.obs.shape[0]


class StrategicBiddingEnv:
    """Episode driver over an immutable repaired market series.

    Observation scaling is a fixed affine map (price_scale, load_scale) so
    replays are deterministic.

    The market is exogenous: prices, volatility, load, time and weather
    never depend on the action. So the 24-hour DA price windows and one
    read-only hour-feature matrix are built once, and :meth:`episode`
    builds an episode's :class:`Tape` from them and the unit's
    :func:`unit_schedule`, touching nothing else: one instance serves every
    rollout worker. ``reset`` and ``step`` are the stepwise view, one cursor
    over ``env.tape``. An observation is a read-only float64 vector of
    ``obs_dim`` cells:

    * 0-23: the DA LMPs of the 24 hours before the current one, oldest
      first, divided by price_scale;
    * 24: their population std (the 24 h volatility), same scaling;
    * 25: the load forecast divided by load_scale;
    * 26-28 (``UNIT_CELLS``): committed (1 or 0), hours in that state / 24
      clamped to 1, previous output / p_max;
    * 29-32: sin and cos of the hour of day, sin and cos of the day of week;
    * 33-34, with ``include_weather`` only: temperature and wind speed
      divided by ``WEATHER_SCALES``.
    """

    WEATHER_SCALES = (20.0, 10.0)  # degC, m/s

    def __init__(
        self,
        series: MarketSeries,
        spec: GeneratorSpec | None = None,
        episode_len: int | None = 168,
        price_scale: float = 100.0,
        load_scale: float | None = None,
        dispatch_mode: str = "always_on",
        include_weather: bool = False,
    ):
        if series.has_missing():
            raise ValueError("environment requires a fully repaired series")
        if episode_len is None:  # the whole series after the history
            episode_len = len(series) - OBS_HISTORY_HOURS
        if len(series) < OBS_HISTORY_HOURS + episode_len:
            raise ValueError(
                f"series of {len(series)}h cannot host a {episode_len}h episode "
                f"with {OBS_HISTORY_HOURS}h of history"
            )
        if dispatch_mode not in ("always_on", "economic"):
            raise ValueError(f"unknown dispatch mode {dispatch_mode!r}")
        self.series = series
        self.spec = spec or GeneratorSpec()
        self.episode_len = int(episode_len)
        self.price_scale = float(price_scale)
        f = series.fields
        if load_scale is None:
            load_scale = float(np.max(f["load_forecast"])) or 1.0
        self.load_scale = float(load_scale)
        self.dispatch_mode = dispatch_mode
        self.include_weather = bool(include_weather)

        # row j: the DA prices of hours j .. j + 23; volatility[i] = population
        # std of the 24 DA prices before index i
        self._windows = np.lib.stride_tricks.sliding_window_view(f["lmp_da"], OBS_HISTORY_HOURS)
        self.volatility = np.full(len(series), np.nan)
        with np.errstate(over="ignore", invalid="ignore"):  # prices near the float limit
            self.volatility[OBS_HISTORY_HOURS:] = self._windows[:-1].std(axis=1)
        if not np.isfinite(self.volatility[OBS_HISTORY_HOURS:]).all():
            raise DivergenceError("non-finite 24-h volatility of lmp_da in the observations")
        self.volatility.flags.writeable = False
        hod = hour_of_day(series.timestamps).astype(np.float64)
        dow = day_of_week(series.timestamps).astype(np.float64)
        columns = [
            self.volatility / self.price_scale,
            f["load_forecast"] / self.load_scale,
            np.zeros((len(series), 3)),  # unit state, written per tape
            np.sin(2 * np.pi * hod / 24.0),
            np.cos(2 * np.pi * hod / 24.0),
            np.sin(2 * np.pi * dow / 7.0),
            np.cos(2 * np.pi * dow / 7.0),
        ]
        if self.include_weather:
            t_scale, w_scale = self.WEATHER_SCALES
            columns += [f["temperature"] / t_scale, f["wind_speed"] / w_scale]
        self._hour_features = np.column_stack(columns)
        self._hour_features.flags.writeable = False

        self.tape: Tape | None = None
        self._t = 0

    @property
    def obs_dim(self) -> int:
        return OBS_HISTORY_HOURS + self._hour_features.shape[1]

    @property
    def min_start(self) -> int:
        return OBS_HISTORY_HOURS

    @property
    def max_start(self) -> int:
        return len(self.series) - self.episode_len

    def episode(
        self,
        start: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> Tape:
        """The tape of the episode at ``start`` (or a uniform random valid
        index drawn from ``rng``, else the first valid one). Pure: it leaves
        ``env.tape`` and the step cursor alone. The unit's cells and
        columns come from one :func:`unit_schedule`.
        """
        if start is None:
            if rng is None:
                start = self.min_start
            else:
                start = int(rng.integers(self.min_start, self.max_start + 1))
        if start < self.min_start:
            raise ValueError(
                f"start {start} leaves insufficient history (need >= {self.min_start})"
            )
        if start > self.max_start:
            raise ValueError(
                f"episode of {self.episode_len}h starting at {start} overruns the series"
            )
        start = int(start)
        hours = slice(start, start + self.episode_len)
        f = self.series.fields
        spec = self.spec
        lmp_da, lmp_rt = f["lmp_da"][hours], f["lmp_rt"][hours]
        mc = spec.marginal_cost(f["gas_price"][hours])
        schedule = unit_schedule(spec, self.dispatch_mode, lmp_da, lmp_rt, mc)
        obs = np.empty((self.episode_len, self.obs_dim))
        windows = self._windows[start - OBS_HISTORY_HOURS : hours.stop - OBS_HISTORY_HOURS]
        np.divide(windows, self.price_scale, out=obs[:, :OBS_HISTORY_HOURS])
        obs[:, OBS_HISTORY_HOURS:] = self._hour_features[hours]
        committed, hours_in_state, prev_output = schedule[:3]
        obs[:, UNIT_CELLS] = np.column_stack(
            (committed, np.minimum(1.0, hours_in_state / 24.0), prev_output / spec.p_max)
        )
        table = np.vstack((lmp_da, lmp_rt, mc, schedule[3:]))
        for arr in (obs, table):
            arr.flags.writeable = False
        return Tape(series=self.series, start=start, obs=obs, dispatch=table)

    def reset(
        self,
        start: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Begin the stepwise view of :meth:`episode`'s tape and return its
        first observation."""
        self.tape = self.episode(start, rng)
        self._t = 0
        return self.tape.obs[0]

    def step(self, a_raw: float):
        """Settle the tape's next hour at action ``a_raw``.

        Returns ``(next_obs, settlement, done)``; ``next_obs`` is None once
        the episode is done.
        """
        if self.tape is None:
            raise RuntimeError("environment not reset")
        t = self._t
        if t >= len(self.tape):
            raise RuntimeError("step after episode end")
        settlement = settle(map_action(float(a_raw)), *self.tape.dispatch[:, t].tolist())
        self._t = t + 1
        done = self._t == len(self.tape)
        return (None if done else self.tape.obs[self._t]), settlement, done


@dataclass
class EpisodeLedger:
    """Per-hour record of an evaluation or diagnostic episode: its hours'
    timestamps, the tape's prices, the :class:`Settlement` arrays and the
    volatility, one array per column, in CSV order.

    ``weights`` and ``proposals`` ((T, K), one column per role) and
    ``r_meta`` are present together, for blended runs only; metric code
    treats None as "not applicable".
    """

    timestamps: np.ndarray
    lmp_da: np.ndarray
    lmp_rt: np.ndarray
    alpha: np.ndarray
    profit: np.ndarray
    revenue_da: np.ndarray
    revenue_rt: np.ndarray
    cost_marginal: np.ndarray
    cost_startup: np.ndarray
    penalty: np.ndarray
    volatility: np.ndarray
    roles: tuple = ()
    weights: np.ndarray | None = None
    proposals: np.ndarray | None = None
    r_meta: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.profit)

    def spec_weight_series(self) -> np.ndarray | None:
        """Weight column of the 'spec' role, if this was a hierarchical run."""
        if self.weights is None or "spec" not in self.roles:
            return None
        return self.weights[:, self.roles.index("spec")]

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """One row per hour: the timestamp, then each per-hour field's
        Python float ``repr``, then the blend columns of a blended run."""
        # the fields without a default are the per-hour columns, timestamps first
        names = [f.name for f in fields(self) if f.default is MISSING][1:]
        cols = ["timestamp", *names]
        columns = [self.timestamps.astype("datetime64[h]")]
        columns += [getattr(self, name) for name in names]
        if self.weights is not None:
            cols += [f"w_{r}" for r in self.roles] + [f"prop_{r}" for r in self.roles]
            cols.append("r_meta")
            columns += [*self.weights.T, *self.proposals.T, self.r_meta]
        write_table(path, header_comment, cols, columns)

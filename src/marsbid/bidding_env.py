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

The dynamics are exogenous: :func:`dispatch`, the unit-state transition,
reads the prices and the unit but never alpha. So an episode is a pure
function of its start: one scan of the unit state fixes it as a
:class:`Tape`, its observations and, per hour, the capacity, marginal cost,
startup cost and fines. :func:`settle` is then elementwise arithmetic in
alpha, for one hour or for a whole tape at once, and ``step`` is a cursor
over the tape. This needs dynamics that do not depend on the action; a
storage unit, whose state of charge follows its bids, would need a scan.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .market_data import CSV_BLOCK_ROWS, MarketSeries, day_of_week, format_timestamps, hour_of_day

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
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError("generator requires 0 <= p_min <= p_max")
        if self.ramp_rate <= 0:
            raise ValueError("ramp_rate must be > 0")
        if self.min_up < 0 or self.min_down < 0:
            raise ValueError("min_up and min_down must be >= 0")
        if min(self.startup_cost, self.ramp_penalty, self.mutd_penalty) < 0:
            raise ValueError("costs must be >= 0")

    def marginal_cost(self, gas_price: float) -> float:
        return self.heat_rate * gas_price


class UnitState(NamedTuple):
    """Commitment status and ramp memory of the unit."""

    committed: bool
    hours_in_state: int
    prev_output: float


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


def dispatch(
    unit: UnitState,
    lmp_da: float,
    lmp_rt: float,
    marginal_cost: float,
    spec: GeneratorSpec,
    dispatch_mode: str = "always_on",
):
    """Run the unit through one hour at the given prices and marginal cost
    ($/MWh); alpha plays no part.

    Returns ``(capacity, cost_startup, penalty, next_unit)``: the MW to
    settle, the startup cost and fines in $, and the advanced unit state.
    """
    penalty = 0.0
    startup = False

    if dispatch_mode == "always_on":
        startup = not unit.committed
        capacity = spec.p_max
        committed = True
    elif dispatch_mode == "economic":
        want_on = marginal_cost <= max(lmp_da, lmp_rt)
        committed = unit.committed
        if unit.committed and not want_on:
            if unit.hours_in_state < spec.min_up:
                penalty += spec.mutd_penalty  # shutdown blocked
            else:
                committed = False
        elif not unit.committed and want_on:
            if unit.hours_in_state < spec.min_down:
                penalty += spec.mutd_penalty  # startup blocked
            else:
                committed = True
                startup = True
        if not committed:
            capacity = 0.0
        elif startup:
            # Startup ramps from zero; exempt from the ramp fine.
            capacity = min(spec.p_max, max(spec.p_min, spec.ramp_rate))
        else:
            lo = max(spec.p_min, unit.prev_output - spec.ramp_rate)
            hi = min(spec.p_max, unit.prev_output + spec.ramp_rate)
            capacity = min(max(spec.p_max, lo), hi)
            penalty += spec.ramp_penalty * (spec.p_max - capacity)
    else:
        raise ValueError(f"unknown dispatch mode {dispatch_mode!r}")

    next_unit = UnitState(
        committed=committed,
        hours_in_state=unit.hours_in_state + 1 if committed == unit.committed else 1,
        prev_output=capacity,
    )
    return capacity, spec.startup_cost if startup else 0.0, penalty, next_unit


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
    builds an episode's :class:`Tape` from them and one scan of the unit
    state, touching nothing else: one instance serves every rollout worker.
    ``reset`` and ``step`` are the stepwise view, one cursor over
    ``env.tape``. An observation is a read-only float64 vector of
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
        episode_len: int = 168,
        price_scale: float = 100.0,
        load_scale: float | None = None,
        dispatch_mode: str = "always_on",
        include_weather: bool = False,
    ):
        if series.has_missing():
            raise ValueError("environment requires a fully repaired series")
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
        self.volatility[OBS_HISTORY_HOURS:] = self._windows[:-1].std(axis=1)
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
        ``env.tape`` and the step cursor alone.

        The unit starts committed at full output with its minimum-up time
        already served, so the default mode never pays a startup cost; there
        the unit never changes state and its columns need no scan.
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
        if self.dispatch_mode == "always_on":
            committed = np.ones(self.episode_len)
            hours_in_state = spec.min_up + np.arange(self.episode_len, dtype=np.float64)
            prev_output = np.full(self.episode_len, spec.p_max, dtype=np.float64)
            hour_columns = (prev_output, np.zeros(self.episode_len), np.zeros(self.episode_len))
        else:
            unit = UnitState(committed=True, hours_in_state=spec.min_up, prev_output=spec.p_max)
            rows = []  # the unit entering each hour, then the hour's dispatch
            for prices in zip(lmp_da.tolist(), lmp_rt.tolist(), mc.tolist()):
                *hour, next_unit = dispatch(unit, *prices, spec, self.dispatch_mode)
                rows.append((*unit, *hour))
                unit = next_unit
            committed, hours_in_state, prev_output, *hour_columns = np.array(
                rows, dtype=np.float64
            ).T
        obs = np.empty((self.episode_len, self.obs_dim))
        windows = self._windows[start - OBS_HISTORY_HOURS : hours.stop - OBS_HISTORY_HOURS]
        np.divide(windows, self.price_scale, out=obs[:, :OBS_HISTORY_HOURS])
        obs[:, OBS_HISTORY_HOURS:] = self._hour_features[hours]
        obs[:, UNIT_CELLS] = np.column_stack(
            (committed, np.minimum(1.0, hours_in_state / 24.0), prev_output / spec.p_max)
        )
        table = np.vstack((lmp_da, lmp_rt, mc, *hour_columns))
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
        columns = [getattr(self, name) for name in names]
        if self.weights is not None:
            cols += [f"w_{r}" for r in self.roles] + [f"prop_{r}" for r in self.roles]
            cols.append("r_meta")
            columns += [*self.weights.T, *self.proposals.T, self.r_meta]
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for lo in range(0, len(self), CSV_BLOCK_ROWS):
                block = slice(lo, lo + CSV_BLOCK_ROWS)
                cells = [format_timestamps(self.timestamps[block])]
                cells += [map(repr, col[block].tolist()) for col in columns]
                writer.writerows(zip(*cells))

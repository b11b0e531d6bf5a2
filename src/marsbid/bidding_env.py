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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .market_data import (
    HourlyMarketRecord,
    MarketSeries,
    day_of_week,
    format_timestamp,
    hour_of_day,
)

OBS_HISTORY_HOURS = 24


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


@dataclass(frozen=True)
class UnitState:
    """Commitment status and ramp memory of the unit."""

    committed: bool
    hours_in_state: int
    prev_output: float


@dataclass(frozen=True)
class SettlementComponents:
    revenue_da: float
    revenue_rt: float
    cost_marginal: float
    cost_startup: float
    penalty: float


@dataclass(frozen=True)
class Observation:
    """MDP state vector components.

    ``da_price_history`` holds the 24 DA LMPs preceding the current hour
    (oldest first), scaled by price_scale; ``volatility_24h`` is their
    population std, same scaling. Time encodings are sin/cos pairs in
    [-1, 1]. ``weather`` is empty unless the environment enables the
    optional temperature/wind extras. ``vector`` concatenates everything in
    declaration order.
    """

    da_price_history: np.ndarray
    volatility_24h: float
    load_forecast: float
    unit: tuple  # (u_t, hours_in_state/24 clamped, prev_output/p_max)
    time_enc: tuple  # (sin hod, cos hod, sin dow, cos dow)
    weather: tuple = ()
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vec = np.concatenate(
            [
                np.asarray(self.da_price_history, dtype=np.float64),
                [self.volatility_24h, self.load_forecast],
                self.unit,
                self.time_enc,
                self.weather,
            ]
        )
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return int(self.vector.size)


@dataclass(frozen=True)
class StepOutcome:
    """Result of settling one hour."""

    reward_raw: float  # profit in $, the decomposition identity holds exactly
    observation_next: Observation | None
    done: bool
    components: SettlementComponents
    alpha: float


def map_action(a_raw: float) -> float:
    """Map a raw action in [-1, 1] to the DA allocation ratio (a+1)/2.

    Out-of-range finite values are clamped; stochastic policies routinely
    emit samples beyond the nominal bounds.
    """
    if not math.isfinite(a_raw):
        raise ValueError(f"non-finite action {a_raw!r}")
    return (min(1.0, max(-1.0, a_raw)) + 1.0) / 2.0


def rolling_volatility(prices) -> float:
    """Population standard deviation of a 24-hour price window."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.shape != (OBS_HISTORY_HOURS,):
        raise ValueError(f"expected exactly {OBS_HISTORY_HOURS} prices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite price in volatility window")
    return float(arr.std())


def settle(
    alpha: float,
    record: HourlyMarketRecord,
    spec: GeneratorSpec,
    unit: UnitState,
    dispatch_mode: str = "always_on",
):
    """Clear one hour of the two-settlement market.

    Returns ``(StepOutcome, UnitState)``: the financial outcome per the
    profit equation (observation_next/done are filled by the environment)
    and the advanced unit state.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} out of [0, 1]")
    mc = spec.marginal_cost(record.gas_price)
    penalty = 0.0
    startup = False

    if dispatch_mode == "always_on":
        startup = not unit.committed
        capacity = spec.p_max
        committed = True
    elif dispatch_mode == "economic":
        want_on = mc <= max(record.lmp_da, record.lmp_rt)
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

    q_da = alpha * capacity
    q_rt = capacity - q_da
    revenue_da = record.lmp_da * q_da
    revenue_rt = record.lmp_rt * q_rt
    cost_marginal = mc * (q_da + q_rt)
    cost_startup = spec.startup_cost if startup else 0.0
    profit = revenue_da + revenue_rt - cost_marginal - cost_startup - penalty

    next_unit = UnitState(
        committed=committed,
        hours_in_state=unit.hours_in_state + 1 if committed == unit.committed else 1,
        prev_output=capacity,
    )
    outcome = StepOutcome(
        reward_raw=profit,
        observation_next=None,
        done=False,
        components=SettlementComponents(
            revenue_da=revenue_da,
            revenue_rt=revenue_rt,
            cost_marginal=cost_marginal,
            cost_startup=cost_startup,
            penalty=penalty,
        ),
        alpha=alpha,
    )
    return outcome, next_unit


class StrategicBiddingEnv:
    """Episode driver over an immutable repaired market series.

    An instance is single-threaded; run independent instances over the same
    series for parallel rollout collection. Observation scaling is a fixed
    affine map (price_scale, load_scale) so replays are deterministic.
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
        if load_scale is None:
            load_scale = float(np.max(series.fields["load_forecast"])) or 1.0
        self.load_scale = float(load_scale)
        self.dispatch_mode = dispatch_mode
        self.include_weather = bool(include_weather)

        lmp_da = series.fields["lmp_da"]
        # volatility[i] = population std of the 24 hours preceding index i
        windows = np.lib.stride_tricks.sliding_window_view(lmp_da, OBS_HISTORY_HOURS)
        self._vol = np.full(len(series), np.nan)
        self._vol[OBS_HISTORY_HOURS:] = windows[:-1].std(axis=1)
        hod = hour_of_day(series.timestamps).astype(np.float64)
        dow = day_of_week(series.timestamps).astype(np.float64)
        self._time_enc = np.column_stack(
            [
                np.sin(2 * np.pi * hod / 24.0),
                np.cos(2 * np.pi * hod / 24.0),
                np.sin(2 * np.pi * dow / 7.0),
                np.cos(2 * np.pi * dow / 7.0),
            ]
        )

        self._index: int | None = None
        self._steps_left = 0
        self._unit: UnitState | None = None

    @property
    def obs_dim(self) -> int:
        return OBS_HISTORY_HOURS + 2 + 3 + 4 + (2 if self.include_weather else 0)

    @property
    def min_start(self) -> int:
        return OBS_HISTORY_HOURS

    @property
    def max_start(self) -> int:
        return len(self.series) - self.episode_len

    def volatility_at(self, index: int) -> float:
        """Unscaled 24h DA volatility observed entering ``index``."""
        return float(self._vol[index])

    def spread_history(self, window: int) -> np.ndarray:
        """Realized (lmp_da - lmp_rt) for the ``window`` hours before now."""
        i = self._require_index()
        if i < window:
            raise ValueError(f"only {i} hours of history before index {i}, need {window}")
        da = self.series.fields["lmp_da"][i - window : i]
        rt = self.series.fields["lmp_rt"][i - window : i]
        return da - rt

    def _require_index(self) -> int:
        if self._index is None:
            raise RuntimeError("environment not reset")
        return self._index

    @property
    def current_index(self) -> int:
        """Series index of the hour about to be settled."""
        return self._require_index()

    def _observe(self) -> Observation:
        i = self._require_index()
        hist = self.series.fields["lmp_da"][i - OBS_HISTORY_HOURS : i]
        unit = self._unit
        weather = ()
        if self.include_weather:
            t_scale, w_scale = self.WEATHER_SCALES
            weather = (
                float(self.series.fields["temperature"][i]) / t_scale,
                float(self.series.fields["wind_speed"][i]) / w_scale,
            )
        return Observation(
            da_price_history=hist / self.price_scale,
            volatility_24h=float(self._vol[i]) / self.price_scale,
            load_forecast=float(self.series.fields["load_forecast"][i]) / self.load_scale,
            unit=(
                1.0 if unit.committed else 0.0,
                min(1.0, unit.hours_in_state / 24.0),
                unit.prev_output / self.spec.p_max,
            ),
            time_enc=tuple(self._time_enc[i]),
            weather=weather,
        )

    def reset(
        self,
        start: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> Observation:
        """Begin an episode at ``start`` (or a uniform random valid index).

        The unit starts committed at full output with its minimum-up time
        already served, so the default mode never pays a startup cost.
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
        self._index = int(start)
        self._steps_left = self.episode_len
        self._unit = UnitState(
            committed=True,
            hours_in_state=self.spec.min_up,
            prev_output=self.spec.p_max,
        )
        return self._observe()

    def current_record(self) -> HourlyMarketRecord:
        return self.series.record(self._require_index())

    def step(self, a_raw: float) -> StepOutcome:
        i = self._require_index()
        if self._steps_left <= 0:
            raise RuntimeError("step after episode end")
        alpha = map_action(float(a_raw))
        outcome, self._unit = settle(
            alpha, self.series.record(i), self.spec, self._unit, self.dispatch_mode
        )
        self._index = i + 1
        self._steps_left -= 1
        done = self._steps_left == 0
        # An episode may consume the last record of the series, in which
        # case there is no next hour to observe; only reachable when done.
        next_obs = self._observe() if self._index < len(self.series) else None
        return replace(outcome, observation_next=next_obs, done=done)


@dataclass
class EpisodeLedger:
    """Per-step record of an evaluation or diagnostic episode.

    Weight/proposal columns are present only for hierarchical runs; metric
    code treats their absence as "not applicable".
    """

    roles: tuple = ()
    timestamps: list = field(default_factory=list)
    lmp_da: list = field(default_factory=list)
    lmp_rt: list = field(default_factory=list)
    alpha: list = field(default_factory=list)
    profit: list = field(default_factory=list)
    revenue_da: list = field(default_factory=list)
    revenue_rt: list = field(default_factory=list)
    cost_marginal: list = field(default_factory=list)
    cost_startup: list = field(default_factory=list)
    penalty: list = field(default_factory=list)
    volatility: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    proposals: list = field(default_factory=list)
    r_meta: list = field(default_factory=list)

    def append(
        self,
        record: HourlyMarketRecord,
        outcome: StepOutcome,
        volatility: float,
        weights=None,
        proposals=None,
        r_meta=None,
    ) -> None:
        self.timestamps.append(record.timestamp)
        self.lmp_da.append(record.lmp_da)
        self.lmp_rt.append(record.lmp_rt)
        self.alpha.append(outcome.alpha)
        self.profit.append(outcome.reward_raw)
        c = outcome.components
        self.revenue_da.append(c.revenue_da)
        self.revenue_rt.append(c.revenue_rt)
        self.cost_marginal.append(c.cost_marginal)
        self.cost_startup.append(c.cost_startup)
        self.penalty.append(c.penalty)
        self.volatility.append(volatility)
        if weights is not None:
            self.weights.append(tuple(float(w) for w in weights))
        if proposals is not None:
            self.proposals.append(tuple(float(p) for p in proposals))
        if r_meta is not None:
            self.r_meta.append(float(r_meta))

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def profits(self) -> np.ndarray:
        return np.asarray(self.profit, dtype=np.float64)

    @property
    def equity(self) -> np.ndarray:
        return np.cumsum(self.profits)

    def weight_matrix(self) -> np.ndarray | None:
        if not self.weights:
            return None
        return np.asarray(self.weights, dtype=np.float64)

    def spec_weight_series(self) -> np.ndarray | None:
        """Weight column of the 'spec' role, if this was a hierarchical run."""
        w = self.weight_matrix()
        if w is None or "spec" not in self.roles:
            return None
        return w[:, self.roles.index("spec")]

    def to_csv(self, path, header_comment: str | None = None) -> None:
        cols = [
            "timestamp",
            "lmp_da",
            "lmp_rt",
            "alpha",
            "profit",
            "revenue_da",
            "revenue_rt",
            "cost_marginal",
            "cost_startup",
            "penalty",
            "volatility",
        ]
        has_w = bool(self.weights)
        has_p = bool(self.proposals)
        has_m = bool(self.r_meta)
        if has_w:
            cols += [f"w_{r}" for r in self.roles]
        if has_p:
            cols += [f"prop_{r}" for r in self.roles]
        if has_m:
            cols.append("r_meta")
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for i in range(len(self)):
                row = [
                    format_timestamp(self.timestamps[i]),
                    repr(self.lmp_da[i]),
                    repr(self.lmp_rt[i]),
                    repr(self.alpha[i]),
                    repr(self.profit[i]),
                    repr(self.revenue_da[i]),
                    repr(self.revenue_rt[i]),
                    repr(self.cost_marginal[i]),
                    repr(self.cost_startup[i]),
                    repr(self.penalty[i]),
                    repr(self.volatility[i]),
                ]
                if has_w:
                    row += [repr(w) for w in self.weights[i]]
                if has_p:
                    row += [repr(p) for p in self.proposals[i]]
                if has_m:
                    row.append(repr(self.r_meta[i]))
                writer.writerow(row)

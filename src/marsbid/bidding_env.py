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

from .market_data import MarketSeries, day_of_week, format_timestamp, hour_of_day

OBS_HISTORY_HOURS = 24
# Observation cells of the unit state, written per step after the price
# window, the volatility and the load forecast.
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
class StepOutcome:
    """Result of settling one hour."""

    reward_raw: float  # profit in $, the decomposition identity holds exactly
    observation_next: np.ndarray | None
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


def settle(
    alpha: float,
    lmp_da: float,
    lmp_rt: float,
    gas_price: float,
    spec: GeneratorSpec,
    unit: UnitState,
    dispatch_mode: str = "always_on",
):
    """Clear one hour of the two-settlement market at the given DA and RT
    prices ($/MWh) and gas price ($/MMBtu).

    Returns ``(StepOutcome, UnitState)``: the financial outcome per the
    profit equation (observation_next/done are filled by the environment)
    and the advanced unit state.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} out of [0, 1]")
    mc = spec.marginal_cost(gas_price)
    penalty = 0.0
    startup = False

    if dispatch_mode == "always_on":
        startup = not unit.committed
        capacity = spec.p_max
        committed = True
    elif dispatch_mode == "economic":
        want_on = mc <= max(lmp_da, lmp_rt)
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

    The market is exogenous: prices, volatility, load, time and weather
    never depend on the action, and only the unit state does. So the
    scaled price series and one read-only hour-feature matrix are built
    once, and an observation is the 24-hour price window joined to the
    current hour's feature row with the unit state written in. It is a
    read-only float64 vector of ``obs_dim`` cells:

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

        # volatility[i] = population std of the 24 DA prices before index i
        windows = np.lib.stride_tricks.sliding_window_view(f["lmp_da"], OBS_HISTORY_HOURS)
        self.volatility = np.full(len(series), np.nan)
        self.volatility[OBS_HISTORY_HOURS:] = windows[:-1].std(axis=1)
        self.volatility.flags.writeable = False
        self._prices = f["lmp_da"] / self.price_scale
        hod = hour_of_day(series.timestamps).astype(np.float64)
        dow = day_of_week(series.timestamps).astype(np.float64)
        columns = [
            self.volatility / self.price_scale,
            f["load_forecast"] / self.load_scale,
            np.zeros((len(series), 3)),  # unit state, written per step
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

        self._index: int | None = None
        self._steps_left = 0
        self._unit: UnitState | None = None

    @property
    def obs_dim(self) -> int:
        return OBS_HISTORY_HOURS + self._hour_features.shape[1]

    @property
    def min_start(self) -> int:
        return OBS_HISTORY_HOURS

    @property
    def max_start(self) -> int:
        return len(self.series) - self.episode_len

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

    def _observe(self) -> np.ndarray:
        i = self._require_index()
        obs = np.concatenate((self._prices[i - OBS_HISTORY_HOURS : i], self._hour_features[i]))
        unit = self._unit
        obs[UNIT_CELLS] = (
            1.0 if unit.committed else 0.0,
            min(1.0, unit.hours_in_state / 24.0),
            unit.prev_output / self.spec.p_max,
        )
        obs.flags.writeable = False
        return obs

    def reset(
        self,
        start: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
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

    def step(self, a_raw: float) -> StepOutcome:
        i = self._require_index()
        if self._steps_left <= 0:
            raise RuntimeError("step after episode end")
        alpha = map_action(float(a_raw))
        f = self.series.fields
        prices = (f["lmp_da"].item(i), f["lmp_rt"].item(i), f["gas_price"].item(i))
        outcome, self._unit = settle(alpha, *prices, self.spec, self._unit, self.dispatch_mode)
        self._index = i + 1
        self._steps_left -= 1
        done = self._steps_left == 0
        # An episode may consume the last hour of the series, in which
        # case there is no next hour to observe; only reachable when done.
        next_obs = self._observe() if self._index < len(self.series) else None
        return replace(outcome, observation_next=next_obs, done=done)


@dataclass
class EpisodeLedger:
    """Per-step record of an evaluation or diagnostic episode.

    ``append`` records what each action settled. The market columns
    (timestamps, lmp_da, lmp_rt, volatility) do not depend on the actions,
    so the episode runner fills them once from the settled hours of the
    series. Weight/proposal columns are present only for hierarchical
    runs; metric code treats their absence as "not applicable".
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

    # CSV columns after the timestamp, in order; each names a list field.
    CSV_COLUMNS = (
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
    )

    def append(self, outcome: StepOutcome, weights=None, proposals=None, r_meta=None) -> None:
        self.alpha.append(outcome.alpha)
        self.profit.append(outcome.reward_raw)
        c = outcome.components
        self.revenue_da.append(c.revenue_da)
        self.revenue_rt.append(c.revenue_rt)
        self.cost_marginal.append(c.cost_marginal)
        self.cost_startup.append(c.cost_startup)
        self.penalty.append(c.penalty)
        if weights is not None:
            self.weights.append(tuple(float(w) for w in weights))
        if proposals is not None:
            self.proposals.append(tuple(float(p) for p in proposals))
        if r_meta is not None:
            self.r_meta.append(float(r_meta))

    def __len__(self) -> int:
        return len(self.profit)

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
        cols = ["timestamp", *self.CSV_COLUMNS]
        has_w = bool(self.weights)
        has_p = bool(self.proposals)
        has_m = bool(self.r_meta)
        if has_w:
            cols += [f"w_{r}" for r in self.roles]
        if has_p:
            cols += [f"prop_{r}" for r in self.roles]
        if has_m:
            cols.append("r_meta")
        columns = [getattr(self, name) for name in self.CSV_COLUMNS]
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for i in range(len(self)):
                row = [format_timestamp(self.timestamps[i])]
                row += [repr(col[i]) for col in columns]
                if has_w:
                    row += [repr(w) for w in self.weights[i]]
                if has_p:
                    row += [repr(p) for p in self.proposals[i]]
                if has_m:
                    row.append(repr(self.r_meta[i]))
                writer.writerow(row)

"""Hourly market time series: ingestion, gap repair, chronological splits,
and a two-regime synthetic generator.

Everything here is hourly and UTC. Timestamps are stored as integer epoch
hours (hours since 1970-01-01T00:00Z), which makes hour-of-day, day-of-week
and gap arithmetic exact. A series always spans a contiguous hourly timeline;
hours absent from the source data are carried as NaN until repaired, and the
per-field ``fill_mask`` records which values were synthesised by the repair
step rather than observed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import MarketDataError

FIELD_NAMES = (
    "lmp_da",
    "lmp_rt",
    "load_actual",
    "load_forecast",
    "temperature",
    "wind_speed",
    "gas_price",
)

CSV_COLUMNS = ("timestamp",) + FIELD_NAMES

# Fields that real markets never clear negative (prices can be negative).
_NONNEGATIVE_FIELDS = ("load_actual", "load_forecast", "gas_price")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# Hours in the hour-of-week profile that fills long gaps.
SEASONAL_PERIOD = 168

# Synthetic load (MW) and gas price ($/MMBtu) levels.
LOAD_BASE = 1000.0
LOAD_AMPLITUDE = 200.0
LOAD_NOISE_STD = 20.0
GAS_BASE = 4.0


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp into epoch hours.

    Accepts ``2021-01-01T05:00:00Z``, offset-aware strings, bare dates, and
    naive strings (assumed UTC). Rejects anything not on an hour boundary.
    """
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise MarketDataError(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    if dt.minute or dt.second or dt.microsecond:
        raise MarketDataError(f"timestamp {text!r} is not on an hour boundary")
    return int((dt - _EPOCH).total_seconds()) // 3600


def format_timestamp(epoch_hour: int) -> str:
    """Epoch hours back to ISO-8601 UTC, e.g. ``2021-01-01T05:00:00Z``."""
    dt = datetime.fromtimestamp(int(epoch_hour) * 3600, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def hour_of_day(epoch_hour) -> np.ndarray:
    return np.asarray(epoch_hour) % 24


def day_of_week(epoch_hour) -> np.ndarray:
    # Epoch day 0 (1970-01-01) was a Thursday; Monday = 0.
    return (np.asarray(epoch_hour) // 24 + 3) % 7


def hour_of_week(epoch_hour) -> np.ndarray:
    return day_of_week(epoch_hour) * 24 + hour_of_day(epoch_hour)


@dataclass(frozen=True)
class MarketSeries:
    """A contiguous hourly series of market records.

    ``fields`` maps field name to a float64 array (NaN marks missing values);
    ``fill_mask`` marks values written by :func:`repair_gaps`. ``regimes`` is
    populated only by the synthetic generator (0 = calm, 1 = volatile).
    Arrays are frozen after construction so a series can be shared read-only
    across workers.
    """

    timestamps: np.ndarray
    fields: dict
    provenance: str  # "ingested" | "synthetic"
    fill_mask: dict = field(default_factory=dict)
    regimes: np.ndarray | None = None

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        if ts.size >= 2:
            steps = np.diff(ts)
            if not np.all(steps == 1):
                raise MarketDataError("timestamps must be uniform hourly and increasing")
        fields = {k: np.asarray(v, dtype=np.float64) for k, v in self.fields.items()}
        if set(fields) != set(FIELD_NAMES):
            raise MarketDataError(f"series fields must be exactly {FIELD_NAMES}")
        mask = dict(self.fill_mask) if self.fill_mask else {}
        for k in FIELD_NAMES:
            if fields[k].shape != ts.shape:
                raise MarketDataError(f"field {k} length does not match timestamps")
            if k not in mask:
                mask[k] = np.zeros(ts.shape, dtype=bool)
            mask[k] = np.asarray(mask[k], dtype=bool)
        for arr in (ts, *fields.values(), *mask.values()):
            arr.flags.writeable = False
        if self.regimes is not None:
            reg = np.asarray(self.regimes, dtype=np.int8)
            reg.flags.writeable = False
            object.__setattr__(self, "regimes", reg)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "fill_mask", mask)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def has_missing(self) -> bool:
        return any(bool(np.isnan(v).any()) for v in self.fields.values())

    def slice(self, start: int, stop: int) -> "MarketSeries":
        """Sub-series over positional indices [start, stop)."""
        return MarketSeries(
            timestamps=self.timestamps[start:stop].copy(),
            fields={k: v[start:stop].copy() for k, v in self.fields.items()},
            provenance=self.provenance,
            fill_mask={k: v[start:stop].copy() for k, v in self.fill_mask.items()},
            regimes=None if self.regimes is None else self.regimes[start:stop].copy(),
        )


@dataclass(frozen=True)
class DateRange:
    """Half-open range [start, end) in epoch hours."""

    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise MarketDataError(f"empty date range [{self.start}, {self.end})")


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train / test1 / test2 ranges, pairwise disjoint."""

    train: DateRange
    test1: DateRange
    test2: DateRange

    def __post_init__(self):
        a, b, c = self.train, self.test1, self.test2
        if not (a.end <= b.start and b.end <= c.start):
            raise MarketDataError("split ranges must be disjoint and ordered train < test1 < test2")


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the two-regime synthetic market generator.

    The regime chain is a symmetric two-state Markov chain (calm/volatile)
    with per-hour switch probability 1/regime_dwell_hours, so the stationary
    volatile fraction is 0.5. ``rt_spike_prob``/``rt_spike_mean`` optionally
    add left-tail RT excursions during volatile hours (off by default) for
    stress-testing risk behaviour.
    """

    n_hours: int
    calm_mean: float = 40.0
    calm_std: float = 5.0
    volatile_mean: float = 60.0
    volatile_std: float = 25.0
    regime_dwell_hours: float = 72.0
    rt_spread_std: float = 8.0
    diurnal_amplitude: float = 10.0
    seed: int = 0
    start: int = 447072  # 2021-01-01T00:00Z
    rt_spike_prob: float = 0.0
    rt_spike_mean: float = 0.0

    def __post_init__(self):
        if self.n_hours < 48:
            raise MarketDataError("n_hours must be >= 48")
        if self.calm_std <= 0 or self.volatile_std <= 0:
            raise MarketDataError("regime std fields must be > 0")
        if self.rt_spread_std < 0:
            raise MarketDataError("rt_spread_std must be >= 0")
        if self.regime_dwell_hours < 1:
            raise MarketDataError("regime_dwell_hours must be >= 1")
        if not 0.0 <= self.rt_spike_prob <= 1.0:
            raise MarketDataError("rt_spike_prob must be in [0, 1]")


def ingest_csv(path) -> MarketSeries:
    """Read an hourly market CSV into a :class:`MarketSeries`.

    Rows may arrive out of order and are placed by timestamp; duplicate
    timestamps are rejected. Missing hours and empty cells stay NaN ("gaps
    recorded, not filled") for :func:`repair_gaps`. Lines starting with
    ``#`` are ignored.
    """
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
                columns[name].append(float(cell) if cell else np.nan)
            except ValueError as exc:
                raise MarketDataError(
                    f"{path}: malformed row {rownum}: bad value {cell!r} for {name}"
                ) from exc
        # Fail fast on invariant violations in observed data.
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


def write_csv(series: MarketSeries, path, header_comment: str | None = None) -> None:
    """Emit the standard CSV schema. Floats use ``repr`` so a write/ingest
    round trip is exact; NaN becomes an empty cell."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for i in range(len(series)):
            row = [format_timestamp(series.timestamps[i])]
            for name in FIELD_NAMES:
                v = series.fields[name][i]
                row.append("" if np.isnan(v) else repr(float(v)))
            writer.writerow(row)


def _nan_runs(isnan: np.ndarray) -> list:
    """Contiguous runs of True as (start, stop) half-open index pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], isnan.view(np.int8), [0]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def repair_gaps(series: MarketSeries) -> MarketSeries:
    """Fill missing values: gaps shorter than 4 hours by linear interpolation
    between the bracketing observations, longer gaps (and gaps touching a
    series boundary) by the hour-of-week seasonal mean of the observed data.

    Idempotent, and never rewrites values that were observed (fill_mask False
    on input and non-NaN).
    """
    how = hour_of_week(series.timestamps)
    new_fields = {}
    new_mask = {}
    for name in FIELD_NAMES:
        values = series.fields[name].copy()
        mask = series.fill_mask[name].copy()
        isnan = np.isnan(values)
        known = ~isnan
        if known.sum() < 2:
            raise MarketDataError(f"field {name}: fewer than 2 observed values")

        # Hour-of-week means over observed values only; overall mean fallback
        # covers hour-of-week buckets with no observations.
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
                hw = how[start:stop] % SEASONAL_PERIOD
                fill = seasonal[hw]
                fill = np.where(np.isnan(fill), overall, fill)
                values[start:stop] = fill
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


def split(series: MarketSeries, spec: SplitSpec):
    """Cut the series into (train, test1, test2) per the split ranges."""
    first, last = int(series.timestamps[0]), int(series.timestamps[-1])
    out = []
    for rng in (spec.train, spec.test1, spec.test2):
        if rng.start < first or rng.end > last + 1:
            raise MarketDataError(
                f"range [{format_timestamp(rng.start)}, {format_timestamp(rng.end)}) "
                "not covered by series"
            )
        out.append(series.slice(rng.start - first, rng.end - first))
    return tuple(out)


def _simulate_regimes(rng: np.random.Generator, n: int, dwell_hours: float) -> np.ndarray:
    """Symmetric two-state chain; switch probability 1/dwell per hour."""
    p_switch = 1.0 / dwell_hours
    draws = rng.random(n)
    states = np.empty(n, dtype=np.int8)
    state = 0
    for t in range(n):
        if draws[t] < p_switch:
            state = 1 - state
        states[t] = state
    return states


def generate_synthetic(cfg: SyntheticConfig) -> MarketSeries:
    """Deterministic synthetic market series for a fixed seed.

    DA price: regime mean + diurnal sinusoid + regime-scaled Gaussian noise.
    RT price: DA + zero-mean Gaussian spread whose std is scaled up by
    volatile_std/calm_std in the volatile regime, plus optional left-tail
    spikes. Load follows a diurnal sinusoid; gas price is a slow daily walk.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_hours
    ts = np.arange(cfg.start, cfg.start + n, dtype=np.int64)
    hod = hour_of_day(ts).astype(np.float64)
    diurnal = np.sin(2.0 * np.pi * (hod - 6.0) / 24.0)

    # Draw order is fixed so output is reproducible for a given seed.
    regimes = _simulate_regimes(rng, n, cfg.regime_dwell_hours)
    da_noise = rng.standard_normal(n)
    rt_noise = rng.standard_normal(n)
    spike_u = rng.random(n)
    spike_mag = rng.exponential(1.0, n)
    load_noise = rng.standard_normal(n)
    temp_noise = rng.standard_normal(n)
    wind_noise = rng.standard_normal(n)
    gas_steps = rng.standard_normal(n)

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
    load_actual = np.maximum(0.0, load_shape + LOAD_NOISE_STD * load_noise)
    load_forecast = np.maximum(0.0, load_shape)
    temperature = 12.0 + 8.0 * np.sin(2.0 * np.pi * (hod - 8.0) / 24.0) + 1.5 * temp_noise
    wind_speed = np.maximum(0.0, 5.0 + 2.5 * wind_noise)

    # Daily gas price: one random-walk step per UTC day, constant within it.
    days = (ts // 24) - (ts[0] // 24)
    day_steps = np.zeros(int(days[-1]) + 1)
    for d in range(1, day_steps.size):
        day_steps[d] = gas_steps[d]
    gas_daily = np.clip(GAS_BASE + np.cumsum(0.05 * day_steps), 0.5, None)
    gas_price = gas_daily[days]

    fields = {
        "lmp_da": lmp_da,
        "lmp_rt": lmp_rt,
        "load_actual": load_actual,
        "load_forecast": load_forecast,
        "temperature": temperature,
        "wind_speed": wind_speed,
        "gas_price": gas_price,
    }
    return MarketSeries(
        timestamps=ts, fields=fields, provenance="synthetic", regimes=regimes
    )

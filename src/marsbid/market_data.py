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
import itertools
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import DivergenceError, MarketDataError

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
BLOCK_ROWS = 512  # rows a pass over a long input reads, checks or formats at once

# Fields that real markets never clear negative (prices can be negative).
_NONNEGATIVE_FIELDS = ("load_actual", "load_forecast", "gas_price")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_LAST_HOUR = 70389527  # 9999-12-31T23:00Z; later years have five digits

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


def format_timestamps(epoch_hours) -> list:
    """Epoch hours to ISO-8601 UTC strings, e.g. ``2021-01-01T05:00:00Z``."""
    hours = np.asarray(epoch_hours, dtype=np.int64).astype("datetime64[h]")
    return np.datetime_as_string(hours, unit="s", timezone="UTC").tolist()


def format_timestamp(epoch_hour: int) -> str:
    """One epoch hour as :func:`format_timestamps` writes it."""
    return format_timestamps([epoch_hour])[0]


def float_cells(values, missing: str) -> list:
    """CSV cells of floats: ``repr``, exact under a write/read round trip,
    and ``missing`` for NaN. One ``repr`` of the whole list formats them."""
    values = np.asarray(values, np.float64)
    cells = repr(values.tolist())[1:-1].split(", ") if values.size else []
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = missing
    return cells


def _column_cells(column: np.ndarray, missing: str) -> list:
    if column.dtype.kind == "M":
        return format_timestamps(column)
    if column.dtype.kind == "f":
        return float_cells(column, missing)
    if column.dtype.kind == "U":
        cells = column.tolist()
        return ['"' + c.replace('"', '""') + '"' if set(',"\n\r') & set(c) else c for c in cells]
    return list(map(repr, column.tolist()))


def write_table(path, header_comment: str | None, header, columns, missing: str = "nan") -> None:
    """Write a CSV: the ``# header_comment`` line if there is one, the
    header, then a row per entry of the equal-length arrays ``columns``,
    formatted :data:`BLOCK_ROWS` rows at a time. Float columns are
    written by :func:`float_cells`, integer columns as ``repr``,
    ``datetime64[h]`` columns by :func:`format_timestamps` and ``str``
    columns as they are, except that a ``str`` cell holding a comma, a quote
    or a line break (line feed or carriage return) is quoted as ``csv.writer``
    quotes it. No other cell can hold one, so cells are joined as they are.
    """
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), BLOCK_ROWS):
            cells = [_column_cells(col[lo : lo + BLOCK_ROWS], missing) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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


SPLIT_NAMES = ("train", "test1", "test2")  # the SplitSpec fields, in order


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
        if self.seed < 0:
            raise MarketDataError(f"seed must be >= 0, got {self.seed}")
        if self.start + self.n_hours - 1 > _LAST_HOUR:
            # ingest_csv reads no later hour back
            raise MarketDataError(
                f"n_hours={self.n_hours} from {format_timestamp(self.start)} runs past "
                f"{format_timestamp(_LAST_HOUR)}"
            )


def ingest_csv(path) -> MarketSeries:
    """Read an hourly market CSV into a :class:`MarketSeries`.

    Columns are found by header name; extra columns are ignored, and so are
    blank lines and lines starting with ``#``. Cells may be quoted or padded.
    Timestamps may end in ``Z``, carry an offset, be naive (UTC) or be bare
    dates, on the hour (:func:`parse_timestamp`). Rows may arrive out of
    order and are placed by timestamp; duplicate timestamps are rejected.
    Missing hours and blank or ``nan`` cells stay NaN ("gaps recorded, not
    filled") for :func:`repair_gaps`; a cell that is no number or infinite is
    rejected, as is a file that cannot be read as text. A bad file raises for
    its first fault in file order; within a row: field count, timestamp,
    duplicate, values, non-negative fields.

    The file is read and checked :data:`BLOCK_ROWS` rows at a time, so the
    memory it takes beyond the parsed columns is bounded by one block, and a
    bad file is read only up to the end of its first faulty block.
    """
    try:
        with open(path, "r", newline="") as fh:
            rows = (r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#"))
            header = [h.strip() for h in next(rows, [])]
            if not header:
                raise MarketDataError(f"{path}: empty file")
            missing_cols = [c for c in CSV_COLUMNS if c not in header]
            if missing_cols:
                raise MarketDataError(f"{path}: header missing columns {missing_cols}")
            # n counts the rows whose values are read: up to the first fault
            n, fault, hour_blocks, value_blocks = 0, None, [], []
            while fault is None and (block := list(itertools.islice(rows, BLOCK_ROWS))):
                h0 = int(hour_blocks[-1][-1]) + 1 if hour_blocks else None
                hours, values, fault = _read_block(path, header, block, n, h0)
                hour_blocks.append(hours)
                value_blocks.append(values)
                n += len(values[0])
    except (OSError, UnicodeDecodeError) as exc:
        raise MarketDataError(f"{path}: cannot read: {exc}") from exc
    if not n:
        raise MarketDataError(fault or f"{path}: no data rows")

    # The hours run up to the first field-count or timestamp fault, so a
    # repeat at or before a later fault's row is the first fault.
    hours = np.concatenate(hour_blocks)
    order = np.argsort(hours, kind="stable")
    ordered = hours[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size and repeats.min() <= n:
        n = int(repeats.min())
        fault = f"{path}: duplicate timestamp {format_timestamp(hours[n])} at row {n + 1}"
    if fault:
        raise MarketDataError(fault)

    timeline = np.arange(ordered[0], ordered[-1] + 1, dtype=np.int64)
    fields = {}
    for j, name in enumerate(FIELD_NAMES):  # one field at a time, each block dropped once placed
        fields[name] = np.full(timeline.size, np.nan)
        for block_hours, values in zip(hour_blocks, value_blocks):
            fields[name][block_hours - timeline[0]] = values[j]
            values[j] = None
    return MarketSeries(timestamps=timeline, fields=fields, provenance="ingested")


def _read_block(path, header: list, block: list, base: int, h0: int | None):
    """Check and parse a block of data rows, the file's row ``base`` first,
    whose first hour is expected at ``h0`` (None: the file's first row, read
    its hour). Returns the hours of the rows before the block's first
    field-count or timestamp fault, the field arrays of the rows before its
    first fault of any kind, and that fault's message or None."""
    # Each check passes over the m rows before the first fault found so far,
    # in the order a row is checked in, so the fault left is the first one.
    m, fault = len(block), None
    miscounted = np.flatnonzero(np.fromiter(map(len, block), np.int64, m) != len(header))
    if miscounted.size:
        m = int(miscounted[0])
        fault = f"{path}: malformed row {base + m + 1}: wrong field count"
    if not m:
        return np.empty(0, np.int64), [np.empty(0)] * len(FIELD_NAMES), fault
    columns = list(zip(*block[:m]))

    # Only cells that differ from the hourly run from h0, as
    # format_timestamps writes it, are parsed. A fault in the file's first
    # cell raises at once: its field count is right, so nothing precedes it.
    stamps = columns[header.index("timestamp")]
    if h0 is None:
        h0 = parse_timestamp(stamps[0])
    hours = np.arange(h0, h0 + m, dtype=np.int64)
    expected = format_timestamps(hours[: max(0, _LAST_HOUR + 1 - h0)])
    expected += [None] * (m - len(expected))
    for i in itertools.compress(range(m), map(operator.ne, stamps, expected)):
        try:
            hours[i] = parse_timestamp(stamps[i])
        except MarketDataError as exc:
            m, fault = i, str(exc)
            break
    hours = hours[:m]

    values = {}
    for name in FIELD_NAMES:
        cells = columns[header.index(name)][:m]
        try:
            values[name] = np.fromiter(map(float, map(_BLANK.get, cells, cells)), np.float64, m)
        except ValueError:  # a blank or malformed cell
            values[name] = np.fromiter(map(_cell_value, cells), np.float64, m)
        bad = np.flatnonzero(np.isinf(values[name]))
        if bad.size:
            m = int(bad[0])
            cell = cells[m].strip()
            fault = f"{path}: malformed row {base + m + 1}: bad value {cell!r} for {name}"
    # Fail fast on invariant violations in observed data.
    for name in _NONNEGATIVE_FIELDS:
        negative = np.flatnonzero(values[name][:m] < 0)
        if negative.size:
            m = int(negative[0])
            value, stamp = float(values[name][m]), format_timestamp(hours[m])
            fault = f"{name} must be non-negative, got {value} at {stamp}"
    return hours, [values[name][:m] for name in FIELD_NAMES], fault


_BLANK = {"": "nan"}  # _BLANK.get(cell, cell) reads an empty cell as "nan"


def _cell_value(cell: str) -> float:
    """A CSV cell as a float: NaN if it is blank, inf if it is no number."""
    cell = cell.strip()
    try:
        return float(cell) if cell else np.nan
    except ValueError:
        return np.inf


def write_csv(series: MarketSeries, path, header_comment: str | None = None) -> None:
    """Emit the standard CSV schema. Floats use ``repr`` so a write/ingest
    round trip is exact; NaN becomes an empty cell."""
    columns = [series.timestamps.astype("datetime64[h]")]
    columns += [series.fields[name] for name in FIELD_NAMES]
    write_table(path, header_comment, CSV_COLUMNS, columns, missing="")


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
        # covers hour-of-week buckets with no observations. The series is
        # contiguous, so bucket h is every 168th value from its first hour, in
        # time order: the order a mask would select them in, so the same bits.
        seasonal = np.full(SEASONAL_PERIOD, np.nan)
        for h in range(SEASONAL_PERIOD):
            first = (h - how[0]) % SEASONAL_PERIOD
            bucket = values[first::SEASONAL_PERIOD][known[first::SEASONAL_PERIOD]]
            if bucket.size:
                seasonal[h] = bucket.mean()
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
                fill = seasonal[how[start:stop]]
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
    """Symmetric two-state chain from state 0; switch probability 1/dwell
    per hour, so the state is the parity of the switches so far."""
    return (np.cumsum(rng.random(n) < 1.0 / dwell_hours) % 2).astype(np.int8)


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

    # Draw order is fixed so output is reproducible for a given seed. Each
    # draw is used as soon as it is made, so few full-length arrays live at once.
    regimes = _simulate_regimes(rng, n, cfg.regime_dwell_hours)
    volatile = regimes == 1
    with np.errstate(over="ignore", invalid="ignore"):
        lmp_da = np.where(volatile, cfg.volatile_mean, cfg.calm_mean)  # the regime mean
        lmp_da += cfg.diurnal_amplitude * diurnal
        lmp_da += np.where(volatile, cfg.volatile_std, cfg.calm_std) * rng.standard_normal(n)
        lmp_rt = np.where(volatile, cfg.volatile_std / cfg.calm_std, 1.0)  # the spread's scale
        lmp_rt = lmp_da + cfg.rt_spread_std * lmp_rt * rng.standard_normal(n)
        if cfg.rt_spike_prob > 0.0:
            hit = volatile & (rng.random(n) < cfg.rt_spike_prob)
            lmp_rt += np.where(hit, cfg.rt_spike_mean * (1.0 + rng.exponential(1.0, n)), 0.0)
        else:  # the spike draws still happen, so the later draws do not move
            rng.random(n), rng.exponential(1.0, n)

    load_shape = LOAD_BASE + LOAD_AMPLITUDE * diurnal
    load_actual = np.maximum(0.0, load_shape + LOAD_NOISE_STD * rng.standard_normal(n))
    load_forecast = np.maximum(0.0, load_shape)
    temperature = 12.0 + 8.0 * np.sin(2.0 * np.pi * (hod - 8.0) / 24.0)
    temperature += 1.5 * rng.standard_normal(n)
    wind_speed = np.maximum(0.0, 5.0 + 2.5 * rng.standard_normal(n))

    # Daily gas price: one random-walk step per UTC day, constant within it.
    days = (ts // 24) - (ts[0] // 24)
    day_steps = np.zeros(int(days[-1]) + 1)
    day_steps[1:] = rng.standard_normal(n)[1 : day_steps.size]
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
    for name, values in fields.items():
        if not np.isfinite(values).all():
            raise DivergenceError(f"non-finite {name} in the synthetic market")
    return MarketSeries(
        timestamps=ts, fields=fields, provenance="synthetic", regimes=regimes
    )

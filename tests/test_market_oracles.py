"""``ingest_csv``, ``repair_gaps``, the synthetic regime chain and the
synthetic market against their row-by-row, mask-loop, hour-loop and
drawn-first references in ``oracles``: the same series to the bit, or the
same error message."""

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid import market_data
from marsbid.errors import MarketDataError
from marsbid.market_data import (
    _NONNEGATIVE_FIELDS,
    BLOCK_ROWS,
    CSV_COLUMNS,
    FIELD_NAMES,
    MarketSeries,
    SyntheticConfig,
    _simulate_regimes,
    format_timestamp,
    generate_synthetic,
    ingest_csv,
    repair_gaps,
)

from conftest import START_2021
from oracles import drawn_first_synthetic, loop_regimes, masked_repair_gaps, rowwise_ingest_csv

def _outcome(fn, arg):
    try:
        return fn(arg)
    except MarketDataError as exc:
        return str(exc)


def _bits(values) -> np.ndarray:
    return np.asarray(values, np.float64).view(np.int64)


def assert_same_outcome(got, want):
    """Equal error messages, or series equal to the bit."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert np.array_equal(got.timestamps, want.timestamps)
    for name in FIELD_NAMES:
        assert np.array_equal(_bits(got.fields[name]), _bits(want.fields[name])), name
        assert np.array_equal(got.fill_mask[name], want.fill_mask[name]), name


# -- ingest_csv ----------------------------------------------------------------


# ingest_csv reads BLOCK_ROWS rows at a time; blocks of 1-3 rows put faults,
# repeats and moved rows on and across block edges
BLOCK_SIZES = (BLOCK_ROWS, 1, 2, 3)


def _ingest_both(text: str, block_rows: int = BLOCK_ROWS):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text)
        with mock.patch.object(market_data, "BLOCK_ROWS", block_rows):
            got = _outcome(ingest_csv, path)
        return got, _outcome(rowwise_ingest_csv, path)


def _stamp(hour: int, style: str) -> str:
    """One epoch hour as a timestamp cell that parse_timestamp reads."""
    dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(hours=hour)
    if style == "offset":
        return dt.astimezone(timezone(timedelta(hours=-5))).isoformat()
    if style == "naive":
        return dt.replace(tzinfo=None).isoformat()
    if style == "date":  # midnight of the hour's day: may repeat another row
        return dt.date().isoformat()
    if style == "padded":
        return f" {format_timestamp(hour)}  "
    if style == "quoted":
        return f'"{format_timestamp(hour)}"'
    return format_timestamp(hour)


_STAMP_STYLES = st.sampled_from(["z"] * 6 + ["offset", "naive", "date", "padded", "quoted"])
_CELLS = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(abs(v))),
    st.sampled_from(["", "   ", "nan", "NaN", " 12.5 ", '"7.25"', '" 3 "', "-0.0", "1e-5", "42"]),
)
_BAD_CELLS = st.sampled_from(
    ["inf", "-inf", "1e999", " Infinity ", "-1e400", "abc", '"1,5"', "--1", "-2.5", "-1e-300"]
)
_BAD_STAMPS = st.sampled_from(
    ["2021-01-01T00:30:00Z", "not-a-time", "", "  ", "2021-13-01T00:00:00Z", "10000-01-01"]
)
_FAULTS = st.sampled_from(["count", "stamp", "duplicate", "value", "negative", "blank_line"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ingest_matches_rowwise_oracle(data):
    draw = data.draw
    extras = draw(st.lists(st.sampled_from(["zone", "note", "lmp_da"]), max_size=2))
    header = draw(st.permutations(list(CSV_COLUMNS) + extras))
    n = draw(st.integers(1, 24))
    start = START_2021 + draw(st.integers(-5000, 5000))
    hours = sorted(draw(st.sets(st.integers(0, n + 6), min_size=n, max_size=n)))
    rows = []
    for offset in hours:
        cells = {name: draw(_CELLS) for name in FIELD_NAMES}
        row = [cells.get(col, "x") for col in header]
        row[header.index("timestamp")] = _stamp(start + offset, draw(_STAMP_STYLES))
        for i, col in enumerate(header):  # a repeated column reads its first copy
            if col in FIELD_NAMES and i != header.index(col):
                row[i] = "x"
        rows.append(row)
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    ts = header.index("timestamp")
    stamps = [row[ts] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, n - 1))]
        fault = draw(_FAULTS)
        if len(row) < len(header):  # already cut short
            continue
        if fault == "count":
            row.append("1") if draw(st.booleans()) else row.pop()
        elif fault == "stamp":
            row[ts] = draw(_BAD_STAMPS)
        elif fault == "duplicate":
            row[ts] = draw(st.sampled_from(stamps))
        elif fault == "value":
            row[header.index(draw(st.sampled_from(FIELD_NAMES)))] = draw(_BAD_CELLS)
        elif fault == "negative":
            row[header.index(draw(st.sampled_from(_NONNEGATIVE_FIELDS)))] = "-2.5"
        else:
            row[:] = ["   "]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# a comment", "  # indented, comment"])))
    for block_rows in BLOCK_SIZES:
        got, want = _ingest_both("\n".join(lines) + "\n", block_rows)
        assert_same_outcome(got, want)


@pytest.mark.parametrize(
    "rows",
    [
        # an hour past 9999-12-31T23 formats with a five-digit year
        ["9999-12-31T22:00:00Z,1,1,1,1,1,1,1", "9999-12-31T23:00:00Z,1,1,1,1,1,1,1",
         "10000-01-01T00:00:00Z,1,1,1,1,1,1,1"],
        # faults in one row rank: count, timestamp, duplicate, values, non-negative
        ["2021-01-01T00:00:00Z,1,1,1,1,1,1,1", "bad,1,1,1,1,1,1"],
        ["2021-01-01T00:00:00Z,1,1,1,1,1,1,1", "2021-01-01T00:00:00Z,inf,1,-1,1,1,1,1"],
        ["2021-01-01T00:00:00Z,1,1,1,1,1,1,1", "2021-01-01T01:00:00Z,1,1,-1,1,1,1,1e999"],
        ["2021-01-01T01:00:00Z,1,x,-1,1,1,1,1", "2021-01-01T00:00:00Z,inf,1,1,1,1,1,1"],
        ["2021-01-01T00:00:00Z,1,1,1,1,1,1,-1", "2021-01-01T00:00:00Z,1,1,1,1,1,1,1", "x"],
        # the first repeat in file order is not the earliest repeated hour
        ["2021-01-01T02:00:00Z,1,1,1,1,1,1,1", "2021-01-01T01:00:00Z,1,1,1,1,1,1,1",
         "2021-01-01T02:00:00Z,1,1,1,1,1,1,1", "2021-01-01T01:00:00Z,1,1,1,1,1,1,1"],
        ["2021-01-01T00:00:00Z,1,1,1,1,1,1,1", "2021-01-01T00:10:00Z,1,1,1,1,1,1,1",
         "not-a-time,1,1,1,1,1,1,1"],
        # the first row's timestamp is parsed before later rows are checked
        ["2021-01-01T00:30:00Z,1,1,1,1,1,1,1", "x"],
        ["x", "2021-01-01T00:30:00Z,1,1,1,1,1,1,1"],
        ["2021-01-01T00:00:00Z,1,1,1,1,1,1,1", "2021-01-01T02:00:00+01:00,1,1,1,1,1,1,1"],
        [],
    ],
)
def test_ingest_fault_order_matches_oracle(rows):
    for block_rows in BLOCK_SIZES:
        got, want = _ingest_both("\n".join([",".join(CSV_COLUMNS)] + rows) + "\n", block_rows)
        assert_same_outcome(got, want)


# -- repair_gaps ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_repair_gaps_bit_identical_to_mask_loop(data):
    draw = data.draw
    # up to three weeks, and from eight weeks on, where numpy's pairwise
    # summation of a bucket differs from summing it in order
    n = draw(st.integers(48, 3 * 168) | st.integers(8 * 168, 12 * 168))
    start = START_2021 + draw(st.integers(0, 167))  # any hour of the week
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = {}
    for name in FIELD_NAMES:
        values = rng.normal(40.0, 10.0, n)
        # short and long gaps, at either boundary or inside; in a series
        # shorter than a week, a long gap's hours have no observed bucket
        for _ in range(draw(st.integers(0, 4))):
            length = draw(st.integers(1, 3) | st.integers(4, 150))
            lo = draw(st.sampled_from([0, max(0, n - length)]) | st.integers(0, n - 1))
            values[lo : lo + length] = np.nan
        fields[name] = values
    series = MarketSeries(
        timestamps=np.arange(start, start + n), fields=fields, provenance="ingested"
    )
    assert_same_outcome(_outcome(repair_gaps, series), _outcome(masked_repair_gaps, series))


@pytest.mark.parametrize("dwell", [1.0, 1.5, 2.0, 72.0, 1e4, 1e9])
@pytest.mark.parametrize("seed", range(4))
def test_regime_chain_equals_hour_loop(seed, dwell):
    for n in (0, 1, 48, 43824):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        states = _simulate_regimes(ours, n, dwell)
        assert states.dtype == np.int8
        np.testing.assert_array_equal(states, loop_regimes(ref, n, dwell))
        assert ours.random() == ref.random()  # the same draws were taken
        if dwell == 1.0:  # every draw is below 1: a switch every hour
            np.testing.assert_array_equal(states, np.arange(1, n + 1) % 2)


@pytest.mark.parametrize(
    "config",
    [
        {"n_hours": 43824, "seed": 1},
        {"n_hours": 48, "seed": 0, "start": START_2021 + 23},
        {"n_hours": 5000, "seed": 7, "rt_spike_prob": 0.3, "rt_spike_mean": -80.0},
        {"n_hours": 2000, "seed": 2, "rt_spike_prob": 1.0, "regime_dwell_hours": 1.0},
        {"n_hours": 3000, "seed": 5, "rt_spread_std": 0.0, "calm_std": 0.5, "volatile_std": 90.0},
    ],
    ids=["five_years", "two_days", "spikes", "spike_every_volatile_hour", "no_spread"],
)
def test_synthetic_market_equals_drawn_first(config):
    cfg = SyntheticConfig(**config)
    series, want = generate_synthetic(cfg), drawn_first_synthetic(cfg)
    for name in FIELD_NAMES:
        np.testing.assert_array_equal(_bits(series.fields[name]), _bits(want[name]))
    np.testing.assert_array_equal(series.regimes, want["regimes"])

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.errors import MarketDataError
from marsbid.market_data import (
    FIELD_NAMES,
    DateRange,
    MarketSeries,
    SplitSpec,
    SyntheticConfig,
    format_timestamp,
    generate_synthetic,
    hour_of_week,
    ingest_csv,
    parse_timestamp,
    repair_gaps,
    split,
    write_csv,
)

from conftest import START_2021, make_series


# -- timestamps --------------------------------------------------------------


def test_parse_format_round_trip():
    for text in ("2021-01-01T00:00:00Z", "2022-06-15T17:00:00Z"):
        assert format_timestamp(parse_timestamp(text)) == text


def test_parse_rejects_sub_hour():
    with pytest.raises(MarketDataError):
        parse_timestamp("2021-01-01T00:30:00Z")


def test_parse_rejects_garbage():
    with pytest.raises(MarketDataError):
        parse_timestamp("not-a-time")


def test_hour_of_week_anchor():
    # 1970-01-01 was a Thursday; Monday-indexed day 3, hour 0
    assert hour_of_week(0) == 3 * 24


# -- ingest ------------------------------------------------------------------


HEADER = "timestamp,lmp_da,lmp_rt,load_actual,load_forecast,temperature,wind_speed,gas_price"


def _write(tmp_path, rows, header=HEADER):
    path = tmp_path / "m.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def _row(ts, da=40.0, rt=40.0):
    return f"{ts},{da},{rt},1000,1000,10,5,4"


def test_ingest_well_formed(tmp_path):
    path = _write(
        tmp_path,
        [
            _row("2021-01-01T00:00:00Z"),
            _row("2021-01-01T01:00:00Z", da=50.0),
            _row("2021-01-01T02:00:00Z"),
        ],
    )
    s = ingest_csv(path)
    assert len(s) == 3
    assert not any(m.any() for m in s.fill_mask.values())
    assert s.fields["lmp_da"][1] == 50.0
    assert s.provenance == "ingested"


def test_ingest_resorts_out_of_order(tmp_path):
    # sort oracle: rows shuffled, output must be ascending
    hours = ["2021-01-01T02:00:00Z", "2021-01-01T00:00:00Z", "2021-01-01T01:00:00Z"]
    path = _write(tmp_path, [_row(h, da=i) for i, h in enumerate(hours)])
    s = ingest_csv(path)
    assert list(np.diff(s.timestamps)) == [1, 1]
    # row for 00:00 carried da=1
    assert s.fields["lmp_da"][0] == 1.0 and s.fields["lmp_da"][2] == 0.0


def test_ingest_duplicate_timestamp_names_it(tmp_path):
    path = _write(tmp_path, [_row("2021-01-01T00:00:00Z")] * 2)
    with pytest.raises(MarketDataError, match="2021-01-01T00:00:00Z"):
        ingest_csv(path)


def test_ingest_malformed_row_reports_index(tmp_path):
    rows = [_row("2021-01-01T00:00:00Z"), "2021-01-01T01:00:00Z,xx,40,1,1,1,1,1"]
    with pytest.raises(MarketDataError, match="row 2"):
        ingest_csv(_write(tmp_path, rows))


def test_ingest_missing_column(tmp_path):
    with pytest.raises(MarketDataError, match="gas_price"):
        ingest_csv(_write(tmp_path, ["2021-01-01T00:00:00Z,1,1,1,1,1,1"], header=HEADER.rsplit(",", 1)[0]))


def test_ingest_records_gaps_without_filling(tmp_path):
    path = _write(
        tmp_path, [_row("2021-01-01T00:00:00Z"), _row("2021-01-01T03:00:00Z")]
    )
    s = ingest_csv(path)
    assert len(s) == 4
    assert np.isnan(s.fields["lmp_da"][1:3]).all()
    assert not any(m.any() for m in s.fill_mask.values())


def test_ingest_negative_load_rejected(tmp_path):
    with pytest.raises(MarketDataError):
        ingest_csv(_write(tmp_path, ["2021-01-01T00:00:00Z,40,40,-5,1000,10,5,4"]))


def test_ingest_header_without_rows_rejected(tmp_path):
    with pytest.raises(MarketDataError, match="no data rows"):
        ingest_csv(_write(tmp_path, []))


def test_ingest_reports_the_first_negative_in_file_order(tmp_path):
    # a later hour with a negative gas price comes first in the file, an
    # earlier hour with a negative load forecast second
    rows = [
        "2021-01-01T03:00:00Z,40,40,1000,1000,10,5,-2.5",
        "2021-01-01T00:00:00Z,40,40,1000,-7,10,5,4",
    ]
    with pytest.raises(MarketDataError) as err:
        ingest_csv(_write(tmp_path, rows))
    assert str(err.value) == "gas_price must be non-negative, got -2.5 at 2021-01-01T03:00:00Z"
    # within one row the fields are checked load_actual, load_forecast, gas_price
    with pytest.raises(MarketDataError, match="^load_forecast must be non-negative, got -7.0 at"):
        ingest_csv(_write(tmp_path, ["2021-01-01T00:00:00Z,40,40,1000,-7,10,5,-1"]))


def test_ingest_memory_is_bounded_by_a_block(tmp_path):
    # a reader that holds every cell as a str before it parses any peaks at
    # about 14 times the arrays it returns
    path = tmp_path / "long.csv"
    write_csv(generate_synthetic(SyntheticConfig(n_hours=24_000, seed=3)), path)
    tracemalloc.start()
    try:
        series = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [series.timestamps, *series.fields.values(), *series.fill_mask.values()]
    assert peak < 5 * sum(a.nbytes for a in arrays)


def _peak_over_arrays(fn, *args):
    """``fn(*args)``'s traced peak, over the bytes of the series it returns."""
    tracemalloc.start()
    try:
        series = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [series.timestamps, *series.fields.values(), *series.fill_mask.values()]
    return peak / sum(a.nbytes for a in arrays if a is not None)


def test_ingest_places_one_field_at_a_time(tmp_path):
    # placing every field while every parsed block is held peaked at 2.4
    # times the returned arrays; one field at a time, dropping each placed
    # block column, at 1.6
    path = tmp_path / "long.csv"
    write_csv(generate_synthetic(SyntheticConfig(n_hours=24_000, seed=3)), path)
    assert _peak_over_arrays(ingest_csv, path) < 2.0


def test_synthetic_uses_each_draw_at_once():
    # drawing every noise series before using any peaked at 2.8 times the
    # returned arrays; using each as it is drawn, at 1.6
    assert _peak_over_arrays(generate_synthetic, SyntheticConfig(n_hours=24_000, seed=3)) < 2.0


def test_synthetic_series_ends_by_the_last_readable_hour(tmp_path):
    last = parse_timestamp("9999-12-31T23:00:00Z")
    series = generate_synthetic(SyntheticConfig(n_hours=48, start=last - 47))
    write_csv(series, tmp_path / "end.csv")
    back = ingest_csv(tmp_path / "end.csv")
    assert back.timestamps[-1] == last
    np.testing.assert_array_equal(back.fields["lmp_da"], series.fields["lmp_da"])
    with pytest.raises(MarketDataError, match="runs past 9999-12-31T23:00:00Z"):
        SyntheticConfig(n_hours=49, start=last - 47)


def test_csv_round_trip_exact(tmp_path):
    series = generate_synthetic(SyntheticConfig(n_hours=200, seed=3))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(series, p1, header_comment="x=1")
    back = ingest_csv(p1)
    for name in series.fields:
        np.testing.assert_array_equal(back.fields[name], series.fields[name])
    write_csv(back, p2, header_comment="x=1")
    assert p1.read_bytes() == p2.read_bytes()


# cells on both sides of repr's switches to exponent notation (below 1e-4,
# from 1e16), signed zeros, subnormals, and anything else a float can hold
_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e-5, 1e15, 1e16]),
    st.floats(1e-6, 1e-3) | st.floats(-1e-3, -1e-6),
    st.floats(1e14, 1e17) | st.floats(-1e17, -1e14),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(math.nan),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_csv_round_trip_bit_exact_with_gaps(data):
    n = data.draw(st.integers(1, 40))
    fields = {}
    for name in FIELD_NAMES:
        values = np.array(data.draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n)))
        lo = data.draw(st.integers(0, n))
        values[lo : data.draw(st.integers(lo, n))] = np.nan
        if name in ("load_actual", "load_forecast", "gas_price"):
            values = np.where(values < 0, -values, values)  # keeps -0.0 and NaN
        fields[name] = values
    series = MarketSeries(
        timestamps=np.arange(START_2021, START_2021 + n), fields=fields, provenance="synthetic"
    )
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_csv(series, p1, header_comment="x=1")
        back = ingest_csv(p1)
        write_csv(back, p2, header_comment="x=1")
        assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(back.timestamps, series.timestamps)
    for name in FIELD_NAMES:
        gaps = np.isnan(series.fields[name])
        np.testing.assert_array_equal(np.isnan(back.fields[name]), gaps)
        bits = [f[~gaps].view(np.int64) for f in (series.fields[name], back.fields[name])]
        np.testing.assert_array_equal(*bits)


# -- repair ------------------------------------------------------------------


def test_repair_short_gap_linear():
    da = np.array([10.0, np.nan, np.nan, 40.0])
    s = make_series(lmp_da=da)
    r = repair_gaps(s)
    np.testing.assert_allclose(r.fields["lmp_da"], [10.0, 20.0, 30.0, 40.0])
    assert list(r.fill_mask["lmp_da"]) == [False, True, True, False]


def test_repair_no_gaps_is_identity():
    s = make_series(lmp_da=np.arange(48.0))
    r = repair_gaps(s)
    np.testing.assert_array_equal(r.fields["lmp_da"], s.fields["lmp_da"])
    assert not r.fill_mask["lmp_da"].any()


def test_repair_long_gap_uses_hour_of_week_mean():
    # three weeks of data, 6-hour gap in the middle week
    n = 3 * 168
    base = np.arange(n, dtype=np.float64) % 168  # value = hour of week position
    da = base.copy()
    gap = slice(168 + 30, 168 + 36)
    da[gap] = np.nan
    s = make_series(lmp_da=da)
    r = repair_gaps(s)
    how = hour_of_week(s.timestamps)
    for i in range(gap.start, gap.stop):
        others = base[(how == how[i]) & ~np.isnan(da)]
        assert r.fields["lmp_da"][i] == pytest.approx(others.mean())


def test_repair_boundary_gap_seasonal():
    n = 2 * 168
    da = np.full(n, 25.0)
    da[:3] = np.nan  # leading gap has no left bracket
    r = repair_gaps(make_series(lmp_da=da))
    np.testing.assert_allclose(r.fields["lmp_da"][:3], 25.0)
    assert r.fill_mask["lmp_da"][:3].all()


def test_repair_boundary_gap_too_long_errors():
    n = 3 * 168
    da = np.full(n, 25.0)
    da[: 168 + 1] = np.nan
    with pytest.raises(MarketDataError, match="boundary"):
        repair_gaps(make_series(lmp_da=da))


def test_repair_field_entirely_missing_errors():
    da = np.full(48, np.nan)
    with pytest.raises(MarketDataError, match="lmp_da"):
        repair_gaps(make_series(lmp_da=da, n=48))


def test_repair_threshold_boundary():
    # 3-hour gap interpolates linearly, 4-hour gap goes seasonal
    n = 2 * 168
    ramp = np.arange(n, dtype=np.float64)
    for gap_len, linear in ((3, True), (4, False)):
        da = ramp.copy()
        da[50 : 50 + gap_len] = np.nan
        r = repair_gaps(make_series(lmp_da=da))
        expected_linear = ramp[50 : 50 + gap_len]
        got = r.fields["lmp_da"][50 : 50 + gap_len]
        if linear:
            np.testing.assert_allclose(got, expected_linear)
        else:
            assert not np.allclose(got, expected_linear)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_repair_idempotent_and_preserves_observed(data):
    n = 2 * 168
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    da = rng.normal(40, 10, n)
    # poke random gaps of random lengths
    for _ in range(data.draw(st.integers(1, 6))):
        start = data.draw(st.integers(1, n - 10))
        length = data.draw(st.integers(1, 8))
        da[start : start + length] = np.nan
    series = make_series(lmp_da=da.copy())
    observed = ~np.isnan(da)
    r1 = repair_gaps(series)
    r2 = repair_gaps(r1)
    np.testing.assert_array_equal(r1.fields["lmp_da"], r2.fields["lmp_da"])
    np.testing.assert_array_equal(r1.fill_mask["lmp_da"], r2.fill_mask["lmp_da"])
    np.testing.assert_array_equal(r1.fields["lmp_da"][observed], da[observed])
    assert not np.isnan(r1.fields["lmp_da"]).any()


# -- split -------------------------------------------------------------------


def _day(i):
    return START_2021 + 24 * i


def test_split_day_boundaries():
    s = make_series(lmp_da=np.arange(72.0))
    spec = SplitSpec(
        train=DateRange(_day(0), _day(1)),
        test1=DateRange(_day(1), _day(2)),
        test2=DateRange(_day(2), _day(3)),
    )
    train, t1, t2 = split(s, spec)
    assert len(train) == len(t1) == len(t2) == 24
    assert train.fields["lmp_da"][0] == 0.0
    assert t2.fields["lmp_da"][-1] == 71.0


def test_split_overlap_rejected():
    with pytest.raises(MarketDataError):
        SplitSpec(
            train=DateRange(_day(0), _day(2)),
            test1=DateRange(_day(1), _day(3)),
            test2=DateRange(_day(3), _day(4)),
        )


def test_split_chronology_oracle():
    s = make_series(lmp_da=np.arange(24.0 * 14))
    spec = SplitSpec(
        train=DateRange(_day(0), _day(8)),
        test1=DateRange(_day(8), _day(11)),
        test2=DateRange(_day(11), _day(14)),
    )
    train, t1, t2 = split(s, spec)
    assert train.timestamps.max() < t1.timestamps.min() < t2.timestamps.min()
    assert t1.timestamps.max() < t2.timestamps.min()


def test_split_range_not_covered():
    s = make_series(lmp_da=np.arange(48.0))
    spec = SplitSpec(
        train=DateRange(_day(0), _day(1)),
        test1=DateRange(_day(1), _day(2)),
        test2=DateRange(_day(2), _day(3)),
    )
    with pytest.raises(MarketDataError, match="not covered"):
        split(s, spec)


def test_split_concat_reproduces_union():
    s = make_series(lmp_da=np.arange(24.0 * 6))
    spec = SplitSpec(
        train=DateRange(_day(0), _day(2)),
        test1=DateRange(_day(2), _day(3)),
        test2=DateRange(_day(3), _day(6)),
    )
    parts = split(s, spec)
    joined = np.concatenate([p.fields["lmp_da"] for p in parts])
    np.testing.assert_array_equal(joined, s.fields["lmp_da"])
    joined_ts = np.concatenate([p.timestamps for p in parts])
    np.testing.assert_array_equal(joined_ts, s.timestamps)


def test_split_and_repair_share_read_only_arrays():
    # a split is views of the series, and repair shares what it does not
    # fill, so neither copies the hours; every array stays read-only
    da = np.arange(24.0 * 3)
    da[30] = np.nan
    s = repair_gaps(make_series(lmp_da=da))
    spec = SplitSpec(
        train=DateRange(_day(0), _day(1)),
        test1=DateRange(_day(1), _day(2)),
        test2=DateRange(_day(2), _day(3)),
    )
    for part in split(s, spec):
        arrays = (part.timestamps, *part.fields.values(), *part.fill_mask.values())
        assert all(not a.flags.writeable for a in arrays)
        assert np.shares_memory(part.fields["lmp_da"], s.fields["lmp_da"])
        assert np.shares_memory(part.timestamps, s.timestamps)
    repaired = repair_gaps(s)
    assert repaired.timestamps is s.timestamps


# -- synthetic ---------------------------------------------------------------


def test_synthetic_deterministic():
    a = generate_synthetic(SyntheticConfig(n_hours=300, seed=9))
    b = generate_synthetic(SyntheticConfig(n_hours=300, seed=9))
    for name in a.fields:
        np.testing.assert_array_equal(a.fields[name], b.fields[name])
    np.testing.assert_array_equal(a.regimes, b.regimes)


def test_synthetic_equal_stds_match_across_regimes():
    cfg = SyntheticConfig(
        n_hours=10_000, calm_std=6.0, volatile_std=6.0, calm_mean=40.0,
        volatile_mean=60.0, seed=4,
    )
    s = generate_synthetic(cfg)
    da = s.fields["lmp_da"]
    calm = da[s.regimes == 0]
    volatile = da[s.regimes == 1]
    assert abs(calm.std() - volatile.std()) / calm.std() < 0.10


def test_synthetic_zero_spread_means_equal_prices():
    s = generate_synthetic(SyntheticConfig(n_hours=100, rt_spread_std=0.0, seed=1))
    np.testing.assert_array_equal(s.fields["lmp_rt"], s.fields["lmp_da"])


def test_synthetic_stationary_regime_fraction():
    s = generate_synthetic(SyntheticConfig(n_hours=50_000, seed=2))
    frac = float((s.regimes == 1).mean())
    assert abs(frac - 0.5) <= 0.05


def test_synthetic_invariants_and_config_validation():
    s = generate_synthetic(SyntheticConfig(n_hours=500, seed=0))
    assert (s.fields["load_actual"] >= 0).all()
    assert (s.fields["load_forecast"] >= 0).all()
    assert (s.fields["gas_price"] >= 0).all()
    assert not s.has_missing()
    with pytest.raises(MarketDataError):
        SyntheticConfig(n_hours=10)
    with pytest.raises(MarketDataError):
        SyntheticConfig(n_hours=100, calm_std=0.0)
    with pytest.raises(MarketDataError):
        SyntheticConfig(n_hours=100, regime_dwell_hours=0.5)


def test_series_requires_uniform_timeline():
    with pytest.raises(MarketDataError):
        MarketSeries(
            timestamps=np.array([0, 2], dtype=np.int64),
            fields={k: np.zeros(2) for k in make_series(n=2).fields},
            provenance="synthetic",
        )

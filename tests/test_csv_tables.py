"""Every CSV the program writes (market file, ledger, rolling metrics,
training log, and the per-seed, ablation and report tables) against a
``csv.writer`` reference, byte for byte: on edge values, at the block edges
of ``write_table``, and with text cells that need quoting."""

import csv
import json
import math

import numpy as np
import pytest

from marsbid import cli
from marsbid.bidding_env import EpisodeLedger
from marsbid.config import build_config
from marsbid.evaluation import (
    METRIC_FIELDS,
    MetricReport,
    aggregate_reports,
    write_reports_csv,
    write_rolling_csv,
)
from marsbid.market_data import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    FIELD_NAMES,
    MarketSeries,
    float_cells,
    format_timestamps,
    write_csv,
)
from marsbid.ppo_trainer import UpdateRecord, write_log

from conftest import START_2021
from oracles import csv_writer_table, repr_cell

# a NaN whose mantissa holds more than the quiet bit
PAYLOAD_NAN = float(np.array(0x7FF8_0000_0000_BEEF, np.uint64).view(np.float64))
# float_cells writes orjson's cell where 1e-4 <= |x| < 1e16 and repr's
# elsewhere; the values on both sides of each switch point are here
EDGE_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-5, 1e-4, 1e15, 1e16, 1e22,
    -1e22, 3.0, -7.0, 2.0**53, 0.1, -123.456, math.nan, float(np.nextafter(1e-4, 0)),
    -1e-4, 9999999999999998.0, -1e16, -5e-324, PAYLOAD_NAN,
]
BLOCK_EDGES = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
LEDGER_COLUMNS = (
    "lmp_da", "lmp_rt", "alpha", "profit", "revenue_da", "revenue_rt",
    "cost_marginal", "cost_startup", "penalty", "volatility",
)
ROLES = ("safe", "spec", "neutral")
COMMENT = "config_hash=0123456789abcdef seed=7"
# a metric is a finite float or None (undefined); the drawdowns may be inf
METRIC_VALUES = [None, 0.0, -0.0, 5e-324, 1e-5, 1e16, -1e22, 3.0, 2.0**53, 0.1, -123.456, None]
# text cells, some of which csv.writer quotes; the first three also name
# directories
NAMES = ["seed0", 'say "hi"', "a\rb", "a,b", "two\nlines", ""]


def edge_column(n: int, shift: int) -> np.ndarray:
    """``n`` edge values, cycled from position ``shift``."""
    return np.array([EDGE_VALUES[(i + shift) % len(EDGE_VALUES)] for i in range(n)])


def assert_same_file(tmp_path, write, header, rows, n_rows):
    """``write(path)`` gives the bytes of :func:`csv_writer_table` on
    ``rows``, and none of its cells holds a comma, a quote or a line break."""
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write(ours)
    csv_writer_table(ref, COMMENT, header, rows)
    data = ours.read_bytes()
    assert data == ref.read_bytes()
    assert b'"' not in data and b"\r" not in data
    comment, *lines, last = data.decode().split("\n")
    assert comment == f"# {COMMENT}" and last == ""
    assert len(lines) == 1 + n_rows
    assert all(line.count(",") == len(header) - 1 for line in lines)


def random_bit_floats(n: int, seed: int) -> np.ndarray:
    """``n`` float64s made of random bits. Sign and mantissa bits are
    uniform, but one mantissa in 8 is zero, and the exponent field falls in
    the band from 2**-16 to 2**56 around both of float_cells' switch points 9
    times in 10, anywhere in 0..2047 8 times in 100, and else on 0 (zeros,
    subnormals) or 2047 (±inf, NaN payloads)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    exponents = np.array([rng.integers(1007, 1080, n), rng.integers(0, 2048, n),
                          rng.choice([0, 2047], n)])
    exponent = exponents[rng.choice(3, size=n, p=[0.9, 0.08, 0.02]), np.arange(n)]
    mantissa = bits & np.uint64(2**52 - 1)
    mantissa[rng.random(n) < 1 / 8] = 0
    sign = bits & np.uint64(1 << 63)
    return (sign | exponent.astype(np.uint64) << np.uint64(52) | mantissa).view(np.float64)


@pytest.mark.parametrize("missing", ["", "NA", "nan"])
def test_float_cells_match_per_cell_repr(missing):
    assert float_cells(EDGE_VALUES, missing) == [repr_cell(v, missing) for v in EDGE_VALUES]
    assert float_cells(np.array([]), missing) == []
    # a column of a 2-D array is strided
    grid = np.column_stack([EDGE_VALUES, EDGE_VALUES[::-1]])
    assert not grid[:, 1].flags.c_contiguous
    assert float_cells(grid[:, 1], missing) == [repr_cell(v, missing) for v in EDGE_VALUES[::-1]]


@pytest.mark.parametrize("missing", ["", "NA", "nan"])
def test_float_cells_match_repr_on_random_bits(missing):
    values = random_bit_floats(200_000, seed=25)
    magnitude = np.abs(values)
    assert np.isinf(values).any() and (values == 0).any()
    assert ((magnitude > 0) & (magnitude < 2.0**-1022)).any()  # subnormals
    nan_bits = values[np.isnan(values)].view(np.uint64)
    assert len(set(nan_bits.tolist())) > 2  # NaNs with payloads
    assert ((magnitude >= 1e-4) & (magnitude < 1e16)).mean() > 0.8
    assert float_cells(values, missing) == [repr_cell(v, missing) for v in values.tolist()]


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_market_csv_matches_csv_writer(tmp_path, n):
    series = MarketSeries(
        timestamps=np.arange(START_2021, START_2021 + n),
        fields={name: edge_column(n, k) for k, name in enumerate(FIELD_NAMES)},
        provenance="synthetic",
    )
    floats = ([repr_cell(v, "") for v in series.fields[name].tolist()] for name in FIELD_NAMES)
    rows = zip(format_timestamps(series.timestamps), *floats)
    write = lambda path: write_csv(series, path, header_comment=COMMENT)  # noqa: E731
    assert_same_file(tmp_path, write, CSV_COLUMNS, rows, n)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_rolling_csv_matches_csv_writer(tmp_path, n):
    means, sharpes = edge_column(n, 0), edge_column(n, 5)
    floats = ([repr_cell(v, "NA") for v in col.tolist()] for col in (means, sharpes))
    rows = zip(range(n), *floats)
    write = lambda path: write_rolling_csv(path, means, sharpes, header_comment=COMMENT)  # noqa: E731
    header = ["index", "rolling_mean", "rolling_sharpe"]
    assert_same_file(tmp_path, write, header, rows, n)


@pytest.mark.parametrize("blended", [False, True])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_ledger_csv_matches_csv_writer(tmp_path, n, blended):
    columns = {name: edge_column(n, k) for k, name in enumerate(LEDGER_COLUMNS)}
    ledger = EpisodeLedger(timestamps=np.arange(START_2021, START_2021 + n), **columns)
    header = ["timestamp", *LEDGER_COLUMNS]
    cells = list(columns.values())
    if blended:
        ledger.roles = ROLES
        ledger.weights = np.column_stack([edge_column(n, 3 + k) for k in range(len(ROLES))])
        ledger.proposals = np.column_stack([edge_column(n, 7 + k) for k in range(len(ROLES))])
        ledger.r_meta = edge_column(n, 11)
        header += [f"w_{r}" for r in ROLES] + [f"prop_{r}" for r in ROLES] + ["r_meta"]
        cells += [*ledger.weights.T, *ledger.proposals.T, ledger.r_meta]
    rows = zip(format_timestamps(ledger.timestamps), *(map(repr, c.tolist()) for c in cells))
    write = lambda path: ledger.to_csv(path, header_comment=COMMENT)  # noqa: E731
    assert_same_file(tmp_path, write, header, rows, n)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 1])
def test_training_log_csv_matches_csv_writer(tmp_path, n):
    log = []
    floats = edge_column(n, 0).tolist()
    for i, x in enumerate(floats):
        log.append(UpdateRecord(i + 1, 512 * (i + 1), x, -x, 2.0 * x, 0.5, x / 3.0, 1e-5))
    header = list(UpdateRecord.__dataclass_fields__)
    rows = ([repr(getattr(r, c)) for c in header] for r in log)
    write = lambda path: write_log(path, log, header_comment=COMMENT)  # noqa: E731
    assert_same_file(tmp_path, write, header, rows, n)
    if n:
        assert (tmp_path / "ours.csv").read_text().split("\n")[2].startswith("1,512,")


def metric_cell(value) -> str:
    """A metric's cell as ``csv.writer`` took it: NA when undefined, else
    the float's ``repr``."""
    return "NA" if value is None else repr(float(value))


def metric_reports(n: int, shift: int, values=METRIC_VALUES) -> list:
    """``n`` reports whose metrics cycle through ``values`` from ``shift``."""
    return [
        MetricReport(
            *(values[(i + k + shift) % len(values)] for k in range(len(METRIC_FIELDS))),
            n_steps=i,
        )
        for i in range(n)
    ]


def assert_matches_csv_writer(path, comment, header, rows):
    ref = path.with_name("ref.csv")
    csv_writer_table(ref, comment, header, rows)
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("comment", [COMMENT, None])
@pytest.mark.parametrize("n", [0, 1, len(NAMES)])
def test_reports_csv_matches_csv_writer(tmp_path, n, comment):
    reports = metric_reports(n, 0, METRIC_VALUES + [math.inf])
    rows = ([name, *(metric_cell(getattr(r, m)) for m in METRIC_FIELDS)]
            for name, r in zip(NAMES, reports))
    path = tmp_path / "per_seed.csv"
    write_reports_csv(path, dict(zip(NAMES, reports)), header_comment=comment)
    assert_matches_csv_writer(path, comment, ["name", *METRIC_FIELDS], rows)


def test_ablation_csv_matches_csv_writer(tmp_path, monkeypatch):
    # the seeds' reports are made up, so only the table is written; one
    # configuration has no defined metric on any seed
    seeds = (0, 1, 2)
    undefined = MetricReport(*[None] * len(METRIC_FIELDS), n_steps=0)
    per_seed = [
        {name: metric_reports(1, 3 * c + s)[0] for c, name in enumerate(cli.ABLATION_CONFIGS)}
        | {"cvar": undefined}
        for s in seeds
    ]
    monkeypatch.setattr(cli, "_map_seeds", lambda job, seeds: ((r, []) for r in per_seed))
    out = tmp_path / "out"
    assert cli.main(["ablate", "--out", str(out), "--set", "eval.seeds=0,1,2"]) == 0
    columns = (("sharpe", "mean"), ("sharpe", "std"), ("max_drawdown_abs", "mean"),
               ("max_drawdown_rel", "mean"))
    header = ["configuration", *(f"{m}_{stat}" for m, stat in columns), "n_seeds"]
    rows = []
    for name in cli.ABLATION_CONFIGS:
        agg = aggregate_reports([reports[name] for reports in per_seed])
        rows.append([name, *(metric_cell(agg[m][stat]) for m, stat in columns), len(seeds)])
    assert "cvar,NA,NA,NA,NA,3" in (out / "ablation.csv").read_text()
    stamp = f"config_hash={build_config(overrides=['eval.seeds=0,1,2']).config_hash} seed=0,1,2"
    assert_matches_csv_writer(out / "ablation.csv", stamp, header, rows)


@pytest.mark.parametrize("n_policies", [0, 3])
def test_report_csv_matches_csv_writer(tmp_path, n_policies):
    # report.csv holds each aggregate's means to 4 decimals, NA if undefined
    columns = ("sharpe", "sortino", "max_drawdown_abs", "allocation_entropy", "regime_alignment")
    eval_root = tmp_path / "eval"
    eval_root.mkdir()
    values = iter(METRIC_VALUES * 3)
    rows = []
    for policy in sorted(NAMES[:n_policies]):
        for split_name in ("test1", "test2"):
            means = [next(values) for _ in columns]
            (eval_root / policy / split_name).mkdir(parents=True)
            (eval_root / policy / split_name / "aggregate.json").write_text(
                json.dumps({"metrics": {m: {"mean": v} for m, v in zip(columns, means)}})
            )
            rows.append([policy, split_name, *("NA" if v is None else f"{v:.4f}" for v in means)])
    assert cli.main(["report", "--out", str(tmp_path)]) == 0
    header = ["policy", "split", "sharpe", "sortino", "mdd_abs", "entropy", "alignment"]
    comment = f"config_hash={build_config().config_hash}"
    assert_matches_csv_writer(tmp_path / "report.csv", comment, header, rows)
    # csv.reader ends a record at a bare carriage return
    with open(tmp_path / "report.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 2 + 2 * n_policies

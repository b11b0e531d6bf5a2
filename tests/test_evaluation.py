import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.bidding_env import EpisodeLedger, StrategicBiddingEnv
from marsbid.errors import DivergenceError
from marsbid.evaluation import (
    ROLLING_BLOCK,
    aggregate_reports,
    allocation_entropy,
    compute_report,
    greedy,
    max_drawdown,
    regime_alignment,
    regime_alignment_expost,
    rolling_metrics,
    run_policy_episode,
    sharpe,
    sortino,
    write_reports_csv,
)
from marsbid.market_data import format_timestamp
from marsbid.policy_net import PolicyNetwork

from conftest import make_series
from oracles import greedy_rows, rolling_volatility


# -- brute-force oracles (independent reimplementation) -------------------------


def sharpe_oracle(r):
    m = sum(r) / len(r)
    var = sum((x - m) ** 2 for x in r) / (len(r) - 1)
    return None if var == 0 else m / math.sqrt(var)


def sortino_oracle(r):
    m = sum(r) / len(r)
    dd = math.sqrt(sum(min(x, 0.0) ** 2 for x in r) / len(r))
    return None if dd == 0 else m / dd


def mdd_oracle(eq):
    peak = -math.inf
    best_abs, best_peak = 0.0, None
    for x in eq:
        peak = max(peak, x)
        dd = peak - x
        if dd > best_abs:
            best_abs, best_peak = dd, peak
    if best_abs == 0.0:
        return 0.0, 0.0
    rel = best_abs / best_peak if best_peak > 0 else None
    return best_abs, rel


def entropy_oracle(ws):
    total = 0.0
    for w in ws:
        h = 0.0
        for x in w:
            if x > 0:
                h -= x * math.log(x)
        total += h
    return total / len(ws)


def corr_oracle(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    if sx == 0 or sy == 0:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / (sx * sy)


# -- hand examples ---------------------------------------------------------------


def test_sharpe_hand_values():
    assert sharpe([1.0, -1.0, 1.0, -1.0]) == 0.0
    assert sharpe([2.0, 4.0]) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-9)
    assert sharpe([5.0, 5.0, 5.0]) is None
    with pytest.raises(ValueError, match="sharpe needs at least 2 returns"):
        sharpe([1.0])


def test_sortino_hand_values():
    assert sortino([1.0, 2.0, 3.0]) is None
    assert sortino([3.0, -4.0]) == pytest.approx(-0.5 / math.sqrt(8.0), abs=1e-9)
    assert sortino([-0.5 / math.sqrt(8.0) * 0, 0.0]) is None  # all zero
    assert sortino([3.0, -4.0]) == pytest.approx(-0.1768, abs=1e-4)
    with pytest.raises(ValueError, match="sortino needs at least 2 returns"):
        sortino([1.0])


@pytest.mark.parametrize(
    "metric",
    [sharpe, sortino, lambda r: rolling_metrics(r, window=2)],
    ids=["sharpe", "sortino", "rolling"],
)
def test_overflowing_moments_raise_divergence(metric):
    # finite returns whose squares overflow fail closed, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="^non-finite"):
            metric(np.array([2e160, -3e160, 1e160]))


def test_max_drawdown_hand_values():
    assert max_drawdown(np.cumsum([1.0, 1.0, 1.0])) == (0.0, 0.0)
    assert max_drawdown([100.0, 50.0, 75.0]) == (50.0, 0.5)
    abs_dd, rel = max_drawdown([-10.0, -20.0])
    assert abs_dd == 10.0 and rel is None


def test_allocation_entropy_hand_values():
    assert allocation_entropy([[0.5, 0.5]] * 4) == pytest.approx(math.log(2), abs=1e-12)
    assert allocation_entropy([[1.0, 0.0]] * 3) == 0.0
    mixed = [[1.0, 0.0], [0.5, 0.5]]
    assert allocation_entropy(mixed) == pytest.approx(math.log(2) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        allocation_entropy([[0.7, 0.7]])


def test_regime_alignment_hand_cases(rng):
    vol = rng.random(100)
    assert regime_alignment(2.0 * vol + 1.0, vol) == pytest.approx(1.0)
    assert regime_alignment(-vol + 3.0, vol) == pytest.approx(-1.0)
    assert regime_alignment(np.full(10, 0.5), vol[:10]) is None
    x = rng.standard_normal(10_000)
    y = rng.standard_normal(10_000)
    assert abs(regime_alignment(x, y)) < 0.05


def test_regime_alignment_expost():
    lmp_da = np.array([50.0, 50.0, 50.0, 50.0])
    lmp_rt = np.array([60.0, 40.0, 60.0, 40.0])
    w_spec = np.array([1.0, 0.0, 1.0, 0.0])
    assert regime_alignment_expost(w_spec, lmp_da, lmp_rt) == pytest.approx(1.0)


# -- randomized oracle comparison -------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_metrics_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    r = rng.normal(0, 100, n)
    eq = np.cumsum(r)
    k = int(rng.integers(2, 4))
    raw_w = rng.random((n, k)) + 1e-12
    w = raw_w / raw_w.sum(axis=1, keepdims=True)
    vol = rng.random(n) * 30

    got = sharpe(r)
    want = sharpe_oracle(list(r))
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, abs=1e-9)

    got = sortino(r)
    want = sortino_oracle(list(r))
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, abs=1e-9)

    got_abs, got_rel = max_drawdown(eq)
    want_abs, want_rel = mdd_oracle(list(eq))
    assert got_abs == pytest.approx(want_abs, abs=1e-9)
    assert (got_rel is None) == (want_rel is None)
    if want_rel is not None:
        assert got_rel == pytest.approx(want_rel, abs=1e-9)

    assert allocation_entropy(w) == pytest.approx(entropy_oracle(w.tolist()), abs=1e-9)

    got = regime_alignment(w[:, 0], vol)
    want = corr_oracle(list(w[:, 0]), list(vol))
    if want is not None:
        assert got == pytest.approx(want, abs=1e-9)


# -- scale properties ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(0.01, 1000))
def test_scale_invariance(seed, c):
    rng = np.random.default_rng(seed)
    r = rng.normal(0, 10, 50)
    if sharpe(r) is not None:
        assert sharpe(c * r) == pytest.approx(sharpe(r), rel=1e-9)
    if sortino(r) is not None:
        assert sortino(c * r) == pytest.approx(sortino(r), rel=1e-9)
    abs1, _ = max_drawdown(np.cumsum(r))
    abs2, _ = max_drawdown(np.cumsum(c * r))
    assert abs2 == pytest.approx(c * abs1, rel=1e-9)
    vol = rng.random(50)
    a1 = regime_alignment(r, vol)
    a2 = regime_alignment(3.0 * r + 7.0, 0.5 * vol + 2.0)
    if a1 is not None:
        assert a2 == pytest.approx(a1, rel=1e-9, abs=1e-12)


# -- rolling metrics ------------------------------------------------------------------


def test_rolling_constant_mean():
    means, sharpes = rolling_metrics(np.full(50, 3.0), window=10)
    np.testing.assert_allclose(means[9:], 3.0)
    assert np.isnan(means[:9]).all()
    assert np.isnan(sharpes).all()  # zero variance everywhere: undefined


def test_rolling_degenerate_window_is_global():
    rng = np.random.default_rng(1)
    r = rng.normal(size=30)
    means, sharpes = rolling_metrics(r, window=30)
    assert means[-1] == pytest.approx(r.mean())
    assert sharpes[-1] == pytest.approx(sharpe(r))
    assert np.isnan(means[:-1]).all()


def test_rolling_matches_per_window_recomputation():
    rng = np.random.default_rng(8)
    r = rng.normal(0, 5, 300)
    window = 50
    means, sharpes = rolling_metrics(r, window=window)
    for i in range(window - 1, 300):
        chunk = r[i - window + 1 : i + 1]
        assert means[i] == pytest.approx(chunk.mean(), abs=1e-9)
        s = sharpe_oracle(list(chunk))
        if s is None:
            assert np.isnan(sharpes[i])
        else:
            assert sharpes[i] == pytest.approx(s, abs=1e-9)


def test_rolling_std_blocks_equal_one_matrix_std():
    # several blocks, a ragged last one and a single window, against the
    # std of the whole window matrix at once
    rng = np.random.default_rng(9)
    for n, window in ((3 * ROLLING_BLOCK + 77, 60), (ROLLING_BLOCK + 9, 10), (40, 40)):
        r = rng.normal(50, 400, n)
        views = np.lib.stride_tricks.sliding_window_view(r, window)
        means, sharpes = rolling_metrics(r, window=window)
        assert np.array_equal(means[window - 1 :], views.mean(axis=1))
        assert np.array_equal(sharpes[window - 1 :], views.mean(axis=1) / views.std(axis=1, ddof=1))


def test_rolling_too_short():
    with pytest.raises(ValueError):
        rolling_metrics(np.ones(10), window=11)


# -- reports -----------------------------------------------------------------------


def _ledger_with(profits, weights=None, roles=()):
    n = len(profits)
    hours = np.arange(n)
    profit = np.asarray(profits, dtype=np.float64)
    return EpisodeLedger(
        roles=roles,
        timestamps=447072 + hours,
        lmp_da=np.full(n, 50.0),
        lmp_rt=45.0 + (hours % 3) * 5.0,
        volatility=(hours % 7).astype(np.float64),
        alpha=np.full(n, 0.5),
        profit=profit,
        revenue_da=profit,
        cost_marginal=np.zeros(n),
        revenue_rt=np.zeros(n),
        cost_startup=np.zeros(n),
        penalty=np.zeros(n),
        weights=None if weights is None else np.asarray(weights, dtype=np.float64),
    )


def test_compute_report_and_json_na_markers(tmp_path):
    led = _ledger_with([1.0, 1.0, 1.0])  # constant: sharpe undefined, no downside
    rep = compute_report(led, config_hash="abc", seed=3)
    assert rep.sharpe is None and rep.sortino is None
    assert rep.cumulative_return == 3.0
    assert rep.allocation_entropy is None  # not hierarchical
    path = tmp_path / "r.json"
    rep.to_json(path)
    data = json.loads(path.read_text())
    assert data["sharpe"] is None and data["config_hash"] == "abc" and data["seed"] == 3


def test_reports_csv_uses_na(tmp_path):
    led = _ledger_with([1.0, 1.0, 1.0])
    rep = compute_report(led)
    path = tmp_path / "rows.csv"
    write_reports_csv(path, {"x": rep})
    text = path.read_text()
    assert "NA" in text and "None" not in text


def test_report_with_weights_has_alignment():
    rng = np.random.default_rng(0)
    n = 60
    w = rng.random((n, 2))
    w = w / w.sum(axis=1, keepdims=True)
    led = _ledger_with(rng.normal(0, 10, n), weights=list(w), roles=("safe", "spec"))
    rep = compute_report(led)
    assert rep.allocation_entropy is not None
    assert rep.regime_alignment is not None
    assert -1.0 <= rep.regime_alignment <= 1.0
    assert rep.regime_alignment_expost is not None


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("scale", [1e154, 1e300, 1.7e308])
def test_overflowing_alignment_is_na(tmp_path, scale):
    # the covariance overflows: np.corrcoef gives NaN or a silent 0 here
    rng = np.random.default_rng(5)
    n = 60
    w = rng.random((n, 2))
    w = w / w.sum(axis=1, keepdims=True)
    led = _ledger_with(rng.normal(0, 10, n), weights=list(w), roles=("safe", "spec"))
    led.volatility = scale * rng.random(n)
    rep = compute_report(led)
    assert rep.regime_alignment is None
    path = tmp_path / "r.json"
    rep.to_json(path)
    data = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert data["regime_alignment"] is None


def test_alignment_has_corrcoef_bits():
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 1e6, 1e150):
        x, y = rng.random(500), scale * rng.standard_normal(500)
        assert regime_alignment(x, y) == float(np.corrcoef(x, y)[0, 1])


def test_aggregate_mean_equals_mean_of_reports():
    reps = [
        compute_report(_ledger_with(np.random.default_rng(s).normal(0, 5, 40)))
        for s in range(4)
    ]
    agg = aggregate_reports(reps)
    manual = np.mean([r.sharpe for r in reps])
    assert agg["sharpe"]["mean"] == pytest.approx(manual, abs=1e-12)
    assert agg["sharpe"]["n"] == 4
    # None metrics aggregated over no values
    assert agg["allocation_entropy"]["mean"] is None
    assert agg["allocation_entropy"]["n"] == 0


# -- ledger market columns ------------------------------------------------------------


def test_ledger_market_columns_are_the_settled_hours(tmp_path):
    rng = np.random.default_rng(8)
    series = make_series(lmp_da=rng.normal(50, 15, 200), lmp_rt=rng.normal(50, 20, 200))
    env = StrategicBiddingEnv(series, episode_len=48)
    ledger = run_policy_episode(env, lambda tape: np.full(len(tape), 0.3), start=30)
    hours = range(30, 78)
    assert len(ledger) == 48
    da, rt = series.fields["lmp_da"], series.fields["lmp_rt"]
    assert np.array_equal(ledger.timestamps, series.timestamps[30:78])
    assert np.array_equal(ledger.lmp_da, da[30:78])
    assert np.array_equal(ledger.lmp_rt, rt[30:78])
    for i, vol in zip(hours, ledger.volatility):
        assert vol == pytest.approx(rolling_volatility(da[i - 24 : i]), abs=1e-12)
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    header, *rows = path.read_text().splitlines()
    columns = [
        "lmp_da", "lmp_rt", "alpha", "profit", "revenue_da", "revenue_rt",
        "cost_marginal", "cost_startup", "penalty", "volatility",
    ]
    assert header.split(",") == ["timestamp", *columns]
    assert len(rows) == 48
    # every cell the repr of a Python float, never a numpy repr
    for t, row in enumerate(rows):
        cells = row.split(",")
        assert cells[0] == format_timestamp(series.timestamps[30 + t])
        assert cells[1:] == [repr(float(getattr(ledger, name)[t])) for name in columns]
    assert rows[0].split(",")[1:3] == [repr(float(da[30])), repr(float(rt[30]))]


def test_greedy_equals_row_by_row_oracle():
    rng = np.random.default_rng(8)
    series = make_series(lmp_da=rng.normal(50, 15, 300), lmp_rt=rng.normal(50, 20, 300))
    env = StrategicBiddingEnv(series, episode_len=250, dispatch_mode="economic")
    env.reset(start=30)
    net = PolicyNetwork(env.obs_dim, (16, 16), seed=4)
    net.params["Wp"] *= 100.0  # spread the actions over (-1, 1)
    actions = greedy(net)(env.tape)
    assert actions.shape == (250,) and np.ptp(actions) > 0.5
    assert np.array_equal(actions, greedy_rows(net, env.tape))

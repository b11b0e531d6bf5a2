"""Risk and alignment metrics over episode ledgers, report emission, the
one episode runner that fills a ledger for any policy, and the two runner
policies that blend nothing: :func:`greedy` and :func:`rolling_opt`.

Conventions: per-step profits, zero risk-free rate, no annualization; Sharpe
uses the sample standard deviation, Sortino the root mean square of
negative returns only; entropy is in nats. Metrics that are mathematically
undefined (zero variance, no downside, non-positive peak) are reported as
None, never coerced to a number.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bidding_env import EpisodeLedger, StrategicBiddingEnv, map_action, settle
from .errors import DivergenceError
from .market_data import write_table
from .mars_hierarchy import Blend
from .reward_shaping import ShapingParams, reward_meta

CONVENTION = (
    "per-step profit, rf=0, unannualized; sharpe=mean/sample_std, "
    "sortino=mean/downside_rms, entropy in nats"
)


def _mean_over(returns, name: str, deviation_name: str, deviation) -> float | None:
    """Mean of ``returns`` over ``deviation`` of them; None when that is
    zero. Raises :class:`DivergenceError` when it is not finite, as when the
    squares of finite returns overflow."""
    r = np.asarray(returns, dtype=np.float64)
    if r.size < 2:
        raise ValueError(f"{name} needs at least 2 returns")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = deviation(r)
    if not np.isfinite(dev):
        raise DivergenceError(f"non-finite {deviation_name} of returns")
    if dev == 0.0:
        return None
    return float(r.mean() / dev)


def sharpe(returns) -> float | None:
    """Mean over sample std; None when it is zero, DivergenceError when not finite."""
    return _mean_over(returns, "sharpe", "sample std", lambda r: r.std(ddof=1))


def sortino(returns) -> float | None:
    """Mean over downside deviation sqrt(mean(min(r,0)^2)); None when there
    is no downside, DivergenceError when the deviation is not finite."""
    downside = lambda r: np.sqrt(np.mean(np.minimum(r, 0.0) ** 2))  # noqa: E731
    return _mean_over(returns, "sortino", "downside deviation", downside)


def max_drawdown(equity):
    """Largest peak-to-trough decline of a cumulative profit curve.

    Returns ``(absolute $, relative fraction)``; the relative figure divides
    by the running peak preceding the deepest trough and is None when that
    peak is not positive. A never-declining curve gives (0.0, 0.0).
    """
    eq = np.asarray(equity, dtype=np.float64)
    if eq.size < 1:
        raise ValueError("max_drawdown needs at least 1 point")
    peaks = np.maximum.accumulate(eq)
    drawdowns = peaks - eq
    worst = int(np.argmax(drawdowns))
    abs_dd = float(drawdowns[worst])
    if abs_dd == 0.0:
        return 0.0, 0.0
    peak = float(peaks[worst])
    rel = abs_dd / peak if peak > 0 else None
    return abs_dd, rel


def allocation_entropy(weights) -> float:
    """Mean Shannon entropy (nats) of a sequence of simplex weight
    vectors; 0 * ln 0 = 0."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if np.any(w < -1e-9) or np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("weights must lie on the probability simplex")
    wc = np.clip(w, 0.0, 1.0)
    terms = np.where(wc > 0.0, wc * np.log(np.where(wc > 0.0, wc, 1.0)), 0.0)
    return float(np.mean(-terms.sum(axis=1)))


def regime_alignment(spec_weights, volatility) -> float | None:
    """Pearson correlation between the speculator weight series and market
    volatility; None when either series is constant, or when their
    covariance overflows (a NaN, or a silent 0 once only a variance does)."""
    x = np.asarray(spec_weights, dtype=np.float64)
    y = np.asarray(volatility, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("correlation needs at least 2 points")
    with np.errstate(over="ignore", invalid="ignore"):
        if x.std() == 0.0 or y.std() == 0.0:
            return None
        cov = np.cov(x, y)
    if not np.isfinite(cov).all():
        return None
    # np.corrcoef's operations on its one off-diagonal entry
    sx, sy = np.sqrt(np.diag(cov))
    return float(np.clip(cov[0, 1] / sx / sy, -1.0, 1.0))


def regime_alignment_expost(spec_weights, lmp_da, lmp_rt) -> float | None:
    """Ex-post variant: correlation of the speculator weight with the
    indicator that full RT allocation would have out-earned full DA."""
    better_rt = (np.asarray(lmp_rt) > np.asarray(lmp_da)).astype(np.float64)
    return regime_alignment(spec_weights, better_rt)


ROLLING_BLOCK = 256  # windows per std block in rolling_metrics


def rolling_metrics(returns, window: int = 720):
    """Trailing-window mean and Sharpe at every index >= window-1.

    Returns ``(means, sharpes)`` aligned to the input (NaN before the first
    full window and wherever the window Sharpe is undefined; NaN marks a
    gap, report writers must map it to NA). Raises :class:`DivergenceError`
    when a window's std is not finite.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.size < window:
        raise ValueError(f"series of {r.size} shorter than window {window}")
    views = np.lib.stride_tricks.sliding_window_view(r, window)
    # std materializes each window's deviations: over all windows at once,
    # (n - window + 1) x window floats (44 MB for a year at 720 h). Each
    # row's std is computed alone either way, so blocks give the same bits.
    with np.errstate(over="ignore", invalid="ignore"):
        window_means = views.mean(axis=1)
        window_stds = np.concatenate(
            [
                views[i : i + ROLLING_BLOCK].std(axis=1, ddof=1)
                for i in range(0, len(views), ROLLING_BLOCK)
            ]
        )
    if not np.isfinite(window_stds).all():  # also when a window's sum overflows
        raise DivergenceError("non-finite rolling std of returns")
    means = np.full(r.size, np.nan)
    sharpes = np.full(r.size, np.nan)
    means[window - 1 :] = window_means
    defined = window_stds > 0
    tail = sharpes[window - 1 :]
    tail[defined] = window_means[defined] / window_stds[defined]
    return means, sharpes


@dataclass
class MetricReport:
    """Flat summary of one evaluation episode/ledger."""

    cumulative_return: float
    sharpe: float | None
    sortino: float | None
    max_drawdown_abs: float
    max_drawdown_rel: float | None
    allocation_entropy: float | None
    regime_alignment: float | None
    regime_alignment_expost: float | None
    n_steps: int
    config_hash: str = ""
    seed: int | None = None

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({**asdict(self), "convention": CONVENTION}, fh, indent=2, sort_keys=True)
            fh.write("\n")


# the report's metrics: its fields before n_steps
_NAMES = [f.name for f in fields(MetricReport)]
METRIC_FIELDS = tuple(_NAMES[: _NAMES.index("n_steps")])


def compute_report(
    ledger: EpisodeLedger, config_hash: str = "", seed: int | None = None
) -> MetricReport:
    equity = np.cumsum(ledger.profit)
    dd_abs, dd_rel = max_drawdown(equity)
    entropy = allocation_entropy(ledger.weights) if ledger.weights is not None else None
    spec_w = ledger.spec_weight_series()
    align = align_expost = None
    if spec_w is not None:
        align = regime_alignment(spec_w, ledger.volatility)
        align_expost = regime_alignment_expost(spec_w, ledger.lmp_da, ledger.lmp_rt)
    return MetricReport(
        cumulative_return=float(equity[-1]) if len(ledger) else 0.0,
        sharpe=sharpe(ledger.profit),
        sortino=sortino(ledger.profit),
        max_drawdown_abs=dd_abs,
        max_drawdown_rel=dd_rel,
        allocation_entropy=entropy,
        regime_alignment=align,
        regime_alignment_expost=align_expost,
        n_steps=len(ledger),
        config_hash=config_hash,
        seed=seed,
    )


def write_reports_csv(path, rows: dict, header_comment: str | None = None) -> None:
    """One CSV row per named report (policy, seed, configuration...); an
    undefined metric is NA."""
    # a float array holds a None metric as NaN
    columns = [np.array(list(rows), dtype=str)]
    columns += [np.array([getattr(r, m) for r in rows.values()], float) for m in METRIC_FIELDS]
    write_table(path, header_comment, ("name", *METRIC_FIELDS), columns, missing="NA")


def write_rolling_csv(path, means, sharpes, header_comment: str | None = None) -> None:
    header = ("index", "rolling_mean", "rolling_sharpe")
    write_table(path, header_comment, header, [np.arange(len(means)), means, sharpes], "NA")


def aggregate_reports(reports: list) -> dict:
    """Mean and sample std per metric across seeds; None values are skipped
    and a metric that is undefined everywhere aggregates to None."""
    out: dict = {}
    for name in METRIC_FIELDS:
        values = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        if not values:
            out[name] = {"mean": None, "std": None, "n": 0}
            continue
        arr = np.asarray(values, dtype=np.float64)
        out[name] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "n": int(arr.size),
        }
    return out


def greedy(net):
    """A single policy's deterministic action per tape hour, as a runner
    policy."""
    return lambda tape: net.act_deterministic(tape.obs)[:, 0]


ROLLING_OPT_WINDOW = 24  # hours of realized spread behind each rolling_opt action


def rolling_opt(tape) -> np.ndarray:
    """Bang-bang rule on the mean realized (lmp_da - lmp_rt) spread of the
    :data:`ROLLING_OPT_WINDOW` hours before each tape hour: full DA (+1)
    when it is positive, full RT (-1) when negative, else the previous
    action (0 at first)."""
    w = ROLLING_OPT_WINDOW
    if tape.start < w:
        raise ValueError(f"only {tape.start} hours of history before the tape, need {w}")
    hours = slice(tape.start - w, tape.start + len(tape) - 1)
    spread = tape.series.fields["lmp_da"][hours] - tape.series.fields["lmp_rt"][hours]
    means = np.lib.stride_tricks.sliding_window_view(spread, w).mean(axis=1)
    actions = [0.0]
    for s in means.tolist():
        actions.append(1.0 if s > 0.0 else -1.0 if s < 0.0 else actions[-1])
    return np.array(actions[1:])


def run_policy_episode(
    env: StrategicBiddingEnv,
    policy,
    start: int | None = None,
    shaping: ShapingParams | None = None,
) -> EpisodeLedger:
    """Settle the whole episode ``env.episode(start)`` in one call; by
    default the first, over a whole-split env the contiguous evaluation pass.

    ``policy(tape)`` maps the episode's tape to its raw actions, one per
    hour, or to a :class:`Blend`, whose weights and proposals are recorded
    along with ``r_meta``, the meta reward of each hour's profit under
    ``shaping``. A policy that returns blends names their columns with its
    ``roles``, one per weight. Raises :class:`DivergenceError` if a profit,
    their running total or ``r_meta`` is not finite.
    """
    shaping = shaping or ShapingParams()
    roles = getattr(policy, "roles", ())
    tape = env.episode(start)
    act = policy(tape)
    blended = isinstance(act, Blend)
    if blended and act.weights.shape[1] != len(roles):
        raise ValueError(f"{act.weights.shape[1]} blend weights for roles {roles}")
    alpha = map_action(act.action if blended else act)
    if np.shape(alpha) != (len(tape),):
        raise ValueError(f"actions of shape {np.shape(alpha)} for a {len(tape)}-hour tape")
    # an overflow fails closed here, as one error and not a trail of warnings
    with np.errstate(over="ignore", invalid="ignore"):
        settled = settle(alpha, *tape.dispatch)
        if not np.isfinite(np.cumsum(settled.profit)).all():
            raise DivergenceError(f"non-finite profit or profit total from hour {tape.start}")
        r_meta = reward_meta(settled.profit, shaping) if blended else None
    if blended and not np.isfinite(r_meta).all():
        raise DivergenceError(f"non-finite r_meta from hour {tape.start}")
    hours = slice(tape.start, tape.start + len(tape))
    ledger = EpisodeLedger(
        timestamps=tape.series.timestamps[hours],
        lmp_da=tape.dispatch[0],
        lmp_rt=tape.dispatch[1],
        volatility=env.volatility[hours],
        roles=roles,
        **settled._asdict(),
    )
    if blended:
        ledger.weights, ledger.proposals, ledger.r_meta = act.weights, act.proposals, r_meta
    return ledger

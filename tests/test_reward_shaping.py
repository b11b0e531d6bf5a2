import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid import cli
from marsbid.bidding_env import settle
from marsbid.config import build_config
from marsbid.reward_shaping import (
    CvarRewardShaper,
    ShapingParams,
    linear_quantile,
    reward_meta,
    reward_neutral,
    reward_safe,
    reward_spec,
)

from oracles import (
    ScalarCvarShaper,
    scalar_reward_meta,
    scalar_reward_neutral,
    scalar_reward_safe,
    scalar_reward_spec,
)

P = ShapingParams()

finite_pi = st.floats(-50_000, 50_000, allow_nan=False)
unit = st.floats(0, 1, allow_nan=False)


# -- safe / spec role rewards ------------------------------------------------


def test_safe_boundaries():
    assert reward_safe(100.0, 1.0, P) == 100.0
    assert reward_safe(100.0, 0.0, P) == -50.0
    assert reward_safe(-100.0, 1.0, P) == -100.0


def test_spec_boundaries():
    assert reward_spec(100.0, 0.0, P) == 100.0
    assert reward_spec(100.0, 1.0, P) == -50.0


@given(pi=finite_pi, alpha=unit)
def test_spec_is_mirrored_safe(pi, alpha):
    assert reward_spec(pi, alpha, P) == pytest.approx(
        reward_safe(pi, 1.0 - alpha, P), rel=1e-12, abs=1e-9
    )


@given(pi=finite_pi, alpha=unit)
def test_safe_plus_spec_sum_identity(pi, alpha):
    total = reward_safe(pi, alpha, P) + reward_spec(pi, alpha, P)
    assert total == pytest.approx(pi - abs(pi) * P.lambda_role, rel=1e-12, abs=1e-9)


@given(
    pi=st.floats(1e-6, 50_000),
    a1=unit,
    a2=unit,
    lam=st.floats(0, 0.99),
)
def test_safe_monotone_in_alpha(pi, a1, a2, lam):
    # increasing for profits, decreasing for losses (penalty subordinate,
    # lambda_role < 1)
    p = ShapingParams(lambda_role=lam)
    lo, hi = sorted((a1, a2))
    assert reward_safe(pi, lo, p) <= reward_safe(pi, hi, p) + 1e-9
    assert reward_safe(-pi, lo, p) >= reward_safe(-pi, hi, p) - 1e-9


def test_role_rewards_validate_inputs():
    with pytest.raises(ValueError):
        reward_safe(float("nan"), 0.5, P)
    with pytest.raises(ValueError):
        reward_safe(10.0, 1.5, P)


# -- meta concave utility ------------------------------------------------------


def test_meta_zero():
    assert reward_meta(0.0, P) == 0.0


def test_meta_hand_value():
    # 1000/1000 - 2.5 * (1000/100)^2
    assert reward_meta(1000.0, P) == pytest.approx(-249.0, abs=1e-9)


def test_meta_argmax_at_two():
    # grid-search oracle plus the closed-form optimum s_var^2/(lambda*s_linear)
    grid = np.arange(-10.0, 10.0, 1e-3)
    values = [reward_meta(x, P) for x in grid]
    assert grid[int(np.argmax(values))] == pytest.approx(2.0, abs=2e-3)
    assert P.s_var**2 / (P.lambda_risk * P.s_linear) == 2.0
    h = 1e-6
    derivative = (reward_meta(2.0 + h, P) - reward_meta(2.0 - h, P)) / (2 * h)
    assert derivative == pytest.approx(0.0, abs=1e-9)


def test_default_meta_utility_falls_in_most_default_all_da_hours():
    # a report, not a gate: at the CLI's default scales the meta utility
    # peaks at $2/h, and above the peak it falls as profit rises; that is
    # most hours of the default market at all DA (profit is linear in alpha,
    # so all DA is one settle over each split's contiguous pass)
    cfg = build_config(environ={})
    p = cfg.shaping
    peak = p.s_var**2 / (p.lambda_risk * p.s_linear)
    assert peak == 2.0
    assert reward_meta(peak, p) > max(reward_meta(peak - 1.0, p), reward_meta(peak + 1.0, p))
    splits, load_scale = cli.load_series(cfg)
    shares = {}
    for name in ("train", "test1"):
        env = cli.make_env(cfg, splits[name], load_scale)
        profit = settle(1.0, *env.episode().dispatch).profit
        shares[name] = round(float(np.mean(profit > peak)), 4)
    assert shares == {"train": 0.8709, "test1": 0.6306}


@given(start=st.floats(-5000, 5000), step=st.floats(0.01, 100))
def test_meta_concavity_constant_second_difference(start, step):
    xs = [start + i * step for i in range(5)]
    vals = [reward_meta(x, P) for x in xs]
    second = [vals[i + 2] - 2 * vals[i + 1] + vals[i] for i in range(3)]
    expected = -P.lambda_risk * step**2 / P.s_var**2
    for d in second:
        assert d == pytest.approx(expected, rel=1e-6, abs=1e-9)
        assert d < 0


# -- neutral ------------------------------------------------------------------


def test_neutral_free_band():
    assert reward_neutral(100.0, 0.5, P) == 100.0
    assert reward_neutral(100.0, 0.7, P) == 100.0  # band edge inclusive
    assert reward_neutral(-80.0, 0.31, P) == -80.0


def test_neutral_full_deviation():
    assert reward_neutral(100.0, 1.0, P) == pytest.approx(50.0, abs=1e-12)


def test_neutral_band_half_rejected():
    with pytest.raises(ValueError):
        reward_neutral(10.0, 0.5, ShapingParams(neutral_band=0.5))


# -- cvar shaping ---------------------------------------------------------------


def cvar_shaped(pi, history):
    """``pi`` shaped by a fresh shaper that has seen ``history`` first."""
    shaper = CvarRewardShaper(P)
    shaper(history, 0.5)
    return shaper(pi, 0.5)


def test_cvar_above_quantile_passthrough():
    history = np.linspace(-100, 100, 50)
    assert cvar_shaped(50.0, history) == 50.0


def test_cvar_constant_history_hand_value():
    history = np.zeros(100)
    assert cvar_shaped(-10.0, history) == pytest.approx(-60.0)


def test_cvar_warmup_passthrough():
    assert cvar_shaped(-123.0, []) == -123.0
    assert cvar_shaped(-123.0, list(range(19))) == -123.0


def test_cvar_shaper_uses_preceding_window():
    shaper = CvarRewardShaper(P)
    for _ in range(30):
        shaper(0.0, 0.5)
    assert shaper(-10.0, 0.5) == pytest.approx(-60.0)
    assert CvarRewardShaper(P)(-10.0, 0.5) == -10.0  # a fresh window warms up


def test_cvar_shaper_window_is_bounded():
    p = ShapingParams(cvar_window=25)
    shaper = CvarRewardShaper(p)
    for _ in range(100):
        shaper(-1000.0, 0.5)
    for _ in range(25):
        shaper(0.0, 0.5)
    # old catastrophic values have rolled out of the window
    assert shaper(-1.0, 0.5) == pytest.approx(-1.0 - 5.0 * 1.0)


# a few repeated values, so that windows hold ties, among arbitrary profits
profit = st.one_of(st.sampled_from([-250.0, -1.5, 0.0, 3.25, 80.0]), finite_pi)
quantile = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200)
@given(window=st.lists(profit, min_size=1, max_size=60), q=quantile)
def test_linear_quantile_equals_numpy(window, q):
    assert linear_quantile(sorted(window), q) == np.quantile(np.array(window), q)


@settings(max_examples=100)
@given(
    stream=st.lists(profit, min_size=1, max_size=120),
    window=st.integers(1, 40),
    q=quantile,
)
def test_cvar_shaper_equals_np_quantile_over_a_list_window(stream, window, q):
    # the sorted window against the list window and np.quantile it replaced
    p = ShapingParams(cvar_window=window, cvar_alpha=q)
    shaper = CvarRewardShaper(p)
    history: list = []
    for pi in stream:
        expected = pi
        if len(history) >= 20:
            expected = pi - p.lambda_risk * max(0.0, float(np.quantile(history, q)) - pi)
        assert shaper(pi, 0.5) == expected
        history = (history + [pi])[-window:]


# -- whole blocks against the scalar formulas, bit for bit -----------------------


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# zeros of both signs, subnormals, and magnitudes up to 1e150, whose meta
# penalty still squares to a finite float
edge_pi = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1516.32, 1e150, -1e150]),
    st.floats(-1e150, 1e150, allow_nan=False),
)
edge_alpha = st.one_of(st.sampled_from([0.0, 1.0]), unit)


@settings(max_examples=300)
@given(
    rows=st.lists(st.tuples(edge_pi, edge_alpha), min_size=1, max_size=40),
    band=st.sampled_from([0.0, 0.2, 0.49]),
)
def test_array_rewards_equal_scalar_oracles_bit_for_bit(rows, band):
    p = ShapingParams(neutral_band=band)
    pi = np.array([r[0] for r in rows])
    alpha = np.array([r[1] for r in rows])
    for reward, oracle in (
        (reward_safe, scalar_reward_safe),
        (reward_spec, scalar_reward_spec),
        (reward_neutral, scalar_reward_neutral),
    ):
        want = bits([oracle(x, a, p) for x, a in rows])
        assert np.array_equal(bits(reward(pi, alpha, p)), want)
        assert bits(reward(*rows[0], p)) == want[0]  # a float still works
    want = bits([scalar_reward_meta(x, p) for x, _ in rows])
    assert np.array_equal(bits(reward_meta(pi, p)), want)
    assert bits(reward_meta(rows[0][0], p)) == want[0]


def test_meta_squares_like_python_pow():
    # numpy's ** 2 is x * x, which gives -576.3229056 here
    pi = -1516.32
    assert reward_meta(np.array([pi]), P)[0] == scalar_reward_meta(pi, P) == -576.3229055999999


@settings(max_examples=100)
@given(
    stream=st.lists(st.one_of(profit, st.just(-0.0)), min_size=120, max_size=240),
    window=st.integers(20, 40),
    q=quantile,
    cuts=st.lists(st.integers(0, 240), max_size=8),
)
def test_cvar_shaper_blocks_equal_scalar_steps(stream, window, q, cuts):
    # the stream wraps the window at least three times; one block call and
    # the stream cut into blocks (empty ones too) equal one step at a time
    p = ShapingParams(cvar_window=window, cvar_alpha=q)
    oracle = ScalarCvarShaper(p)
    want = bits([oracle(pi) for pi in stream])
    profits = np.array(stream)
    assert np.array_equal(bits(CvarRewardShaper(p)(profits, 0.5)), want)
    shaper = CvarRewardShaper(p)
    blocks = np.split(profits, sorted(c for c in cuts if c <= len(stream)))
    assert np.array_equal(bits(np.concatenate([shaper(b, 0.5) for b in blocks])), want)


# -- params validation -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ShapingParams(lambda_role=-0.1)
    with pytest.raises(ValueError):
        ShapingParams(s_linear=0.0)
    with pytest.raises(ValueError):
        ShapingParams(cvar_alpha=1.0)
    with pytest.raises(ValueError):
        ShapingParams(neutral_band=0.6)
    with pytest.raises(ValueError, match="neutral_band"):
        ShapingParams(neutral_band=0.5)


@settings(max_examples=50)
@given(pi=finite_pi, alpha=unit)
def test_all_shapings_deterministic(pi, alpha):
    for fn in (reward_safe, reward_spec, reward_neutral):
        assert fn(pi, alpha, P) == fn(pi, alpha, P)
    assert reward_meta(pi, P) == reward_meta(pi, P)

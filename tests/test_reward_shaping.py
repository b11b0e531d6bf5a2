import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.reward_shaping import (
    CvarRewardShaper,
    ShapingParams,
    reward_cvar_shaped,
    reward_meta,
    reward_neutral,
    reward_safe,
    reward_spec,
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


def test_cvar_above_quantile_passthrough():
    history = np.linspace(-100, 100, 50)
    assert reward_cvar_shaped(50.0, history, P) == 50.0


def test_cvar_constant_history_hand_value():
    history = np.zeros(100)
    assert reward_cvar_shaped(-10.0, history, P) == pytest.approx(-60.0)


def test_cvar_warmup_passthrough():
    assert reward_cvar_shaped(-123.0, [], P) == -123.0
    assert reward_cvar_shaped(-123.0, list(range(19)), P) == -123.0


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


@settings(max_examples=50)
@given(pi=finite_pi, alpha=unit)
def test_all_shapings_deterministic(pi, alpha):
    for fn in (reward_safe, reward_spec, reward_neutral):
        assert fn(pi, alpha, P) == fn(pi, alpha, P)
    assert reward_meta(pi, P) == reward_meta(pi, P)

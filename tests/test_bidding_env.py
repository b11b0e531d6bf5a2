import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.bidding_env import (
    OBS_HISTORY_HOURS,
    GeneratorSpec,
    StrategicBiddingEnv,
    UnitState,
    map_action,
    settle,
)

from conftest import make_series
from oracles import observation, rolling_volatility

SPEC = GeneratorSpec()  # p_max 100, heat_rate 7.5
ON = UnitState(committed=True, hours_in_state=4, prev_output=100.0)
OFF = UnitState(committed=False, hours_in_state=4, prev_output=0.0)


def rec(lmp_da=50.0, lmp_rt=60.0, gas=4.0):
    """One hour's (lmp_da, lmp_rt, gas_price), the market inputs of settle."""
    return float(lmp_da), float(lmp_rt), float(gas)


# -- map_action --------------------------------------------------------------


def test_map_action_boundaries():
    assert map_action(-1.0) == 0.0
    assert map_action(0.0) == 0.5
    assert map_action(1.0) == 1.0


def test_map_action_clamps():
    # clamp-then-map oracle
    for a in (1.7, -3.0, 55.0):
        expected = (min(1.0, max(-1.0, a)) + 1.0) / 2.0
        assert map_action(a) == expected
    assert map_action(1.7) == 1.0


def test_map_action_rejects_non_finite():
    with pytest.raises(ValueError):
        map_action(float("nan"))
    with pytest.raises(ValueError):
        map_action(float("inf"))


@given(st.floats(-10, 10, allow_nan=False))
def test_map_action_range(a):
    assert 0.0 <= map_action(a) <= 1.0


# -- settle ------------------------------------------------------------------


def test_settle_hand_example():
    # 100 MW at alpha 0.6: 60 MW at 50 $ + 40 MW at 60 $ - 100 MW at 30 $
    out, nxt = settle(0.6, *rec(), SPEC, ON)
    assert out.reward_raw == pytest.approx(2400.0, abs=1e-9)
    assert out.components.revenue_da == pytest.approx(3000.0)
    assert out.components.revenue_rt == pytest.approx(2400.0)
    assert out.components.cost_marginal == pytest.approx(3000.0)
    assert out.components.cost_startup == 0.0
    assert nxt.committed and nxt.hours_in_state == 5 and nxt.prev_output == 100.0


def test_settle_zero_case():
    out, _ = settle(0.5, *rec(lmp_da=0.0, lmp_rt=0.0, gas=0.0),
                    GeneratorSpec(startup_cost=0.0), ON)
    assert out.reward_raw == 0.0


def test_settle_startup_cost_from_offline():
    out, nxt = settle(0.6, *rec(), SPEC, OFF)
    assert out.reward_raw == pytest.approx(1900.0, abs=1e-9)
    assert out.components.cost_startup == 500.0
    assert nxt.committed and nxt.hours_in_state == 1


def test_settle_rejects_bad_alpha():
    with pytest.raises(ValueError):
        settle(1.2, *rec(), SPEC, ON)


@settings(max_examples=60, deadline=None)
@given(
    lmp_da=st.floats(-100, 300),
    lmp_rt=st.floats(-100, 300),
    gas=st.floats(0, 12),
    alpha=st.floats(0, 1),
)
def test_settle_decomposition_identity(lmp_da, lmp_rt, gas, alpha):
    out, _ = settle(alpha, *rec(lmp_da, lmp_rt, gas), SPEC, ON)
    c = out.components
    total = c.revenue_da + c.revenue_rt - c.cost_marginal - c.cost_startup - c.penalty
    assert out.reward_raw == pytest.approx(total, abs=1e-9)


@given(alpha=st.floats(0, 1))
def test_settle_capacity_identity(alpha):
    out, _ = settle(alpha, *rec(), SPEC, ON)
    q_da = out.components.revenue_da / 50.0
    q_rt = out.components.revenue_rt / 60.0
    assert q_da + q_rt == pytest.approx(SPEC.p_max, abs=1e-9)


def test_settle_alpha_irrelevant_when_prices_equal():
    pis = [
        settle(a, *rec(lmp_da=47.0, lmp_rt=47.0), SPEC, ON)[0].reward_raw
        for a in (0.0, 0.3, 0.9, 1.0)
    ]
    assert max(pis) - min(pis) < 1e-9


def test_settle_economic_shutdown_and_blocked_restart():
    # marginal cost above both prices: unit wants off
    expensive = rec(lmp_da=10.0, lmp_rt=12.0, gas=10.0)  # mc = 75
    out, nxt = settle(0.5, *expensive, SPEC, ON, dispatch_mode="economic")
    assert not nxt.committed and out.reward_raw == 0.0
    # still in min_down: restart blocked and fined
    cheap = rec(lmp_da=80.0, lmp_rt=70.0, gas=4.0)
    out2, nxt2 = settle(0.5, *cheap, SPEC, UnitState(False, 1, 0.0), dispatch_mode="economic")
    assert not nxt2.committed
    assert out2.components.penalty == SPEC.mutd_penalty
    # min_down served: restart happens, startup cost paid, output ramp-limited
    out3, nxt3 = settle(0.5, *cheap, SPEC, UnitState(False, 4, 0.0), dispatch_mode="economic")
    assert nxt3.committed
    assert out3.components.cost_startup == SPEC.startup_cost
    assert nxt3.prev_output == 50.0  # ramp_rate-limited startup


def test_settle_economic_blocked_shutdown_fined():
    expensive = rec(lmp_da=10.0, lmp_rt=12.0, gas=10.0)
    out, nxt = settle(0.5, *expensive, SPEC, UnitState(True, 2, 100.0), dispatch_mode="economic")
    assert nxt.committed  # min_up not served
    assert out.components.penalty == SPEC.mutd_penalty


def test_settle_economic_ramp_clamp_fined():
    spec = GeneratorSpec(ramp_rate=30.0)
    out, nxt = settle(0.5, *rec(), spec, UnitState(True, 10, 40.0), dispatch_mode="economic")
    assert nxt.prev_output == 70.0  # 40 + 30
    assert out.components.penalty == pytest.approx(spec.ramp_penalty * 30.0)


# -- rolling volatility --------------------------------------------------------


def test_volatility_constant_window():
    assert rolling_volatility(np.full(24, 7.0)) == 0.0


def test_volatility_two_point_closed_form():
    window = np.tile([0.0, 20.0], 12)
    assert rolling_volatility(window) == pytest.approx(10.0, abs=1e-12)


def test_volatility_brute_force():
    window = np.arange(1.0, 25.0)
    mean = window.sum() / 24
    expected = float(np.sqrt(((window - mean) ** 2).sum() / 24))
    assert rolling_volatility(window) == pytest.approx(expected, abs=1e-12)
    assert rolling_volatility(window) == pytest.approx(6.922, abs=1e-3)


def test_volatility_window_length_enforced():
    with pytest.raises(ValueError):
        rolling_volatility(np.ones(23))
    with pytest.raises(ValueError):
        rolling_volatility(np.concatenate([np.ones(23), [np.nan]]))


# -- env reset/step ------------------------------------------------------------


def test_reset_builds_history_from_preceding_hours():
    da = np.arange(200.0)
    env = StrategicBiddingEnv(make_series(lmp_da=da), episode_len=24)
    obs = env.reset(start=24)
    np.testing.assert_allclose(obs[:OBS_HISTORY_HOURS] * env.price_scale, da[:24])
    assert obs.size == env.obs_dim == 33


def test_reset_insufficient_history():
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(200.0)), episode_len=24)
    with pytest.raises(ValueError, match="history"):
        env.reset(start=10)


def test_reset_overrun():
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(200.0)), episode_len=24)
    with pytest.raises(ValueError, match="overrun"):
        env.reset(start=190)


def test_constant_series_observation():
    env = StrategicBiddingEnv(make_series(lmp_da=np.full(100, 42.0)), episode_len=24)
    obs = env.reset(start=24)
    assert obs[OBS_HISTORY_HOURS] == 0.0  # volatility
    np.testing.assert_allclose(obs[:OBS_HISTORY_HOURS], 0.42)
    assert np.all(np.abs(obs[-4:]) <= 1.0)  # time encodings


def test_episode_len_one_is_done_immediately():
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(100.0)), episode_len=1)
    env.reset(start=24)
    out = env.step(0.0)
    assert out.done
    with pytest.raises(RuntimeError):
        env.step(0.0)


def test_step_scripted_replay_matches_hand_profit():
    da = np.full(60, 50.0)
    rt = np.full(60, 60.0)
    env = StrategicBiddingEnv(make_series(lmp_da=da, lmp_rt=rt), episode_len=4)
    env.reset(start=24)
    actions = [-1.0, 0.0, 0.2, 1.0]
    profits = [env.step(a).reward_raw for a in actions]
    for a, pi in zip(actions, profits):
        alpha = (np.clip(a, -1, 1) + 1) / 2
        expected = 50.0 * alpha * 100 + 60.0 * (1 - alpha) * 100 - 30.0 * 100
        assert pi == pytest.approx(expected, abs=1e-9)


def test_step_deterministic_replay():
    series = make_series(lmp_da=np.linspace(20, 80, 300), lmp_rt=np.linspace(25, 70, 300))
    actions = np.linspace(-1, 1, 48)

    def run():
        env = StrategicBiddingEnv(series, episode_len=48)
        env.reset(start=30)
        return [env.step(a).reward_raw for a in actions]

    assert run() == run()


def test_observation_dim_constant_across_steps():
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(300.0)), episode_len=48)
    obs = env.reset(start=40)
    dims = {obs.size}
    for _ in range(48):
        out = env.step(0.3)
        if out.observation_next is not None:
            dims.add(out.observation_next.size)
    assert dims == {env.obs_dim}


def test_env_volatility_matches_rolling_volatility():
    rng = np.random.default_rng(5)
    da = rng.normal(50, 12, 300)
    env = StrategicBiddingEnv(make_series(lmp_da=da), episode_len=24)
    for i in (24, 100, 276):
        assert env.volatility[i] == pytest.approx(
            rolling_volatility(da[i - 24 : i]), abs=1e-12
        )
    assert not env.volatility.flags.writeable


def test_env_requires_repaired_series():
    da = np.full(100, 40.0)
    da[50] = np.nan
    with pytest.raises(ValueError, match="repaired"):
        StrategicBiddingEnv(make_series(lmp_da=da), episode_len=24)


def test_random_start_stays_valid(rng):
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(400.0)), episode_len=100)
    for _ in range(50):
        env.reset(rng=rng)
        assert env.min_start <= env.current_index <= env.max_start


def test_optional_weather_extras():
    series = make_series(
        lmp_da=np.arange(100.0), temperature=np.full(100, 14.0), wind_speed=np.full(100, 6.0)
    )
    env = StrategicBiddingEnv(series, episode_len=24, include_weather=True)
    obs = env.reset(start=24)
    assert env.obs_dim == 35 and obs.size == 35
    t_scale, w_scale = StrategicBiddingEnv.WEATHER_SCALES
    assert tuple(obs[-2:]) == (14.0 / t_scale, 6.0 / w_scale)
    # off by default
    assert StrategicBiddingEnv(series, episode_len=24).obs_dim == 33


# -- observations against the field-by-field oracle ------------------------------

_RNG = np.random.default_rng(21)
_N = 240
# DA/RT prices straddle the marginal cost (30 $/MWh), so economic dispatch
# shuts the unit down, blocks restarts and clamps ramps.
_SERIES = make_series(
    lmp_da=_RNG.normal(35.0, 20.0, _N),
    lmp_rt=_RNG.normal(35.0, 25.0, _N),
    load_forecast=_RNG.uniform(800.0, 1200.0, _N),
    temperature=_RNG.normal(12.0, 8.0, _N),
    wind_speed=_RNG.uniform(0.0, 15.0, _N),
    gas_price=_RNG.uniform(3.0, 5.0, _N),
)
_ENVS = {
    (mode, weather): StrategicBiddingEnv(
        _SERIES, episode_len=48, dispatch_mode=mode, include_weather=weather
    )
    for mode in ("always_on", "economic")
    for weather in (False, True)
}


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["always_on", "economic"]),
    weather=st.booleans(),
    start=st.integers(OBS_HISTORY_HOURS, _N - 48),
    actions=st.lists(st.floats(-1.5, 1.5), min_size=48, max_size=48),
)
def test_observations_equal_field_by_field_oracle(mode, weather, start, actions):
    env = _ENVS[(mode, weather)]
    f = _SERIES.fields
    unit = UnitState(committed=True, hours_in_state=env.spec.min_up, prev_output=env.spec.p_max)
    obs = env.reset(start=start)
    for t, a in enumerate(actions):
        i = start + t
        assert obs.size == env.obs_dim
        assert np.array_equal(obs, observation(env, i, unit))
        assert not obs.flags.writeable
        out = env.step(a)
        _, unit = settle(
            map_action(a), f["lmp_da"][i], f["lmp_rt"][i], f["gas_price"][i], env.spec, unit, mode
        )
        obs = out.observation_next
    assert out.done

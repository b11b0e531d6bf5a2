import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.bidding_env import (
    OBS_HISTORY_HOURS,
    GeneratorSpec,
    Settlement,
    StrategicBiddingEnv,
    map_action,
    settle,
    unit_schedule,
)

from conftest import make_series
from oracles import rolling_volatility, stepwise_episode

SPEC = GeneratorSpec()  # p_max 100, heat_rate 7.5
ON = (SPEC.p_max, 0.0, 0.0)  # an always-on hour: capacity, startup cost, fines


def rec(lmp_da=50.0, lmp_rt=60.0, gas=4.0):
    """One hour's prices and marginal cost: (lmp_da, lmp_rt, mc)."""
    return float(lmp_da), float(lmp_rt), SPEC.marginal_cost(float(gas))


EXPENSIVE = rec(lmp_da=10.0, lmp_rt=12.0, gas=10.0)  # mc 75, above both prices
CHEAP = rec(lmp_da=80.0, lmp_rt=70.0, gas=4.0)  # mc 30, below both prices


def economic(pattern, spec=SPEC):
    """The economic schedule over hours that are expensive ("E") or cheap
    ("C"), and their settlement at alpha 0.5. The unit enters the first hour
    committed at full output with its minimum-up time served."""
    lmp_da, lmp_rt, mc = np.array([EXPENSIVE if c == "E" else CHEAP for c in pattern]).T
    schedule = unit_schedule(spec, "economic", lmp_da, lmp_rt, mc)
    return schedule, settle(np.full(len(pattern), 0.5), lmp_da, lmp_rt, mc, *schedule[3:])


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
    out = settle(0.6, *rec(), *ON)
    assert out.profit == pytest.approx(2400.0, abs=1e-9)
    assert out.revenue_da == pytest.approx(3000.0)
    assert out.revenue_rt == pytest.approx(2400.0)
    assert out.cost_marginal == pytest.approx(3000.0)
    assert out.cost_startup == 0.0


def test_settle_zero_case():
    out = settle(0.5, *rec(lmp_da=0.0, lmp_rt=0.0, gas=0.0), *ON)
    assert out.profit == 0.0


def test_settle_startup_cost_from_offline():
    # the hour a unit starts from offline pays the startup cost
    out = settle(0.6, *rec(), SPEC.p_max, SPEC.startup_cost, 0.0)
    assert out.profit == pytest.approx(1900.0, abs=1e-9)
    assert out.cost_startup == 500.0


def test_settle_rejects_bad_alpha():
    with pytest.raises(ValueError):
        settle(1.2, *rec(), *ON)


@settings(max_examples=60, deadline=None)
@given(
    lmp_da=st.floats(-100, 300),
    lmp_rt=st.floats(-100, 300),
    gas=st.floats(0, 12),
    alpha=st.floats(0, 1),
)
def test_settle_decomposition_identity(lmp_da, lmp_rt, gas, alpha):
    out = settle(alpha, *rec(lmp_da, lmp_rt, gas), *ON)
    total = out.revenue_da + out.revenue_rt - out.cost_marginal - out.cost_startup - out.penalty
    assert out.profit == pytest.approx(total, abs=1e-9)


@given(alpha=st.floats(0, 1))
def test_settle_capacity_identity(alpha):
    out = settle(alpha, *rec(), *ON)
    q_da = out.revenue_da / 50.0
    q_rt = out.revenue_rt / 60.0
    assert q_da + q_rt == pytest.approx(SPEC.p_max, abs=1e-9)


def test_settle_alpha_irrelevant_when_prices_equal():
    pis = [settle(a, *rec(lmp_da=47.0, lmp_rt=47.0), *ON).profit for a in (0.0, 0.3, 0.9, 1.0)]
    assert max(pis) - min(pis) < 1e-9


# -- unit_schedule -------------------------------------------------------------


def test_always_on_schedule_stays_committed_at_p_max():
    prices = np.array([EXPENSIVE, CHEAP, EXPENSIVE]).T
    schedule = unit_schedule(SPEC, "always_on", *prices)
    assert schedule.shape == (6, 3) and schedule.dtype == np.float64
    assert schedule[0].tolist() == [1.0] * 3
    assert schedule[1].tolist() == [4.0, 5.0, 6.0]  # min_up served, one more per hour
    assert schedule[2].tolist() == schedule[3].tolist() == [100.0] * 3
    assert not schedule[4:].any()


def test_unknown_dispatch_mode_rejected():
    with pytest.raises(ValueError, match="dispatch mode"):
        unit_schedule(SPEC, "peaker", *np.array([CHEAP]).T)


def test_settle_economic_shutdown_and_blocked_restart():
    # rows: committed, hours in state, previous output, capacity, startup, fines
    schedule, out = economic("ECCCCC")
    # marginal cost above both prices: the unit shuts down and earns nothing
    assert schedule[:, 0].tolist() == [1.0, 4.0, 100.0, 0.0, 0.0, 0.0]
    assert out.profit[0] == 0.0
    # still in min_down: the restart is blocked and fined, three times
    assert schedule[:, 1].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, SPEC.mutd_penalty]
    assert schedule[5, 1:4].tolist() == [SPEC.mutd_penalty] * 3
    assert out.penalty[1] == SPEC.mutd_penalty
    # min_down served: the restart happens, the startup cost is paid and the
    # output is ramp-limited, unfined
    assert schedule[:, 4].tolist() == [0.0, 4.0, 0.0, 50.0, SPEC.startup_cost, 0.0]
    assert out.cost_startup[4] == SPEC.startup_cost
    # entering the next hour: committed for one hour at 50 MW
    assert schedule[:3, 5].tolist() == [1.0, 1.0, 50.0]


def test_settle_economic_blocked_shutdown_fined():
    schedule, out = economic("ECCCCE")
    # one hour after the restart, min_up is not served: the shutdown is blocked
    assert schedule[:3, 5].tolist() == [1.0, 1.0, 50.0]
    assert schedule[3, 5] == 100.0 and out.penalty[5] == SPEC.mutd_penalty


def test_settle_economic_ramp_clamp_fined():
    spec = GeneratorSpec(ramp_rate=30.0)
    schedule, out = economic("ECCCCCCC", spec)
    # the restart gives 30 MW; each later hour climbs at most 30 MW and is
    # fined per MW short of p_max
    assert schedule[3, 4:].tolist() == [30.0, 60.0, 90.0, 100.0]
    assert schedule[5, 4:].tolist() == [0.0, 1000.0, 250.0, 0.0]
    assert schedule[2, 5:].tolist() == [30.0, 60.0, 90.0]
    assert out.penalty[6] == pytest.approx(spec.ramp_penalty * 10.0)


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
    next_obs, _, done = env.step(0.0)
    assert done and next_obs is None
    with pytest.raises(RuntimeError):
        env.step(0.0)


def test_step_scripted_replay_matches_hand_profit():
    da = np.full(60, 50.0)
    rt = np.full(60, 60.0)
    env = StrategicBiddingEnv(make_series(lmp_da=da, lmp_rt=rt), episode_len=4)
    env.reset(start=24)
    actions = [-1.0, 0.0, 0.2, 1.0]
    profits = [env.step(a)[1].profit for a in actions]
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
        return [env.step(a)[1].profit for a in actions]

    assert run() == run()


def test_observation_dim_constant_across_steps():
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(300.0)), episode_len=48)
    obs = env.reset(start=40)
    dims = {obs.size}
    for _ in range(48):
        next_obs, _, _ = env.step(0.3)
        if next_obs is not None:
            dims.add(next_obs.size)
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


def test_random_start_stays_valid():
    env = StrategicBiddingEnv(make_series(lmp_da=np.arange(400.0)), episode_len=100)
    reset_rng, episode_rng, draw_rng = (np.random.default_rng(12345) for _ in range(3))
    for _ in range(50):
        env.reset(rng=reset_rng)
        assert env.min_start <= env.tape.start <= env.max_start
        # from equal seeds, the pure builder draws the start reset draws,
        # with the one integers call that keeps the rollout RNG streams
        want = int(draw_rng.integers(env.min_start, env.max_start + 1))
        assert env.episode(rng=episode_rng).start == env.tape.start == want


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


# -- the tape against the stepwise oracle ------------------------------------------

_RNG = np.random.default_rng(21)
_N = 240
# DA/RT prices straddle the marginal cost (30 $/MWh), so economic dispatch
# shuts the unit down and blocks restarts; a ramp rate of 30 MW/h keeps a
# restarted unit below p_max for two hours, so it also clamps ramps.
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
        _SERIES,
        spec=GeneratorSpec(ramp_rate=30.0) if mode == "economic" else SPEC,
        episode_len=48,
        dispatch_mode=mode,
        include_weather=weather,
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
def test_tape_and_step_equal_stepwise_oracle(mode, weather, start, actions):
    env = _ENVS[(mode, weather)]
    want_obs, want = stepwise_episode(env, start, actions)
    if mode == "economic":  # every 48-hour window pays a startup and a ramp fine
        assert want[5].any() and np.any(want[6] % env.spec.mutd_penalty)
    # the tape's observation block, read-only
    first = env.reset(start=start)
    tape = env.tape
    assert tape.obs.shape == (48, env.obs_dim) and not tape.obs.flags.writeable
    assert np.array_equal(tape.obs, want_obs) and np.array_equal(first, want_obs[0])
    # the whole episode settled in one call
    settled = settle(map_action(actions), *tape.dispatch)
    assert np.array_equal(np.array(settled), want)
    # the step cursor over the same tape; building tapes midway, pure,
    # moves neither the env's tape nor its cursor
    for t, a in enumerate(actions):
        if t == 24:
            for built in (env.episode(start), env.episode(start)):
                assert built.start == start
                assert np.array_equal(built.obs, tape.obs)
                assert np.array_equal(built.dispatch, tape.dispatch)
            env.episode(rng=np.random.default_rng(start))
            assert env.tape is tape and env._t == 24
        next_obs, one, done = env.step(a)
        assert isinstance(one, Settlement) and np.array_equal(np.array(one), want[:, t])
        assert done == (t == 47)
        if done:
            assert next_obs is None
        else:
            assert np.array_equal(next_obs, want_obs[t + 1]) and not next_obs.flags.writeable


def test_oracle_economic_tapes_fine_ramp_clamps():
    env = _ENVS[("economic", False)]
    fines = {x for start in range(env.min_start, env.max_start + 1)
             for x in env.episode(start).dispatch[5].tolist()}
    # a clamp alone (250), and one in the hour of a blocked shutdown (1250)
    assert {250.0, 1250.0} <= fines

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.baselines import (
    RollingOptConfig,
    RollingOptPolicy,
    rolling_opt_action,
    select_best_single,
    train_cvar,
    train_vanilla,
)
from marsbid.bidding_env import StrategicBiddingEnv, map_action
from marsbid.evaluation import greedy, max_drawdown, run_policy_episode
from marsbid.market_data import MarketSeries, SyntheticConfig, generate_synthetic
from marsbid.mars_hierarchy import AgentEnsemble, BlendPolicy, blend
from marsbid.policy_net import PolicyNetwork
from marsbid.ppo_trainer import PpoConfig
from marsbid.reward_shaping import ShapingParams

from conftest import make_series, premium_series
from oracles import rolling_opt_scan

CFG = RollingOptConfig()


# -- rolling opt ---------------------------------------------------------------


def test_rolling_opt_constant_positive_spread():
    assert rolling_opt_action(np.full(24, 10.0), CFG) == 1.0


def test_rolling_opt_constant_negative_spread():
    assert rolling_opt_action(np.full(24, -10.0), CFG) == -1.0


def test_rolling_opt_zero_spread_keeps_initial_neutral():
    assert rolling_opt_action(np.zeros(24), CFG, prev_action=0.0) == 0.0


def test_rolling_opt_balanced_window_holds_previous():
    window = np.tile([10.0, -10.0], 12)
    assert window.mean() == 0.0
    assert rolling_opt_action(window, CFG, prev_action=1.0) == 1.0
    assert rolling_opt_action(window, CFG, prev_action=-1.0) == -1.0


def test_rolling_opt_hysteresis_band():
    cfg = RollingOptConfig(hysteresis=5.0)
    assert rolling_opt_action(np.full(24, 4.0), cfg, prev_action=-1.0) == -1.0
    assert rolling_opt_action(np.full(24, 6.0), cfg, prev_action=-1.0) == 1.0


def test_rolling_opt_insufficient_history():
    with pytest.raises(ValueError):
        rolling_opt_action(np.ones(10), CFG)


@settings(max_examples=50)
@given(scale=st.floats(0.01, 1000), seed=st.integers(0, 1000))
def test_rolling_opt_scale_equivariant(scale, seed):
    rng = np.random.default_rng(seed)
    window = rng.normal(0, 5, 24)
    base = rolling_opt_action(window, CFG, prev_action=0.0)
    scaled = rolling_opt_action(window * scale, CFG, prev_action=0.0)
    assert base == scaled


_SPREAD_RNG = np.random.default_rng(8)
_SPREAD_ENV = StrategicBiddingEnv(
    make_series(
        lmp_da=_SPREAD_RNG.normal(50.0, 2.0, 300), lmp_rt=_SPREAD_RNG.normal(50.0, 2.0, 300)
    ),
    episode_len=120,
)


@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(1, 48), hysteresis=st.floats(0.0, 3.0), start=st.integers(48, 180)
)
def test_rolling_opt_policy_equals_per_hour_scan(window, hysteresis, start):
    _SPREAD_ENV.reset(start=start)
    cfg = RollingOptConfig(window=window, hysteresis=hysteresis)
    assert np.array_equal(
        RollingOptPolicy(cfg)(_SPREAD_ENV.tape), rolling_opt_scan(_SPREAD_ENV.tape, cfg)
    )


def test_rolling_opt_policy_over_env():
    # DA pays 10 over RT everywhere: after warm-up the policy sits at +1
    series = make_series(lmp_da=np.full(300, 50.0), lmp_rt=np.full(300, 40.0))
    env = StrategicBiddingEnv(series, episode_len=100)
    ledger = run_policy_episode(env, RollingOptPolicy(), start=30)
    assert np.allclose(ledger.alpha, 1.0)


# -- static blend ----------------------------------------------------------------


def test_static_blend_symmetry():
    assert blend(np.full(2, 0.5), [-1.0, 1.0]) == 0.0


def test_static_blend_mean():
    assert blend(np.full(2, 0.5), [0.2, 0.8]) == pytest.approx(0.5)


def _constant_worker(role, action, obs_dim):
    """A frozen worker whose deterministic action is ``action`` on every
    observation: zero weights, output bias arctanh(action)."""
    net = PolicyNetwork(obs_dim=obs_dim, hidden=(4,), role=role, seed=0)
    for p in net.params.values():
        p[...] = 0.0
    net.params["bp"][...] = np.arctanh(action)
    net.freeze()
    return net


_STATIC_ENV = StrategicBiddingEnv(
    make_series(lmp_da=np.linspace(30, 70, 60), lmp_rt=np.linspace(45, 55, 60)), episode_len=6
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.99, 0.99), min_size=2, max_size=4))
def test_static_blend_executes_mean_of_proposals(actions):
    roles = ("safe", "spec", "neutral", "vanilla")[: len(actions)]
    ensemble = AgentEnsemble(
        workers=tuple(
            (r, _constant_worker(r, a, _STATIC_ENV.obs_dim)) for r, a in zip(roles, actions)
        )
    )
    k = len(actions)
    ledger = run_policy_episode(_STATIC_ENV, BlendPolicy(ensemble, np.full(k, 1.0 / k)), start=24)
    for alpha, proposals in zip(ledger.alpha, ledger.proposals):
        np.testing.assert_allclose(proposals, actions, atol=1e-12)
        assert alpha == pytest.approx(map_action(float(np.mean(proposals))), abs=1e-12)


# -- learned baselines --------------------------------------------------------------


@pytest.fixture(scope="module")
def premium_env():
    series = premium_series(2200, seed=31)
    return series, StrategicBiddingEnv(series, episode_len=168)


def test_vanilla_learns_da_premium(premium_env):
    series, train_env = premium_env
    cfg = PpoConfig(total_steps=16384, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    net, log = train_vanilla(train_env, cfg, ShapingParams(), seed=2)
    env = StrategicBiddingEnv(series, episode_len=len(series) - 24)
    led = run_policy_episode(env, greedy(net), start=24)
    assert float(np.mean(led.alpha)) > 0.8
    assert net.role == "vanilla"


def test_vanilla_zero_budget_returns_init(premium_env):
    _, train_env = premium_env
    net, log = train_vanilla(train_env, PpoConfig(total_steps=0, hidden=(8,)), ShapingParams(), seed=0)
    assert log.records == [] and net.step_count == 0


def test_vanilla_deterministic_log(premium_env, tmp_path):
    _, train_env = premium_env
    cfg = PpoConfig(total_steps=1024, buffer_size=512, hidden=(8, 8))

    def run(name):
        net, log = train_vanilla(train_env, cfg, ShapingParams(), seed=9)
        p = tmp_path / name
        log.to_csv(p)
        return p.read_bytes(), net.param_hash()

    b1, h1 = run("a.csv")
    b2, h2 = run("b.csv")
    assert b1 == b2 and h1 == h2


def test_cvar_trains_and_tags(premium_env):
    _, train_env = premium_env
    cfg = PpoConfig(total_steps=1024, buffer_size=512, hidden=(8, 8))
    net, log = train_cvar(train_env, cfg, ShapingParams(), seed=1)
    assert net.role == "cvar"
    assert len(log.records) == 2


def _rare_spike_series(n, seed):
    # RT pays a small premium on average but rarely crashes hard; rare
    # enough that the tail sits below the rolling 5% quantile
    cfg = SyntheticConfig(
        n_hours=n, calm_mean=45.0, calm_std=4.0, volatile_mean=48.0,
        volatile_std=7.0, regime_dwell_hours=48.0, rt_spread_std=3.0,
        diurnal_amplitude=5.0, seed=seed, rt_spike_prob=0.015,
        rt_spike_mean=-300.0,
    )
    s = generate_synthetic(cfg)
    fields = {k: v.copy() for k, v in s.fields.items()}
    fields["lmp_rt"] = fields["lmp_rt"] + 8.0
    return MarketSeries(timestamps=s.timestamps.copy(), fields=fields, provenance="synthetic")


def test_cvar_drawdown_not_worse_than_vanilla_majority():
    # paired-run comparison, majority over 5 seeds (tail shaping is noisy)
    cfg = PpoConfig(total_steps=8192, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    shaping = ShapingParams()
    wins = 0
    for seed in range(5):
        series = _rare_spike_series(3500, seed=700 + seed)
        train_env = StrategicBiddingEnv(series, episode_len=168)
        vanilla_net, _ = train_vanilla(train_env, cfg, shaping, seed=seed)
        cvar_net, _ = train_cvar(train_env, cfg, shaping, seed=seed)
        env = StrategicBiddingEnv(series, episode_len=len(series) - 24)
        mdds = {}
        for name, net in (("vanilla", vanilla_net), ("cvar", cvar_net)):
            led = run_policy_episode(env, greedy(net), start=24)
            mdds[name] = max_drawdown(np.cumsum(led.profit))[0]
        wins += mdds["cvar"] <= mdds["vanilla"]
    assert wins >= 3, f"cvar beat vanilla drawdown in only {wins}/5 paired runs"


def test_vanilla_and_cvar_share_their_first_rollouts():
    # common random numbers: the same init and rollout seeds, so the first
    # buffer settles the same profits although the shaped rewards differ
    series = premium_series(600, seed=3)
    train_env = StrategicBiddingEnv(series, episode_len=48)
    cfg = PpoConfig(total_steps=128, buffer_size=128, hidden=(8,))
    _, log_v = train_vanilla(train_env, cfg, ShapingParams(), seed=6)
    _, log_c = train_cvar(train_env, cfg, ShapingParams(), seed=6)
    assert log_v.records[0].mean_profit == log_c.records[0].mean_profit
    assert log_v.records[0].mean_reward != log_c.records[0].mean_reward


# -- best single ----------------------------------------------------------------------


def test_select_best_single_ranks_by_sharpe():
    assert select_best_single({"a": 0.5, "b": 1.2, "c": None}) == "b"


def test_select_best_single_ties_break_by_name():
    assert select_best_single({"b": 1.0, "a": 1.0}) == "a"


def test_select_best_single_empty():
    with pytest.raises(ValueError):
        select_best_single({})

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.bidding_env import StrategicBiddingEnv
from marsbid.mars_hierarchy import (
    AgentEnsemble,
    Blend,
    BlendedActionEnv,
    BlendPolicy,
    blend,
    softmax,
    train_meta,
    train_university,
)
from marsbid.policy_net import PolicyNetwork
from marsbid.ppo_trainer import PpoConfig
from marsbid.reward_shaping import ShapingParams, reward_meta
from marsbid.evaluation import greedy, run_policy_episode

from conftest import make_series, premium_series


def frozen_worker(role, seed, obs_dim=33):
    net = PolicyNetwork(obs_dim=obs_dim, hidden=(8, 8), role=role, seed=seed)
    net.freeze()
    return role, net


def small_ensemble(obs_dim=33):
    return AgentEnsemble(workers=(frozen_worker("safe", 1, obs_dim), frozen_worker("spec", 2, obs_dim)))


def wavy_series(n=600):
    t = np.arange(float(n))
    return make_series(
        lmp_da=50 + 10 * np.sin(t / 7), lmp_rt=50 + 12 * np.cos(t / 11)
    )


# -- blend ---------------------------------------------------------------------


def test_blend_vertex():
    assert blend([1.0, 0.0], [0.3, -0.7]) == 0.3


def test_blend_hand_value():
    assert blend([0.5, 0.5], [0.2, 0.8]) == pytest.approx(0.5)


def test_blend_constant_proposals():
    for w in ([0.1, 0.9], [0.6, 0.4]):
        assert blend(w, [0.25, 0.25]) == 0.25


def test_blend_rejects_off_simplex():
    with pytest.raises(ValueError):
        blend([0.6, 0.6], [0.0, 0.0])
    with pytest.raises(ValueError):
        blend([-0.1, 1.1], [0.0, 0.0])


@settings(max_examples=100)
@given(st.data())
def test_blend_convex_containment(data):
    k = data.draw(st.integers(2, 4))
    raw = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(k)])
    if raw.sum() == 0:
        raw = raw + 1.0
    w = raw / raw.sum()
    a = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(k)])
    out = blend(w, a)
    assert a.min() <= out <= a.max()


# -- meta weights ----------------------------------------------------------------


def test_softmax_symmetry_and_sum():
    w = softmax(np.zeros(3))
    np.testing.assert_allclose(w, [1 / 3] * 3)
    for logits in (np.array([1.0, -2.0, 0.3]), np.array([100.0, 99.0, 98.0])):
        assert abs(softmax(logits).sum() - 1.0) <= 1e-12


def test_softmax_extreme_logits():
    w = softmax(np.array([10.0, -10.0]))
    assert w[0] == pytest.approx(1.0, abs=1e-8)
    assert w[1] == pytest.approx(0.0, abs=1e-8)


def test_blend_policy_weights_deterministic_vs_sampled():
    env = StrategicBiddingEnv(wavy_series(), episode_len=24)
    obs = env.reset(start=24)
    meta = PolicyNetwork(
        obs_dim=env.obs_dim, hidden=(8,), action_dim=2, role="meta", squash=False, seed=3
    )
    step = BlendPolicy(small_ensemble(), meta)(obs, env)
    mean, _, _ = meta.forward(obs)
    np.testing.assert_allclose(step.weights, softmax(mean))
    sample = meta.sample(obs, np.random.default_rng(0))
    assert np.isfinite(sample.log_prob).all()
    w_s = softmax(sample.action)
    assert abs(w_s.sum() - 1.0) <= 1e-12
    assert not np.allclose(w_s, step.weights)


# -- ensemble / episodes ------------------------------------------------------------


def test_ensemble_requires_frozen_unique_roles():
    live = PolicyNetwork(obs_dim=4, hidden=(4,), role="safe", seed=0)
    with pytest.raises(ValueError, match="frozen"):
        AgentEnsemble(workers=(("safe", live),))
    with pytest.raises(ValueError, match="duplicate"):
        AgentEnsemble(workers=(frozen_worker("safe", 1, 4), frozen_worker("safe", 2, 4)))


def test_hierarchical_episode_ledger_invariants():
    env = StrategicBiddingEnv(wavy_series(), episode_len=96)
    ens = small_ensemble()
    meta = PolicyNetwork(
        obs_dim=env.obs_dim, hidden=(8, 8), action_dim=2, role="meta", squash=False, seed=7
    )
    ledger = run_policy_episode(env, BlendPolicy(ens, meta), start=24)
    assert len(ledger) == 96
    w = ledger.weight_matrix()
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(w >= -1e-12)
    props = np.asarray(ledger.proposals)
    blended_alpha = np.asarray(ledger.alpha)
    a_t = 2.0 * blended_alpha - 1.0  # invert the action map
    assert np.all(a_t >= props.min(axis=1) - 1e-12)
    assert np.all(a_t <= props.max(axis=1) + 1e-12)


def test_hierarchical_episode_deterministic():
    ens = small_ensemble()
    meta = PolicyNetwork(obs_dim=33, hidden=(8, 8), action_dim=2, role="meta", squash=False, seed=9)

    def run():
        env = StrategicBiddingEnv(wavy_series(), episode_len=48)
        led = run_policy_episode(env, BlendPolicy(ens, meta), start=30)
        return (tuple(led.profit), tuple(map(tuple, led.weights)))

    assert run() == run()


def test_safe_only_weights_match_standalone_safe():
    series = wavy_series()
    ens = small_ensemble()
    safe_net = dict(ens.workers)["safe"]

    env1 = StrategicBiddingEnv(series, episode_len=72)
    hier = run_policy_episode(env1, BlendPolicy(ens, np.array([1.0, 0.0])), start=24)
    env2 = StrategicBiddingEnv(series, episode_len=72)
    solo = run_policy_episode(
        env2, lambda obs, env: float(safe_net.act_deterministic(obs)[0]), start=24
    )
    np.testing.assert_array_equal(hier.profits, solo.profits)
    np.testing.assert_array_equal(hier.alpha, solo.alpha)


def test_blend_policy_ledger_records_weights_proposals_and_meta_reward():
    env = StrategicBiddingEnv(wavy_series(), episode_len=72, dispatch_mode="economic")
    ens = small_ensemble()
    meta = PolicyNetwork(
        obs_dim=env.obs_dim, hidden=(8, 8), action_dim=2, role="meta", squash=False, seed=11
    )
    shaping = ShapingParams(lambda_risk=0.7, s_var=3000.0)
    ledger = run_policy_episode(env, BlendPolicy(ens, meta), start=24, shaping=shaping)
    assert ledger.roles == ("safe", "spec")
    assert len(ledger.weights) == len(ledger.proposals) == len(ledger.r_meta) == len(ledger) == 72
    # replay the same hours, recomputing every column from its definition
    obs = env.reset(start=24)
    for t in range(len(ledger)):
        mean, _, _ = meta.forward(obs)
        proposals = ens.proposals(obs)
        assert ledger.weights[t] == tuple(softmax(mean))
        assert ledger.proposals[t] == tuple(proposals)
        assert ledger.r_meta[t] == reward_meta(ledger.profit[t], shaping)
        out = env.step(blend(softmax(mean), proposals))
        assert out.reward_raw == ledger.profit[t]
        obs = out.observation_next
    # a plain float action records none of the hierarchical columns
    solo = run_policy_episode(env, greedy(dict(ens.workers)["safe"]), start=24)
    assert solo.roles == () and solo.weights == solo.proposals == solo.r_meta == []


def test_blend_policy_fixed_weights_return_a_blend():
    env = StrategicBiddingEnv(wavy_series(), episode_len=24)
    obs = env.reset(start=24)
    ens = small_ensemble()
    step = BlendPolicy(ens, [0.25, 0.75])(obs, env)
    assert isinstance(step, Blend)
    np.testing.assert_array_equal(step.weights, [0.25, 0.75])
    np.testing.assert_array_equal(step.proposals, ens.proposals(obs))
    assert step.action == blend([0.25, 0.75], step.proposals)


def test_blend_without_matching_roles_is_rejected():
    env = StrategicBiddingEnv(wavy_series(), episode_len=24)
    bare = BlendPolicy(small_ensemble(), [0.5, 0.5])
    # a callable without ``roles`` has no names for the weight columns
    with pytest.raises(ValueError, match="roles"):
        run_policy_episode(env, lambda obs, e: bare(obs, e), start=24)


def test_blended_env_adapter_executes_blend():
    series = wavy_series()
    ens = small_ensemble()
    adapter = BlendedActionEnv(StrategicBiddingEnv(series, episode_len=24), ens)
    obs = adapter.reset(start=24)
    proposals = ens.proposals(obs)
    out = adapter.step(np.array([50.0, -50.0]))  # all weight on the first worker
    assert out.alpha == pytest.approx((proposals[0] + 1) / 2, abs=1e-9)


# -- training phases -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_pair():
    series = premium_series(2200, seed=21)
    cfg = PpoConfig(total_steps=6144, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    ens, logs = train_university(
        lambda: StrategicBiddingEnv(series, episode_len=168),
        cfg,
        ShapingParams(),
        roles=("safe", "spec"),
        seed=5,
    )
    return series, ens, logs


def test_university_specializes_and_freezes(trained_pair):
    series, ens, logs = trained_pair
    assert ens.roles == ("safe", "spec")
    assert set(logs) == {"safe", "spec"}
    env = StrategicBiddingEnv(series, episode_len=len(series) - 24)
    alphas = {}
    for role, net in ens.workers:
        assert net.frozen
        led = run_policy_episode(
            env, lambda obs, e, n=net: float(n.act_deterministic(obs)[0]), start=24
        )
        alphas[role] = float(np.mean(led.alpha))
    assert alphas["safe"] > 0.8
    assert alphas["spec"] < 0.2


def test_meta_phase_keeps_workers_frozen(trained_pair):
    series, ens, _ = trained_pair
    hashes_before = ens.param_hashes()
    cfg = PpoConfig(total_steps=2048, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    meta, log = train_meta(
        lambda: StrategicBiddingEnv(series, episode_len=168),
        ens,
        cfg,
        ShapingParams(),
        seed=3,
    )
    assert ens.param_hashes() == hashes_before
    assert meta.action_dim == 2 and not meta.squash
    assert len(log.records) == 2


def test_zero_meta_budget_returns_init_near_uniform(trained_pair):
    series, ens, _ = trained_pair
    cfg = PpoConfig(total_steps=0, hidden=(16, 16))
    meta, log = train_meta(
        lambda: StrategicBiddingEnv(series, episode_len=168), ens, cfg, ShapingParams(), seed=0
    )
    assert log.records == []
    env = StrategicBiddingEnv(series, episode_len=48)
    obs = env.reset(start=24)
    w = BlendPolicy(ens, meta)(obs, env).weights
    # tiny policy-head init keeps the softmax near uniform
    np.testing.assert_allclose(w, [0.5, 0.5], atol=0.02)


def test_university_third_role_keeps_first_two_workers():
    # roles draw their seeds from one SeedSequence: adding a role leaves the
    # earlier workers bit-identical and gives the new one its own seeds
    factory = lambda: StrategicBiddingEnv(wavy_series(), episode_len=48)
    cfg = PpoConfig(total_steps=256, buffer_size=128, hidden=(8,))
    ens2, _ = train_university(factory, cfg, ShapingParams(), roles=("safe", "spec"), seed=3)
    ens3, _ = train_university(
        factory, cfg, ShapingParams(), roles=("safe", "spec", "neutral"), seed=3
    )
    h2, h3 = ens2.param_hashes(), ens3.param_hashes()
    assert (h3["safe"], h3["spec"]) == (h2["safe"], h2["spec"])
    init = PpoConfig(total_steps=0, hidden=(8,))
    ens0, _ = train_university(
        factory, init, ShapingParams(), roles=("safe", "spec", "neutral"), seed=3
    )
    h0 = ens0.param_hashes()
    assert h0["neutral"] != h0["safe"]


def test_university_unknown_role_rejected():
    with pytest.raises(ValueError, match="role"):
        train_university(
            lambda: StrategicBiddingEnv(wavy_series(), episode_len=24),
            PpoConfig(total_steps=0),
            ShapingParams(),
            roles=("safe", "bogus"),
        )

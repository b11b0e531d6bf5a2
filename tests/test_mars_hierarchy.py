import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid import ppo_trainer
from marsbid.bidding_env import StrategicBiddingEnv, map_action
from marsbid.mars_hierarchy import (
    AgentEnsemble,
    Blend,
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

from conftest import make_series, param_hashes, policy_sample, premium_series
from oracles import blend_rows, row_blend, row_softmax


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
    # one bad row rejects a block
    with pytest.raises(ValueError, match="simplex"):
        blend([[0.5, 0.5], [0.6, 0.6], [1.0, 0.0]], np.zeros((3, 2)))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), rows=st.integers(1, 30), seed=st.integers(0, 2**16))
def test_row_wise_softmax_and_blend_equal_scalar_ones(k, rows, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=5.0, size=(rows, k))
    proposals = rng.uniform(-1.0, 1.0, size=(rows, k))
    weights = softmax(logits)
    assert np.array_equal(weights, [row_softmax(z) for z in logits])
    want = [row_blend(w, a) for w, a in zip(weights, proposals)]
    assert np.array_equal(blend(weights, proposals), want)


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
    weights = BlendPolicy(small_ensemble(), meta)(env.tape).weights[0]
    mean, _, _ = meta.forward(obs)
    np.testing.assert_allclose(weights, softmax(mean))
    sample = policy_sample(meta, obs, np.random.default_rng(0))
    assert np.isfinite(sample.log_prob).all()
    w_s = softmax(sample.action)
    assert abs(w_s.sum() - 1.0) <= 1e-12
    assert not np.allclose(w_s, weights)


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
    w = ledger.weights
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(w >= -1e-12)
    props = ledger.proposals
    a_t = 2.0 * ledger.alpha - 1.0  # invert the action map
    assert np.all(a_t >= props.min(axis=1) - 1e-12)
    assert np.all(a_t <= props.max(axis=1) + 1e-12)


def test_hierarchical_episode_deterministic():
    ens = small_ensemble()
    meta = PolicyNetwork(obs_dim=33, hidden=(8, 8), action_dim=2, role="meta", squash=False, seed=9)

    def run():
        env = StrategicBiddingEnv(wavy_series(), episode_len=48)
        return run_policy_episode(env, BlendPolicy(ens, meta), start=30)

    a, b = run(), run()
    assert np.array_equal(a.profit, b.profit) and np.array_equal(a.weights, b.weights)


def test_safe_only_weights_match_standalone_safe():
    series = wavy_series()
    ens = small_ensemble()
    safe_net = dict(ens.workers)["safe"]

    env1 = StrategicBiddingEnv(series, episode_len=72)
    hier = run_policy_episode(env1, BlendPolicy(ens, np.array([1.0, 0.0])), start=24)
    env2 = StrategicBiddingEnv(series, episode_len=72)
    solo = run_policy_episode(env2, greedy(safe_net), start=24)
    np.testing.assert_array_equal(hier.profit, solo.profit)
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
    # replay the same hours step by step, recomputing every column from its
    # definition
    obs = env.reset(start=24)
    for t in range(len(ledger)):
        mean, _, _ = meta.forward(obs)
        proposals = ens.proposals(obs)
        assert np.array_equal(ledger.weights[t], softmax(mean))
        assert np.array_equal(ledger.proposals[t], proposals)
        assert ledger.r_meta[t] == reward_meta(float(ledger.profit[t]), shaping)
        obs, settled, _ = env.step(blend(softmax(mean), proposals))
        assert settled.profit == ledger.profit[t]
    # a plain float action records none of the hierarchical columns
    solo = run_policy_episode(env, greedy(dict(ens.workers)["safe"]), start=24)
    assert solo.roles == () and solo.weights is solo.proposals is solo.r_meta is None


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("learned", [True, False])
def test_blend_policy_equals_row_by_row_oracle(k, learned):
    env = StrategicBiddingEnv(wavy_series(), episode_len=200, dispatch_mode="economic")
    env.reset(start=24)
    roles = ("safe", "spec", "neutral")[:k]
    ens = AgentEnsemble(workers=tuple(frozen_worker(r, i + 1) for i, r in enumerate(roles)))
    meta = (
        PolicyNetwork(env.obs_dim, (8, 8), action_dim=k, role="meta", squash=False, seed=7)
        if learned
        else np.full(k, 1.0 / k)
    )
    got = BlendPolicy(ens, meta)(env.tape)
    for column, want in zip(got, blend_rows(ens, meta, env.tape)):
        assert np.array_equal(column, want)


def test_blend_policy_fixed_weights_return_a_blend():
    env = StrategicBiddingEnv(wavy_series(), episode_len=24)
    env.reset(start=24)
    ens = small_ensemble()
    episode = BlendPolicy(ens, [0.25, 0.75])(env.tape)
    assert isinstance(episode, Blend)
    assert episode.action.shape == (24,) and episode.weights.shape == (24, 2)
    for t, obs in enumerate(env.tape.obs):
        np.testing.assert_array_equal(episode.weights[t], [0.25, 0.75])
        np.testing.assert_array_equal(episode.proposals[t], ens.proposals(obs))
        assert episode.action[t] == blend([0.25, 0.75], episode.proposals[t])


def test_blend_without_matching_roles_is_rejected():
    env = StrategicBiddingEnv(wavy_series(), episode_len=24)
    bare = BlendPolicy(small_ensemble(), [0.5, 0.5])
    # a callable without ``roles`` has no names for the weight columns
    with pytest.raises(ValueError, match="roles"):
        run_policy_episode(env, lambda tape: bare(tape), start=24)
    # one action per tape hour, not one for the episode
    with pytest.raises(ValueError, match="24-hour tape"):
        run_policy_episode(env, lambda tape: 0.5, start=24)


def test_meta_rollouts_execute_a_blend_of_the_proposals(monkeypatch):
    ens = small_ensemble()
    seen_obs, settled_raw = [], []
    real_proposals = AgentEnsemble.proposals

    def record_proposals(self, obs):
        seen_obs.extend(obs)
        return real_proposals(self, obs)

    def record_raw(a_raw):
        settled_raw.extend(a_raw)
        return map_action(a_raw)

    # the observations the meta's rollouts blend at, and the raw actions
    # its trainer settles
    monkeypatch.setattr(AgentEnsemble, "proposals", record_proposals)
    monkeypatch.setattr(ppo_trainer, "map_action", record_raw)
    cfg = PpoConfig(total_steps=64, buffer_size=64, epochs_per_update=1, hidden=(8,))
    train_meta(
        StrategicBiddingEnv(wavy_series(), episode_len=24),
        ens,
        cfg,
        ShapingParams(),
        seed=4,
    )
    monkeypatch.undo()
    assert len(seen_obs) == len(settled_raw) == 64
    spreads = []
    for obs, a_raw in zip(seen_obs, settled_raw):
        proposals = ens.proposals(obs)
        assert isinstance(a_raw, float)
        assert proposals.min() <= a_raw <= proposals.max()
        spreads.append((a_raw - proposals.min()) / (proposals.max() - proposals.min()))
    # sampled logits: the blend moves inside the hull, not pinned to a vertex
    assert 0.05 < np.std(spreads)


# -- training phases -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_pair():
    series = premium_series(2200, seed=21)
    cfg = PpoConfig(total_steps=6144, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    ens, logs = train_university(
        StrategicBiddingEnv(series, episode_len=168),
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
        led = run_policy_episode(env, greedy(net), start=24)
        alphas[role] = float(np.mean(led.alpha))
    assert alphas["safe"] > 0.8
    assert alphas["spec"] < 0.2


def test_meta_phase_keeps_workers_frozen(trained_pair):
    series, ens, _ = trained_pair
    hashes_before = param_hashes(ens)
    cfg = PpoConfig(total_steps=2048, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    meta, log = train_meta(
        StrategicBiddingEnv(series, episode_len=168),
        ens,
        cfg,
        ShapingParams(),
        seed=3,
    )
    assert param_hashes(ens) == hashes_before
    assert meta.action_dim == 2 and not meta.squash
    assert len(log.records) == 2


def test_zero_meta_budget_returns_init_near_uniform(trained_pair):
    series, ens, _ = trained_pair
    cfg = PpoConfig(total_steps=0, hidden=(16, 16))
    meta, log = train_meta(
        StrategicBiddingEnv(series, episode_len=168), ens, cfg, ShapingParams(), seed=0
    )
    assert log.records == []
    env = StrategicBiddingEnv(series, episode_len=48)
    env.reset(start=24)
    w = BlendPolicy(ens, meta)(env.tape).weights[0]
    # tiny policy-head init keeps the softmax near uniform
    np.testing.assert_allclose(w, [0.5, 0.5], atol=0.02)


def test_university_third_role_keeps_first_two_workers():
    # roles draw their seeds from one SeedSequence: adding a role leaves the
    # earlier workers bit-identical and gives the new one its own seeds
    train_env = StrategicBiddingEnv(wavy_series(), episode_len=48)
    cfg = PpoConfig(total_steps=256, buffer_size=128, hidden=(8,))
    ens2, _ = train_university(train_env, cfg, ShapingParams(), roles=("safe", "spec"), seed=3)
    ens3, _ = train_university(
        train_env, cfg, ShapingParams(), roles=("safe", "spec", "neutral"), seed=3
    )
    h2, h3 = param_hashes(ens2), param_hashes(ens3)
    assert (h3["safe"], h3["spec"]) == (h2["safe"], h2["spec"])
    init = PpoConfig(total_steps=0, hidden=(8,))
    ens0, _ = train_university(
        train_env, init, ShapingParams(), roles=("safe", "spec", "neutral"), seed=3
    )
    h0 = param_hashes(ens0)
    assert h0["neutral"] != h0["safe"]


def test_university_unknown_role_rejected():
    with pytest.raises(ValueError, match="role"):
        train_university(
            StrategicBiddingEnv(wavy_series(), episode_len=24),
            PpoConfig(total_steps=0),
            ShapingParams(),
            roles=("safe", "bogus"),
        )

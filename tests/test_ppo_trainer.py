import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid import ppo_trainer
from marsbid.bidding_env import StrategicBiddingEnv
from marsbid.errors import DivergenceError
from marsbid.mars_hierarchy import AgentEnsemble, blend, softmax
from marsbid.policy_net import ParamVector, PolicyNetwork, gaussian_log_prob, squash_correction
from marsbid.ppo_trainer import (
    Adam,
    PpoConfig,
    clip_grad_norm,
    compute_gae,
    loss_and_grads,
    normalize_advantages,
    scalar_action,
    train,
)
from marsbid.reward_shaping import CvarRewardShaper, ShapingParams, reward_meta, reward_safe

from conftest import BanditEnv, make_series
from oracles import (
    DictAdam,
    dict_clip_grad_norm,
    ppo_loss,
    row_blend,
    row_proposals,
    row_softmax,
    stepwise_rollouts,
)


# -- GAE ------------------------------------------------------------------


def test_gae_single_step_td_error():
    adv, ret = compute_gae([2.0], [1.0], [0.0], bootstrap_value=3.0, gamma=0.9, lam=0.0)
    assert adv[0] == pytest.approx(2.0 + 0.9 * 3.0 - 1.0)
    assert ret[0] == pytest.approx(adv[0] + 1.0)


def test_gae_monte_carlo_limit():
    adv, _ = compute_gae(
        [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0, 0, 1], bootstrap_value=9.0, gamma=1.0, lam=1.0
    )
    np.testing.assert_allclose(adv, [3.0, 2.0, 1.0])


def test_gae_zero_everything():
    adv, ret = compute_gae(np.zeros(5), np.zeros(5), np.zeros(5), 0.0, 0.99, 0.95)
    np.testing.assert_array_equal(adv, np.zeros(5))
    np.testing.assert_array_equal(ret, np.zeros(5))


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        compute_gae([1.0, 2.0], [0.0], [0.0, 0.0], 0.0, 0.9, 0.9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_gae_lambda_one_matches_discounted_return_oracle(seed):
    rng = np.random.default_rng(seed)
    T = 12
    rewards = rng.normal(size=T)
    values = rng.normal(size=T)
    dones = np.zeros(T)
    dones[rng.integers(0, T)] = 1.0
    gamma = 0.97
    bootstrap = float(rng.normal())

    adv, _ = compute_gae(rewards, values, dones, bootstrap, gamma, lam=1.0)

    # oracle: advantage = discounted sum of future rewards (+bootstrap) - value
    for t in range(T):
        g, disc = 0.0, 1.0
        for k in range(t, T):
            g += disc * rewards[k]
            if dones[k]:
                break
            disc *= gamma
            if k == T - 1:
                g += disc * bootstrap
        assert adv[t] == pytest.approx(g - values[t], abs=1e-9)


def test_gae_multi_column_matches_per_column():
    rng = np.random.default_rng(0)
    T, N = 16, 3
    r, v = rng.normal(size=(T, N)), rng.normal(size=(T, N))
    d = (rng.random((T, N)) < 0.2).astype(float)
    boot = rng.normal(size=N)
    adv2, ret2 = compute_gae(r, v, d, boot, 0.99, 0.95)
    for i in range(N):
        adv1, ret1 = compute_gae(r[:, i], v[:, i], d[:, i], float(boot[i]), 0.99, 0.95)
        np.testing.assert_allclose(adv2[:, i], adv1, atol=1e-12)
        np.testing.assert_allclose(ret2[:, i], ret1, atol=1e-12)


# -- advantage normalization ---------------------------------------------------


def test_normalize_advantages_moments(rng):
    a = rng.normal(3.0, 0.001, 512)  # tiny std must still normalize exactly
    n = normalize_advantages(a)
    assert abs(n.mean()) < 1e-9
    assert abs(n.std() - 1.0) < 1e-6


def test_normalize_constant_batch():
    n = normalize_advantages(np.full(8, 5.0))
    np.testing.assert_array_equal(n, np.zeros(8))


# -- ppo loss -------------------------------------------------------------------


def test_ppo_loss_ratio_one():
    adv = np.array([0.5, -1.5, 2.0])
    lp = np.array([0.1, 0.2, 0.3])
    assert ppo_loss(lp, lp, adv, 0.2) == pytest.approx(-adv.mean())


def test_ppo_loss_clipped_positive_advantage():
    # ratio 1.5, adv +1: objective min(1.5, 1.2) = 1.2
    loss = ppo_loss(np.log(1.5), 0.0, np.array([1.0]), 0.2)
    assert loss == pytest.approx(-1.2, abs=1e-12)


def test_ppo_loss_negative_advantage_clipped_branch():
    # ratio 0.5, adv -1: min(-0.5, clip(0.5)*-1 = -0.8) = -0.8; the clipped
    # branch wins the min for shrunk ratios under negative advantages
    loss = ppo_loss(np.log(0.5), 0.0, np.array([-1.0]), 0.2)
    assert loss == pytest.approx(0.8, abs=1e-12)


def test_ppo_loss_graph_matches_numpy(rng):
    net = PolicyNetwork(obs_dim=6, hidden=(8,), action_dim=1, seed=0)
    cfg = PpoConfig(total_steps=0)
    obs = rng.standard_normal((32, 6))
    pre = rng.standard_normal((32, 1))
    adv = rng.standard_normal(32)
    ret = rng.standard_normal(32)
    mean, log_std, _ = net.forward(obs)
    logp_old = gaussian_log_prob(pre, mean, log_std) - squash_correction(np.tanh(pre))
    logp_old = logp_old + rng.normal(0, 0.3, 32)  # stale, as after updates
    lg = loss_and_grads(net, obs, pre, logp_old, adv, ret, cfg)
    logp_new = gaussian_log_prob(pre, mean, log_std) - squash_correction(np.tanh(pre))
    assert lg.policy_loss == pytest.approx(
        ppo_loss(logp_new, logp_old, adv, cfg.clip_epsilon), rel=1e-12
    )


def test_ppo_dead_zone_zero_gradient(rng):
    # clipping binds on every sample: the surrogate's gradient with respect
    # to every parameter is exactly 0
    net = PolicyNetwork(obs_dim=4, hidden=(8,), action_dim=1, seed=2)
    cfg = PpoConfig(total_steps=0, value_coef=0.0, entropy_coef=0.0)
    obs = rng.standard_normal((2, 4))
    pre = rng.standard_normal((2, 1))
    mean, log_std, _ = net.forward(obs)
    logp_new = gaussian_log_prob(pre, mean, log_std) - squash_correction(np.tanh(pre))
    ratios = np.array([0.5, 1.8])
    adv = np.array([-1.0, 1.0])
    lg = loss_and_grads(net, obs, pre, logp_new - np.log(ratios), adv, np.zeros(2), cfg)
    np.testing.assert_allclose(lg.ratio, ratios, rtol=1e-12)
    for name in net.param_names():
        np.testing.assert_array_equal(lg.grads[name], 0.0)
    # central finite difference in the log ratio agrees
    h = 1e-6
    for logr, a in zip(np.log(ratios), adv):

        def f(x):
            r = np.exp(x)
            return -min(r * a, np.clip(r, 0.8, 1.2) * a)

        assert (f(logr + h) - f(logr - h)) / (2 * h) == pytest.approx(0.0, abs=1e-9)


def test_total_loss_components_finite(rng):
    net = PolicyNetwork(obs_dim=4, hidden=(8,), seed=1)
    cfg = PpoConfig(total_steps=0)
    lg = loss_and_grads(
        net,
        rng.standard_normal((16, 4)),
        rng.standard_normal((16, 1)),
        rng.standard_normal(16),
        rng.standard_normal(16),
        rng.standard_normal(16),
        cfg,
    )
    for v in (lg.total, lg.policy_loss, lg.value_loss, lg.entropy):
        assert np.isfinite(v)
    assert lg.total == pytest.approx(
        lg.policy_loss + cfg.value_coef * lg.value_loss - cfg.entropy_coef * lg.entropy
    )
    assert list(lg.grads) == net.param_names()
    for name in net.param_names():
        assert lg.grads[name].shape == net.params[name].shape
        assert np.all(np.isfinite(lg.grads[name]))


# -- optimizer -----------------------------------------------------------------


def test_adam_moves_against_gradient():
    w = np.array([1.0, -2.0])
    opt = Adam(w, lr=0.1)
    for _ in range(50):
        opt.step(w.copy())  # gradient of 0.5*w^2
    assert np.all(np.abs(w) < np.array([1.0, 2.0]))


def test_clip_grad_norm():
    grads = ParamVector({"a": (1,), "b": (1,)})
    grads["a"], grads["b"] = [3.0], [4.0]
    total = clip_grad_norm(grads, 1.0)
    assert total == pytest.approx(5.0)
    assert np.sqrt(sum(float((g**2).sum()) for g in grads.values())) == pytest.approx(1.0)


def test_flat_adam_and_clip_equal_the_dict_oracle():
    # the flat in-place step against Adam and clipping array by array, on
    # the gradients of real minibatches, for a clipped and an unclipped norm
    rng = np.random.default_rng(7)
    for max_norm in (0.5, 1e9):
        net = PolicyNetwork(obs_dim=6, hidden=(16, 8), action_dim=2, seed=1)
        params = {name: arr.copy() for name, arr in net.params.items()}
        flat_opt = Adam(net.params.flat, lr=3e-3)
        dict_opt = DictAdam(params, lr=3e-3)
        cfg = PpoConfig(total_steps=0)
        for _ in range(200):
            batch = (
                rng.standard_normal((32, 6)),
                rng.standard_normal((32, 2)),
                rng.standard_normal(32),
                rng.standard_normal(32),
                rng.standard_normal(32),
            )
            grads = loss_and_grads(net, *batch, cfg).grads
            oracle_grads = {name: g.copy() for name, g in grads.items()}
            assert clip_grad_norm(grads, max_norm) == dict_clip_grad_norm(oracle_grads, max_norm)
            flat_opt.step(grads.flat)
            dict_opt.step(oracle_grads)
            for name in net.param_names():
                assert np.array_equal(net.params[name], params[name]), name


# -- training loop ----------------------------------------------------------------


def test_zero_learning_rate_leaves_params_unchanged():
    net = PolicyNetwork(obs_dim=4, hidden=(8, 8), seed=3)
    before = net.param_hash()
    cfg = PpoConfig(total_steps=512, buffer_size=256, learning_rate=0.0, hidden=(8, 8))
    train(BanditEnv(), net, lambda pi, alpha: pi, cfg, seed=0)
    assert net.param_hash() == before


def test_zero_total_steps_no_op():
    net = PolicyNetwork(obs_dim=4, hidden=(8,), seed=3)
    before = net.param_hash()
    log = train(
        BanditEnv(),
        net,
        lambda pi, alpha: pi,
        PpoConfig(total_steps=0, hidden=(8,)),
        seed=0,
    )
    assert net.param_hash() == before and log.records == []


def test_training_log_deterministic_for_fixed_seed(tmp_path):
    def run(path):
        net = PolicyNetwork(obs_dim=4, hidden=(8, 8), seed=1)
        cfg = PpoConfig(
            total_steps=1024, buffer_size=256, learning_rate=1e-3, hidden=(8, 8)
        )
        log = train(BanditEnv(), net, lambda pi, alpha: pi, cfg, seed=11)
        log.to_csv(path, header_comment="t")
        return net.param_hash()

    h1 = run(tmp_path / "a.csv")
    h2 = run(tmp_path / "b.csv")
    assert h1 == h2
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_train_rejects_frozen_policy():
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    net.freeze()
    with pytest.raises(ValueError, match="frozen"):
        train(BanditEnv(), net, lambda pi, a: pi, PpoConfig(total_steps=10), seed=0)


def test_bandit_learns_positive_action():
    cfg = PpoConfig(total_steps=8192, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    net = PolicyNetwork(obs_dim=4, hidden=(16, 16), seed=42)
    log = train(BanditEnv(), net, lambda pi, alpha: pi, cfg, seed=42)
    assert float(net.act_deterministic(np.zeros(4))[0]) > 0.8
    assert log.records[-1].mean_reward > log.records[0].mean_reward


def test_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        PpoConfig(gamma=1.5)
    with pytest.raises(ValueError):
        PpoConfig(gae_lambda=-0.1)
    for bad in (
        {"epochs_per_update": 0},
        {"learning_rate": -1e-4},
        {"kl_target": 0.0},
        {"value_coef": -0.5},
        {"entropy_coef": -0.01},
        {"max_grad_norm": -1.0},
        {"total_steps": -1},
    ):
        with pytest.raises(ValueError):
            PpoConfig(**bad)
    # zero is legal: a frozen-in-place run, no value/entropy terms, no clipping
    PpoConfig(learning_rate=0.0, value_coef=0.0, entropy_coef=0.0, max_grad_norm=0.0, total_steps=0)
    # more rollout workers than buffer slots would leave no full column
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    cfg = PpoConfig(total_steps=16, buffer_size=4, hidden=(4,))
    with pytest.raises(ValueError, match="buffer_size"):
        train(BanditEnv(), net, lambda pi, a: pi, cfg, seed=0, workers=5)


def test_non_finite_policy_output_is_divergence():
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    net.params["bp"][:] = np.nan
    cfg = PpoConfig(total_steps=16, buffer_size=8, hidden=(4,))
    with pytest.raises(DivergenceError, match="non-finite"):
        train(BanditEnv(), net, lambda pi, a: pi, cfg, seed=0)


def test_multi_worker_collection_trains():
    cfg = PpoConfig(total_steps=1024, buffer_size=512, hidden=(8, 8))
    net = PolicyNetwork(obs_dim=4, hidden=(8, 8), seed=0)
    log = train(BanditEnv(), net, lambda pi, a: pi, cfg, seed=3, workers=4)
    # 512 // 4 = 128 steps per worker per update, x4 workers per update
    assert [r.steps for r in log.records] == [512, 1024]
    with pytest.raises(ValueError):
        train(BanditEnv(), net, lambda pi, a: pi, cfg, seed=3, workers=0)


# -- batched rollouts ------------------------------------------------------------------


_ROLL_RNG = np.random.default_rng(17)
# prices straddle the marginal cost (30 $/MWh): economic dispatch pays
# startups and fines
_ROLL_SERIES = make_series(
    lmp_da=_ROLL_RNG.normal(35.0, 20.0, 200),
    lmp_rt=_ROLL_RNG.normal(35.0, 25.0, 200),
    gas_price=_ROLL_RNG.uniform(3.0, 5.0, 200),
)


def _frozen(role, seed, obs_dim):
    net = PolicyNetwork(obs_dim, (8,), role=role, seed=seed)
    net.params["Wp"] *= 100.0  # proposals spread over (-1, 1)
    net.freeze()
    return role, net


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("role", ["safe", "meta", "cvar"])
def test_batched_buffers_equal_stepwise_oracle(role, workers, monkeypatch):
    # 17-hour episodes end inside buffers and straddle them; a zero learning
    # rate keeps the policy the oracle replays
    def factory():
        return StrategicBiddingEnv(_ROLL_SERIES, episode_len=17, dispatch_mode="economic")

    obs_dim = factory().obs_dim
    shaping = ShapingParams(cvar_window=30)
    if role == "meta":
        ens = AgentEnsemble(workers=(_frozen("safe", 1, obs_dim), _frozen("spec", 2, obs_dim)))
        net = PolicyNetwork(obs_dim, (8,), action_dim=2, role="meta", squash=False, seed=5)
        make_reward = lambda: (lambda pi, alpha: reward_meta(pi, shaping))
        env_action = lambda logits, obs: blend(softmax(logits), ens.proposals(obs))
        row_action = lambda logits, x: row_blend(row_softmax(logits), row_proposals(ens, x))
    else:
        net = PolicyNetwork(obs_dim, (8,), role=role, seed=5)
        if role == "cvar":
            make_reward = lambda: CvarRewardShaper(shaping)
        else:
            make_reward = lambda: (lambda pi, alpha: reward_safe(pi, alpha, shaping))
        env_action = scalar_action
        row_action = lambda a, x: float(a[0])

    seen_obs, draws, gae_inputs = [], [], []
    real_sample, real_gae = ppo_trainer.sample_action, ppo_trainer.compute_gae

    def record_action(actions, obs):
        seen_obs.append(obs.copy())
        return env_action(actions, obs)

    def record_sample(*args, **kwargs):
        draws.append(real_sample(*args, **kwargs))
        return draws[-1]

    def record_gae(rewards, values, dones, bootstrap, gamma, lam):
        gae_inputs.append((rewards.copy(), values.copy(), dones.copy(), np.array(bootstrap)))
        return real_gae(rewards, values, dones, bootstrap, gamma, lam)

    monkeypatch.setattr(ppo_trainer, "sample_action", record_sample)
    monkeypatch.setattr(ppo_trainer, "compute_gae", record_gae)
    cfg = PpoConfig(
        total_steps=120, buffer_size=60, learning_rate=0.0, epochs_per_update=1, hidden=(8,)
    )
    before = net.param_hash()
    train(factory(), net, make_reward(), cfg, seed=9, workers=workers, env_action=record_action)
    monkeypatch.undo()
    assert net.param_hash() == before

    T = 60 // workers
    want = stepwise_rollouts(factory, net, make_reward(), 9, workers, T, 2, row_action)
    assert len(seen_obs) == len(draws) == len(gae_inputs) == 2
    for buf, obs, draw, (rewards, values, dones, bootstrap) in zip(
        want, seen_obs, draws, gae_inputs
    ):
        assert np.array_equal(obs, buf.obs.reshape(T * workers, obs_dim))
        assert np.array_equal(draw.pre_squash, buf.pre.reshape(T * workers, -1))
        assert np.array_equal(draw.log_prob, buf.logp.reshape(-1))
        assert np.array_equal(rewards, buf.rewards)
        assert np.array_equal(values, buf.values)
        assert np.array_equal(dones, buf.dones) and dones.any()
        assert np.array_equal(bootstrap, buf.bootstrap)

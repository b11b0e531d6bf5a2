import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsbid.errors import DivergenceError
from marsbid.policy_net import PolicyNetwork, gaussian_log_prob, squash_correction
from marsbid.ppo_trainer import (
    Adam,
    PpoConfig,
    clip_grad_norm,
    compute_gae,
    loss_and_grads,
    normalize_advantages,
    train,
)

from conftest import BanditEnv
from oracles import ppo_loss


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
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(50):
        opt.step({"w": params["w"].copy()})  # gradient of 0.5*w^2
    assert np.all(np.abs(params["w"]) < np.array([1.0, 2.0]))


def test_clip_grad_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    total = clip_grad_norm(grads, 1.0)
    assert total == pytest.approx(5.0)
    assert np.sqrt(sum(float((g**2).sum()) for g in grads.values())) == pytest.approx(1.0)


# -- training loop ----------------------------------------------------------------


def test_zero_learning_rate_leaves_params_unchanged():
    net = PolicyNetwork(obs_dim=4, hidden=(8, 8), seed=3)
    before = net.param_hash()
    cfg = PpoConfig(total_steps=512, buffer_size=256, learning_rate=0.0, hidden=(8, 8))
    train(lambda: BanditEnv(), net, lambda pi, alpha: pi, cfg, seed=0)
    assert net.param_hash() == before


def test_zero_total_steps_no_op():
    net = PolicyNetwork(obs_dim=4, hidden=(8,), seed=3)
    before = net.param_hash()
    log = train(
        lambda: BanditEnv(),
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
        log = train(lambda: BanditEnv(), net, lambda pi, alpha: pi, cfg, seed=11)
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
        train(lambda: BanditEnv(), net, lambda pi, a: pi, PpoConfig(total_steps=10), seed=0)


def test_bandit_learns_positive_action():
    cfg = PpoConfig(total_steps=8192, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
    net = PolicyNetwork(obs_dim=4, hidden=(16, 16), seed=42)
    log = train(lambda: BanditEnv(), net, lambda pi, alpha: pi, cfg, seed=42)
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
        train(lambda: BanditEnv(), net, lambda pi, a: pi, cfg, seed=0, workers=5)


def test_non_finite_policy_output_is_divergence():
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    net.params["bp"][:] = np.nan
    cfg = PpoConfig(total_steps=16, buffer_size=8, hidden=(4,))
    with pytest.raises(DivergenceError, match="non-finite"):
        train(lambda: BanditEnv(), net, lambda pi, a: pi, cfg, seed=0)


def test_multi_worker_collection_trains():
    cfg = PpoConfig(total_steps=1024, buffer_size=512, hidden=(8, 8))
    net = PolicyNetwork(obs_dim=4, hidden=(8, 8), seed=0)
    log = train(lambda: BanditEnv(), net, lambda pi, a: pi, cfg, seed=3, workers=4)
    # 512 // 4 = 128 steps per worker per update, x4 workers per update
    assert [r.steps for r in log.records] == [512, 1024]
    with pytest.raises(ValueError):
        train(lambda: BanditEnv(), net, lambda pi, a: pi, cfg, seed=3, workers=0)

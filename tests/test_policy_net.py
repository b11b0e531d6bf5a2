import numpy as np
import pytest

from marsbid.errors import CheckpointError, DivergenceError
from marsbid.policy_net import (
    PolicyNetwork,
    gaussian_log_prob,
    sample_action,
    squash_correction,
)
from marsbid.ppo_trainer import PpoConfig, loss_and_grads

from conftest import policy_sample
from oracles import log_prob_of_action


# -- forward -------------------------------------------------------------------


def test_forward_zero_network():
    net = PolicyNetwork(obs_dim=5, hidden=(4,), action_dim=2, seed=0)
    for name in net.param_names():
        net.params[name] = np.zeros_like(net.params[name])
    mean, log_std, value = net.forward(np.ones(5))
    np.testing.assert_array_equal(mean, [0.0, 0.0])
    assert value == 0.0
    np.testing.assert_array_equal(log_std, [0.0, 0.0])


def test_forward_single_neuron_analytic():
    # one 1-wide hidden layer: value = tanh(x*w0 + b0)*wv + bv
    net = PolicyNetwork(obs_dim=1, hidden=(1,), action_dim=1, seed=0)
    net.params["W0"] = np.array([[0.7]])
    net.params["b0"] = np.array([0.1])
    net.params["Wp"] = np.array([[1.3]])
    net.params["bp"] = np.array([-0.2])
    net.params["Wv"] = np.array([[2.0]])
    net.params["bv"] = np.array([0.5])
    x = 0.9
    h = np.tanh(0.7 * x + 0.1)
    mean, _, value = net.forward(np.array([x]))
    assert mean[0] == pytest.approx(1.3 * h - 0.2, rel=1e-15)
    assert value == pytest.approx(2.0 * h + 0.5, rel=1e-15)


def test_forward_repeated_calls_bitwise_identical(rng):
    net = PolicyNetwork(obs_dim=8, hidden=(16, 16), seed=1)
    obs = rng.standard_normal(8)
    m1, s1, v1 = net.forward(obs)
    m2, s2, v2 = net.forward(obs)
    assert np.array_equal(m1, m2) and np.array_equal(s1, s2) and v1 == v2


def test_forward_dim_mismatch():
    net = PolicyNetwork(obs_dim=8, seed=0)
    with pytest.raises(ValueError, match="dim"):
        net.forward(np.zeros(9))


# -- sampling ----------------------------------------------------------------


def test_sample_low_std_is_deterministic_limit(rng):
    s = sample_action(np.array([0.8]), np.array([-20.0]), rng)
    assert s.action[0] == pytest.approx(np.tanh(0.8), abs=1e-6)


def test_sample_symmetry_monte_carlo():
    rng = np.random.default_rng(77)
    s = sample_action(np.array([0.0]), np.array([0.0]), rng, size=100_000)
    assert abs(float(s.action.mean())) < 0.01
    assert np.all(np.abs(s.action) <= 1.0)


def test_sample_log_prob_matches_histogram_density():
    rng = np.random.default_rng(3)
    mean, log_std = np.array([0.3]), np.array([-0.5])
    s = sample_action(mean, log_std, rng, size=1_000_000)
    a = s.action[:, 0]
    edges = np.linspace(-0.99, 0.99, 81)
    counts, _ = np.histogram(a, bins=edges)
    width = edges[1] - edges[0]
    centers = (edges[:-1] + edges[1:]) / 2
    density = counts / (a.size * width)
    model = np.exp([float(log_prob_of_action(mean, log_std, np.array([c]))) for c in centers])
    # compare where there is enough mass for a stable estimate
    mask = density > 0.05
    rel = np.abs(density[mask] - model[mask]) / model[mask]
    assert float(rel.mean()) < 0.05


def test_log_prob_integrates_to_one():
    mean, log_std = np.array([0.2]), np.array([-0.3])
    grid = np.linspace(-1 + 1e-6, 1 - 1e-6, 200_001)
    logp = gaussian_log_prob(
        np.arctanh(grid)[:, None], mean, log_std
    ) - np.log(1 - grid**2 + 1e-6)
    integral = np.trapezoid(np.exp(logp), grid)
    assert integral == pytest.approx(1.0, abs=0.01)


def test_sample_rejects_non_finite():
    with pytest.raises(DivergenceError):
        sample_action(np.array([np.nan]), np.array([0.0]), np.random.default_rng(0))


def test_policy_sample_unsquashed_gaussian(rng):
    net = PolicyNetwork(obs_dim=4, hidden=(8,), action_dim=3, squash=False, role="meta", seed=2)
    s = policy_sample(net, np.zeros(4), rng)
    mean, log_std, _ = net.forward(np.zeros(4))
    assert s.log_prob == pytest.approx(float(gaussian_log_prob(s.pre_squash, mean, log_std)))
    np.testing.assert_array_equal(s.action, s.pre_squash)


# -- gradients through the full loss ------------------------------------------


def _fd_check(net, batch, cfg, h=1e-5, tol=1e-4):
    """Compare the gradient of the total loss from :func:`loss_and_grads`
    with central finite differences for every parameter of ``net``."""
    grads = loss_and_grads(net, *batch, cfg).grads
    assert list(grads) == net.param_names()
    worst = 0.0
    for name in net.param_names():
        base = net.params[name].copy()
        for j in range(base.size):
            totals = []
            for offset in (+h, -h):
                net.params[name] = base.copy()
                net.params[name].ravel()[j] += offset
                totals.append(loss_and_grads(net, *batch, cfg).total)
            net.params[name] = base
            fd = (totals[0] - totals[1]) / (2 * h)
            a = grads[name].ravel()[j]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    assert worst < tol, f"worst relative gradient error {worst}"


# each loss part alone: (value_coef, entropy_coef, keep advantages); with
# zero advantages the clipped surrogate is identically zero
PARTS = {
    "policy": (0.0, 0.0, True),
    "value": (1.0, 0.0, False),
    "entropy": (0.0, 1.0, False),
    "total": (0.5, 0.01, True),
}


def _part_batch_and_cfg(batch, which):
    value_coef, entropy_coef, keep_adv = PARTS[which]
    obs, pre, logp_old, adv, ret = batch
    adv = adv if keep_adv else np.zeros_like(adv)
    cfg = PpoConfig(total_steps=0, value_coef=value_coef, entropy_coef=entropy_coef)
    return (obs, pre, logp_old, adv, ret), cfg


def _random_batch(rng, B, obs_dim, A, logp_scale=0.1):
    return (
        rng.standard_normal((B, obs_dim)),
        rng.standard_normal((B, A)),
        rng.standard_normal(B) * logp_scale,
        rng.standard_normal(B),
        rng.standard_normal(B),
    )


def test_gradients_match_finite_differences_small_net(rng):
    # a squashed bidding head and an unsquashed two-logit meta head
    for net in (
        PolicyNetwork(obs_dim=3, hidden=(4,), action_dim=2, seed=9),
        PolicyNetwork(obs_dim=3, hidden=(4,), action_dim=2, role="meta", squash=False, seed=21),
    ):
        batch = _random_batch(rng, 6, 3, 2)
        for which in PARTS:
            _fd_check(net, *_part_batch_and_cfg(batch, which))


def test_gradients_match_finite_differences_clipped_both_sides(rng):
    # ratios far below 1 - eps and far above 1 + eps under both advantage
    # signs, so the clipped (dead) and unclipped branches both win somewhere
    net = PolicyNetwork(obs_dim=3, hidden=(4,), action_dim=1, seed=5)
    obs, pre, _, _, ret = _random_batch(rng, 8, 3, 1)
    mean, log_std, _ = net.forward(obs)
    logp_new = gaussian_log_prob(pre, mean, log_std) - squash_correction(np.tanh(pre))
    target = np.array([0.5, 0.6, 1.6, 1.8, 0.5, 0.6, 1.6, 1.8])
    adv = np.array([1.0, -0.7, 0.8, -1.2, -1.0, 0.9, 1.1, -0.6])
    logp_old = logp_new - np.log(target)
    cfg = PpoConfig(total_steps=0)
    lg = loss_and_grads(net, obs, pre, logp_old, adv, ret, cfg)
    assert np.sum(lg.ratio < 0.8) == 4 and np.sum(lg.ratio > 1.2) == 4
    _fd_check(net, (obs, pre, logp_old, adv, ret), cfg)


def test_loss_parts_isolated_by_coefficients(rng):
    net = PolicyNetwork(obs_dim=3, hidden=(4,), action_dim=2, seed=9)
    batch = _random_batch(rng, 6, 3, 2)
    full = loss_and_grads(net, *batch, PpoConfig(total_steps=0))
    for which, part in (
        ("policy", full.policy_loss),
        ("value", full.value_loss),
        ("entropy", -full.entropy),
    ):
        part_batch, cfg = _part_batch_and_cfg(batch, which)
        lg = loss_and_grads(net, *part_batch, cfg)
        assert lg.total == pytest.approx(part, rel=1e-12, abs=1e-15)
    # zero advantages: the surrogate and its gradient vanish exactly
    part_batch, cfg = _part_batch_and_cfg(batch, "entropy")
    lg = loss_and_grads(net, *part_batch, cfg)
    assert lg.policy_loss == 0.0
    for name in net.param_names():
        if name != "log_std":
            np.testing.assert_array_equal(lg.grads[name], 0.0)
    np.testing.assert_array_equal(lg.grads["log_std"], [-1.0, -1.0])


def test_value_loss_ignores_policy_head(rng):
    net = PolicyNetwork(obs_dim=3, hidden=(4,), action_dim=1, seed=4)
    batch = (
        rng.standard_normal((5, 3)),
        rng.standard_normal((5, 1)),
        rng.standard_normal(5),
        np.zeros(5),
        np.zeros(5),
    )
    cfg = PpoConfig(total_steps=0, value_coef=1.0, entropy_coef=0.0)
    grads = loss_and_grads(net, *batch, cfg).grads
    for name in ("Wp", "bp", "log_std"):
        np.testing.assert_array_equal(grads[name], np.zeros_like(net.params[name]))
    assert np.any(grads["Wv"] != 0.0)


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = PolicyNetwork(obs_dim=7, hidden=(8, 8), action_dim=2, role="safe", seed=5)
    net.step_count = 12345
    path = tmp_path / "w.ckpt"
    net.save(path, config_hash="deadbeef")
    back = PolicyNetwork.load(path)
    assert back.role == "safe" and back.squash and back.step_count == 12345
    assert back.layer_dims == net.layer_dims and back.action_dim == 2
    for name in net.param_names():
        np.testing.assert_array_equal(back.params[name], net.params[name])
    assert back.param_hash() == net.param_hash()


def test_checkpoint_truncated_rejected(tmp_path):
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    path = tmp_path / "w.ckpt"
    net.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(CheckpointError, match="truncated"):
        PolicyNetwork.load(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "w.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        PolicyNetwork.load(path)


def test_checkpoint_dims_mismatch_names_both(tmp_path):
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    path = tmp_path / "w.ckpt"
    net.save(path)
    with pytest.raises(CheckpointError, match="4.*33|33.*4"):
        PolicyNetwork.load(path, expect_obs_dim=33)


def test_freeze_blocks_writes():
    net = PolicyNetwork(obs_dim=4, hidden=(4,), seed=0)
    net.freeze()
    with pytest.raises(ValueError):
        net.params["W0"][0, 0] = 1.0

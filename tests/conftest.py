"""Shared fixtures: hand-built series, premium fixtures, and a bandit env."""

from __future__ import annotations

import numpy as np
import pytest

from marsbid.bidding_env import Tape
from marsbid.market_data import FIELD_NAMES, MarketSeries, SyntheticConfig, generate_synthetic
from marsbid.policy_net import sample_action

START_2021 = 447072  # epoch hours of 2021-01-01T00:00Z

FIELD_DEFAULTS = {
    "lmp_da": 40.0,
    "lmp_rt": 40.0,
    "load_actual": 1000.0,
    "load_forecast": 1000.0,
    "temperature": 10.0,
    "wind_speed": 5.0,
    "gas_price": 4.0,  # mc = 30 $/MWh at the default heat rate
}


def make_series(n=None, start=START_2021, provenance="synthetic", **overrides) -> MarketSeries:
    """Build a series from per-field arrays or scalars; unspecified fields
    get constant defaults."""
    if n is None:
        n = max(
            np.asarray(v).size
            for v in overrides.values()
            if np.asarray(v).ndim > 0
        )
    fields = {}
    for name in FIELD_NAMES:
        v = overrides.get(name, FIELD_DEFAULTS[name])
        arr = np.asarray(v, dtype=np.float64)
        fields[name] = np.full(n, float(arr)) if arr.ndim == 0 else arr.copy()
    return MarketSeries(
        timestamps=np.arange(start, start + n, dtype=np.int64),
        fields=fields,
        provenance=provenance,
    )


def premium_series(n_hours: int, seed: int, rt_shift: float = -20.0) -> MarketSeries:
    """Low-noise synthetic market where RT trails (or leads) DA by a fixed
    premium; used for role-specialization checks."""
    cfg = SyntheticConfig(
        n_hours=n_hours,
        calm_mean=55.0,
        calm_std=4.0,
        volatile_mean=55.0,
        volatile_std=4.0,
        rt_spread_std=2.0,
        diurnal_amplitude=3.0,
        seed=seed,
    )
    s = generate_synthetic(cfg)
    fields = {k: v.copy() for k, v in s.fields.items()}
    fields["lmp_rt"] = fields["lmp_da"] + rt_shift + (fields["lmp_rt"] - fields["lmp_da"])
    return MarketSeries(
        timestamps=s.timestamps.copy(), fields=fields, provenance="synthetic"
    )


def spike_series(n_hours: int, seed: int) -> MarketSeries:
    """Two-regime market with heavy left-tail RT spikes in the volatile
    regime; RT pays a small premium in calm hours so speculation is
    attractive until a spike hits."""
    cfg = SyntheticConfig(
        n_hours=n_hours,
        calm_mean=45.0,
        calm_std=4.0,
        volatile_mean=50.0,
        volatile_std=10.0,
        regime_dwell_hours=48.0,
        rt_spread_std=3.0,
        diurnal_amplitude=5.0,
        seed=seed,
        rt_spike_prob=0.08,
        rt_spike_mean=-250.0,
    )
    s = generate_synthetic(cfg)
    fields = {k: v.copy() for k, v in s.fields.items()}
    fields["lmp_rt"] = fields["lmp_rt"] + 6.0  # calm-hour RT premium
    return MarketSeries(
        timestamps=s.timestamps.copy(),
        fields=fields,
        provenance="synthetic",
        regimes=s.regimes.copy(),
    )


class BanditEnv:
    """A one-hour episode with a constant observation; its read-only tape
    settles DA at 1, RT at -1, with capacity 1, no costs and no fines, so
    the profit is the clipped raw action. The PPO sanity toy."""

    obs_dim = 4

    def __init__(self):
        obs = np.zeros((1, self.obs_dim))
        dispatch = np.array([[1.0], [-1.0], [0.0], [1.0], [0.0], [0.0]])
        for arr in (obs, dispatch):
            arr.flags.writeable = False
        self.tape = Tape(series=None, start=0, obs=obs, dispatch=dispatch)

    def reset(self, start=None, rng=None):
        return self.tape.obs[0]


def policy_sample(net, obs, rng):
    """One action drawn from ``net``'s policy at ``obs``."""
    mean, log_std, _ = net.forward(obs)
    return sample_action(mean, log_std, rng, squash=net.squash)


def param_hashes(ensemble) -> dict:
    """Role -> parameter hash of every worker of an ensemble."""
    return {role: net.param_hash() for role, net in ensemble.workers}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

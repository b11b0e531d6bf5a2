"""The full hierarchy on stress-test data: spiky real-time prices in the
volatile regime, a meta controller blending the frozen specialists, and the
risk metrics that show the dampening behaviour.

Run:  python demos/05_hierarchy_and_metrics.py   (a few seconds)
"""

import numpy as np

from marsbid import (
    BlendPolicy,
    MarketSeries,
    PpoConfig,
    ShapingParams,
    StrategicBiddingEnv,
    SyntheticConfig,
    generate_synthetic,
    run_policy_episode,
    train_meta,
    train_university,
)
from marsbid.evaluation import (
    compute_report,
    greedy,
    max_drawdown,
    sharpe,
)

# Volatile-regime RT prices occasionally crash hard; calm-regime RT pays a
# small premium. Speculation is profitable until it is catastrophic.
base = generate_synthetic(
    SyntheticConfig(n_hours=4000, calm_mean=45.0, calm_std=4.0, volatile_mean=50.0,
                    volatile_std=10.0, regime_dwell_hours=48.0, rt_spread_std=3.0,
                    diurnal_amplitude=5.0, seed=101, rt_spike_prob=0.08,
                    rt_spike_mean=-250.0)
)
fields = {k: v.copy() for k, v in base.fields.items()}
fields["lmp_rt"] = fields["lmp_rt"] + 6.0
series = MarketSeries(timestamps=base.timestamps.copy(), fields=fields,
                      provenance="synthetic", regimes=base.regimes.copy())

shaping = ShapingParams()
train_env = StrategicBiddingEnv(series, episode_len=168)
ensemble, _ = train_university(
    train_env,
    PpoConfig(total_steps=10_240, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16)),
    shaping, roles=("safe", "spec"), seed=0,
)
meta, _ = train_meta(
    train_env, ensemble,
    PpoConfig(total_steps=8_192, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16)),
    shaping, seed=0,
)

env = StrategicBiddingEnv(series, episode_len=len(series) - 24)
# one runner for every policy: the meta blend, fixed 50/50 weights over the
# same workers, and the speculator alone, all over the same hours
mars = run_policy_episode(env, BlendPolicy(ensemble, meta), start=24, shaping=shaping)
static = run_policy_episode(env, BlendPolicy(ensemble, [0.5, 0.5]), start=24, shaping=shaping)
solo = run_policy_episode(env, greedy(dict(ensemble.workers)["spec"]), start=24)

report = compute_report(mars)
print("MARS-DA evaluation pass:")
print(f"  cumulative return   {report.cumulative_return:12.0f} $")
print(f"  sharpe              {report.sharpe:12.4f}")
print(f"  max drawdown        {report.max_drawdown_abs:12.0f} $")
print(f"  allocation entropy  {report.allocation_entropy:12.3f} nats (ln 2 = 0.693)")
print(f"  regime alignment    {report.regime_alignment:12.3f} "
      "(speculator weight vs volatility; negative = contrarian dampening)")

print("\npaired comparison on the same fixture:")
print(f"  {'policy':16s} {'sharpe':>8} {'max drawdown':>14}")
for name, ledger in (("MARS-DA", mars), ("static 50/50", static), ("speculator", solo)):
    mdd = max_drawdown(np.cumsum(ledger.profit))[0]
    print(f"  {name:16s} {sharpe(ledger.profit):8.4f} {mdd:14.0f}")

w_spec = mars.spec_weight_series()
print(f"\nmean speculator weight {w_spec.mean():.3f} (std {w_spec.std():.3f}); "
      "the negative alignment says that weight shrinks as volatility rises.")
print("Entropy above 0.1 nats plus a lower drawdown than the standalone "
      "speculator reproduce the dampening mechanism.")

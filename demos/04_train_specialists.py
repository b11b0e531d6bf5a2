"""University phase: train the Safe and Speculator workers and watch them
specialize to opposite ends of the allocation range.

Run:  python demos/04_train_specialists.py   (a few seconds)
"""

import numpy as np

from marsbid import (
    MarketSeries,
    PpoConfig,
    ShapingParams,
    StrategicBiddingEnv,
    SyntheticConfig,
    generate_synthetic,
    train_university,
)
from marsbid.evaluation import greedy, run_policy_episode

# A market with a persistent day-ahead premium: DA clears 20 $/MWh above RT.
base = generate_synthetic(
    SyntheticConfig(n_hours=2600, calm_mean=55.0, calm_std=4.0, volatile_mean=55.0,
                    volatile_std=4.0, rt_spread_std=2.0, diurnal_amplitude=3.0, seed=11)
)
fields = {k: v.copy() for k, v in base.fields.items()}
fields["lmp_rt"] = fields["lmp_da"] - 20.0 + (fields["lmp_rt"] - fields["lmp_da"])
series = MarketSeries(timestamps=base.timestamps.copy(), fields=fields, provenance="synthetic")

cfg = PpoConfig(total_steps=12_288, buffer_size=1024, learning_rate=1e-3, hidden=(16, 16))
ensemble, logs = train_university(
    StrategicBiddingEnv(series, episode_len=168),
    cfg,
    ShapingParams(),
    roles=("safe", "spec"),
    seed=0,
)

print("training done; mean shaped reward over updates:")
for role, log in logs.items():
    trail = ", ".join(f"{r.mean_reward:+.3f}" for r in log.records[-4:])
    print(f"  {role}: ... {trail}")

env = StrategicBiddingEnv(series, episode_len=len(series) - 24)
for role, net in ensemble.workers:
    ledger = run_policy_episode(env, greedy(net), start=24)
    print(f"{role:5s}: mean alpha {np.mean(ledger.alpha):.3f}  "
          f"(frozen: {net.frozen}, params {net.param_hash()[:12]})")
print("\nThe safe worker locks capacity into the day-ahead market; the "
      "speculator withholds it for real time even though RT pays less here, "
      "because its reward only credits RT-sourced profit.")

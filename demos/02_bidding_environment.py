"""Settlement mechanics of the two-settlement bidding environment.

Run:  python demos/02_bidding_environment.py
"""

import numpy as np

from marsbid import GeneratorSpec, StrategicBiddingEnv, SyntheticConfig, generate_synthetic

series = generate_synthetic(SyntheticConfig(n_hours=400, seed=7))
env = StrategicBiddingEnv(series, spec=GeneratorSpec(), episode_len=168)

obs = env.reset(start=24)
print(f"observation dim {obs.size}: 24 lagged DA prices, 24h volatility, load "
      "forecast, unit state, time encodings")

# Sweep the allocation over one hour. Profit is linear in alpha with slope
# p_max * (lmp_da - lmp_rt): positive spread favors the day-ahead market.
i = env.tape.start
lmp_da, lmp_rt = series.fields["lmp_da"][i], series.fields["lmp_rt"][i]
print(f"\nhour {series.timestamps[i]}: lmp_da {lmp_da:.2f}, lmp_rt {lmp_rt:.2f}, "
      f"spread {lmp_da - lmp_rt:+.2f}")
print(f"{'a_raw':>6} {'alpha':>6} {'profit':>10}")
for a_raw in (-1.0, -0.5, 0.0, 0.5, 1.0):
    probe = StrategicBiddingEnv(series, episode_len=168)
    probe.reset(start=24)
    _, settled, _ = probe.step(a_raw)
    print(f"{a_raw:+6.1f} {settled.alpha:6.2f} {settled.profit:10.2f}")

# Roll a full week at a fixed split and check the accounting identity:
# profit == revenue_da + revenue_rt - marginal cost - startup - penalties.
env.reset(start=24)
total = np.zeros(5)
profits = []
for _ in range(168):
    _, c, _ = env.step(0.2)
    total += (c.revenue_da, c.revenue_rt, c.cost_marginal, c.cost_startup, c.penalty)
    profits.append(c.profit)
labels = ("revenue_da", "revenue_rt", "cost_marginal", "cost_startup", "penalty")
print("\nweek at alpha=0.6:")
for name, value in zip(labels, total):
    print(f"  {name:14s} {value:12.2f}")
print(f"  {'profit':14s} {sum(profits):12.2f}  (decomposes exactly: "
      f"{abs(sum(profits) - (total[0] + total[1] - total[2] - total[3] - total[4])) < 1e-6})")

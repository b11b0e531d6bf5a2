"""Role rewards, the concave meta utility, and tail-penalty shaping.

Run:  python demos/03_reward_shaping.py
"""

import numpy as np

from marsbid import (
    CvarRewardShaper,
    ShapingParams,
    reward_meta,
    reward_neutral,
    reward_safe,
    reward_spec,
    settle,
)
from marsbid.bidding_env import OBS_HISTORY_HOURS
from marsbid.cli import load_series, make_env
from marsbid.config import build_config

p = ShapingParams()

# The safe agent is paid only for the day-ahead share of profit and fined
# for real-time exposure; the speculator is the mirror image. Their sum is
# always profit minus the role fine, whatever the allocation. Every reward
# is elementwise, so one call shapes a whole column of allocations.
print("profit 1000 $, shaped by role:")
print(f"{'alpha':>6} {'safe':>9} {'spec':>9} {'neutral':>9} {'sum s+s':>9}")
alphas = np.linspace(0.0, 1.0, 5)
rs, rp, rn = (reward(1000.0, alphas, p) for reward in (reward_safe, reward_spec, reward_neutral))
for row in zip(alphas, rs, rp, rn, rs + rp):
    print("{:6.2f} {:9.1f} {:9.1f} {:9.1f} {:9.1f}".format(*row))

# The meta controller optimizes a concave utility: linear in profit, with a
# quadratic magnitude penalty. Its maximum sits at s_var^2 / (lambda *
# s_linear) = 2 $, which is what makes the controller prefer consistent
# small outcomes over jackpots.
print("\nconcave utility (argmax at 2 $):")
profits = np.array([-1000, -100, 0, 2, 100, 1000, 5000])
for pi, r in zip(profits, reward_meta(profits.astype(float), p)):
    bar = "#" * max(0, int(40 + r * 1.5))
    print(f"  pi {pi:6d} -> r_meta {r:10.3f} {bar}")

# At these default scales the peak lies far below an hour's profit on the
# default market: bidding all DA earns more than 2 $ in most hours, and in
# each of them the utility falls as profit rises. Profit is linear in the
# allocation, so all DA is one settlement over a split's contiguous pass.
cfg = build_config(environ={})
splits, load_scale = load_series(cfg)
peak = p.s_var**2 / (p.lambda_risk * p.s_linear)
print(f"\nutility peak s_var^2 / (lambda_risk * s_linear) = {peak:g} $/h; all-DA hours above it:")
for name in ("train", "test1"):
    env = make_env(cfg, splits[name], len(splits[name]) - OBS_HISTORY_HOURS, load_scale)
    profit = settle(1.0, *env.episode(env.min_start).dispatch).profit
    print(f"  {name:6s} {np.mean(profit > peak):.4f} of {len(profit)} hours")

# CVaR-style shaping fines only outcomes below the rolling left-tail
# quantile of recent profits. The shaper keeps that window across calls, so
# each profit below is shaped by a fresh shaper fed the same history first.
rng = np.random.default_rng(0)
history = rng.normal(100, 50, 200)
print("\ntail shaping against a N(100, 50) profit history:")
for pi in (150.0, 50.0, 0.0, -100.0, -500.0):
    shaper = CvarRewardShaper(p)
    shaper(history, None)
    print(f"  pi {pi:7.1f} -> shaped {shaper(pi, None):9.1f}")

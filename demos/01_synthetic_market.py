"""Build a two-regime synthetic market, damage it, repair it, round-trip it.

Run:  python demos/01_synthetic_market.py
"""

import os
import tempfile

import numpy as np

from marsbid import (
    MarketSeries,
    SyntheticConfig,
    generate_synthetic,
    ingest_csv,
    repair_gaps,
    write_csv,
)

# One quarter of hourly data. The regime chain switches between a calm and a
# volatile state with a ~3-day mean dwell; the volatile state has a higher
# mean price and much fatter noise.
cfg = SyntheticConfig(n_hours=2160, seed=42)
series = generate_synthetic(cfg)

da = series.fields["lmp_da"]
rt = series.fields["lmp_rt"]
volatile = series.regimes == 1
print(f"{len(series)} hours, volatile fraction {volatile.mean():.2f}")
print(f"calm     hours: DA mean {da[~volatile].mean():6.2f}  std {da[~volatile].std():6.2f}")
print(f"volatile hours: DA mean {da[volatile].mean():6.2f}  std {da[volatile].std():6.2f}")
print(f"RT-DA spread: mean {np.mean(rt - da):+.3f}, std {np.std(rt - da):.2f}")

# Knock holes in the data the way real feeds do: a short outage that linear
# interpolation can bridge, and a long one that needs the hour-of-week
# seasonal average.
damaged = {k: v.copy() for k, v in series.fields.items()}
damaged["lmp_da"][100:102] = np.nan  # 2h outage
damaged["lmp_da"][500:530] = np.nan  # 30h outage
broken = MarketSeries(
    timestamps=series.timestamps.copy(), fields=damaged, provenance="synthetic"
)
repaired = repair_gaps(broken)
n_filled = int(repaired.fill_mask["lmp_da"].sum())
print(f"\nrepaired {n_filled} hours; short gap bridged to "
      f"{repaired.fields['lmp_da'][100]:.2f}, {repaired.fields['lmp_da'][101]:.2f}")
again = repair_gaps(repaired)
print("idempotent repair:", np.array_equal(repaired.fields["lmp_da"], again.fields["lmp_da"]))

# The CSV emitter uses round-trip float formatting, so write -> ingest ->
# write reproduces the file byte for byte.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_market.csv")
    write_csv(series, path)
    back = ingest_csv(path)
print("csv round trip exact:", all(
    np.array_equal(back.fields[k], series.fields[k]) for k in series.fields
))

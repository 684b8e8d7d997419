"""One cold set-up, run in a fresh interpreter by run.py.

Brings the program ready to optimise a workload: import, load the network
and forecast, build the schedule evaluator and make the first power-flow
solve (which builds the per-network sweep model).  Prints the stage times
as one JSON line.

Usage: python3 bench/setup_probe.py <study config json>
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import dnems  # noqa: E402,F401

t_import = time.perf_counter()

from dnems.objectives import DecisionVector, ScheduleEvaluator, decision_bounds  # noqa: E402
from dnems.study import StudyConfig  # noqa: E402
from dnems.network import builtin_ieee69, load_network  # noqa: E402
from dnems.scenarios import default_forecast, deterministic_set, load_forecast  # noqa: E402

cfg = StudyConfig.from_json(sys.argv[1])
net = builtin_ieee69() if cfg.network == "builtin" else load_network(cfg.network)
forecast = default_forecast() if cfg.forecast is None else load_forecast(cfg.forecast)
t_load = time.perf_counter()

evaluator = ScheduleEvaluator(net, weights=cfg.optimizer.penalty_weights, export_credit=cfg.export_credit)
lower, _ = decision_bounds(net)
x = DecisionVector.from_flat(lower, len(net.dgs), len(net.esss))
t_eval = time.perf_counter()
evaluator.evaluate(x, deterministic_set(forecast))
t_solve = time.perf_counter()

print(
    json.dumps(
        {
            "import_s": t_import - t0,
            "load_s": t_load - t_import,
            "evaluator_s": t_eval - t_load,
            "first_solve_s": t_solve - t_eval,
            "n_bus": net.n_bus,
        }
    )
)

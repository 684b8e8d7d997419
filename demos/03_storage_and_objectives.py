"""Evaluating a day-ahead schedule: storage dynamics, operating cost,
energy-not-supplied, and the role of the constraint penalty."""

import numpy as np

from dnems import ScheduleEvaluator, builtin_ieee69, default_forecast, ess_trajectory
from dnems.objectives import DecisionVector
from dnems.scenarios import deterministic_set

net = builtin_ieee69()
forecast = default_forecast()
scenario = deterministic_set(forecast)
n_dg, n_ess = len(net.dgs), len(net.esss)
evaluator = ScheduleEvaluator(net)

# a hand-built schedule: DGs follow the price peaks, storage buys low / sells high
price = forecast.price
dg = np.where(price > 0.08, 400.0, 0.0) * np.ones((n_dg, 1))
cheap = np.argsort(price)[:6]
dear = np.argsort(price)[-6:]
ess = np.zeros((n_ess, 24))
ess[:, cheap] = 250.0   # charge in the cheap hours (stays under the 3 MWh cap)
ess[:, dear] = -300.0   # discharge into the evening peak
x = DecisionVector(dg_power=dg, ess_power=ess)

traj = ess_trajectory(x, net.esss)
print("storage level through the day (kWh):")
print("  " + " ".join(f"{e:5.0f}" for e in traj.energy[0]))
print(f"feasible: {traj.feasible}")

bd = evaluator.breakdown(x, scenario)
print(f"\ndaily cost: ${bd.cost_s:,.2f}  (grid ${bd.grid_cost.sum():,.2f}, "
      f"DG ${bd.dg_cost.sum():,.2f})")
print(f"energy not supplied: {bd.ens_s:,.0f} kWh/yr")
print(f"penalty: {bd.penalty:.3g}  converged hours: {bd.converged_hours}/24")

idle = DecisionVector(np.zeros((n_dg, 24)), np.zeros((n_ess, 24)))
bd0 = evaluator.breakdown(idle, scenario)
print(f"\ndo-nothing schedule: ${bd0.cost_s:,.2f}/day and {bd0.ens_s:,.0f} kWh/yr")
print(f"the crafted schedule saves ${bd0.cost_s - bd.cost_s:,.2f}/day "
      f"and {bd0.ens_s - bd.ens_s:,.0f} kWh/yr")

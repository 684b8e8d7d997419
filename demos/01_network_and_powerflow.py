"""Feeder model and radial power flow on the built-in 69-bus system.

Loads the packaged test network, inspects its devices, runs the base-case
power flow, and shows what happens to the voltage profile when the PV
arrays inject at full output.
"""

import numpy as np

from dnems import builtin_ieee69, check_limits, radial_order, solve_batch

net = builtin_ieee69()
print(f"{net.n_bus} buses, {len(net.branches)} branches, "
      f"{len(net.dgs)} DGs, {len(net.pvs)} PV arrays, {len(net.esss)} storage units")
print(f"total demand: {sum(b.p_load for b in net.buses):.0f} kW / "
      f"{sum(b.q_load for b in net.buses):.0f} kvar")

order = radial_order(net)
deepest = max(net.buses, key=lambda b: len(order.path(b.id)))
print(f"deepest bus: #{deepest.id}, {len(order.path(deepest.id))} branches from the substation")

# base case: every bus draws its nominal load, no devices running
p = np.array([-b.p_load for b in net.buses])
q = np.array([-b.q_load for b in net.buses])
sol = solve_batch(net, p, q)
print(f"\nbase case: loss {sol.p_loss:.1f} kW, "
      f"min voltage {sol.v.min():.4f} pu at bus {int(np.argmin(sol.v)) + 1}, "
      f"import {sol.p_slack:.0f} kW ({sol.iterations} sweeps)")

report = check_limits(sol, net)
print(f"limit violations: {'none' if report.is_empty else 'yes'}")

# noon snapshot: all three PV arrays at full output
p_noon = p.copy()
for pv in net.pvs:
    p_noon[pv.bus - 1] += pv.capacity
sol_noon = solve_batch(net, p_noon, q)
print(f"\nwith 4.5 MW of PV: loss {sol_noon.p_loss:.1f} kW, "
      f"min voltage {sol_noon.v.min():.4f} pu, import {sol_noon.p_slack:.0f} kW")
print("local generation flattens the voltage profile and cuts the feeder import")

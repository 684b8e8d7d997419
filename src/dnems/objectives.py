"""Schedule evaluation: operation cost, energy-not-supplied, storage dynamics,
constraint penalties, and the long-horizon cost-profit analysis.

A candidate schedule fixes hourly DG setpoints and signed storage powers for
one day; it is evaluated against a scenario (or probability-weighted scenario
set) by running one radial power flow per hour.  All scenario-hours of one
candidate are solved in a single batched call, which is what makes population
search over hundreds of scenarios affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, radial_order
from .powerflow import BatchPowerFlow, check_limits, solve_batch
from .scenarios import HOURS, Scenario, ScenarioSet

__all__ = [
    "DecisionVector",
    "EssTrajectory",
    "EvaluationBreakdown",
    "ObjectiveVector",
    "ProfitReport",
    "ScenarioOutcomes",
    "DEFAULT_PENALTY_WEIGHTS",
    "decision_bounds",
    "ess_trajectory",
    "ScheduleEvaluator",
    "merge_penalty_weights",
    "penalty",
    "profit_analysis",
]

DEFAULT_PENALTY_WEIGHTS = {
    "voltage": 1e6,
    "flow": 1e6,
    "energy": 1e6,
    "rate": 1e6,
    "convergence": 1e6,
}


@dataclass(frozen=True)
class DecisionVector:
    """One day of setpoints: DG active powers and signed storage powers
    (positive = charging, negative = discharging), kW."""

    dg_power: np.ndarray  # (n_dg, 24)
    ess_power: np.ndarray  # (n_ess, 24)

    def __post_init__(self):
        object.__setattr__(self, "dg_power", np.atleast_2d(np.asarray(self.dg_power, float)))
        object.__setattr__(self, "ess_power", np.atleast_2d(np.asarray(self.ess_power, float)))

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.dg_power.ravel(), self.ess_power.ravel()])

    @classmethod
    def from_flat(cls, vec, n_dg: int, n_ess: int) -> "DecisionVector":
        vec = np.asarray(vec, dtype=float)
        split = n_dg * HOURS
        return cls(
            dg_power=vec[:split].reshape(n_dg, HOURS) if n_dg else np.zeros((0, HOURS)),
            ess_power=vec[split:].reshape(n_ess, HOURS) if n_ess else np.zeros((0, HOURS)),
        )


def decision_bounds(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds of the flattened decision vector for a network."""
    lower, upper = [], []
    for dg in net.dgs:
        lower += [dg.p_min] * HOURS
        upper += [dg.p_max] * HOURS
    for ess in net.esss:
        lower += [-ess.p_discharge_max] * HOURS
        upper += [ess.p_charge_max] * HOURS
    return np.array(lower), np.array(upper)


@dataclass(frozen=True)
class ObjectiveVector:
    f1: float  # expected operation cost, $/day
    f2: float  # expected energy not supplied, kWh/yr
    penalty: float = 0.0


@dataclass(frozen=True)
class EssTrajectory:
    energy: np.ndarray  # (n_ess, 25); column 0 is the initial level, kWh
    feasible: bool
    violations: np.ndarray  # (n_ess, 24) kWh overshoot outside the energy band


def ess_trajectory(x: DecisionVector, specs) -> EssTrajectory:
    """Roll the storage energy balance forward hour by hour.

    Charging adds power scaled by the charge efficiency; discharging removes
    the delivered energy divided by the discharge efficiency.  Hours where the
    stored energy leaves [w_min, w_max] are flagged with their overshoot; an
    infeasible trajectory is data for the penalty, not an error.
    """
    specs = list(specs)
    n = len(specs)
    if x.ess_power.shape != (n, HOURS):
        raise ValueError(f"ess_power shape {x.ess_power.shape} does not match {n} storage units")
    charge = np.maximum(x.ess_power, 0.0)
    discharge = np.maximum(-x.ess_power, 0.0)
    eff_c = np.array([s.eff_charge for s in specs])
    eff_d = np.array([s.eff_discharge for s in specs])
    delta = eff_c[:, None] * charge - discharge / eff_d[:, None]  # dt = 1 h
    energy = np.empty((n, HOURS + 1))
    energy[:, 0] = [s.w_initial for s in specs]
    for t in range(HOURS):  # sequential so the recurrence holds bit-for-bit
        energy[:, t + 1] = energy[:, t] + delta[:, t]
    w_min = np.array([s.w_min for s in specs])[:, None]
    w_max = np.array([s.w_max for s in specs])[:, None]
    viol = np.maximum(0.0, energy[:, 1:] - w_max) + np.maximum(0.0, w_min - energy[:, 1:])
    return EssTrajectory(energy=energy, feasible=not np.any(viol > 0), violations=viol)


def merge_penalty_weights(weights: dict | None = None) -> dict:
    """``DEFAULT_PENALTY_WEIGHTS`` updated by ``weights``.

    Raises ValueError for a constraint class the evaluator does not know and
    for a weight that is not >= 0.
    """
    merged = dict(DEFAULT_PENALTY_WEIGHTS)
    for name, value in dict(weights or {}).items():
        if name not in merged:
            raise ValueError(f"unknown penalty weight {name!r}; expected one of {sorted(merged)}")
        if not value >= 0:
            raise ValueError(f"penalty weight {name!r} must be >= 0, got {value!r}")
        merged[name] = value
    return merged


def penalty(violations: dict, weights: dict | None = None) -> float:
    """Weighted sum of squared normalized constraint overshoots.

    ``violations`` maps a class name to its (already normalized) overshoot
    values; zero iff every overshoot is zero.
    """
    weights = DEFAULT_PENALTY_WEIGHTS if weights is None else weights
    total = 0.0
    for name, values in violations.items():
        w = weights.get(name, 0.0)
        if w < 0:
            raise ValueError(f"negative penalty weight for {name!r}")
        arr = np.asarray(values, dtype=float)
        total += w * float((arr**2).sum())
    return total


@dataclass(frozen=True)
class EvaluationBreakdown:
    p_slack: np.ndarray  # (24,) kW drawn from the substation
    p_loss: np.ndarray  # (24,) kW
    pv_injection: np.ndarray  # (24,) kW
    dg_cost: np.ndarray  # (24,) $
    grid_cost: np.ndarray  # (24,) $
    pv_cost: np.ndarray  # (24,) $
    cost_s: float  # $/day
    ens_s: float  # kWh/yr
    penalty: float
    converged_hours: int


@dataclass(frozen=True)
class ScenarioOutcomes:
    """Per-scenario totals for one candidate across a scenario set."""

    cost: np.ndarray  # (n_s,) $/day
    ens: np.ndarray  # (n_s,) kWh/yr
    penalty: np.ndarray  # (n_s,)
    probabilities: np.ndarray  # (n_s,)


@dataclass(frozen=True)
class _Day:
    """Everything the evaluation kernel computes for one schedule and set."""

    sol: BatchPowerFlow  # columns ordered scenario by scenario, 24 hours each
    pv_out: np.ndarray  # (n_pv, n_s, 24) kW
    grid_cost: np.ndarray  # (n_s, 24) $
    dg_cost: np.ndarray  # (n_dg, 24) $
    pv_cost: np.ndarray  # (n_pv, n_s, 24) $
    outcomes: ScenarioOutcomes


class ScheduleEvaluator:
    """Precomputed per-network machinery for repeated schedule evaluations.

    ``weights`` overrides some or all of ``DEFAULT_PENALTY_WEIGHTS``.
    ``export_credit`` controls whether power pushed back into the grid is
    credited at the hourly price (default) or valued at zero.
    """

    def __init__(self, net: Network, weights: dict | None = None, export_credit: bool = True):
        self.net = net
        self.weights = merge_penalty_weights(weights)
        self.export_credit = export_credit

        self.p_load = np.array([b.p_load for b in net.buses])
        self.q_load = np.array([b.q_load for b in net.buses])
        self.dg_idx = np.array([net.bus_index(d.bus) for d in net.dgs], dtype=int)
        self.pv_idx = np.array([net.bus_index(p.bus) for p in net.pvs], dtype=int)
        self.ess_idx = np.array([net.bus_index(e.bus) for e in net.esss], dtype=int)
        self.dg_cost = np.array([d.marginal_cost for d in net.dgs])
        self.pv_capacity = np.array([p.capacity for p in net.pvs])
        self.pv_mcost = np.array([p.marginal_cost for p in net.pvs])
        self.s_max = np.array([br.s_max for br in net.branches])
        self.ess_w_max = np.array([e.w_max for e in net.esss])
        self.ess_rate_max = np.array(
            [[e.p_charge_max, e.p_discharge_max] for e in net.esss]
        ).reshape(-1, 2) if net.esss else np.zeros((0, 2))

        order = radial_order(net)
        times = np.array([br.at_repair + br.at_restoration for br in net.branches])
        self.path_time = np.array(
            [times[list(order.paths[b.id])].sum() for b in net.buses]
        )

    def _check_dims(self, x: DecisionVector) -> None:
        if x.dg_power.shape != (len(self.dg_idx), HOURS):
            raise ValueError(
                f"dg_power shape {x.dg_power.shape} does not match network ({len(self.dg_idx)} DGs)"
            )
        if x.ess_power.shape != (len(self.ess_idx), HOURS):
            raise ValueError(
                f"ess_power shape {x.ess_power.shape} does not match network ({len(self.ess_idx)} ESSs)"
            )

    def _injections(self, x: DecisionVector, load_f: np.ndarray, pv_f: np.ndarray):
        """Bus injection tensors (n_bus, n_s, 24) for scenario factor matrices."""
        p = -self.p_load[:, None, None] * load_f[None, :, :]
        q = -self.q_load[:, None, None] * load_f[None, :, :]
        pv_out = self.pv_capacity[:, None, None] * pv_f[None, :, :]  # (n_pv, n_s, 24)
        for i, b in enumerate(self.pv_idx):
            p[b] += pv_out[i]
        for j, b in enumerate(self.dg_idx):
            p[b] += x.dg_power[j][None, :]
        for k, b in enumerate(self.ess_idx):
            p[b] -= x.ess_power[k][None, :]
        return p, q, pv_out

    def _day(self, x: DecisionVector, sset: ScenarioSet) -> _Day:
        """The evaluation kernel: every scenario-hour of ``sset`` in one
        power-flow call, then hourly costs and per-scenario totals."""
        self._check_dims(x)
        scen = sset.scenarios
        load_f = np.stack([s.load_factor for s in scen])
        pv_f = np.stack([s.pv_factor for s in scen])
        price = np.stack([s.price for s in scen])
        n_s = len(scen)

        p, q, pv_out = self._injections(x, load_f, pv_f)
        flat_p = p.reshape(self.net.n_bus, n_s * HOURS)
        flat_q = q.reshape(self.net.n_bus, n_s * HOURS)
        sol = solve_batch(self.net, flat_p, flat_q)

        p_slack = sol.p_slack.reshape(n_s, HOURS)
        billed = p_slack if self.export_credit else np.maximum(p_slack, 0.0)
        grid_cost = price * billed
        dg_cost = self.dg_cost[:, None] * x.dg_power
        pv_cost = self.pv_mcost[:, None, None] * pv_out
        cost = grid_cost.sum(axis=1) + float(dg_cost.sum()) + pv_cost.sum(axis=(0, 2))

        # constraint overshoots, normalized before squaring
        over = check_limits(sol, self.net)
        v_over = over.voltage_overshoot_pu.reshape(self.net.n_bus, n_s, HOURS)
        f_over = over.flow_overshoot_kva.reshape(-1, n_s, HOURS) / self.s_max[:, None, None]
        nonconv = (~sol.converged.reshape(n_s, HOURS)).sum(axis=1)

        traj = ess_trajectory(x, self.net.esss)
        if len(self.net.esss):
            e_over = traj.violations / self.ess_w_max[:, None]
            charge_over = np.maximum(0.0, x.ess_power - self.ess_rate_max[:, [0]])
            discharge_over = np.maximum(0.0, -x.ess_power - self.ess_rate_max[:, [1]])
            r_over = charge_over / self.ess_rate_max[:, [0]] + discharge_over / self.ess_rate_max[:, [1]]
            static_pen = penalty({"energy": e_over, "rate": r_over}, self.weights)
        else:
            static_pen = 0.0

        w = self.weights
        pen = (
            w["voltage"] * (v_over**2).sum(axis=(0, 2))
            + w["flow"] * (f_over**2).sum(axis=(0, 2))
            + w["convergence"] * nonconv.astype(float)
            + static_pen
        )

        ens = self._ens(x, load_f, pv_f)
        outcomes = ScenarioOutcomes(cost=cost, ens=ens, penalty=pen, probabilities=sset.probabilities)
        return _Day(sol, pv_out, grid_cost, dg_cost, pv_cost, outcomes)

    def _ens(self, x: DecisionVector, load_f: np.ndarray, pv_f: np.ndarray) -> np.ndarray:
        """Energy not supplied per scenario: each bus's mean unserved load,
        weighted by the repair plus restoration hours along its feed path.

        Local generation and storage discharge offset a bus's load hour by
        hour; surplus hours do not bank credit against deficit hours, so the
        unserved level responds to when devices run, not just how much.
        """
        net_load = self.p_load[:, None, None] * load_f[None, :, :]
        for i, b in enumerate(self.pv_idx):
            net_load[b] -= self.pv_capacity[i] * pv_f
        for j, b in enumerate(self.dg_idx):
            net_load[b] -= x.dg_power[j][None, :]
        for k, b in enumerate(self.ess_idx):
            net_load[b] -= np.maximum(0.0, -x.ess_power[k])[None, :]
        unserved = np.maximum(0.0, net_load).mean(axis=2)  # (n_bus, n_s)
        return (self.path_time[:, None] * unserved).sum(axis=0)

    def per_scenario(self, x: DecisionVector, sset: ScenarioSet) -> ScenarioOutcomes:
        """Cost, ENS and penalty of a schedule under each scenario of a set."""
        return self._day(x, sset).outcomes

    def evaluate(self, x: DecisionVector, sset: ScenarioSet) -> ObjectiveVector:
        """Probability-weighted cost, ENS, and penalty of a schedule over a set."""
        out = self.per_scenario(x, sset)
        psi = out.probabilities
        return ObjectiveVector(
            f1=float(psi @ out.cost),
            f2=float(psi @ out.ens),
            penalty=float(psi @ out.penalty),
        )

    def breakdown(self, x: DecisionVector, s: Scenario) -> EvaluationBreakdown:
        """Full hourly breakdown of one schedule under one scenario."""
        day = self._day(x, ScenarioSet((Scenario(s.load_factor, s.pv_factor, s.price, 1.0),)))
        out = day.outcomes
        return EvaluationBreakdown(
            p_slack=day.sol.p_slack,
            p_loss=day.sol.p_loss,
            pv_injection=day.pv_out[:, 0, :].sum(axis=0),
            dg_cost=day.dg_cost.sum(axis=0),
            grid_cost=day.grid_cost[0],
            pv_cost=day.pv_cost[:, 0, :].sum(axis=0),
            cost_s=float(out.cost[0]),
            ens_s=float(out.ens[0]),
            penalty=float(out.penalty[0]),
            converged_hours=int(day.sol.converged.sum()),
        )


@dataclass(frozen=True)
class ProfitReport:
    c_npv: float
    investment: float
    annual_delta_toc: float  # $/yr
    cumulative: np.ndarray  # ($,) per year, length = horizon
    payback_year: int | None
    net_profit: float  # $ at the end of the horizon

    def to_dict(self) -> dict:
        return {
            "c_npv": self.c_npv,
            "investment": self.investment,
            "annual_delta_toc": self.annual_delta_toc,
            "cumulative": self.cumulative.tolist(),
            "payback_year": self.payback_year,
            "net_profit": self.net_profit,
        }


# Capital-cost context for the built-in study: PV $2,000/kW, ESS $100/kW with
# four purchases over the horizon, converters "$400" (recorded verbatim; the
# source gives no unit).  The headline figure below is the total.
DEFAULT_INVESTMENT = 9_751_200.0
DEFAULT_C_NPV = 1.07
CONVERTER_COST_RAW = 400.0


def profit_analysis(
    toc_old: float,
    toc_new: float,
    investment: float = DEFAULT_INVESTMENT,
    years: int = 20,
    c_npv: float = DEFAULT_C_NPV,
) -> ProfitReport:
    """Cumulative profit of the PV+storage retrofit against its investment.

    The expected daily operating saving (old minus new) is scaled by the net
    present value coefficient and 365 days to a yearly figure; payback is the
    first year the cumulative saving covers the investment.
    """
    if years < 1:
        raise ValueError("years must be >= 1")
    annual = c_npv * 365.0 * (toc_old - toc_new)
    cumulative = annual * np.arange(1, years + 1)
    above = np.flatnonzero(cumulative >= investment)
    payback = int(above[0]) + 1 if above.size else None
    return ProfitReport(
        c_npv=c_npv,
        investment=investment,
        annual_delta_toc=annual,
        cumulative=cumulative,
        payback_year=payback,
        net_profit=float(cumulative[-1] - investment),
    )

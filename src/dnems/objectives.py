"""Schedule evaluation: operation cost, energy-not-supplied, storage dynamics,
constraint penalties, and the long-horizon cost-profit analysis.

A candidate schedule fixes hourly DG setpoints and signed storage powers for
one day; it is evaluated against a scenario (or probability-weighted scenario
set) by running one radial power flow per hour.  A whole population of
candidates is evaluated as one block: the columns of as many candidates as
fit a fixed size are solved in a single batched call.

A candidate's columns are the set's distinct grid states, not its
scenario-hours.  The power flow of an hour sees only the hour (through the
schedule) and its load and PV factors, never the price, and binned forecast
errors repeat, so a reduced set of 120 scenarios holds some 370 states for
its 2,880 scenario-hours.  Column results are gathered back to
scenario-hours before any sum, so every total is the same bits as when each
scenario-hour has a column of its own.  This is what makes population search
over hundreds of scenarios affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, radial_order
from .powerflow import check_limits, solve_batch
from .scenarios import HOURS, Scenario, ScenarioArrays, ScenarioSet

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
    "profit_analysis",
]

DEFAULT_PENALTY_WEIGHTS = {
    "voltage": 1e6,
    "flow": 1e6,
    "energy": 1e6,
    "rate": 1e6,
    "convergence": 1e6,
}

# Bus x columns per power-flow call.  A block of candidates is solved in as
# few calls as this allows, never splitting one candidate's scenario-hours;
# it bounds the working memory of a call, not the results.
_CALL_BUS_COLUMNS = 2**15


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
    energy, viol = _energy_balance(x.ess_power, specs)
    return EssTrajectory(energy=energy, feasible=not np.any(viol > 0), violations=viol)


def _energy_balance(ess_power: np.ndarray, specs) -> tuple[np.ndarray, np.ndarray]:
    """Stored energy (..., n_ess, 25) and band overshoots (..., n_ess, 24) of
    signed storage powers (..., n_ess, 24); leading axes index candidates."""
    charge = np.maximum(ess_power, 0.0)
    discharge = np.maximum(-ess_power, 0.0)
    eff_c = np.array([s.eff_charge for s in specs])
    eff_d = np.array([s.eff_discharge for s in specs])
    delta = eff_c[:, None] * charge - discharge / eff_d[:, None]  # dt = 1 h
    energy = np.empty(ess_power.shape[:-1] + (HOURS + 1,))
    energy[..., 0] = [s.w_initial for s in specs]
    for t in range(HOURS):  # sequential so the recurrence holds bit-for-bit
        energy[..., t + 1] = energy[..., t] + delta[..., t]
    w_min = np.array([s.w_min for s in specs])[:, None]
    w_max = np.array([s.w_max for s in specs])[:, None]
    viol = np.maximum(0.0, energy[..., 1:] - w_max) + np.maximum(0.0, w_min - energy[..., 1:])
    return energy, viol


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
    """Per-scenario totals across a scenario set: (n_s,) arrays for one
    candidate, (k, n_s) arrays for a block of k candidates."""

    cost: np.ndarray  # $/day
    ens: np.ndarray  # kWh/yr
    penalty: np.ndarray
    probabilities: np.ndarray  # (n_s,)


@dataclass(frozen=True)
class _Day:
    """Everything the evaluation kernel computes for a block of k schedules
    and one scenario set."""

    p_slack: np.ndarray  # (k, n_s, 24) kW
    p_loss: np.ndarray  # (k, n_s, 24) kW
    converged: np.ndarray  # (k, n_s, 24) bool
    pv_out: np.ndarray  # (n_pv, n_s, 24) kW
    grid_cost: np.ndarray  # (k, n_s, 24) $
    dg_cost: np.ndarray  # (k, n_dg, 24) $
    pv_cost: np.ndarray  # (n_pv, n_s, 24) $
    outcomes: ScenarioOutcomes  # (k, n_s) arrays


class ScheduleEvaluator:
    """Precomputed per-network machinery for repeated schedule evaluations.

    ``weights`` overrides some or all of ``DEFAULT_PENALTY_WEIGHTS``.
    ``export_credit`` controls whether power pushed back into the grid is
    credited at the hourly price (default) or valued at zero.

    ``evaluate`` and ``per_scenario`` take either one ``DecisionVector`` or a
    block: a (k, d) array whose rows are flattened decision vectors
    (``DecisionVector.flatten`` order).  Both go through the same kernel, and
    a candidate's results do not depend on the block it is evaluated in.

    ``breakdown`` of one scenario and ``per_scenario`` of a set holding it
    agree exactly on cost, and within a relative 1e-12 on ENS and penalty:
    those two sum over buses in an order that numpy picks from the array
    shape, so they can differ in the last bits.
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

    def _block(self, x) -> tuple[np.ndarray, np.ndarray]:
        """DG setpoints (k, n_dg, 24) and storage powers (k, n_ess, 24) of a
        DecisionVector (k = 1) or of a (k, d) block of flat decision vectors."""
        n_dg, n_ess = len(self.dg_idx), len(self.ess_idx)
        if isinstance(x, DecisionVector):
            if x.dg_power.shape != (n_dg, HOURS):
                raise ValueError(f"dg_power shape {x.dg_power.shape} does not match network ({n_dg} DGs)")
            if x.ess_power.shape != (n_ess, HOURS):
                raise ValueError(f"ess_power shape {x.ess_power.shape} does not match network ({n_ess} ESSs)")
            return x.dg_power[None], x.ess_power[None]
        x = np.asarray(x, dtype=float)
        d = (n_dg + n_ess) * HOURS
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"block shape {x.shape} does not match network: need (k, {d})")
        k, split = len(x), n_dg * HOURS
        return x[:, :split].reshape(k, n_dg, HOURS), x[:, split:].reshape(k, n_ess, HOURS)

    def _day(self, dg: np.ndarray, ess: np.ndarray, sset: ScenarioSet) -> _Day:
        """The evaluation kernel: the grid states of a block of candidates in
        as few power-flow calls as ``_CALL_BUS_COLUMNS`` allows, then hourly
        costs and per-candidate, per-scenario totals."""
        arr = sset.arrays
        k = len(dg)
        w = self.weights

        pv_out = self.pv_capacity[:, None, None] * arr.pv_factor[None, :, :]  # (n_pv, n_s, 24)
        pv_cost = self.pv_mcost[:, None, None] * pv_out
        pv_cost_s = pv_cost.sum(axis=(0, 2))

        # storage energy band and rate overshoots, per candidate
        if len(self.ess_idx):
            _, viol = _energy_balance(ess, self.net.esss)
            e_over = viol / self.ess_w_max[:, None]
            charge_over = np.maximum(0.0, ess - self.ess_rate_max[:, [0]])
            discharge_over = np.maximum(0.0, -ess - self.ess_rate_max[:, [1]])
            r_over = charge_over / self.ess_rate_max[:, [0]] + discharge_over / self.ess_rate_max[:, [1]]
            static_pen = (
                w["energy"] * (e_over**2).reshape(k, -1).sum(axis=1)
                + w["rate"] * (r_over**2).reshape(k, -1).sum(axis=1)
            )
        else:
            static_pen = np.zeros(k)
        dg_cost = self.dg_cost[:, None] * dg  # (k, n_dg, 24)
        dg_cost_s = dg_cost.reshape(k, -1).sum(axis=1)

        # columns per candidate: the states, padded to a multiple of 4 by
        # repeating states, since the sweep's matrix product gives a column
        # the same bits at any position of a block only at such widths
        width = -(-len(arr.state_hour) // 4) * 4
        per_call = max(1, _CALL_BUS_COLUMNS // (self.net.n_bus * width))
        parts = [
            self._network(dg[a : a + per_call], ess[a : a + per_call], arr, width)
            for a in range(0, k, per_call)
        ]
        p_slack, p_loss, converged, pen, ens = (np.concatenate(arrs) for arrs in zip(*parts))
        pen = pen + static_pen[:, None]
        billed = p_slack if self.export_credit else np.maximum(p_slack, 0.0)
        grid_cost = arr.price * billed
        cost = grid_cost.sum(axis=2) + dg_cost_s[:, None] + pv_cost_s
        outcomes = ScenarioOutcomes(cost=cost, ens=ens, penalty=pen, probabilities=sset.probabilities)
        return _Day(
            p_slack=p_slack,
            p_loss=p_loss,
            converged=converged,
            pv_out=pv_out,
            grid_cost=grid_cost,
            dg_cost=dg_cost,
            pv_cost=pv_cost,
            outcomes=outcomes,
        )

    def _network(self, dg: np.ndarray, ess: np.ndarray, arr: ScenarioArrays, width: int):
        """One power-flow call for c candidates over ``width`` columns each
        (the set's grid states, cyclically padded): slack power, losses and
        convergence per scenario-hour (c, n_s, 24), and the (c, n_s) network
        penalty (voltage, flow, convergence) and ENS.

        Column results are gathered back to scenario-hours before any sum, so
        every total runs over the same values in the same order as if each
        scenario-hour had been solved in its own column."""
        n_bus, c, (n_s, _) = self.net.n_bus, len(dg), arr.load_factor.shape
        w = self.weights
        hour, load_f, pv_f = (np.resize(a, width) for a in (arr.state_hour, arr.state_load, arr.state_pv))
        # injections (n_bus, c, width): columns ordered candidate, state
        p = np.empty((n_bus, c, width))
        q = np.empty((n_bus, c, width))
        np.multiply(-self.p_load[:, None, None], load_f, out=p)
        np.multiply(-self.q_load[:, None, None], load_f, out=q)
        for i, b in enumerate(self.pv_idx):
            p[b] += self.pv_capacity[i] * pv_f
        for j, b in enumerate(self.dg_idx):
            p[b] += dg[:, j, hour]
        for j, b in enumerate(self.ess_idx):
            p[b] -= ess[:, j, hour]
        sol = solve_batch(self.net, p, q)

        # constraint overshoots, normalized before squaring, as contiguous
        # (c, rows, n_s, 24) arrays: each candidate's sums then run in the
        # same order as for a block of one
        def hours(a):  # (rows, c, width) -> (c, rows, n_s, 24)
            return _scenario_hours(a.swapaxes(0, 1), arr.state_of, n_s)

        over = check_limits(sol, self.net)
        v_sq = hours(over.voltage_overshoot_pu**2)
        f_sq = hours((over.flow_overshoot_kva / self.s_max[:, None, None]) ** 2)
        p_slack, p_loss, converged = (
            _scenario_hours(a, arr.state_of, n_s) for a in (sol.p_slack, sol.p_loss, sol.converged)
        )
        pen = (
            w["voltage"] * v_sq.sum(axis=(1, 3))
            + w["flow"] * f_sq.sum(axis=(1, 3))
            + w["convergence"] * (~converged).sum(axis=2).astype(float)
        )
        return p_slack, p_loss, converged, pen, self._ens(dg, ess, arr)

    def _ens(self, dg: np.ndarray, ess: np.ndarray, arr: ScenarioArrays) -> np.ndarray:
        """Energy not supplied (c, n_s) of c candidates: each bus's mean
        unserved load, weighted by the repair plus restoration hours along its
        feed path.

        Local generation and storage discharge offset a bus's load hour by
        hour; surplus hours do not bank credit against deficit hours, so the
        unserved level responds to when devices run, not just how much.
        """
        hour = arr.state_hour
        # unserved load per grid state, candidate-major (c, n_bus, u); the
        # hourly mean and the sum over buses then run on scenario-hours in the
        # same order as for a block of one
        net_load = np.empty((len(dg), self.net.n_bus, len(hour)))
        np.multiply(self.p_load[:, None], arr.state_load, out=net_load)
        for i, b in enumerate(self.pv_idx):
            net_load[:, b] -= self.pv_capacity[i] * arr.state_pv
        for j, b in enumerate(self.dg_idx):
            net_load[:, b] -= dg[:, j, hour]
        for j, b in enumerate(self.ess_idx):
            net_load[:, b] -= np.maximum(0.0, -ess[:, j, hour])
        unserved = _scenario_hours(np.maximum(0.0, net_load), arr.state_of, len(arr.load_factor))
        return (self.path_time[:, None] * unserved.mean(axis=3)).sum(axis=1)

    def per_scenario(self, x, sset: ScenarioSet) -> ScenarioOutcomes:
        """Cost, ENS and penalty of a schedule (or of each row of a block)
        under each scenario of a set."""
        out = self._day(*self._block(x), sset).outcomes
        if not isinstance(x, DecisionVector):
            return out
        return ScenarioOutcomes(out.cost[0], out.ens[0], out.penalty[0], out.probabilities)

    def evaluate(self, x, sset: ScenarioSet):
        """Probability-weighted cost, ENS, and penalty over a set: one
        ObjectiveVector for a DecisionVector, a list of k for a (k, d) block."""
        out = self.per_scenario(x, sset)
        psi = out.probabilities
        rows = zip(np.atleast_2d(out.cost), np.atleast_2d(out.ens), np.atleast_2d(out.penalty))
        fs = [ObjectiveVector(f1=float(psi @ c), f2=float(psi @ e), penalty=float(psi @ p)) for c, e, p in rows]
        return fs[0] if isinstance(x, DecisionVector) else fs

    def breakdown(self, x: DecisionVector, s: Scenario) -> EvaluationBreakdown:
        """Full hourly breakdown of one schedule under one scenario."""
        sset = ScenarioSet((Scenario(s.load_factor, s.pv_factor, s.price, 1.0),))
        day = self._day(*self._block(x), sset)
        out = day.outcomes
        return EvaluationBreakdown(
            p_slack=day.p_slack[0, 0],
            p_loss=day.p_loss[0, 0],
            pv_injection=day.pv_out[:, 0, :].sum(axis=0),
            dg_cost=day.dg_cost[0].sum(axis=0),
            grid_cost=day.grid_cost[0, 0],
            pv_cost=day.pv_cost[:, 0, :].sum(axis=0),
            cost_s=float(out.cost[0, 0]),
            ens_s=float(out.ens[0, 0]),
            penalty=float(out.penalty[0, 0]),
            converged_hours=int(day.converged.sum()),
        )


def _scenario_hours(a: np.ndarray, state_of: np.ndarray | None, n_s: int) -> np.ndarray:
    """Per-state values (..., u) as contiguous per-scenario-hour values
    (..., n_s, 24); padding columns, to which no scenario-hour maps, drop out."""
    a = np.ascontiguousarray(a if state_of is None else a.take(state_of, axis=-1))
    return a.reshape(a.shape[:-1] + (n_s, HOURS))


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

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
its 2,880 scenario-hours.  This is what makes population search over
hundreds of scenarios affordable.

Energy not supplied needs no power flow, but it is taken from the same
injections: a bus's net load before storage is its negated injection.  Every
sum over buses (ENS and the voltage and flow penalty) runs per grid state,
in bus order; the results are then gathered back to scenario-hours, and
only then summed over the 24 hours.  So a candidate's cost, ENS and penalty
have the same bits in any block, in any set and in a one-scenario
breakdown, as when each scenario-hour has a column of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._documents import number_problem
from .network import Network
from .powerflow import solve_batch
from .scenarios import HOURS, ScenarioSet

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

# Weights of the squared overshoots; a schedule outside the box is an error.
DEFAULT_PENALTY_WEIGHTS = {
    "voltage": 1e6,
    "flow": 1e6,
    "energy": 1e6,
    "convergence": 1e6,
}

# Bus x columns per power-flow call.  A block of candidates is solved in as
# few calls as this allows, never splitting one candidate's scenario-hours;
# it bounds the working memory of a call and of its ENS, not the results.
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
            dg_power=vec[:split].reshape(n_dg, HOURS),
            ess_power=vec[split:].reshape(n_ess, HOURS),
        )


def decision_bounds(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds of the flattened decision vector: each DG hour in [p_min,
    p_max], each storage hour in [-p_discharge_max, p_charge_max].  The search
    keeps to this box, and ``ScheduleEvaluator`` rejects a row outside it."""
    lower = [dg.p_min for dg in net.dgs] + [-ess.p_discharge_max for ess in net.esss]
    upper = [dg.p_max for dg in net.dgs] + [ess.p_charge_max for ess in net.esss]
    return np.repeat(np.array(lower, float), HOURS), np.repeat(np.array(upper, float), HOURS)


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
    # feasible only when every overshoot is exactly 0: a NaN power makes NaN overshoots
    return EssTrajectory(energy=energy, feasible=bool(np.all(viol == 0)), violations=viol)


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
    return energy, _overshoot(energy[..., 1:], w_min, w_max)


def _overshoot(value: np.ndarray, lo, hi) -> np.ndarray:
    """Distance of each ``value`` outside [lo, hi]; ``lo=None``: no lower end."""
    over = np.maximum(0.0, value - hi)
    if lo is not None:
        over += np.maximum(0.0, lo - value)
    return over


def merge_penalty_weights(weights: dict | None = None) -> dict:
    """``DEFAULT_PENALTY_WEIGHTS`` updated by ``weights``, each stored as a float.

    Raises ValueError for ``weights`` that are neither a dict nor None, for
    a constraint class the evaluator does not know and for a weight that is
    not a finite number >= 0: an infinite weight times a zero overshoot
    would be NaN.
    """
    if weights is not None and not isinstance(weights, dict):
        raise ValueError(f"penalty weights must be an object of weights by constraint class, got {weights!r}")
    merged = dict(DEFAULT_PENALTY_WEIGHTS)
    for name, value in (weights or {}).items():
        if name not in merged:
            raise ValueError(f"unknown penalty weight {name!r}; expected one of {sorted(merged)}")
        problem = number_problem(value)
        if problem:
            raise ValueError(f"penalty weight {name!r} {problem}")
        if value < 0:
            raise ValueError(f"penalty weight {name!r} must be >= 0, got {value!r}")
        merged[name] = float(value)
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
    Every entry point raises ValueError for a schedule, or a block row, with
    a value outside ``decision_bounds`` or a NaN, naming the row, the device,
    the hour, the value and the bounds.

    ``breakdown`` of one scenario and ``per_scenario`` of a set holding it
    agree exactly on cost, ENS and penalty.
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
        self.s_max = np.array([br.s_max for br in net.branches])[:, None, None]  # kVA, against (branch, c, u) flows
        self.ess_w_max = np.array([e.w_max for e in net.esss])
        self.lower, self.upper = decision_bounds(net)
        self.devices = [f"DG at bus {d.bus}" for d in net.dgs] + [f"ESS at bus {e.bus}" for e in net.esss]

        times = np.array([br.at_repair + br.at_restoration for br in net.branches])
        self.path_time = np.array([times[list(net.order.path(b.id))].sum() for b in net.buses])

    def _block(self, x) -> tuple[np.ndarray, np.ndarray]:
        """DG setpoints (k, n_dg, 24) and storage powers (k, n_ess, 24) of a
        DecisionVector (k = 1) or of a (k, d) block of flat decision vectors,
        each within ``decision_bounds``."""
        n_dg, n_ess = len(self.dg_idx), len(self.ess_idx)
        one = isinstance(x, DecisionVector)
        if one:
            if x.dg_power.shape != (n_dg, HOURS):
                raise ValueError(f"dg_power shape {x.dg_power.shape} does not match network ({n_dg} DGs)")
            if x.ess_power.shape != (n_ess, HOURS):
                raise ValueError(f"ess_power shape {x.ess_power.shape} does not match network ({n_ess} ESSs)")
        flat = x.flatten()[None] if one else np.asarray(x, dtype=float)
        if flat.ndim != 2 or flat.shape[1] != len(self.lower):
            raise ValueError(f"block shape {flat.shape} does not match network: need (k, {len(self.lower)})")
        outside = ~((flat >= self.lower) & (flat <= self.upper))  # NaN is outside
        if outside.any():
            row, col = np.argwhere(outside)[0]
            where = "" if one else f"block row {row}: "
            raise ValueError(
                f"{where}{self.devices[col // HOURS]}, hour {col % HOURS}: {flat[row, col]} "
                f"outside [{self.lower[col]}, {self.upper[col]}]"
            )
        k, split = len(flat), n_dg * HOURS
        return flat[:, :split].reshape(k, n_dg, HOURS), flat[:, split:].reshape(k, n_ess, HOURS)

    def _day(self, dg: np.ndarray, ess: np.ndarray, sset: ScenarioSet) -> _Day:
        """The evaluation kernel: the grid states of a block of candidates,
        with their ENS and network penalty, in as few power-flow calls as
        ``_CALL_BUS_COLUMNS`` allows, then hourly costs and per-candidate,
        per-scenario totals."""
        k = len(dg)
        pv_out = self.pv_capacity[:, None, None] * sset.pv_factor[None, :, :]  # (n_pv, n_s, 24)
        pv_cost = self.pv_mcost[:, None, None] * pv_out
        pv_cost_s = pv_cost.sum(axis=(0, 2))

        # storage energy band overshoots, per candidate (+0.0 without storage)
        _, viol = _energy_balance(ess, self.net.esss)
        e_over = viol / self.ess_w_max[:, None]
        static_pen = self.weights["energy"] * (e_over**2).reshape(k, -1).sum(axis=1)
        dg_cost = self.dg_cost[:, None] * dg  # (k, n_dg, 24)
        dg_cost_s = dg_cost.reshape(k, -1).sum(axis=1)

        per_call = max(1, _CALL_BUS_COLUMNS // (self.net.n_bus * len(sset.grid_states[0])))
        parts = [self._network(dg[a : a + per_call], ess[a : a + per_call], sset) for a in range(0, k, per_call)]
        p_slack, p_loss, converged, ens, pen = (np.concatenate(arrs) for arrs in zip(*parts))
        pen = pen + static_pen[:, None]
        billed = p_slack if self.export_credit else np.maximum(p_slack, 0.0)
        grid_cost = sset.price * billed
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

    def _network(self, dg: np.ndarray, ess: np.ndarray, sset: ScenarioSet):
        """One power-flow call for c candidates over the set's u grid states
        each: slack power, losses and convergence per scenario-hour
        (c, n_s, 24), and the (c, n_s) ENS and network penalty (voltage,
        flow, convergence).

        ENS is the hourly mean of each bus's unserved load, weighted by the
        repair plus restoration hours along its feed path.  Unserved load is
        the bus's load less its PV, DG and storage discharge, floored at zero
        hour by hour, so surplus hours bank no credit against deficit hours.
        ENS and the penalty sum over buses per grid state, in bus order, so
        a state's total does not depend on the other columns of the call."""
        n_bus, c, n_s = self.net.n_bus, len(dg), len(sset)
        w = self.weights
        hour, load_f, pv_f, state_of = sset.grid_states
        # injections (n_bus, c, u): columns ordered candidate, state
        p = np.empty((n_bus, c, len(hour)))
        q = np.empty((n_bus, c, len(hour)))
        np.multiply(-self.p_load[:, None, None], load_f, out=p)
        np.multiply(-self.q_load[:, None, None], load_f, out=q)
        for i, b in enumerate(self.pv_idx):
            p[b] += self.pv_capacity[i] * pv_f
        for j, b in enumerate(self.dg_idx):
            p[b] += dg[:, j, hour]
        unserved = -p  # net load before storage: negation is exact
        for j, b in enumerate(self.ess_idx):
            p[b] -= ess[:, j, hour]
            unserved[b] -= np.maximum(0.0, -ess[:, j, hour])
        sol = solve_batch(self.net, p, q)
        np.maximum(0.0, unserved, out=unserved)
        unserved *= self.path_time[:, None, None]
        ens = unserved.sum(axis=0)

        # an all-zero overshoot is skipped: its weighted sum would be +0.0
        # (weights are finite), and adding +0.0 changes no bit
        pen = np.where(sol.converged, 0.0, w["convergence"])
        v_over = _overshoot(sol.v, self.net.v_min, self.net.v_max)
        if v_over.any():
            pen += w["voltage"] * (v_over**2).sum(axis=0)
        s_over = _overshoot(sol.s_flow, None, self.s_max)
        if s_over.any():
            pen += w["flow"] * ((s_over / self.s_max) ** 2).sum(axis=0)
        p_slack, p_loss, converged, ens, pen = (
            _scenario_hours(a, state_of, n_s) for a in (sol.p_slack, sol.p_loss, sol.converged, ens, pen)
        )
        return p_slack, p_loss, converged, ens.mean(axis=2), pen.sum(axis=2)

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

    def breakdown(self, x: DecisionVector, sset: ScenarioSet) -> EvaluationBreakdown:
        """Full hourly breakdown of one schedule under a one-scenario set."""
        if len(sset) != 1:
            raise ValueError(f"breakdown takes a one-scenario set, got {len(sset)} scenarios")
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


def _scenario_hours(a: np.ndarray, state_of: np.ndarray, n_s: int) -> np.ndarray:
    """Per-state values (..., u) as contiguous per-scenario-hour values
    (..., n_s, 24), through the set's state of each scenario-hour."""
    return a.take(state_of, axis=-1).reshape(a.shape[:-1] + (n_s, HOURS))


@dataclass(frozen=True)
class ProfitReport:
    c_npv: float
    investment: float
    annual_delta_toc: float  # $/yr
    cumulative: list[float]  # $ per year, length = horizon
    payback_year: int | None
    net_profit: float  # $ at the end of the horizon


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
        cumulative=cumulative.tolist(),
        payback_year=payback,
        net_profit=float(cumulative[-1] - investment),
    )

"""Radial AC power flow for distribution feeders.

The solver exploits radiality: voltages follow from injection currents
through precomputed path-impedance matrices (the bus-injection to
branch-current / branch-current to bus-voltage factorization used for
direct distribution load flow), iterated to a fixed point.  One matrix
product per sweep iteration makes it cheap to solve many injection
profiles at once, which the scenario evaluator relies on.

Sign convention: injections are positive for generation, negative for
load.  The substation is the slack bus, pinned at 1.0 pu.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Network, radial_order

__all__ = [
    "InjectionProfile",
    "PowerFlowSolution",
    "BatchPowerFlow",
    "ViolationReport",
    "solve",
    "solve_batch",
    "check_limits",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100
_V_COLLAPSE = 0.2  # pu magnitude below which the fixed point is declared diverged


@dataclass(frozen=True)
class InjectionProfile:
    """Net bus injections for one hour, kW / kvar, indexed by bus position.

    The substation entry is ignored (slack balances the system).
    """

    p_kw: np.ndarray
    q_kvar: np.ndarray


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray  # per-bus voltage magnitude, pu
    delta: np.ndarray  # per-bus voltage angle, rad
    s_flow: np.ndarray  # per-branch apparent power at sending end, kVA
    p_loss_total: float  # kW
    p_slack: float  # substation active power, kW (positive = import)
    q_slack: float  # kvar
    converged: bool
    iterations: int
    mismatch: float  # worst per-unit power mismatch at any non-slack bus


@dataclass(frozen=True)
class BatchPowerFlow:
    """Column-wise solutions for a matrix of injection profiles."""

    v_complex: np.ndarray  # (n_bus, m) phasors; magnitude/angle derived lazily
    s_flow: np.ndarray  # (n_branch, m), kVA
    p_loss: np.ndarray  # (m,), kW
    p_slack: np.ndarray  # (m,), kW
    q_slack: np.ndarray  # (m,), kvar
    converged: np.ndarray  # (m,), bool
    iterations: int
    mismatch: np.ndarray  # (m,), pu

    @cached_property
    def v(self) -> np.ndarray:
        return np.abs(self.v_complex)

    @cached_property
    def delta(self) -> np.ndarray:
        return np.angle(self.v_complex)


class _SweepModel:
    """Per-network factorization shared by all solves against that network."""

    def __init__(self, net: Network):
        n = net.n_bus
        order = radial_order(net)
        z_base = net.base_kv**2 / net.base_mva  # ohm
        z_pu = np.array([(br.r + 1j * br.x) / z_base for br in net.branches])

        slack = net.bus_index(net.substation_bus)
        nonslack = np.array([i for i in range(n) if i != slack])
        col_of_bus = {net.buses[i].id: c for c, i in enumerate(nonslack)}

        # path[b, m] = 1 iff branch b lies on bus m's path to the substation
        path = np.zeros((len(net.branches), n - 1))
        for bus_id, branch_ids in order.paths.items():
            if bus_id == net.substation_bus:
                continue
            c = col_of_bus[bus_id]
            for b in branch_ids:
                path[b, c] = 1.0
        self.path = path
        self.dlf = path.T @ (z_pu[:, None] * path)  # shared-path impedance matrix
        self.r_pu = z_pu.real
        self.slack = slack
        self.nonslack = nonslack
        # sending-end (parent-side) bus position of each original branch
        parent = np.empty(len(net.branches), dtype=int)
        for f, b in zip(order.from_bus, order.order):
            parent[b] = net.bus_index(f)
        self.parent = parent
        self.s_base_kva = net.base_mva * 1000.0
        self.s_max = np.array([br.s_max for br in net.branches])  # kVA


_models: "weakref.WeakKeyDictionary[Network, _SweepModel]" = weakref.WeakKeyDictionary()


def _model(net: Network) -> _SweepModel:
    m = _models.get(net)
    if m is None:
        m = _SweepModel(net)
        _models[net] = m
    return m


def solve_batch(
    net: Network,
    p_kw: np.ndarray,
    q_kvar: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BatchPowerFlow:
    """Solve one power flow per column of the (n_bus, m) injection matrices.

    Any other shape, a transposed (m, n_bus) block included, raises
    ValueError.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    mdl = _model(net)
    p = np.asarray(p_kw, dtype=float)
    q = np.asarray(q_kvar, dtype=float)
    if p.ndim != 2 or p.shape[0] != net.n_bus or q.shape != p.shape:
        raise ValueError(f"injection matrices must be (n_bus={net.n_bus}, m)")
    m = p.shape[1]

    if net.n_bus == 1:  # bare substation: nothing to solve
        zeros = np.zeros(m)
        return BatchPowerFlow(
            v_complex=np.ones((1, m), dtype=complex),
            s_flow=np.zeros((0, m)),
            p_loss=zeros,
            p_slack=zeros.copy(),
            q_slack=zeros.copy(),
            converged=np.ones(m, dtype=bool),
            iterations=0,
            mismatch=zeros.copy(),
        )

    s_pu = (p[mdl.nonslack] + 1j * q[mdl.nonslack]) / mdl.s_base_kva  # (n-1, m)
    s_conj = np.conj(s_pu)
    s_abs = np.abs(s_pu)
    v = np.ones((net.n_bus - 1, m), dtype=complex)
    i_inj = np.zeros_like(v)
    mismatch = np.full(m, np.inf)
    alive = np.ones(m, dtype=bool)
    active = np.ones(m, dtype=bool)  # columns still iterating

    it = 0
    for it in range(1, max_iter + 1):
        # full-width arithmetic with masked writes: converged columns stay
        # frozen (batch solves bit-match single solves) without the cost of
        # gathering shrinking column subsets
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v_abs = np.abs(v)
            i_new = s_conj * v / np.square(v_abs)  # conj(s / v)
            if not np.isfinite(i_new.sum()):  # a NaN or inf anywhere shows in the sum
                i_new[~np.isfinite(i_new)] = 0.0
            v_new = 1.0 + mdl.dlf @ i_new
            check = it >= 3 or it == max_iter  # nothing converges in 2 sweeps
            if check:
                mis = (s_abs * (np.abs(v_new - v) / v_abs)).max(axis=0)
                mismatch[active] = mis[active]
                alive &= ~(active & (np.abs(v_new).min(axis=0) <= _V_COLLAPSE))
        if active.all():
            i_inj, v = i_new, v_new
        else:
            i_inj[:, active] = i_new[:, active]
            v[:, active] = v_new[:, active]
        if check:
            active = alive & (mismatch > tol)
            if not active.any():
                break

    converged = alive & (mismatch <= tol)

    # (v, i_inj) are network-consistent: v is the exact response to i_inj,
    # so flows and losses below describe the returned state.
    v_full = np.ones((net.n_bus, m), dtype=complex)
    v_full[mdl.nonslack] = v
    # branch currents in original branch order; path @ i_inj is oriented
    # toward the substation, so negate for parent-to-child sending flow
    j = -(mdl.path @ i_inj)
    s_from = v_full[mdl.parent] * np.conj(j)
    loss = (mdl.r_pu[:, None] * np.abs(j) ** 2).sum(axis=0) * mdl.s_base_kva
    # slack power read off the sending-end flows of the branches leaving it
    root = mdl.parent == mdl.slack
    s_slack = s_from[root].sum(axis=0) * mdl.s_base_kva
    return BatchPowerFlow(
        v_complex=v_full,
        s_flow=np.abs(s_from) * mdl.s_base_kva,
        p_loss=loss,
        p_slack=s_slack.real,
        q_slack=s_slack.imag,
        converged=converged,
        iterations=it,
        mismatch=mismatch,
    )


def solve(
    net: Network,
    inj: InjectionProfile,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PowerFlowSolution:
    """Solve the bus-injection power-flow equations for one injection profile.

    Returns a solution whose per-bus power mismatch is at most ``tol`` (pu)
    when ``converged`` is set; a non-converged solution is returned rather
    than raised so callers can penalize it.
    """
    batch = solve_batch(net, np.asarray(inj.p_kw, float)[:, None], np.asarray(inj.q_kvar, float)[:, None], tol, max_iter)
    return PowerFlowSolution(
        v=batch.v[:, 0],
        delta=batch.delta[:, 0],
        s_flow=batch.s_flow[:, 0],
        p_loss_total=float(batch.p_loss[0]),
        p_slack=float(batch.p_slack[0]),
        q_slack=float(batch.q_slack[0]),
        converged=bool(batch.converged[0]),
        iterations=batch.iterations,
        mismatch=float(batch.mismatch[0]),
    )


@dataclass(frozen=True)
class ViolationReport:
    flow_overshoot_kva: np.ndarray  # per branch (x column), max(0, flow - s_max)
    voltage_overshoot_pu: np.ndarray  # per bus (x column), distance outside [v_min, v_max]

    @property
    def is_empty(self) -> bool:
        return not (np.any(self.flow_overshoot_kva > 0) or np.any(self.voltage_overshoot_pu > 0))


def check_limits(sol: PowerFlowSolution | BatchPowerFlow, net: Network) -> ViolationReport:
    """Per-branch flow overshoots and per-bus voltage violations, as max(0, excess).

    A batch solution gives column-wise overshoots shaped like its ``s_flow``
    and ``v``.
    """
    s_max = _model(net).s_max
    if sol.s_flow.ndim == 2:
        s_max = s_max[:, None]
    flow = np.maximum(0.0, sol.s_flow - s_max)
    volt = np.maximum(0.0, net.v_min - sol.v) + np.maximum(0.0, sol.v - net.v_max)
    return ViolationReport(flow_overshoot_kva=flow, voltage_overshoot_pu=volt)

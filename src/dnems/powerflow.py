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

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Network, radial_order

__all__ = [
    "BatchPowerFlow",
    "ViolationReport",
    "solve_batch",
    "check_limits",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100
_V_COLLAPSE = 0.2  # pu magnitude below which the fixed point is declared diverged


@dataclass(frozen=True)
class BatchPowerFlow:
    """Solutions of a batch of injection profiles, one per trailing index."""

    v_complex: np.ndarray  # (n_bus, *batch) phasors; magnitude derived lazily
    s_flow: np.ndarray  # (n_branch, *batch) apparent power at the sending end, kVA
    p_loss: np.ndarray  # batch, kW
    p_slack: np.ndarray  # batch, substation active power, kW (positive = import)
    q_slack: np.ndarray  # batch, kvar
    converged: np.ndarray  # batch, bool
    iterations: int  # sweeps of the whole call
    mismatch: np.ndarray  # batch, worst per-unit power mismatch at any non-slack bus

    @cached_property
    def v(self) -> np.ndarray:
        return np.abs(self.v_complex)


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
    """Solve the bus-injection power-flow equations for a batch of profiles.

    Injections are shaped (n_bus,) for one profile or (n_bus, *batch) for
    many; each result keeps the batch shape after its leading bus or branch
    axis, so a single profile gives 0-d per-profile results.  Any other
    leading axis, a transposed (m, n_bus) block included, raises ValueError.

    A profile's per-bus power mismatch is at most ``tol`` (pu) when it is
    ``converged``; a non-converged profile is returned rather than raised so
    callers can penalize it.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    mdl = _model(net)
    p = np.asarray(p_kw, dtype=float)
    q = np.asarray(q_kvar, dtype=float)
    if p.ndim == 0 or p.shape[0] != net.n_bus or q.shape != p.shape:
        raise ValueError(f"injections must be shaped (n_bus={net.n_bus},) or (n_bus={net.n_bus}, *batch)")
    batch = p.shape[1:]
    m = math.prod(batch)

    if net.n_bus == 1:  # bare substation: nothing to solve
        zeros = np.zeros(batch)
        return BatchPowerFlow(
            v_complex=np.ones((1, *batch), dtype=complex),
            s_flow=np.zeros((0, *batch)),
            p_loss=zeros,
            p_slack=zeros.copy(),
            q_slack=zeros.copy(),
            converged=np.ones(batch, dtype=bool),
            iterations=0,
            mismatch=zeros.copy(),
        )

    p, q = p.reshape(net.n_bus, m), q.reshape(net.n_bus, m)
    s_pu = (p[mdl.nonslack] + 1j * q[mdl.nonslack]) / mdl.s_base_kva  # (n-1, m)
    s_conj = np.conj(s_pu)
    s_abs = np.abs(s_pu)
    v = np.ones((net.n_bus - 1, m), dtype=complex)
    i_inj = np.zeros_like(v)
    mismatch = np.full(m, np.inf)
    alive = np.ones(m, dtype=bool)  # columns not diverged
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
                # diverged columns: zero currents give v = 1, then they freeze
                diverged = ~np.isfinite(i_new).all(axis=0)
                i_new[:, diverged] = 0.0
                alive &= ~diverged
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
        active &= alive
        if check:
            active &= mismatch > tol
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
        v_complex=v_full.reshape(net.n_bus, *batch),
        s_flow=(np.abs(s_from) * mdl.s_base_kva).reshape(len(s_from), *batch),
        p_loss=loss.reshape(batch),
        p_slack=s_slack.real.reshape(batch),
        q_slack=s_slack.imag.reshape(batch),
        converged=converged.reshape(batch),
        iterations=it,
        mismatch=mismatch.reshape(batch),
    )


@dataclass(frozen=True)
class ViolationReport:
    flow_overshoot_kva: np.ndarray  # (n_branch, *batch), max(0, flow - s_max)
    voltage_overshoot_pu: np.ndarray  # (n_bus, *batch), distance outside [v_min, v_max]

    @property
    def is_empty(self) -> bool:
        return not (np.any(self.flow_overshoot_kva > 0) or np.any(self.voltage_overshoot_pu > 0))


def check_limits(sol: BatchPowerFlow, net: Network) -> ViolationReport:
    """Per-branch flow overshoots and per-bus voltage violations, as max(0,
    excess), shaped like the solution's ``s_flow`` and ``v``."""
    s_max = _model(net).s_max.reshape(-1, *(1,) * (sol.s_flow.ndim - 1))
    flow = np.maximum(0.0, sol.s_flow - s_max)
    volt = np.maximum(0.0, net.v_min - sol.v) + np.maximum(0.0, sol.v - net.v_max)
    return ViolationReport(flow_overshoot_kva=flow, voltage_overshoot_pu=volt)

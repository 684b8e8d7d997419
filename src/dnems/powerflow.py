"""Radial AC power flow for distribution feeders.

The solver exploits radiality: voltages follow from injection currents
through the bus-injection to branch-current / branch-current to bus-voltage
factorization used for direct distribution load flow, iterated to a fixed
point.  Each sweep is one product that maps the injection currents of every
profile at once to voltage drops, which makes it cheap to solve many
profiles in one call; the scenario evaluator relies on that.  The product
depends on the feeder's size alone: below ``_TOUR_MIN_BUSES`` buses it is a
dense path-impedance matrix product, from there on prefix sums over an
Euler tour of the tree, O(n) per profile instead of O(n^2).

A call may inject at the substation and at every bus that carries load or
hosts a DG, PV array or storage unit; ``solve_batch`` refuses a nonzero or
NaN injection anywhere else.  Every other bus, a junction, draws a current
of exactly zero on every sweep, so the dense product sweeps only the rows
of the buses a call may inject at: a junction adds nothing to any product
and gets its voltage once, from the final currents.  The collapse rule
(``|v| <= _V_COLLAPSE``) looks at the swept rows only.  Dropping the zero
terms keeps every bit of a sum that the BLAS adds in order; numpy's
OpenBLAS does so within blocks of 128 inner rows, so on larger dense
feeders (130 to 199 buses) the results can differ from the full product's
in the last bits.

A profile's results do not depend on its call.  Each call pads its last
batch axis to a multiple of ``_PAD_COLUMNS`` with that axis's last profile
and drops the padding from its results: at such widths the BLAS runs every
column through one kernel, and numpy adds the branches of a sum in order.

Sign convention: injections are positive for generation, negative for
load.  The substation is the slack bus, pinned at 1.0 pu.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Network

__all__ = [
    "BatchPowerFlow",
    "ViolationReport",
    "solve_batch",
    "check_limits",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100
_V_COLLAPSE = 0.2  # pu magnitude below which the fixed point is declared diverged
_PAD_COLUMNS = 4  # every call sweeps a multiple of this many columns


@dataclass(frozen=True)
class BatchPowerFlow:
    """Solutions of a batch of injection profiles, one per trailing index."""

    v_complex: np.ndarray  # (n_bus, *batch) phasors; magnitude derived lazily
    s_flow: np.ndarray  # (n_branch, *batch) apparent power at the sending end, kVA
    p_loss: np.ndarray  # batch, kW
    p_slack: np.ndarray  # batch, grid import at the substation, its own bus's load included, kW
    q_slack: np.ndarray  # batch, kvar
    converged: np.ndarray  # batch, bool
    iterations: int  # sweeps of the whole call
    mismatch: np.ndarray  # batch, worst per-unit power mismatch at any non-slack bus

    @cached_property
    def v(self) -> np.ndarray:
        return np.abs(self.v_complex)


# Bus count from which the sweep uses the tour product.  Measured with whole
# solve_batch calls on seeded trunk-and-lateral feeders: at 200 buses the
# tour takes 0.72x the dense time at 24 columns and 1.02x at 372; at 150
# buses it is already 1.09x at 372, and at 69 buses its product is 2x slower.
_TOUR_MIN_BUSES = 200


class _SweepModel:
    """Per-network factorization shared by all solves against that network."""

    def __init__(self, net: Network):
        self.order = order = net.order
        z_base = net.base_kv**2 / net.base_mva  # ohm
        self.n_bus = net.n_bus
        self.z_pu = np.array([(br.r + 1j * br.x) / z_base for br in net.branches])
        self.r_pu = self.z_pu.real
        self.slack = net.bus_index(net.substation_bus)
        # sending-end (parent-side) and receiving-end bus position of each
        # original branch
        bus, parent = np.array(order.bus), np.array(order.parent)
        rows = np.argsort(order.branch[1:]) + 1  # the row each branch feeds
        self.parent, self.child = bus[parent[rows]], bus[rows]
        self.s_base_kva = net.base_mva * 1000.0
        self.s_max = np.array([br.s_max for br in net.branches])  # kVA
        # the buses a call may inject at: the substation and every bus with
        # load or a device; the others are junctions
        self.injected = np.array([b.p_load != 0 or b.q_load != 0 for b in net.buses])
        for dev in (*net.dgs, *net.pvs, *net.esss):
            self.injected[net.bus_index(dev.bus)] = True
        self.injected[self.slack] = True
        self.junctions = np.flatnonzero(~self.injected)
        product = _TourProduct if net.n_bus >= _TOUR_MIN_BUSES else _DenseProduct
        self.product = product(self)


class _DenseProduct:
    """The sweep's products as dense matrices: ``path[b, c] = 1`` iff branch
    b lies on the path from the substation to the bus of row c, and ``dlf``
    is the shared-path impedance matrix, so ``dlf @ i`` is the voltage drop
    of injection currents ``i`` (the BIBC/BCBV product of Teng 2003).

    Rows are the non-slack buses a call may inject at (``buses``), in index
    order; every other bus draws a current of exactly zero, whose terms the
    products leave out.  ``dlf`` sweeps the rows, ``dlf_cols`` (every
    non-slack bus's drop from the rows' currents) gives every voltage once
    the sweeps are done, and ``path`` the branch currents."""

    def __init__(self, mdl: _SweepModel):
        n, order = mdl.n_bus, mdl.order
        self.nonslack = np.delete(np.arange(n), mdl.slack)
        path = np.zeros((len(mdl.child), n))  # column j: the branches on bus j's path
        for k in range(1, n):  # parents first: a bus's path is its parent's plus its branch
            path[:, order.bus[k]] = path[:, order.bus[order.parent[k]]]
            path[order.branch[k], order.bus[k]] = 1.0
        path = np.delete(path, mdl.slack, axis=1)
        dlf = path.T @ (mdl.z_pu[:, None] * path)
        live = mdl.injected[self.nonslack]
        self.buses = self.nonslack[live]
        self.dlf = dlf[np.ix_(live, live)]
        self.dlf_cols = np.ascontiguousarray(dlf[:, live])
        self.path = np.ascontiguousarray(path[:, live], dtype=complex)  # cast once, not on every solve

    def sweeper(self, m: int):
        """The voltage drop ``dlf @ i`` of (rows, m) injection currents."""
        return self.dlf.__matmul__

    def voltages(self, v_full: np.ndarray, v: np.ndarray, i: np.ndarray) -> None:
        """Write into (n_bus, m) ``v_full`` every non-slack bus's response to
        the swept currents ``i``, which on the swept rows is ``v``.  One
        product over all buses: a product of the junctions alone would, with
        one junction, run through another BLAS kernel than the sweeps."""
        v_full[self.nonslack] = 1.0 + self.dlf_cols @ i

    def branch_currents(self, i: np.ndarray) -> np.ndarray:
        """Sending-end (parent-to-child) current of each original branch."""
        return -(self.path @ i)


class _TourProduct:
    """The sweep's products in O(n) per column, as prefix sums over an Euler
    tour of the feeder (the backward/forward sweep of Shirmohammadi et al.
    1988 without a per-branch loop).

    Non-slack buses are rows in the feeder's depth-first pre-order
    (``radial_order``), so each subtree is a contiguous range
    ``[k, end[k])``.  With ``C`` the cumulative sum of the currents down the
    rows (``C[0] = 0``), the current into the subtree of row k is
    ``C[end[k]] - C[k]``.  The tour visits each row twice: its entry slot
    carries ``+z J`` of the branch feeding it and its exit slot ``-z J``, so
    the cumulative sum over the tour, read at a row's entry slot, is the
    drop along its path from the substation.  Only gathers run per sweep,
    no scatter-add, and each column is summed on its own."""

    def __init__(self, mdl: _SweepModel):
        order = mdl.order
        feeder = np.array(order.branch[1:])  # branch feeding each row
        row = np.arange(len(feeder))
        self.nonslack = np.array(order.bus[1:])
        self.end = np.array(order.end[1:]) - 1
        # row k is entered after the k rows before it, and after the exits of
        # those whose subtree ends by k; a row exits once its subtree's rows
        # have each been entered and left
        self.entry = row + np.searchsorted(np.sort(self.end), row, side="right")
        exit_slot = self.entry + 2 * (self.end - row) - 1
        self.tour = np.empty(2 * len(row), dtype=int)  # the row each tour slot reads
        self.tour[self.entry] = self.tour[exit_slot] = row
        signs = np.ones(len(self.tour))
        signs[exit_slot] = -1.0
        self.z_slot = (signs * mdl.z_pu[feeder][self.tour])[:, None]
        self.branch_rows = np.argsort(feeder)  # branch b feeds the subtree [branch_rows[b], branch_ends[b])
        self.branch_ends = self.end[self.branch_rows]
        self.buses = self.nonslack  # every row is swept

    def voltages(self, v_full: np.ndarray, v: np.ndarray, i: np.ndarray) -> None:
        """Write the swept voltages ``v`` into (n_bus, m) ``v_full``."""
        v_full[self.nonslack] = v

    def sweeper(self, m: int):
        """The voltage drop of (n - 1, m) injection currents, with its work
        buffers allocated once for all sweeps of a call; the result is
        overwritten by the next call."""
        n1 = len(self.end)
        c = np.zeros((n1 + 1, m), dtype=complex)
        j = np.empty((n1, m), dtype=complex)
        walk = np.empty((len(self.tour), m), dtype=complex)
        drop = np.empty((n1, m), dtype=complex)

        # mode="clip" only skips take's buffered bounds check: every index
        # is in range by construction
        def product(i: np.ndarray) -> np.ndarray:
            np.cumsum(i, axis=0, out=c[1:])
            np.take(c, self.end, axis=0, out=j, mode="clip")
            np.subtract(j, c[:-1], out=j)
            np.take(j, self.tour, axis=0, out=walk, mode="clip")
            np.multiply(walk, self.z_slot, out=walk)
            np.cumsum(walk, axis=0, out=walk)
            return np.take(walk, self.entry, axis=0, out=drop, mode="clip")

        return product

    def branch_currents(self, i: np.ndarray) -> np.ndarray:
        """Sending-end (parent-to-child) current of each original branch."""
        c = np.zeros((len(i) + 1,) + i.shape[1:], dtype=complex)
        np.cumsum(i, axis=0, out=c[1:])
        return c[self.branch_rows] - c[self.branch_ends]


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
    So does a nonzero or NaN injection at a bus other than the substation
    and those with load or a device (``-0.0`` is no injection): each feeder
    sweeps one fixed set of rows, whatever the call.

    A profile's results are the same bits whether it is solved alone or in
    any block or nested batch, and the padding never changes ``iterations``.

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
    if p[mdl.junctions].any() or q[mdl.junctions].any():  # NaN counts, -0.0 does not
        bus = next(net.buses[k].id for k in mdl.junctions if p[k].any() or q[k].any())
        raise ValueError(f"bus {bus} carries neither load nor a device: a call cannot inject there")
    batch = p.shape[1:]
    shape = batch or (1,)  # a single profile is a batch of one
    p, q = p.reshape(net.n_bus, *shape), q.reshape(net.n_bus, *shape)
    last = shape[-1]
    padded = (*shape[:-1], last + -last % _PAD_COLUMNS)
    m = math.prod(padded)

    def unpadded(a: np.ndarray) -> np.ndarray:  # a (rows, m) or (m,) result in the call's batch shape
        return a.reshape(*a.shape[:-1], *padded)[..., :last].reshape((*a.shape[:-1], *batch))

    prod = mdl.product
    rows = len(prod.buses)
    # the swept rows' injections, padded with the last batch axis's last profile
    s_pu = np.empty((rows, *padded), dtype=complex)
    np.divide(p[prod.buses] + 1j * q[prod.buses], mdl.s_base_kva, out=s_pu[..., :last])
    s_pu[..., last:] = s_pu[..., last - 1 : last]
    s_pu = s_pu.reshape(rows, m)
    s_conj = np.conj(s_pu)
    s_abs = np.abs(s_pu)
    v = np.ones(s_pu.shape, dtype=complex)
    v_abs = np.ones(v.shape)  # |v|, kept beside v
    mismatch = np.full(m, np.inf)
    alive = np.ones(m, dtype=bool)  # columns not diverged
    active = np.ones(m, dtype=bool)  # columns still iterating

    drop = prod.sweeper(m)

    it = 0
    for it in range(1, max_iter + 1):
        # full-width arithmetic with masked writes: converged columns stay
        # frozen (batch solves bit-match single solves) without the cost of
        # gathering shrinking column subsets
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # conj(s / v) = conj(s) v / |v|^2.  numpy divides by a real c as
            # by c + 0j, which works out to a product with 1 / c: the same
            # bits, bar the signs of zero currents
            i_new = s_conj * v
            i_new *= 1.0 / np.square(v_abs)
            if not np.isfinite(i_new.sum()):  # a NaN or inf anywhere shows in the sum
                # diverged columns: zero currents give v = 1, then they freeze
                diverged = ~np.isfinite(i_new).all(axis=0)
                i_new[:, diverged] = 0.0
                alive &= ~diverged
            v_new = 1.0 + drop(i_new)
            v_new_abs = np.abs(v_new)  # the collapse check's, then the next sweep's divisor
            check = it >= 3 or it == max_iter  # nothing converges in 2 sweeps
            if check:
                # with no row swept there is no mismatch and no collapse
                mis = (s_abs * (np.abs(v_new - v) / v_abs)).max(axis=0, initial=0.0)
                np.copyto(mismatch, mis, where=active)
                alive &= ~(active & (v_new_abs.min(axis=0, initial=np.inf) <= _V_COLLAPSE))
        if active.all():  # always on the first sweep, which so binds i_inj
            i_inj, v, v_abs = i_new, v_new, v_new_abs
        else:
            np.copyto(i_inj, i_new, where=active)
            np.copyto(v, v_new, where=active)
            np.copyto(v_abs, v_new_abs, where=active)
        active &= alive
        if check:
            active &= mismatch > tol
        if not active.any():
            break

    converged = alive & (mismatch <= tol)

    # (v, i_inj) are network-consistent: v is the exact response to i_inj,
    # so flows and losses below describe the returned state.
    v_full = np.ones((net.n_bus, m), dtype=complex)
    prod.voltages(v_full, v, i_inj)
    j = prod.branch_currents(i_inj)
    s_from = v_full[mdl.parent] * np.conj(j)
    loss = (mdl.r_pu[:, None] * np.abs(j) ** 2).sum(axis=0) * mdl.s_base_kva
    # slack power: the sending-end flows of the branches leaving the slack
    # bus, less that bus's own net injection
    root = mdl.parent == mdl.slack
    s_slack = s_from[root].sum(axis=0) * mdl.s_base_kva
    return BatchPowerFlow(
        v_complex=unpadded(v_full),
        s_flow=unpadded(np.abs(s_from) * mdl.s_base_kva),
        p_loss=unpadded(loss),
        p_slack=(unpadded(s_slack.real) - p[mdl.slack]).reshape(batch),
        q_slack=(unpadded(s_slack.imag) - q[mdl.slack]).reshape(batch),
        converged=unpadded(converged),
        iterations=it,
        mismatch=unpadded(mismatch),
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

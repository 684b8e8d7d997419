"""Independent reference implementations used only to check the package.

Nothing here may import from the solver paths it verifies: the power-flow
oracles build the bus admittance matrix and solve the injection equations
directly (Newton via scipy.optimize.root, and a separately coded textbook
sweep), and the reduction-cost oracle re-derives the deletion cost from
scratch.  The scenario-draw oracle is the one-draw-at-a-time loop that the
vectorized ``generate`` replaced; it takes only the bin probabilities from the
package (``discretize_normal``, itself checked against scipy.stats).  The
reduction oracle is the O(n^3) loop that the fast backward ``reduce``
replaced; it takes only the distance features from the package
(``reduction_features``).  The sweep oracle is the fixed-point loop that
``solve_batch`` ran before its sweep kept ``|v|`` and multiplied by
``1 / |v|^2`` and before the dense product swept only the rows that carry an
injection; it takes the feeder's sweep model from the package, and on a dense
feeder the full ``dlf`` and ``path`` matrices from the tree oracle.  The ENS
oracle is the all-bus formulation that the per-block ENS replaced; it takes
the evaluator's per-bus data (loads, device buses, path times).  The search
oracle is the optimizer loop that ranked one candidate at a time before the
ranking became one array function; it takes the moves, schedules, evaluation
wrapper and archive from the package.  The tree oracle is the feeder-tree
code that ran before one depth-first walk (``radial_order``) fed validation,
the sweep model, both sweep products and the ENS path times; it takes only
the network data.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from dnems.network import Branch, Bus, Network, NetworkError
from dnems.optimizer import (
    GwoState,
    HybridConfig,
    PsoState,
    SearchSpace,
    _evaluate_all,
    epsilon_schedule,
    gwo_step,
    mu_schedule,
    pso_step,
)
from dnems.pareto import ArchiveEntry, ParetoArchive
from dnems.powerflow import _V_COLLAPSE, BatchPowerFlow, _model
from dnems.scenarios import discretize_normal, reduction_features


def ybus(net: Network) -> np.ndarray:
    n = net.n_bus
    y = np.zeros((n, n), dtype=complex)
    z_base = net.base_kv**2 / net.base_mva
    for br in net.branches:
        f, t = br.from_bus - 1, br.to_bus - 1
        yz = 1.0 / ((br.r + 1j * br.x) / z_base)
        y[f, f] += yz
        y[t, t] += yz
        y[f, t] -= yz
        y[t, f] -= yz
    return y


def pf_oracle_newton(net: Network, p_kw, q_kvar, tol=1e-10):
    """Brute-force solve of the bus-injection equations in rectangular form."""
    n = net.n_bus
    y = ybus(net)
    slack = net.substation_bus - 1
    others = [i for i in range(n) if i != slack]
    s_base = net.base_mva * 1000.0
    s_spec = (np.asarray(p_kw, float) + 1j * np.asarray(q_kvar, float)) / s_base

    def mismatch(vec):
        v = np.ones(n, dtype=complex)
        v[others] = vec[: len(others)] + 1j * vec[len(others) :]
        s_calc = v * np.conj(y @ v)
        mis = s_spec[others] - s_calc[others]
        return np.concatenate([mis.real, mis.imag])

    x0 = np.concatenate([np.ones(len(others)), np.zeros(len(others))])
    sol = root(mismatch, x0, method="hybr", tol=tol)
    v = np.ones(n, dtype=complex)
    v[others] = sol.x[: len(others)] + 1j * sol.x[len(others) :]
    return v, sol.success and np.max(np.abs(mismatch(sol.x))) < 1e-8


def pf_oracle_sweep(net: Network, p_kw, q_kvar, tol=1e-12, max_iter=500):
    """Textbook per-branch backward/forward sweep, coded with explicit loops."""
    n = net.n_bus
    s_base = net.base_mva * 1000.0
    z_base = net.base_kv**2 / net.base_mva
    s_spec = (np.asarray(p_kw, float) + 1j * np.asarray(q_kvar, float)) / s_base

    children: dict[int, list[tuple[int, complex]]] = {i: [] for i in range(n)}
    parent_of = {}
    adj: dict[int, list[tuple[int, complex]]] = {i: [] for i in range(n)}
    for br in net.branches:
        z = (br.r + 1j * br.x) / z_base
        adj[br.from_bus - 1].append((br.to_bus - 1, z))
        adj[br.to_bus - 1].append((br.from_bus - 1, z))
    rootbus = net.substation_bus - 1
    seen = {rootbus}
    order = []
    dq = deque([rootbus])
    while dq:
        u = dq.popleft()
        for v_, z in adj[u]:
            if v_ not in seen:
                seen.add(v_)
                parent_of[v_] = (u, z)
                children[u].append((v_, z))
                order.append(v_)
                dq.append(v_)

    v = np.ones(n, dtype=complex)
    for _ in range(max_iter):
        i_bus = np.conj(s_spec / v)
        j_up: dict[int, complex] = {}
        for b in reversed(order):
            total = i_bus[b]
            for c, _z in children[b]:
                total += j_up[c]
            j_up[b] = total
        v_new = v.copy()
        v_new[rootbus] = 1.0
        for b in order:
            par, z = parent_of[b]
            v_new[b] = v_new[par] + z * j_up[b]
        if np.max(np.abs(v_new - v)) < tol:
            v = v_new
            break
        v = v_new
    loss = 0.0
    for b in order:
        _, z = parent_of[b]
        loss += (z.real * abs(j_up[b]) ** 2) * s_base
    return v, loss


def random_radial_network(rng: np.random.Generator, n_bus: int) -> Network:
    """Random tree feeder with moderate loads; always solvable."""
    buses = [Bus(id=1)]
    branches = []
    for i in range(2, n_bus + 1):
        buses.append(
            Bus(id=i, p_load=float(rng.uniform(0, 400)), q_load=float(rng.uniform(0, 250)))
        )
        parent = int(rng.integers(1, i))
        branches.append(
            Branch(
                from_bus=parent,
                to_bus=i,
                r=float(rng.uniform(0.01, 0.6)),
                x=float(rng.uniform(0.01, 0.6)),
                s_max=10000.0,
                at_repair=float(rng.uniform(0.5, 4.0)),
                at_restoration=float(rng.uniform(0.1, 1.0)),
            )
        )
    return Network(buses, branches, v_min=0.5, v_max=1.5)


def trunk_feeder(rng: np.random.Generator, n_bus: int, drop_pu: float = 0.05) -> Network:
    """Solvable trunk-and-laterals feeder of any size.

    Each new bus extends the previous one with probability 0.7 and otherwise
    hangs off a uniformly chosen earlier bus, so depths grow like real
    feeders' rather than like a random tree's.  Loads are those of
    ``random_radial_network``; every impedance is then scaled by one factor
    so that the linearized (DistFlow) voltage drop at the deepest point is
    ``drop_pu``, which keeps the base case solvable at any ``n_bus``.
    """
    base_kv = 12.66
    parent = [0] + [i - 1 if rng.random() < 0.7 else int(rng.integers(0, i)) for i in range(1, n_bus)]
    p = np.concatenate([[0.0], rng.uniform(0, 400, n_bus - 1)])
    q = np.concatenate([[0.0], rng.uniform(0, 250, n_bus - 1)])
    r = rng.uniform(0.01, 0.6, n_bus)
    x = rng.uniform(0.01, 0.6, n_bus)
    p_down, q_down = p.copy(), q.copy()  # load fed through the branch into bus i
    for i in range(n_bus - 1, 0, -1):
        p_down[parent[i]] += p_down[i]
        q_down[parent[i]] += q_down[i]
    drop = np.zeros(n_bus)
    for i in range(1, n_bus):  # z_base * s_base = base_kv**2 * 1000
        drop[i] = drop[parent[i]] + (r[i] * p_down[i] + x[i] * q_down[i]) / (base_kv**2 * 1000.0)
    scale = drop_pu / drop.max()
    buses = [Bus(id=i + 1, p_load=float(p[i]), q_load=float(q[i])) for i in range(n_bus)]
    branches = [
        Branch(
            from_bus=parent[i] + 1,
            to_bus=i + 1,
            r=float(r[i] * scale),
            x=float(x[i] * scale),
            s_max=10000.0,
            at_repair=float(rng.uniform(0.5, 4.0)),
            at_restoration=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(1, n_bus)
    ]
    return Network(buses, branches, v_min=0.9, v_max=1.1, base_kv=base_kv)


def union_find_tree(net) -> None:
    """Prove by union-find that the branches form a tree spanning every bus:
    NetworkError naming the first cycle-closing branch or the first unreached
    bus otherwise.  ``net`` needs only ``buses``, ``branches`` and
    ``substation_bus``, so it may stand in for a network that would not build."""
    uf = list(range(len(net.buses) + 1))

    def find(u: int) -> int:
        while uf[u] != u:
            uf[u] = uf[uf[u]]
            u = uf[u]
        return u

    for br in net.branches:
        ru, rv = find(br.from_bus), find(br.to_bus)
        if ru == rv:
            raise NetworkError(f"branch ({br.from_bus},{br.to_bus}) closes a cycle")
        uf[ru] = rv
    root = find(net.substation_bus)
    for b in net.buses:
        if find(b.id) != root:
            raise NetworkError(f"bus {b.id} is not connected to the substation")


def tree_oracle(net: Network) -> dict:
    """The feeder-tree arrays as four separate walks built them.

    A union-find proves the tree (``union_find_tree``).  A breadth-first walk
    orients each branch away from the substation and keeps every bus's branch
    path, which gives the path times.  The dense product walks every bus up to
    the substation, and the tour product runs a second, depth-first walk over
    per-bus child lists.  Returns ``parent``, ``child`` and ``path_time``, and
    each product's arrays under ``"dense"`` and ``"tour"``.
    """
    union_find_tree(net)
    n = net.n_bus
    adj = {b.id: [] for b in net.buses}
    for idx, br in enumerate(net.branches):
        adj[br.from_bus].append((br.to_bus, idx))
        adj[br.to_bus].append((br.from_bus, idx))
    parent = np.empty(len(net.branches), dtype=int)
    child = np.empty(len(net.branches), dtype=int)
    paths = {net.substation_bus: ()}
    queue = [net.substation_bus]
    while queue:
        nxt = []
        for u in queue:
            for v, idx in adj[u]:
                if v in paths:
                    continue
                parent[idx], child[idx] = u - 1, v - 1
                paths[v] = paths[u] + (idx,)
                nxt.append(v)
        queue = nxt
    times = np.array([br.at_repair + br.at_restoration for br in net.branches])
    out = {
        "parent": parent,
        "child": child,
        "path_time": np.array([times[list(paths[b.id])].sum() for b in net.buses]),
    }
    slack = net.substation_bus - 1
    z_base = net.base_kv**2 / net.base_mva
    z_pu = np.array([(br.r + 1j * br.x) / z_base for br in net.branches])

    nonslack = np.array([i for i in range(n) if i != slack])
    feeder = np.empty(n, dtype=int)
    feeder[child] = np.arange(len(child))
    path = np.zeros((len(child), n - 1))
    bus, col = nonslack, np.arange(n - 1)
    while len(bus):
        path[feeder[bus], col] = 1.0
        bus = parent[feeder[bus]]
        up = bus != slack
        bus, col = bus[up], col[up]
    out["dense"] = {
        "nonslack": nonslack,
        "dlf": path.T @ (z_pu[:, None] * path),
        "path": path.astype(complex),
    }

    kids = [[] for _ in range(n)]
    for b, f in enumerate(parent):
        kids[f].append(b)
    pos = np.empty(n - 1, dtype=int)
    feeder = []
    end = np.empty(n - 1, dtype=int)
    rows, signs, entry = [], [], []
    stack = [(b, True) for b in reversed(kids[slack])]
    while stack:
        b, entering = stack.pop()
        if entering:
            pos[b] = k = len(feeder)
            feeder.append(b)
            entry.append(len(rows))
            rows.append(k)
            signs.append(1.0)
            stack.append((b, False))
            stack.extend((c, True) for c in reversed(kids[child[b]]))
        else:
            end[pos[b]] = len(feeder)
            rows.append(pos[b])
            signs.append(-1.0)
    tour = np.array(rows)
    out["tour"] = {
        "nonslack": child[feeder],
        "end": end,
        "tour": tour,
        "z_slot": (np.array(signs) * z_pu[feeder][tour])[:, None],
        "entry": np.array(entry),
        "branch_rows": pos,
        "branch_ends": end[pos],
    }
    return out


def reduction_cost_oracle(features: np.ndarray, weights: np.ndarray, candidate: int) -> float:
    """Deletion cost of one scenario: its weight times the distance to its
    nearest other scenario, everything recomputed from raw features."""
    best = np.inf
    for j in range(len(weights)):
        if j == candidate:
            continue
        d = float(np.sqrt(((features[candidate] - features[j]) ** 2).sum()))
        best = min(best, d)
    return float(weights[candidate]) * best


def reduce_oracle(scenario_set, target: int):
    """Backward reduction that rebuilds the alive x alive distance submatrix
    for every deletion, from an n x n x 72 difference array: the survivors'
    (load, pv, price) stacked (target, 24) arrays and probabilities
    (target,), renormalized as a set is."""
    n = len(scenario_set)
    feats = reduction_features(scenario_set)
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    weights = scenario_set.probabilities.copy()
    alive = np.ones(n, dtype=bool)
    for _ in range(n - target):
        idx_alive = np.flatnonzero(alive)
        sub = dist[np.ix_(idx_alive, idx_alive)]
        nearest = sub.min(axis=1)
        victim_pos = int(np.argmin(weights[idx_alive] * nearest))
        victim = idx_alive[victim_pos]
        heir = idx_alive[int(np.argmin(sub[victim_pos]))]
        weights[heir] += weights[victim]
        weights[victim] = 0.0
        alive[victim] = False

    probabilities = weights[alive]
    total = sum(probabilities.tolist())
    if abs(total - 1.0) > 1e-12:
        probabilities = probabilities / total
    load, pv, price = (a[alive] for a in (scenario_set.load_factor, scenario_set.pv_factor, scenario_set.price))
    return load, pv, price, probabilities


def generate_oracle(forecast, n: int, seed: int, levels: int = 7):
    """Roulette-wheel draws one scenario at a time, merged through a dict
    keyed by the profiles rounded to 12 decimals: (load, pv, price) stacked
    (n_s, 24) arrays and the probabilities (n_s,), renormalized as a set is."""
    hours = 24
    rng = np.random.default_rng(seed)
    half = (levels - 1) // 2
    ks = np.arange(-half, half + 1)
    std_probs = np.array([p for _, p in discretize_normal(0.0, 1.0, levels)])
    degenerate = np.zeros(levels)
    degenerate[half] = 1.0
    variables = [
        (forecast.load_factor, forecast.sigma_load, 0.0, np.inf),
        (forecast.pv_factor, forecast.sigma_pv, 0.0, 1.0),
        (forecast.price, forecast.sigma_price, -np.inf, np.inf),
    ]
    values, probs = [], []
    for nominal, rel_sigma, lo, hi in variables:
        sig = rel_sigma * np.abs(nominal)
        values.append(np.clip(nominal[:, None] + ks[None, :] * sig[:, None], lo, hi))
        probs.append(np.where(sig[:, None] > 0, std_probs[None, :], degenerate[None, :]))

    merged = {}
    for _ in range(n):
        weight = 1.0
        realized = []
        for vals, prb in zip(values, probs):
            u = rng.random(hours)
            idx = (np.cumsum(prb, axis=1) > u[:, None]).argmax(axis=1)
            realized.append(vals[np.arange(hours), idx])
            weight *= float(np.prod(prb[np.arange(hours), idx]))
        key = tuple(np.round(np.concatenate(realized), 12))
        if key in merged:
            lf, pv, pr, w = merged[key]
            merged[key] = (lf, pv, pr, w + weight)
        else:
            merged[key] = (realized[0], realized[1], realized[2], weight)

    total = sum(w for *_, w in merged.values())
    probabilities = [w / total for *_, w in merged.values()]
    total = sum(probabilities)
    if abs(total - 1.0) > 1e-12:
        probabilities = [p / total for p in probabilities]
    load, pv, price = (np.stack([m[i] for m in merged.values()]) for i in range(3))
    return load, pv, price, np.array(probabilities)


def nondominated_filter(points):
    """Brute-force non-dominated subset of (f1, f2, penalty) triples, with
    exact duplicates collapsed."""
    uniq = []
    for p in points:
        if p not in uniq:
            uniq.append(p)

    def dom(a, b):
        a_feas, b_feas = a[2] == 0, b[2] == 0
        if a_feas != b_feas:
            return a_feas
        if not a_feas:
            return a[2] < b[2]
        return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])

    return {p for p in uniq if not any(dom(q, p) for q in uniq if q != p)}


def _branch_sum(x: np.ndarray) -> np.ndarray:
    """Sum of an (n_branch, m) block over branches, added one branch after
    another at every width, so a column's bits do not depend on the call.
    numpy adds the rows of a wider block in order already, but sums a single
    column pairwise, and ``cumsum`` along the rows is many times slower."""
    return x.sum(axis=0) if x.shape[1] > 1 else np.cumsum(x, axis=0)[-1]


def sweep_oracle(net: Network, p_kw, q_kvar, tol: float = 1e-6, max_iter: int = 100) -> BatchPowerFlow:
    """``solve_batch`` of (n_bus, m) injections as the loop ran before it
    kept ``|v|`` between sweeps and before it swept only the live rows:
    every non-slack row swept, ``|v|`` taken twice a sweep, the currents
    divided by ``|v|^2`` as complex numbers, and frozen columns written by
    boolean indexing.  On a dense feeder the products are the full
    ``dlf @ i`` and ``path @ i``, with the matrices ``tree_oracle`` builds.
    The collapse rule looks at the rows the solver sweeps: on a dense
    feeder the buses that carry load or host a device."""
    mdl = _model(net)
    nonslack = mdl.product.nonslack
    p, q = np.asarray(p_kw, dtype=float), np.asarray(q_kvar, dtype=float)
    m = p.shape[1]
    s_pu = (p[nonslack] + 1j * q[nonslack]) / mdl.s_base_kva
    s_conj = np.conj(s_pu)
    s_abs = np.abs(s_pu)
    v = np.ones((net.n_bus - 1, m), dtype=complex)
    i_inj = np.zeros_like(v)
    mismatch = np.full(m, np.inf)
    alive = np.ones(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    dense = hasattr(mdl.product, "dlf")
    if dense:
        ref = tree_oracle(net)["dense"]
        dlf, path = ref["dlf"], ref["path"]
        drop = dlf.__matmul__
        injected = {b.id for b in net.buses if b.p_load != 0 or b.q_load != 0}
        injected |= {dev.bus for dev in (*net.dgs, *net.pvs, *net.esss)}
        swept = np.array([net.buses[b].id in injected for b in nonslack], dtype=bool)
    else:
        drop = mdl.product.sweeper(m)
        swept = np.ones(net.n_bus - 1, dtype=bool)
    it = 0
    for it in range(1, max_iter + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v_abs = np.abs(v)
            i_new = s_conj * v / np.square(v_abs)
            if not np.isfinite(i_new.sum()):
                diverged = ~np.isfinite(i_new).all(axis=0)
                i_new[:, diverged] = 0.0
                alive &= ~diverged
            v_new = 1.0 + drop(i_new)
            check = it >= 3 or it == max_iter
            if check:
                mis = (s_abs * (np.abs(v_new - v) / v_abs)).max(axis=0)
                mismatch[active] = mis[active]
                alive &= ~(active & (np.abs(v_new[swept]).min(axis=0, initial=np.inf) <= _V_COLLAPSE))
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
    v_full = np.ones((net.n_bus, m), dtype=complex)
    v_full[nonslack] = v
    j = -(path @ i_inj) if dense else mdl.product.branch_currents(i_inj)
    s_from = v_full[mdl.parent] * np.conj(j)
    loss = _branch_sum(mdl.r_pu[:, None] * np.abs(j) ** 2) * mdl.s_base_kva
    s_slack = _branch_sum(s_from[mdl.parent == mdl.slack]) * mdl.s_base_kva
    return BatchPowerFlow(
        v_complex=v_full,
        s_flow=np.abs(s_from) * mdl.s_base_kva,
        p_loss=loss,
        p_slack=s_slack.real - p[mdl.slack],
        q_slack=s_slack.imag - q[mdl.slack],
        converged=converged,
        iterations=it,
        mismatch=mismatch,
    )


def ens_oracle(ev, dg, ess, sset):
    """ENS (k, n_s) of a block of k candidates, from every bus's net load per
    candidate: DG setpoints (k, n_dg, 24) and storage powers (k, n_ess, 24)
    against the set's grid states, with the per-bus data of the
    ScheduleEvaluator ``ev``."""
    hour, load_f, pv_f, state_of = sset.grid_states
    net_load = np.empty((len(dg), ev.net.n_bus, len(hour)))
    np.multiply(ev.p_load[:, None], load_f, out=net_load)
    for i, b in enumerate(ev.pv_idx):
        net_load[:, b] -= ev.pv_capacity[i] * pv_f
    for j, b in enumerate(ev.dg_idx):
        net_load[:, b] -= dg[:, j, hour]
    for j, b in enumerate(ev.ess_idx):
        net_load[:, b] -= np.maximum(0.0, -ess[:, j, hour])
    weighted = np.zeros((len(dg), len(hour)))  # per grid state, buses in index order
    for b in range(ev.net.n_bus):
        weighted += ev.path_time[b] * np.maximum(0.0, net_load[:, b])
    return weighted.take(state_of, axis=-1).reshape(len(dg), len(sset), 24).mean(axis=2)


@dataclass
class _Scaler:
    """Running objective extremes over everything evaluated so far."""

    f1_min: float = np.inf
    f1_max: float = -np.inf
    f2_min: float = np.inf
    f2_max: float = -np.inf

    def update(self, fs) -> None:
        for f in fs:
            self.f1_min = min(self.f1_min, f.f1)
            self.f1_max = max(self.f1_max, f.f1)
            self.f2_min = min(self.f2_min, f.f2)
            self.f2_max = max(self.f2_max, f.f2)

    def scalar(self, f, weights) -> float:
        w1, w2 = weights
        s1 = (f.f1 - self.f1_min) / (self.f1_max - self.f1_min) if self.f1_max > self.f1_min else 0.0
        s2 = (f.f2 - self.f2_min) / (self.f2_max - self.f2_min) if self.f2_max > self.f2_min else 0.0
        return w1 * s1 + w2 * s2 + f.penalty


def search_oracle(mode: str, cfg: HybridConfig, space: SearchSpace, evaluator):
    """``hybrid_run`` (mode "hybrid") or ``single_run(mode, ...)`` as the loop
    ran before it ranked arrays: every candidate scored by ``_Scaler.scalar``
    one at a time, the incumbent and the leaders found by closures."""
    if mode not in ("gwo", "pso", "hybrid"):
        raise ValueError(f"unknown algorithm {mode!r}")
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.population, space.dimension
    width = space.upper - space.lower

    x = space.lower + rng.random((n, d)) * width
    v = np.zeros((n, d))
    fs = _evaluate_all(evaluator, x)

    scaler = _Scaler()
    scaler.update(fs)
    archive = ParetoArchive(capacity=cfg.archive_capacity)
    for row, f in zip(x, fs):
        archive.insert(ArchiveEntry(x=row.copy(), f=f))

    pbest_x = x.copy()
    pbest_f = list(fs)

    weights = cfg.objective_weights

    def incumbent():
        best = min(
            enumerate(archive.entries),
            key=lambda t: (scaler.scalar(t[1].f, weights), t[0]),
        )[1]
        return best.x, best.f

    def leaders():
        # archive scalar-best plus the current population, ranked together
        best_x, best_f = incumbent()
        cand = [(scaler.scalar(best_f, weights), -1, best_x)]
        cand += [(scaler.scalar(f, weights), i, x[i]) for i, f in enumerate(fs)]
        cand.sort(key=lambda t: (t[0], t[1]))
        return cand[0][2], cand[1][2], cand[2][2]

    log = []
    for it in range(cfg.iterations):
        eps = epsilon_schedule(it, cfg.iterations)
        mu = mu_schedule(it, cfg.iterations, cfg.mu_high, cfg.mu_low)
        gbest_x, _ = incumbent()

        perm = rng.permutation(n)
        if mode == "hybrid":
            gwo_rows, pso_rows = perm[: n // 2], perm[n // 2 :]
        elif mode == "gwo":
            gwo_rows, pso_rows = perm, perm[:0]
        else:
            gwo_rows, pso_rows = perm[:0], perm

        if gwo_rows.size:
            a, b, c = leaders()
            gs = GwoState(positions=x[gwo_rows], alpha=a, beta=b, delta=c, epsilon=eps)
            x[gwo_rows] = gwo_step(gs, space, rng)
        if pso_rows.size:
            ps = PsoState(
                positions=x[pso_rows],
                velocities=v[pso_rows],
                pbest=pbest_x[pso_rows],
                gbest=gbest_x,
                mu=mu,
                c1=cfg.c1,
                c2=cfg.c2,
            )
            x[pso_rows], v[pso_rows] = pso_step(ps, space, rng)

        fs = _evaluate_all(evaluator, x)
        scaler.update(fs)
        for row, f in zip(x, fs):
            archive.insert(ArchiveEntry(x=row.copy(), f=f))
        for i in range(n):
            if scaler.scalar(fs[i], weights) < scaler.scalar(pbest_f[i], weights):
                pbest_x[i] = x[i].copy()
                pbest_f[i] = fs[i]

        _, best_f = incumbent()
        log.append(
            {
                "iteration": it,
                "best_scalar": scaler.scalar(best_f, weights),
                "archive_size": len(archive),
                "best_f1": min(e.f.f1 for e in archive.entries),
                "best_f2": min(e.f.f2 for e in archive.entries),
            }
        )
    return archive, log

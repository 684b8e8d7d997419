from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnems.network import Branch, Bus, DgSpec, EssSpec, Network, PvSpec
from dnems.powerflow import (
    _TOUR_MIN_BUSES,
    _DenseProduct,
    _SweepModel,
    _TourProduct,
    _model,
    solve_batch,
)
from oracles import pf_oracle_newton, pf_oracle_sweep, random_radial_network, sweep_oracle, tree_oracle, trunk_feeder


def load_injections(net):
    p = np.array([-b.p_load for b in net.buses])
    q = np.array([-b.q_load for b in net.buses])
    return p, q


def substation_loaded(net, p_kw, q_kvar):
    """``net`` with a load of ``p_kw`` + j``q_kvar`` at its substation bus."""
    root = net.bus_index(net.substation_bus)
    buses = list(net.buses)
    buses[root] = replace(buses[root], p_load=p_kw, q_load=q_kvar)
    return replace(net, buses=tuple(buses))


class TestFlatAndTrivial:
    def test_zero_injections_flat(self, ieee69):
        z = np.zeros(69)
        sol = solve_batch(ieee69, z, z)
        assert sol.converged
        assert np.allclose(sol.v, 1.0)
        assert sol.p_loss == pytest.approx(0.0, abs=1e-12)
        assert sol.p_slack == pytest.approx(0.0, abs=1e-9)

    def test_slack_voltage_exact(self, ieee69):
        p, q = load_injections(ieee69)
        sol = solve_batch(ieee69, p, q)
        assert sol.v[0] == 1.0
        assert np.angle(sol.v_complex)[0] == 0.0

    def test_zero_impedance_branch_rejected(self):
        with pytest.raises(ValueError, match="zero-impedance"):  # at validation, before any solve
            Network(
                [Bus(id=1), Bus(id=2, p_load=10)],
                [Branch(1, 2, 0.0, 0.0)],
            )

    def test_nonconvergence_flagged_not_raised(self, two_bus):
        # a hopeless load: fixed point collapses, caller gets converged=False
        p = np.array([0.0, -5e7])
        sol = solve_batch(two_bus, p, np.zeros(2))
        assert not sol.converged


class TestTwoBusLadderOracle:
    def test_matches_fixed_point_iteration(self):
        # 2-bus feeder, z = 0.01 + j0.01 pu, load 1.0 + j0.0 pu at bus 2
        base_kv, base_mva = 12.66, 10.0
        z_base = base_kv**2 / base_mva
        net = Network(
            [Bus(id=1), Bus(id=2, p_load=base_mva * 1000.0)],
            [Branch(1, 2, r=0.01 * z_base, x=0.01 * z_base)],
            base_kv=base_kv,
            base_mva=base_mva,
            v_min=0.5,
            v_max=1.5,
        )
        v2 = 1.0 + 0j
        for _ in range(200):
            v2 = 1.0 - (0.01 + 0.01j) * np.conj((1.0 + 0.0j) / v2)
        expected_loss_pu = 0.01 * abs((1.0 + 0.0j) / v2) ** 2

        p, q = load_injections(net)
        sol = solve_batch(net, p, q, tol=1e-12)
        assert sol.converged
        assert sol.v[1] == pytest.approx(abs(v2), abs=1e-8)
        assert sol.p_loss / (base_mva * 1000) == pytest.approx(expected_loss_pu, abs=1e-8)


class TestIndependentSweepOracle:
    def test_69_bus_base_case(self, ieee69):
        p, q = load_injections(ieee69)
        sol = solve_batch(ieee69, p, q, tol=1e-10)
        v_ref, loss_ref = pf_oracle_sweep(ieee69, p, q)
        assert sol.converged
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6
        assert sol.p_loss == pytest.approx(loss_ref, abs=1e-3)
        # canonical values for this feeder
        assert sol.p_loss == pytest.approx(224.96, abs=0.5)
        assert sol.v.min() == pytest.approx(0.9092, abs=5e-4)


class TestNewtonOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_feeders(self, seed):
        rng = np.random.default_rng(seed)
        net = random_radial_network(rng, int(rng.integers(3, 16)))
        p, q = load_injections(net)
        sol = solve_batch(net, p, q, tol=1e-10)
        v_ref, ok = pf_oracle_newton(net, p, q)
        assert sol.converged and ok
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6

    def test_with_generation(self, rng):
        net = random_radial_network(rng, 12)
        p, q = load_injections(net)
        p[5] += 800.0  # local generator pushes power back
        sol = solve_batch(net, p, q, tol=1e-10)
        v_ref, ok = pf_oracle_newton(net, p, q)
        assert sol.converged and ok
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6


class TestConservationAndMonotonicity:
    def test_power_conservation(self, ieee69, rng):
        tol = 1e-6
        for net in (ieee69, substation_loaded(ieee69, 500.0, 200.0)):
            for _ in range(5):
                scale = rng.uniform(0.3, 1.2)
                p = np.array([-b.p_load * scale for b in net.buses])
                q = np.array([-b.q_load * scale for b in net.buses])
                sol = solve_batch(net, p, q, tol=tol)
                assert sol.converged
                residual = sol.p_slack + p.sum() - sol.p_loss
                assert abs(residual) <= 10 * tol * net.base_mva * 1000

    def test_substation_load_is_imported(self, ieee69):
        p, q = load_injections(ieee69)
        base = solve_batch(ieee69, p, q)
        net = substation_loaded(ieee69, 500.0, 200.0)
        loaded = solve_batch(net, *load_injections(net))
        # the slack bus is pinned at 1 pu, so the rest of the feeder is untouched
        assert np.array_equal(loaded.v_complex, base.v_complex)
        assert loaded.p_slack == base.p_slack + 500.0
        assert loaded.q_slack == base.q_slack + 200.0

    def test_one_bus(self):
        net = Network([Bus(id=1, p_load=100.0, q_load=30.0)], [])
        sol = solve_batch(net, np.array([[-100.0, 40.0]]), np.array([[-30.0, 0.0]]))
        assert sol.p_slack.tolist() == [100.0, -40.0]
        assert sol.q_slack.tolist() == [30.0, 0.0]
        assert sol.p_loss.tolist() == [0.0, 0.0] and sol.converged.all()

    def test_loss_nonnegative(self, rng):
        for _ in range(10):
            net = random_radial_network(rng, int(rng.integers(3, 14)))
            p, q = load_injections(net)
            sol = solve_batch(net, p, q)
            assert sol.converged
            assert sol.p_loss >= 0

    def test_load_increase_never_raises_own_voltage(self, ieee69):
        p, q = load_injections(ieee69)
        base = solve_batch(ieee69, p, q)
        for bus_pos in (10, 40, 64):
            p2 = p.copy()
            p2[bus_pos] -= 200.0
            bumped = solve_batch(ieee69, p2, q)
            assert bumped.v[bus_pos] <= base.v[bus_pos] + 1e-12


class TestBatch:
    def test_batch_matches_single(self, ieee69, rng):
        p, q = load_injections(ieee69)
        cols = np.stack([p * s for s in (0.4, 0.8, 1.0)], axis=1)
        qcols = np.stack([q * s for s in (0.4, 0.8, 1.0)], axis=1)
        batch = solve_batch(ieee69, cols, qcols)
        for i, s in enumerate((0.4, 0.8, 1.0)):
            single = solve_batch(ieee69, p * s, q * s)
            assert np.allclose(batch.v[:, i], single.v, atol=1e-9)
            assert batch.p_loss[i] == pytest.approx(single.p_loss, abs=1e-9)
            assert batch.p_slack[i] == pytest.approx(single.p_slack, abs=1e-9)

    def test_width_invariance(self, ieee69, rng):
        # 24 columns solved inside a block of 24*k columns are bit-identical
        # to the same 24 columns solved alone; the block evaluator relies on it
        p, q = load_injections(ieee69)
        for k in range(2, 41):
            factors = rng.uniform(0.3, 1.9, size=24 * k)
            at = int(rng.integers(k))
            cols = slice(24 * at, 24 * at + 24)
            block = solve_batch(ieee69, p[:, None] * factors, q[:, None] * factors)
            alone = solve_batch(ieee69, p[:, None] * factors[cols], q[:, None] * factors[cols])
            for name in ("v_complex", "s_flow", "p_loss", "p_slack", "q_slack", "converged", "mismatch"):
                assert np.array_equal(getattr(block, name)[..., cols], getattr(alone, name)), (k, name)

    def test_nonfinite_column_isolated(self, ieee69):
        # an absurd load overflows its column's currents to NaN mid-sweep: the
        # solver zeroes them, so the column's results stay finite, flags the
        # column, and leaves the other columns' bits as they are without it
        p, q = load_injections(ieee69)
        factors = np.linspace(0.5, 1.5, 8)
        p_ok, q_ok = p[:, None] * factors, q[:, None] * factors
        p_bad = p_ok.copy()
        p_bad[5, 3] = -1e300
        ok = solve_batch(ieee69, p_ok, q_ok)
        bad = solve_batch(ieee69, p_bad, q_ok)
        assert ok.converged.all() and not bad.converged[3]
        assert np.isfinite(bad.v_complex[:, 3]).all() and np.isfinite(bad.s_flow[:, 3]).all()
        assert np.isfinite([bad.p_loss[3], bad.p_slack[3], bad.q_slack[3]]).all()
        assert bad.iterations == ok.iterations
        others = np.arange(8) != 3
        for name in ("v_complex", "s_flow", "p_loss", "p_slack", "converged", "mismatch"):
            assert np.array_equal(getattr(bad, name)[..., others], getattr(ok, name)[..., others]), name

    def test_batch_shape_kept(self, ieee69):
        # (n_bus, 2, 3) solves as the (n_bus, 6) block, reshaped; (n_bus,) gives 0-d results
        p, q = load_injections(ieee69)
        factors = np.linspace(0.5, 1.5, 6)
        flat = solve_batch(ieee69, p[:, None] * factors, q[:, None] * factors)
        nested = solve_batch(ieee69, (p[:, None] * factors).reshape(69, 2, 3), (q[:, None] * factors).reshape(69, 2, 3))
        assert nested.v_complex.shape == (69, 2, 3) and nested.s_flow.shape == (68, 2, 3)
        for name in ("v_complex", "s_flow", "p_loss", "p_slack", "q_slack", "converged", "mismatch"):
            a = getattr(flat, name)
            assert np.array_equal(getattr(nested, name), a.reshape(*a.shape[:-1], 2, 3)), name
        single = solve_batch(ieee69, p, q)
        assert single.v.shape == (69,) and single.p_loss.shape == single.converged.shape == ()

    def test_max_iter_validation(self, ieee69):
        z = np.zeros((69, 1))
        with pytest.raises(ValueError, match="max_iter"):
            solve_batch(ieee69, z, z, max_iter=0)

    def test_transposed_block_rejected(self, ieee69):
        # one orientation only: (m, n_bus) is never read as (n_bus, m)
        p, q = load_injections(ieee69)
        factors = np.array([0.5, 1.0, 1.5])
        with pytest.raises(ValueError, match="n_bus=69"):
            solve_batch(ieee69, factors[:, None] * p, factors[:, None] * q)


def _tree(parents, rng, substation=1):
    """Network on buses 1..n whose bus i + 2 hangs off bus parents[i] + 1,
    with its branches listed in random order and random orientation."""
    n = len(parents) + 1
    branches = []
    for i, par in enumerate(parents):
        ends = (par + 1, i + 2) if rng.random() < 0.5 else (i + 2, par + 1)
        branches.append(Branch(*ends, r=float(rng.uniform(0.01, 1.0)), x=float(rng.uniform(0.01, 1.0))))
    order = rng.permutation(len(branches))
    return Network(
        [Bus(id=i + 1) for i in range(n)], [branches[k] for k in order], substation_bus=substation
    )


def _dense_reference(net: Network, rows: np.ndarray):
    """The shared-path impedance matrix and the branch-path incidence, with
    non-slack buses as ``rows``, built from a breadth-first walk."""
    z_base = net.base_kv**2 / net.base_mva
    adj = {b.id - 1: [] for b in net.buses}
    for k, br in enumerate(net.branches):
        adj[br.from_bus - 1].append((br.to_bus - 1, k))
        adj[br.to_bus - 1].append((br.from_bus - 1, k))
    paths = {net.substation_bus - 1: []}
    queue = deque([net.substation_bus - 1])
    while queue:
        u = queue.popleft()
        for v, k in adj[u]:
            if v not in paths:
                paths[v] = paths[u] + [k]
                queue.append(v)
    path = np.zeros((len(net.branches), len(rows)))
    for c, bus in enumerate(rows):
        path[paths[bus], c] = 1.0
    z = np.array([(br.r + 1j * br.x) / z_base for br in net.branches])
    return path.T @ (z[:, None] * path), path


class TestTourProduct:
    """The O(n) tree product that feeders from ``_TOUR_MIN_BUSES`` buses use
    in place of the dense path-impedance products."""

    def test_product_chosen_by_bus_count(self, ieee69):
        rng = np.random.default_rng(7)
        assert isinstance(_model(ieee69).product, _DenseProduct)
        assert isinstance(_model(trunk_feeder(rng, _TOUR_MIN_BUSES - 1)).product, _DenseProduct)
        big = _model(trunk_feeder(rng, _TOUR_MIN_BUSES)).product
        assert isinstance(big, _TourProduct) and not hasattr(big, "dlf")

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(["random", "chain", "star"]),
        n=st.integers(2, 40),
        m=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_dense_products(self, shape, n, m, seed):
        rng = np.random.default_rng(seed)
        parents = {
            "random": [int(rng.integers(0, i + 1)) for i in range(n - 1)],
            "chain": list(range(n - 1)),
            "star": [0] * (n - 1),
        }[shape]
        net = _tree(parents, rng, substation=int(rng.integers(1, n + 1)))
        tour = _TourProduct(_SweepModel(net))
        dlf, path = _dense_reference(net, tour.nonslack)
        i = rng.normal(size=(n - 1, m)) + 1j * rng.normal(size=(n - 1, m))
        product = tour.sweeper(m)
        for _ in range(2):  # the work buffers are reused between sweeps
            got, ref = product(i), dlf @ i
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=0))
        got, ref = tour.branch_currents(i), -(path @ i)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=0))

    @pytest.mark.parametrize("seed, n", [(0, _TOUR_MIN_BUSES), (1, 260), (2, 400)])
    def test_newton_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        net = trunk_feeder(rng, n)
        assert isinstance(_model(net).product, _TourProduct)
        p, q = load_injections(net)
        p[int(rng.integers(1, n))] += 2000.0  # a generator pushes power back
        sol = solve_batch(net, p, q, tol=1e-10)
        v_ref, ok = pf_oracle_newton(net, p, q)
        assert sol.converged and ok
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6

    def test_width_invariance(self, rng):
        # any columns, a single one included, solved inside a block of any
        # width, a multiple of 4 or not, are bit-identical to the same
        # columns solved alone
        net = trunk_feeder(rng, 250)
        assert isinstance(_model(net).product, _TourProduct)
        p, q = load_injections(net)
        for width in (2, 3, 5, 7, 13, 24, 50, 97):
            factors = rng.uniform(0.3, 1.9, size=width)
            block = solve_batch(net, p[:, None] * factors, q[:, None] * factors)
            at = int(rng.integers(width))
            for cols in (slice(at, at + 1), slice(at, at + int(rng.integers(1, width - at + 1)))):
                alone = solve_batch(net, p[:, None] * factors[cols], q[:, None] * factors[cols])
                for name in ("v_complex", "s_flow", "p_loss", "p_slack", "q_slack", "converged", "mismatch"):
                    assert np.array_equal(getattr(block, name)[..., cols], getattr(alone, name)), (width, cols, name)


class TestSweepOracle:
    """The sweep keeps |v| between sweeps and multiplies the currents by
    1 / |v|^2: every result keeps the bits of the loop it replaced."""

    FIELDS = ("v_complex", "s_flow", "p_loss", "p_slack", "q_slack", "converged", "mismatch")

    @pytest.mark.parametrize("max_iter", [4, 100])
    @pytest.mark.parametrize("n_bus", [69, 250])  # the dense product, then the tour
    def test_fields_match(self, n_bus, max_iter, ieee69):
        rng = np.random.default_rng(n_bus)
        net = ieee69 if n_bus == 69 else trunk_feeder(rng, n_bus)
        assert isinstance(_model(net).product, _DenseProduct if n_bus == 69 else _TourProduct)
        p, q = load_injections(net)
        # no injection; load that collapses the voltage; load that needs more
        # than 4 sweeps; generation; ordinary load
        factors = np.concatenate([[0.0, 12.0, 3.0, -0.5], rng.uniform(0.3, 1.9, 20)])
        p, q = p[:, None] * factors, q[:, None] * factors
        sol = solve_batch(net, p, q, max_iter=max_iter)
        ref = sweep_oracle(net, p, q, max_iter=max_iter)
        for name in self.FIELDS:
            assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
        assert sol.iterations == ref.iterations
        assert sol.p_slack[0] == 0.0 and sol.p_loss[0] == 0.0
        assert not sol.converged[1] and sol.v[:, 1].min() < 0.3
        assert sol.converged[2] == (max_iter == 100)
        assert sol.converged[3:].all() == (max_iter == 100)


# numpy's bundled OpenBLAS (0.3.31, x86-64 AVX-512 kernels) sums the inner
# dimension of a complex matrix product in blocks of this many rows.  Within
# one block it adds the terms in order, so dropping exactly-zero terms
# changes no bit of the sum; across blocks it does not hold, since the
# dropped terms move the block boundary.
BLAS_K_BLOCK = 128


def _live_feeder(rng, n, pattern):
    """A trunk feeder of n buses whose loaded non-slack buses are "all",
    "one", "none" or a "random" share of them; "random" also places up to
    three DGs, PV arrays or storage units at random buses."""
    base = trunk_feeder(rng, n)
    loaded = {
        "all": np.ones(n, dtype=bool),
        "one": np.arange(n) == int(rng.integers(1, n)),
        "none": np.zeros(n, dtype=bool),
        "random": rng.random(n) < rng.random(),
    }[pattern]
    buses = [b if loaded[k] else replace(b, p_load=0.0, q_load=0.0) for k, b in enumerate(base.buses)]
    devices = {"dgs": [], "pvs": [], "esss": []}
    if pattern == "random":
        for bus in rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, min(n, 4))), replace=False):
            kind = str(rng.choice(list(devices)))
            devices[kind].append(
                {
                    "dgs": DgSpec(bus=int(bus)),
                    "pvs": PvSpec(bus=int(bus), capacity=300.0),
                    "esss": EssSpec(bus=int(bus), w_min=0.0, w_max=200.0, p_charge_max=50.0, p_discharge_max=50.0),
                }[kind]
            )
    return Network(buses, base.branches, v_min=base.v_min, v_max=base.v_max, base_kv=base.base_kv, **devices)


class TestLiveRows:
    """The dense product sweeps only the rows of the buses a call may inject
    at: those with load or a device.  ``solve_batch`` refuses an injection
    at any other non-slack bus, so a call cannot change the swept rows."""

    FIELDS = ("v_complex", "s_flow", "p_loss", "p_slack", "q_slack", "converged", "mismatch")

    def test_live_set(self, ieee69):
        # 19 of the 68 non-slack buses have neither load nor a device
        product = _model(ieee69).product
        injected = {b.id - 1 for b in ieee69.buses if b.p_load or b.q_load}
        injected |= {d.bus - 1 for d in (*ieee69.dgs, *ieee69.pvs, *ieee69.esss)}
        assert product.buses.tolist() == sorted(injected - {0}) and len(product.buses) == 49
        assert product.dlf.shape == (49, 49) and product.dlf_cols.shape == product.path.shape == (68, 49)

    @pytest.mark.parametrize("n_bus", [69, 250])  # the dense product, then the tour
    def test_junction_injection_refused(self, ieee69, n_bus):
        rng = np.random.default_rng(n_bus)
        net = ieee69 if n_bus == 69 else _live_feeder(rng, n_bus, "random")
        mdl = _model(net)
        used = {b.id - 1 for b in net.buses if b.p_load or b.q_load}
        used |= {d.bus - 1 for d in (*net.dgs, *net.pvs, *net.esss)} | {net.substation_bus - 1}
        junctions = sorted(set(range(net.n_bus)) - used)
        assert mdl.junctions.tolist() == junctions and junctions
        bus = int(rng.choice(junctions))
        p, q = load_injections(net)
        for which, value in (("p", 25.0), ("q", -0.5), ("p", np.nan), ("q", np.nan)):
            for pb, qb in ((p.copy(), q.copy()), (np.tile(p[:, None], 4), np.tile(q[:, None], 4))):
                (pb if which == "p" else qb)[bus, ...] = value
                with pytest.raises(ValueError, match=f"^bus {bus + 1} carries neither load nor a device"):
                    solve_batch(net, pb, qb)
        # -0.0 at every junction is no injection, and the substation bus
        # takes any injection
        pos, neg = p.copy(), p.copy()
        pos[junctions], neg[junctions] = 0.0, -0.0
        a, b = solve_batch(net, pos, q), solve_batch(net, neg, q)
        for name in self.FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        pos[mdl.slack] -= 40.0
        assert solve_batch(net, pos, q).p_slack == pytest.approx(a.p_slack + 40.0)

    @pytest.mark.parametrize("width", [4, 8, 24, 48, 96, 100, 372, 456, 960])
    def test_blas_drops_zero_terms_exactly(self, ieee69, width):
        # the canary of the reduction: if numpy's BLAS ever orders these sums
        # differently, the live-row sweep no longer keeps the bits of the
        # full product, and this test fails first
        product = _model(ieee69).product
        ref = tree_oracle(ieee69)["dense"]
        live = np.isin(ref["nonslack"], product.buses)
        rng = np.random.default_rng(width)
        i = rng.normal(size=(len(live), width)) + 1j * rng.normal(size=(len(live), width))
        i[~live] = 0.0
        full, il = ref["dlf"] @ i, i[live]
        assert (ref["dlf"][:, live] @ il).tobytes() == full.tobytes()
        assert (product.dlf @ il).tobytes() == full[live].tobytes()
        assert (product.dlf_cols @ il).tobytes() == full.tobytes()
        assert (product.path @ il).tobytes() == (ref["path"] @ i).tobytes()

    def test_width_invariance_changed_live_set(self, ieee69, rng):
        # a block in which another group of 24 columns injects at a junction
        # is refused; with that injection at -0.0, which is none, a group
        # solved alone keeps its bits inside the block (groups rather than
        # single columns: single columns run through another BLAS kernel)
        p, q = load_injections(ieee69)
        junctions = _model(ieee69).junctions
        for k in (2, 5, 17):
            factors = rng.uniform(0.3, 1.9, size=24 * k)
            pb, qb = p[:, None] * factors, q[:, None] * factors
            at = int(rng.integers(k))
            cols = slice(24 * at, 24 * at + 24)
            other = 24 * ((at + 1) % k)
            bus = int(rng.choice(junctions))
            pb[bus, other : other + 24] = -rng.uniform(50.0, 300.0, 24)
            with pytest.raises(ValueError, match=f"^bus {bus + 1} carries neither load nor a device"):
                solve_batch(ieee69, pb, qb)
            pb[bus, other : other + 24] = -0.0
            block = solve_batch(ieee69, pb, qb)
            alone = solve_batch(ieee69, pb[:, cols], qb[:, cols])
            for name in self.FIELDS:
                assert np.array_equal(getattr(block, name)[..., cols], getattr(alone, name)), (k, name)

    def test_width_invariance_blas_blocks(self):
        # from 130 buses OpenBLAS sums the inner dimension in blocks of
        # BLAS_K_BLOCK rows: each group of 24 columns solved alone keeps its
        # bits inside blocks of 2 and 7 groups
        swept = []
        for seed in range(24):
            rng = np.random.default_rng(seed)
            net = _live_feeder(rng, int(rng.integers(BLAS_K_BLOCK + 2, _TOUR_MIN_BUSES)), "random")
            mdl = _model(net)
            assert isinstance(mdl.product, _DenseProduct)
            swept.append(len(mdl.product.buses))
            p, q = load_injections(net)
            for k in (2, 7):
                factors = rng.uniform(0.3, 1.9, size=24 * k)
                pb, qb = p[:, None] * factors, q[:, None] * factors
                for dev in (*net.dgs, *net.pvs, *net.esss):
                    pb[dev.bus - 1] += rng.uniform(-100.0, 300.0, 24 * k)
                block = solve_batch(net, pb, qb)
                for g in range(k):
                    cols = slice(24 * g, 24 * g + 24)
                    alone = solve_batch(net, pb[:, cols], qb[:, cols])
                    for name in self.FIELDS:
                        assert np.array_equal(getattr(block, name)[..., cols], getattr(alone, name)), (seed, k, g, name)
        assert max(swept) > BLAS_K_BLOCK  # some products span two blocks

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, _TOUR_MIN_BUSES - 1),
        pattern=st.sampled_from(["all", "one", "none", "random"]),
        groups=st.integers(1, 6),
        max_iter=st.sampled_from([1, 4, 100]),
        stray=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_equal_unreduced_oracle(self, n, pattern, groups, max_iter, stray, seed):
        # widths are multiples of 4: solve_batch adds no padding columns, so
        # the unpadded oracle runs the same BLAS kernels
        rng = np.random.default_rng(seed)
        net = _live_feeder(rng, n, pattern)
        mdl = _model(net)
        assert isinstance(mdl.product, _DenseProduct)
        p, q = load_injections(net)
        tree = tree_oracle(net)["dense"]
        s = (p + 1j * q)[tree["nonslack"]] / mdl.s_base_kva
        drop = np.abs(tree["dlf"] @ np.conj(s)).max() or 1.0  # the linearized worst voltage drop
        # no injection; a drop of 1.2 pu, which collapses or runs out of
        # sweeps; one of 0.35 pu, slow or not converging; generation; load
        factors = np.concatenate([[0.0, 1.2 / drop, 0.35 / drop, -0.2 / drop], rng.uniform(0.3, 1.9, 4 * groups)])
        factors = factors[: 4 * groups]
        p, q = p[:, None] * factors, q[:, None] * factors
        some = rng.random((2, len(factors))) < 0.6
        some[:, 0] = False  # column 0 stays without injection
        for dev in (*net.dgs, *net.pvs, *net.esss):
            p[dev.bus - 1] += rng.uniform(-100.0, 300.0) * some[0]
        if stray and len(mdl.junctions) and some[1].any():  # a call that injects at a junction is refused
            bus = int(rng.choice(mdl.junctions))
            p_stray = p.copy()
            p_stray[bus] -= rng.uniform(1.0, 400.0) * some[1]
            with pytest.raises(ValueError, match=f"^bus {bus + 1} carries neither load nor a device"):
                solve_batch(net, p_stray, q, max_iter=max_iter)
        sol = solve_batch(net, p, q, max_iter=max_iter)
        ref = sweep_oracle(net, p, q, max_iter=max_iter)
        if n - 1 <= BLAS_K_BLOCK:
            for name in self.FIELDS:
                assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
            assert sol.iterations == ref.iterations
        else:
            # dropping terms moves the BLAS block boundary: the sums agree to
            # rounding, and the converged columns to their tolerance
            assert np.array_equal(sol.converged, ref.converged)
            ok = sol.converged
            assert np.allclose(sol.v_complex[:, ok], ref.v_complex[:, ok], rtol=0.0, atol=1e-9)
        assert sol.p_loss[0] == 0.0 and sol.converged[0]


class TestAlone:
    """A profile solved alone, as an (n_bus,) call, keeps the bits of its
    entry in any block or nested batch, on dense and on tour feeders: every
    call pads its last batch axis to a multiple of 4 columns."""

    FIELDS = ("v_complex", "s_flow", "p_loss", "p_slack", "q_slack", "converged", "mismatch")

    @staticmethod
    def _feeders(ieee69):
        yield ieee69
        for seed in range(3):  # the dense product over two BLAS blocks
            rng = np.random.default_rng(seed)
            yield _live_feeder(rng, int(rng.integers(BLAS_K_BLOCK + 2, _TOUR_MIN_BUSES)), "random")
        yield trunk_feeder(np.random.default_rng(3), 250)

    def test_single_equals_entry(self, ieee69):
        rng = np.random.default_rng(37)
        for net in self._feeders(ieee69):
            p, q = load_injections(net)
            factors = rng.uniform(0.3, 1.9, size=37)
            pb, qb = p[:, None] * factors, q[:, None] * factors
            for dev in (*net.dgs, *net.pvs, *net.esss):
                pb[dev.bus - 1] += rng.uniform(-100.0, 300.0, 37)
            alone = [solve_batch(net, pb[:, c], qb[:, c]) for c in range(37)]
            one = alone[0]
            assert one.v_complex.shape == (net.n_bus,) and one.s_flow.shape == (net.n_bus - 1,)
            for name in self.FIELDS[2:]:  # 0-d arrays, not scalars
                assert isinstance(getattr(one, name), np.ndarray) and getattr(one, name).shape == (), name
            for m in (*range(1, 10), 24, 37):
                at = int(rng.integers(38 - m))
                block = solve_batch(net, pb[:, at : at + m], qb[:, at : at + m])
                for c in range(m):
                    for name in self.FIELDS:
                        got, want = getattr(block, name)[..., c], getattr(alone[at + c], name)
                        assert got.tobytes() == want.tobytes(), (net.n_bus, m, c, name)
            nested = solve_batch(net, pb[:, :35].reshape(-1, 5, 7), qb[:, :35].reshape(-1, 5, 7))
            assert nested.v_complex.shape == (net.n_bus, 5, 7) and nested.p_loss.shape == (5, 7)
            for c in range(35):
                for name in self.FIELDS:
                    got, want = getattr(nested, name)[..., c // 7, c % 7], getattr(alone[c], name)
                    assert got.tobytes() == want.tobytes(), (net.n_bus, "nested", c, name)

    def test_padding_keeps_iterations(self, ieee69):
        # a diverging profile stops the call after 2 sweeps, alone or in a
        # block: the padding copies it, and a copy stops with it
        p, q = load_injections(ieee69)
        p[5] = -1e300
        for pb, qb in ((p, q), (np.tile(p[:, None], 3), np.tile(q[:, None], 3))):
            sol = solve_batch(ieee69, pb, qb)
            assert sol.iterations == 2 and not sol.converged.any()

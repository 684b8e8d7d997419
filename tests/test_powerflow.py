import numpy as np
import pytest

from dnems.network import Branch, Bus, make_network
from dnems.powerflow import InjectionProfile, check_limits, solve, solve_batch
from oracles import pf_oracle_newton, pf_oracle_sweep, random_radial_network


def load_injections(net):
    p = np.array([-b.p_load for b in net.buses])
    q = np.array([-b.q_load for b in net.buses])
    return p, q


class TestFlatAndTrivial:
    def test_zero_injections_flat(self, ieee69):
        z = np.zeros(69)
        sol = solve(ieee69, InjectionProfile(z, z))
        assert sol.converged
        assert np.allclose(sol.v, 1.0)
        assert sol.p_loss_total == pytest.approx(0.0, abs=1e-12)
        assert sol.p_slack == pytest.approx(0.0, abs=1e-9)

    def test_slack_voltage_exact(self, ieee69):
        p, q = load_injections(ieee69)
        sol = solve(ieee69, InjectionProfile(p, q))
        assert sol.v[0] == 1.0
        assert sol.delta[0] == 0.0

    def test_zero_impedance_branch_rejected(self):
        with pytest.raises(ValueError, match="zero-impedance"):  # at validation, before any solve
            make_network(
                [Bus(id=1), Bus(id=2, p_load=10)],
                [Branch(1, 2, 0.0, 0.0)],
            )

    def test_nonconvergence_flagged_not_raised(self, two_bus):
        # a hopeless load: fixed point collapses, caller gets converged=False
        p = np.array([0.0, -5e7])
        sol = solve(two_bus, InjectionProfile(p, np.zeros(2)))
        assert not sol.converged


class TestTwoBusLadderOracle:
    def test_matches_fixed_point_iteration(self):
        # 2-bus feeder, z = 0.01 + j0.01 pu, load 1.0 + j0.0 pu at bus 2
        base_kv, base_mva = 12.66, 10.0
        z_base = base_kv**2 / base_mva
        net = make_network(
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
        sol = solve(net, InjectionProfile(p, q), tol=1e-12)
        assert sol.converged
        assert sol.v[1] == pytest.approx(abs(v2), abs=1e-8)
        assert sol.p_loss_total / (base_mva * 1000) == pytest.approx(expected_loss_pu, abs=1e-8)


class TestIndependentSweepOracle:
    def test_69_bus_base_case(self, ieee69):
        p, q = load_injections(ieee69)
        sol = solve(ieee69, InjectionProfile(p, q), tol=1e-10)
        v_ref, loss_ref = pf_oracle_sweep(ieee69, p, q)
        assert sol.converged
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6
        assert sol.p_loss_total == pytest.approx(loss_ref, abs=1e-3)
        # canonical values for this feeder
        assert sol.p_loss_total == pytest.approx(224.96, abs=0.5)
        assert sol.v.min() == pytest.approx(0.9092, abs=5e-4)


class TestNewtonOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_feeders(self, seed):
        rng = np.random.default_rng(seed)
        net = random_radial_network(rng, int(rng.integers(3, 16)))
        p, q = load_injections(net)
        sol = solve(net, InjectionProfile(p, q), tol=1e-10)
        v_ref, ok = pf_oracle_newton(net, p, q)
        assert sol.converged and ok
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6

    def test_with_generation(self, rng):
        net = random_radial_network(rng, 12)
        p, q = load_injections(net)
        p[5] += 800.0  # local generator pushes power back
        sol = solve(net, InjectionProfile(p, q), tol=1e-10)
        v_ref, ok = pf_oracle_newton(net, p, q)
        assert sol.converged and ok
        assert np.max(np.abs(sol.v - np.abs(v_ref))) < 1e-6


class TestConservationAndMonotonicity:
    def test_power_conservation(self, ieee69, rng):
        tol = 1e-6
        for _ in range(5):
            scale = rng.uniform(0.3, 1.2)
            p = np.array([-b.p_load * scale for b in ieee69.buses])
            q = np.array([-b.q_load * scale for b in ieee69.buses])
            sol = solve(ieee69, InjectionProfile(p, q), tol=tol)
            assert sol.converged
            residual = sol.p_slack + p.sum() - sol.p_loss_total
            assert abs(residual) <= 10 * tol * ieee69.base_mva * 1000

    def test_loss_nonnegative(self, rng):
        for _ in range(10):
            net = random_radial_network(rng, int(rng.integers(3, 14)))
            p, q = load_injections(net)
            sol = solve(net, InjectionProfile(p, q))
            assert sol.converged
            assert sol.p_loss_total >= 0

    def test_load_increase_never_raises_own_voltage(self, ieee69):
        p, q = load_injections(ieee69)
        base = solve(ieee69, InjectionProfile(p, q))
        for bus_pos in (10, 40, 64):
            p2 = p.copy()
            p2[bus_pos] -= 200.0
            bumped = solve(ieee69, InjectionProfile(p2, q))
            assert bumped.v[bus_pos] <= base.v[bus_pos] + 1e-12


class TestBatch:
    def test_batch_matches_single(self, ieee69, rng):
        p, q = load_injections(ieee69)
        cols = np.stack([p * s for s in (0.4, 0.8, 1.0)], axis=1)
        qcols = np.stack([q * s for s in (0.4, 0.8, 1.0)], axis=1)
        batch = solve_batch(ieee69, cols, qcols)
        for i, s in enumerate((0.4, 0.8, 1.0)):
            single = solve(ieee69, InjectionProfile(p * s, q * s))
            assert np.allclose(batch.v[:, i], single.v, atol=1e-9)
            assert batch.p_loss[i] == pytest.approx(single.p_loss_total, abs=1e-9)
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


class TestCheckLimits:
    def test_feasible_empty(self, ieee69):
        p, q = load_injections(ieee69)
        sol = solve(ieee69, InjectionProfile(p * 0.2, q * 0.2))
        report = check_limits(sol, ieee69)
        assert report.is_empty

    def test_voltage_excess_arithmetic(self, two_bus):
        p = np.array([0.0, -9000.0])
        sol = solve(two_bus, InjectionProfile(p, np.zeros(2)))
        assert sol.converged
        report = check_limits(sol, two_bus)
        expected = max(0.0, two_bus.v_min - sol.v[1])
        assert report.voltage_overshoot_pu[1] == pytest.approx(expected)

    def test_flow_excess_arithmetic(self):
        net = make_network(
            [Bus(id=1), Bus(id=2, p_load=120.0)],
            [Branch(1, 2, 0.01, 0.01, s_max=100.0)],
            v_min=0.5,
            v_max=1.5,
        )
        sol = solve(net, InjectionProfile(np.array([0.0, -120.0]), np.zeros(2)))
        report = check_limits(sol, net)
        assert report.flow_overshoot_kva[0] == pytest.approx(sol.s_flow[0] - 100.0)
        assert not report.is_empty

    def test_batch_columns_match_single(self):
        net = make_network(
            [Bus(id=1), Bus(id=2, p_load=120.0)],
            [Branch(1, 2, 0.01, 0.01, s_max=100.0)],
            v_min=0.9999,
            v_max=1.5,
        )
        loads = (50.0, 120.0, 4000.0)  # clean, flow overshoot, flow and voltage overshoot
        batch = solve_batch(net, np.array([[0.0] * 3, [-k for k in loads]]), np.zeros((2, 3)))
        report = check_limits(batch, net)
        assert report.flow_overshoot_kva.shape == batch.s_flow.shape
        assert report.voltage_overshoot_pu.shape == batch.v.shape
        for i, k in enumerate(loads):
            single = check_limits(solve(net, InjectionProfile(np.array([0.0, -k]), np.zeros(2))), net)
            assert np.allclose(report.flow_overshoot_kva[:, i], single.flow_overshoot_kva, atol=1e-9)
            assert np.allclose(report.voltage_overshoot_pu[:, i], single.voltage_overshoot_pu, atol=1e-12)
        assert report.flow_overshoot_kva[0, 0] == 0.0 < report.flow_overshoot_kva[0, 1]
        assert report.voltage_overshoot_pu[1, 1] == 0.0 < report.voltage_overshoot_pu[1, 2]

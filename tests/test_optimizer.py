import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnems.objectives import ObjectiveVector
from dnems.optimizer import (
    GwoState,
    HybridConfig,
    PsoState,
    SearchSpace,
    epsilon_schedule,
    gwo_step,
    hybrid_run,
    mu_schedule,
    pso_step,
    rowwise,
    single_run,
)
from oracles import search_oracle


class SequenceRng:
    """Stub random source: ``random(shape)`` returns the next constant fill."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape=None):
        value = self.values.pop(0)
        return np.full(shape, value) if shape is not None else value


def sphere(x):
    v = float(np.sum(np.asarray(x) ** 2))
    return ObjectiveVector(f1=v, f2=v, penalty=0.0)


def rastrigin(x):
    x = np.asarray(x)
    v = float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))
    return ObjectiveVector(f1=v, f2=v, penalty=0.0)


def wide_space(dim=1, half=100.0):
    return SearchSpace(-half * np.ones(dim), half * np.ones(dim))


def tied(x):
    """Objectives rounded to whole numbers and a box penalty in tenths, so
    that candidates often score alike."""
    x = np.asarray(x)
    return ObjectiveVector(
        f1=float(np.round(np.sum(x * x))),
        f2=float(np.round(np.sum((x - 1.0) ** 2))),
        penalty=float(np.round(np.sum(np.maximum(0.0, np.abs(x) - 2.0)), 1)),
    )


class TestSchedules:
    def test_epsilon_linear_two_to_zero(self):
        total = 50
        values = [epsilon_schedule(i, total) for i in range(total)]
        assert values[0] == 2.0
        assert values[-1] == 0.0
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0])

    def test_mu_linear(self):
        total = 50
        values = [mu_schedule(i, total) for i in range(total)]
        assert values[0] == pytest.approx(0.9)
        assert values[-1] == pytest.approx(0.4)
        assert np.allclose(np.diff(values), np.diff(values)[0])

    def test_single_iteration_edge(self):
        assert epsilon_schedule(0, 1) == 2.0
        assert mu_schedule(0, 1) == 0.9


class TestGwoStep:
    def test_leaders_at_own_position_stay_put(self):
        x = np.array([[3.0, -2.0]])
        state = GwoState(positions=x.copy(), alpha=x[0], beta=x[0], delta=x[0], epsilon=2.0)
        # eta = 1 makes every distance zero, so zeta draws cannot matter
        rng = SequenceRng([0.5, 0.9, 0.5, 0.1, 0.5, 0.7])
        out = gwo_step(state, wide_space(2), rng)
        assert np.allclose(out, x, atol=1e-12)

    def test_one_dimensional_hand_case(self):
        # leader 1.0, wolf 0.0, R1=0.5 (eta=1), eps=2, R2=0.75 (zeta=1):
        # distance 1.0, candidate = 1.0 - 1*1 = 0.0 for all three leaders
        state = GwoState(
            positions=np.array([[0.0]]),
            alpha=np.array([1.0]),
            beta=np.array([1.0]),
            delta=np.array([1.0]),
            epsilon=2.0,
        )
        rng = SequenceRng([0.5, 0.75] * 3)
        out = gwo_step(state, wide_space(), rng)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_zero_pure_exploitation(self, rng):
        positions = rng.uniform(-5, 5, size=(4, 3))
        a, b, c = rng.uniform(-5, 5, size=(3, 3))
        state = GwoState(positions=positions, alpha=a, beta=b, delta=c, epsilon=0.0)
        out = gwo_step(state, wide_space(3), rng)
        expected = np.broadcast_to((a + b + c) / 3.0, out.shape)
        assert np.allclose(out, expected, atol=1e-12)

    def test_identical_population_fixed_point(self):
        x = np.tile([[1.5, -0.5]], (6, 1))
        state = GwoState(positions=x.copy(), alpha=x[0], beta=x[0], delta=x[0], epsilon=0.0)
        out = gwo_step(state, wide_space(2), np.random.default_rng(0))
        assert np.allclose(out, x)


class TestPsoStep:
    def test_hand_case(self):
        state = PsoState(
            positions=np.array([[0.0]]),
            velocities=np.array([[1.0]]),
            pbest=np.array([[2.0]]),
            gbest=np.array([3.0]),
            mu=0.7,
        )
        rng = SequenceRng([1.0, 1.0])
        x_new, v_new = pso_step(state, wide_space(), rng)
        assert v_new[0, 0] == pytest.approx(8.18090, abs=1e-12)
        assert x_new[0, 0] == pytest.approx(8.18090, abs=1e-12)

    def test_converged_particle_fixed_point(self):
        x = np.array([[4.0, -1.0]])
        state = PsoState(
            positions=x.copy(),
            velocities=np.zeros((1, 2)),
            pbest=x.copy(),
            gbest=x[0].copy(),
            mu=0.9,
        )
        x_new, v_new = pso_step(state, wide_space(2), np.random.default_rng(1))
        assert np.allclose(x_new, x)
        assert np.allclose(v_new, 0.0)

    def test_zero_coefficients_degenerate(self):
        state = PsoState(
            positions=np.array([[1.0]]),
            velocities=np.array([[5.0]]),
            pbest=np.array([[2.0]]),
            gbest=np.array([9.0]),
            mu=0.0,
        )
        rng = SequenceRng([0.0, 0.0])
        _, v_new = pso_step(state, wide_space(), rng)
        assert v_new[0, 0] == 0.0

    def test_velocity_clamped_to_box_width(self):
        space = SearchSpace(np.array([0.0]), np.array([1.0]))
        state = PsoState(
            positions=np.array([[0.0]]),
            velocities=np.array([[50.0]]),
            pbest=np.array([[1.0]]),
            gbest=np.array([1.0]),
            mu=1.0,
        )
        x_new, v_new = pso_step(state, space, SequenceRng([1.0, 1.0]))
        assert abs(v_new[0, 0]) <= 1.0
        assert 0.0 <= x_new[0, 0] <= 1.0


class TestRuns:
    def test_determinism(self):
        space = wide_space(5, 10.0)
        cfg = HybridConfig(population=10, iterations=12, seed=99)
        arch1, log1 = hybrid_run(cfg, space, rowwise(sphere))
        arch2, log2 = hybrid_run(cfg, space, rowwise(sphere))
        assert log1 == log2
        assert [(e.f.f1, e.f.f2) for e in arch1.entries] == [(e.f.f1, e.f.f2) for e in arch2.entries]
        assert all(
            np.array_equal(a.x, b.x) for a, b in zip(arch1.entries, arch2.entries)
        )

    def test_positions_stay_in_bounds(self):
        space = SearchSpace(np.array([-1.0, 0.0]), np.array([1.0, 5.0]))
        seen = []

        def recording(x):
            seen.append(x.copy())
            return sphere(x)

        hybrid_run(HybridConfig(population=8, iterations=10, seed=3), space, rowwise(recording))
        arr = np.stack(seen)
        assert np.all(arr[:, 0] >= -1.0) and np.all(arr[:, 0] <= 1.0)
        assert np.all(arr[:, 1] >= 0.0) and np.all(arr[:, 1] <= 5.0)

    def test_fixed_coordinate_stays_fixed(self):
        # equal bounds pin a coordinate, as a DG with p_min == p_max does
        space = SearchSpace(np.array([-5.0, 3.0]), np.array([5.0, 3.0]))
        seen = []

        def recording(x):
            seen.append(x.copy())
            return sphere(x)

        archive, _ = hybrid_run(HybridConfig(population=8, iterations=10, seed=3), space, rowwise(recording))
        assert archive.entries and all(e.x[1] == 3.0 for e in archive.entries)
        assert all(x[1] == 3.0 for x in seen)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            SearchSpace(np.array([0.0, 2.0]), np.array([1.0, 1.0]))

    def test_archive_best_monotone(self):
        space = wide_space(6, 50.0)
        _, log = hybrid_run(HybridConfig(population=12, iterations=30, seed=5), space, rowwise(sphere))
        best = [row["best_f1"] for row in log]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_gwo_and_pso_converge_on_sphere(self):
        space = wide_space(10)
        for mode in ("gwo", "pso"):
            finals = []
            for seed in range(5):
                cfg = HybridConfig(population=50, iterations=100, seed=seed)
                _, log = single_run(mode, cfg, space, rowwise(sphere))
                finals.append(log[-1]["best_f1"])
            assert np.median(finals) <= 1e-2

    def test_evaluator_failure_carries_position(self):
        # the evaluator's own exception reaches the caller as it was raised,
        # with whatever it holds
        def exploding(x):
            raise RuntimeError("boom", x.copy())

        with pytest.raises(RuntimeError) as err:
            hybrid_run(HybridConfig(population=4, iterations=2, seed=0), wide_space(2), rowwise(exploding))
        assert type(err.value) is RuntimeError and err.value.args[0] == "boom"
        assert err.value.args[1].shape == (2,)

    def test_single_run_raises_the_evaluator_exception(self):
        def exploding(x):
            raise RuntimeError("boom")

        for algorithm in ("gwo", "pso"):
            with pytest.raises(RuntimeError) as err:
                single_run(algorithm, HybridConfig(population=4, iterations=2), wide_space(200), rowwise(exploding))
            assert type(err.value) is RuntimeError and str(err.value) == "boom"

    def test_block_evaluator_failure_carries_block(self):
        def exploding(block):
            raise KeyError("flow", block.shape)

        with pytest.raises(KeyError) as err:
            hybrid_run(HybridConfig(population=4, iterations=2, seed=0), wide_space(168), exploding)
        assert type(err.value) is KeyError and err.value.args == ("flow", (4, 168))

    def test_block_evaluator_sees_whole_population(self):
        shapes = []

        def block(positions):
            shapes.append(positions.shape)
            return rowwise(sphere)(positions)

        hybrid_run(HybridConfig(population=6, iterations=3, seed=2), wide_space(3), block)
        assert shapes == [(6, 3)] * 4

    def test_short_evaluator_result_rejected(self):
        with pytest.raises(ValueError, match="^3 objective vectors for 4 positions$"):
            hybrid_run(HybridConfig(population=4, iterations=1), wide_space(2), lambda b: rowwise(sphere)(b[:3]))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("archive_capacity", 0), ("c1", -0.1), ("c2", -1.0), ("mu_high", -0.5), ("mu_low", float("nan")),
            ("c1", float("inf")), ("c2", float("inf")), ("mu_high", float("inf")), ("mu_low", float("inf")),
            *(
                ("objective_weights", w)
                for w in [(float("nan"), 1.0), (-1.0, 0.0), (0.0, 0.0), (1.0,), (1.0, 0.0, 0.0), ("1", 0.0),
                          (True, 0.0), (float("inf"), 0.0)]
            ),
            pytest.param("c1", 10**400, id="c1-int-too-large-for-a-float"),
        ],
    )
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HybridConfig(**{field: value})

    def test_unknown_algorithm(self):
        # the hybrid split is hybrid_run's alone: single_run runs the two baselines
        for algorithm in ("annealing", "hybrid"):
            with pytest.raises(ValueError, match=f"^unknown algorithm '{algorithm}'$"):
                single_run(algorithm, HybridConfig(population=4, iterations=1), wide_space(), rowwise(sphere))

    def test_odd_population_rejected(self):
        with pytest.raises(ValueError, match="population"):
            HybridConfig(population=7)


class TestSearchOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from(["hybrid", "gwo", "pso"]),
        seed=st.integers(0, 2**32 - 1),
        half=st.integers(1, 6),
        iterations=st.integers(1, 6),
        capacity=st.integers(1, 8),
        weights=st.one_of(
            st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda w: max(w) > 0),
        ),
    )
    def test_matches_one_candidate_at_a_time_ranking(self, mode, seed, half, iterations, capacity, weights):
        cfg = HybridConfig(
            population=2 * half, iterations=iterations, seed=seed, archive_capacity=capacity, objective_weights=weights
        )
        space = wide_space(3, half=3.0)
        if mode == "hybrid":
            archive, log = hybrid_run(cfg, space, rowwise(tied))
        else:
            archive, log = single_run(mode, cfg, space, rowwise(tied))
        want_archive, want_log = search_oracle(mode, cfg, space, rowwise(tied))
        assert [(e.x.tobytes(), e.f) for e in archive.entries] == [(e.x.tobytes(), e.f) for e in want_archive.entries]
        assert log == want_log
        assert all(type(row[key]) is float for row in log for key in ("best_scalar", "best_f1", "best_f2"))

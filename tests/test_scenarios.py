import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from dnems.objectives import ScheduleEvaluator, decision_bounds
from dnems.scenarios import (
    ForecastProfile,
    RunStatistics,
    ScenarioSet,
    default_forecast,
    deterministic_set,
    discretize_normal,
    generate,
    load_forecast,
    reduce,
    reduction_features,
    stopping_rule,
)
from oracles import generate_oracle, reduce_oracle, reduction_cost_oracle

# standard-normal CDF masses of sigma-wide bins at 0, +-1, +-2, +-3 sigma
P7 = (0.0062096653, 0.0605975359, 0.2417303375, 0.3829249226)


def profile_rows(sset):
    """Each scenario's load, PV and price profiles as one (72,) row."""
    return np.hstack([sset.load_factor, sset.pv_factor, sset.price])


def flat_forecast(sig=(0.05, 0.10, 0.05)):
    return ForecastProfile(
        load_factor=np.full(24, 0.8),
        pv_factor=np.linspace(0, 1, 24),
        price=np.full(24, 0.1),
        sigma_load=sig[0],
        sigma_pv=sig[1],
        sigma_price=sig[2],
    )


class TestDiscretize:
    def test_seven_level_probabilities(self):
        bins = discretize_normal(0.0, 1.0, 7)
        probs = [p for _, p in bins]
        expected = [P7[0], P7[1], P7[2], P7[3], P7[2], P7[1], P7[0]]
        assert np.allclose(probs, expected, atol=1e-6)

    def test_centers(self):
        bins = discretize_normal(10.0, 2.0, 5)
        assert [v for v, _ in bins] == [6.0, 8.0, 10.0, 12.0, 14.0]

    def test_sigma_zero_degenerate(self):
        bins = discretize_normal(5.0, 0.0, 7)
        values = [v for v, _ in bins]
        probs = [p for _, p in bins]
        assert all(v == 5.0 for v in values)
        assert probs[3] == 1.0 and sum(probs) == 1.0

    @pytest.mark.parametrize("levels", [3, 5, 7, 9, 11])
    def test_total_probability(self, levels, rng):
        for _ in range(20):
            mean, sigma = rng.normal(), abs(rng.normal())
            total = sum(p for _, p in discretize_normal(mean, sigma, levels))
            assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("levels", [2, 4, 1, 0, -3])
    def test_bad_levels(self, levels):
        with pytest.raises(ValueError, match="levels"):
            discretize_normal(0.0, 1.0, levels)

    @pytest.mark.parametrize("levels", range(3, 52, 2))
    def test_masses_match_scipy(self, levels):
        half = (levels - 1) // 2
        edges = norm.cdf(np.arange(-half, half) + 0.5)
        expected = np.diff(np.concatenate([[0.0], edges, [1.0]]))
        probs = np.array([p for _, p in discretize_normal(0.0, 1.0, levels)])
        assert np.max(np.abs(probs - expected)) <= 1e-15
        assert abs(probs.sum() - 1.0) <= 1e-15


def test_import_loads_no_scipy():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = "import sys, dnems; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestGenerate:
    def test_zero_sigma_collapses(self):
        fc = flat_forecast(sig=(0.0, 0.0, 0.0))
        sset = generate(fc, n=5, seed=3)
        assert len(sset) == 1
        assert sset.probabilities[0] == 1.0
        assert np.array_equal(sset.load_factor[0], fc.load_factor)
        assert np.array_equal(sset.pv_factor[0], fc.pv_factor)
        assert np.array_equal(sset.price[0], fc.price)

    def test_deterministic_per_seed(self):
        fc = default_forecast()
        a = generate(fc, n=20, seed=42)
        b = generate(fc, n=20, seed=42)
        assert len(a) == len(b)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(profile_rows(a), profile_rows(b))

    def test_invariants_hold(self):
        sset = generate(default_forecast(), n=30, seed=42, levels=7)
        assert abs(sum(sset.probabilities.tolist()) - 1.0) <= 1e-12
        assert np.all(sset.pv_factor >= 0) and np.all(sset.pv_factor <= 1)
        assert np.all(sset.load_factor >= 0)
        assert np.all(sset.price >= 0)

    def test_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            generate(default_forecast(), n=0, seed=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "4"])
    def test_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            generate(default_forecast(), n=n, seed=1)

    def test_numpy_integer_n(self):
        a, b = generate(default_forecast(), n=np.int64(12), seed=3), generate(default_forecast(), n=12, seed=3)
        assert np.array_equal(profile_rows(a), profile_rows(b))
        assert np.array_equal(a.probabilities, b.probabilities)


class TestReduce:
    def test_identity(self):
        sset = generate(default_forecast(), n=10, seed=5)
        assert reduce(sset, len(sset)) is sset

    def test_merge_duplicates(self):
        base = np.full((2, 24), 1.0)
        out = reduce(ScenarioSet(base, base * 0.5, base * 0.1, [0.5, 0.5]), 1)
        assert len(out) == 1
        assert out.probabilities[0] == pytest.approx(1.0)

    def test_probability_redistribution(self, rng):
        sset = generate(default_forecast(), n=14, seed=9)
        original = {row.tobytes(): p for row, p in zip(profile_rows(sset), sset.probabilities)}
        reduced = reduce(sset, max(1, len(sset) // 2))
        assert abs(sum(reduced.probabilities.tolist()) - 1.0) <= 1e-12
        for row, p in zip(profile_rows(reduced), reduced.probabilities):
            # survivors only ever gain mass from their deleted neighbours
            assert p >= original[row.tobytes()] - 1e-15

    def test_matches_exhaustive_single_deletion(self, rng):
        for trial in range(15):
            raw = generate(default_forecast(), n=int(rng.integers(3, 7)), seed=100 + trial)
            if len(raw) < 2:
                continue
            feats = reduction_features(raw)
            weights = raw.probabilities
            costs = [reduction_cost_oracle(feats, weights, i) for i in range(len(raw))]
            victim = int(np.argmin(costs))
            reduced = reduce(raw, len(raw) - 1)
            kept = [row.tobytes() for row in profile_rows(reduced)]
            assert profile_rows(raw)[victim].tobytes() not in kept

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.05, 0.2])] * 3),
        levels=st.sampled_from([3, 5, 7]),
        kept=st.floats(0.0, 1.0),
    )
    def test_generate_then_reduce_conserves_mass(self, n, seed, sigmas, levels, kept):
        fc = default_forecast()
        raw = generate(ForecastProfile(fc.load_factor, fc.pv_factor, fc.price, *sigmas), n=n, seed=seed, levels=levels)
        reduced = reduce(raw, max(1, round(kept * len(raw))))
        for sset in (raw, reduced):
            assert abs(sum(sset.probabilities.tolist()) - 1.0) <= 1e-12
            assert np.all(sset.probabilities > 0)

    def test_bad_target(self):
        sset = generate(default_forecast(), n=5, seed=1)
        with pytest.raises(ValueError, match="target"):
            reduce(sset, 0)
        with pytest.raises(ValueError, match="target"):
            reduce(sset, len(sset) + 1)

    @pytest.mark.parametrize("target", [True, False, 3.0, 2.5, np.float64(2.0), None])
    def test_non_integer_target(self, target):
        sset = generate(default_forecast(), n=5, seed=1)
        with pytest.raises(ValueError, match="target must be an integer"):
            reduce(sset, target)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint8])
    def test_numpy_integer_target(self, kind):
        sset = generate(default_forecast(), n=8, seed=1)
        a, b = reduce(sset, kind(3)), reduce(sset, 3)
        assert np.array_equal(profile_rows(a), profile_rows(b))
        assert np.array_equal(a.probabilities, b.probabilities)


def assert_reduces_like_oracle(sset, target):
    got = reduce(sset, target)
    want = reduce_oracle(sset, target)
    for name, ref in zip(("load_factor", "pv_factor", "price", "probabilities"), want):
        assert np.array_equal(getattr(got, name), ref), name


class TestReduceOracle:
    """The fast backward reduction deletes the same scenarios, in the same
    order, and hands their mass to the same heirs as the O(n^3) loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.01, 0.05, 0.2])] * 3),
        levels=st.sampled_from([3, 5, 7]),
        data=st.data(),
    )
    def test_equals_alive_submatrix_loop(self, n, seed, sigmas, levels, data):
        # a zero sigma leaves whole profile blocks equal, so distances tie
        fc = default_forecast()
        sset = generate(ForecastProfile(fc.load_factor, fc.pv_factor, fc.price, *sigmas), n=n, seed=seed, levels=levels)
        assert_reduces_like_oracle(sset, data.draw(st.integers(1, len(sset)), label="target"))

    @pytest.mark.parametrize("draws, target", [(60, 30), (240, 120)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_workload_shapes(self, draws, target, seed):
        assert_reduces_like_oracle(generate(default_forecast(), n=draws, seed=seed), target)

    def test_thousand_draws(self):
        assert_reduces_like_oracle(generate(default_forecast(), n=1000, seed=0), 500)

    def test_equal_distances(self):
        # four corners of a square around a centre: every tie goes to the
        # lowest index, for the victim and for its heir
        load = np.array([1.0, 1.5, 0.5, 1.0, 1.0])[:, None].repeat(24, axis=1)
        pv = np.array([0.5, 0.5, 0.5, 0.75, 0.25])[:, None].repeat(24, axis=1)
        sset = ScenarioSet(load, pv, np.full((5, 24), 0.1), [0.2] * 5)
        for target in range(1, 6):
            assert_reduces_like_oracle(sset, target)


def test_reduce_memory_is_one_distance_matrix():
    # 2,000 draws: the (n, n) float64 distances are 32 MB; an (n, n, 72)
    # difference array would be 2.3 GB
    sset = generate(default_forecast(), n=2000, seed=1)
    tracemalloc.start()
    try:
        reduce(sset, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


class TestStatistics:
    def test_hand_computed(self):
        stop, st = stopping_rule([10.0, 20.0], epsilon=0.01)
        assert st.mean == pytest.approx(15.0)
        assert st.sd == pytest.approx(7.0710678, abs=1e-6)
        assert st.ci95_halfwidth == pytest.approx(9.8, abs=1e-6)
        assert st.re == pytest.approx(0.6533333, abs=1e-6)
        assert not stop

    def test_zero_variance_stops(self):
        stop, st = stopping_rule([4.25] * 10, epsilon=1e-9)
        assert st.sd == 0.0 and st.re == 0.0
        assert stop

    def test_large_tight_sample_stops(self, rng):
        samples = rng.normal(100.0, 0.5, size=1000)
        stop, st = stopping_rule(samples, epsilon=0.05)
        assert stop

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            stopping_rule([1.0], epsilon=0.1)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            stopping_rule([1.0, 2.0], epsilon=0.0)

    def test_ci_relation(self, rng):
        samples = rng.normal(50, 3, size=25)
        st = RunStatistics.from_samples(samples)
        assert st.ci95_halfwidth == pytest.approx(1.96 * st.sd / np.sqrt(st.n))
        assert st.re == pytest.approx(st.ci95_halfwidth / abs(st.mean))

    def test_ci_shrinks_with_sample_size(self, rng):
        # quadrupling the sample size should halve the CI width on average
        small, large = [], []
        for _ in range(120):
            small.append(RunStatistics.from_samples(rng.normal(size=8)).ci95_halfwidth)
            large.append(RunStatistics.from_samples(rng.normal(size=32)).ci95_halfwidth)
        assert np.mean(large) < np.mean(small)


class TestForecastValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["load_factor", "pv_factor", "price"])
    def test_nonfinite_entry_rejected(self, name, value):
        fc = flat_forecast()
        profiles = {"load_factor": fc.load_factor, "pv_factor": fc.pv_factor, "price": fc.price}
        profiles[name] = profiles[name].copy()
        profiles[name][5] = value
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            ForecastProfile(**profiles)

    def test_negative_load_factor_rejected(self):
        # a negative load factor turns every load into generation; a negative
        # price is a real market outcome and stays allowed
        fc = flat_forecast()
        load, price = fc.load_factor.copy(), fc.price.copy()
        load[3] = price[3] = -0.5
        with pytest.raises(ValueError, match="load_factor must be nonnegative"):
            ForecastProfile(load, fc.pv_factor, fc.price)
        assert ForecastProfile(fc.load_factor, fc.pv_factor, price).price[3] == -0.5

    def test_nonfinite_sigma_rejected(self):
        with pytest.raises(ValueError, match="^sigma_pv must be finite, got nan$"):
            flat_forecast(sig=(0.05, float("nan"), 0.05))
        with pytest.raises(ValueError, match="^sigma_load must be finite, got a number too large"):  # an int too large for a float
            flat_forecast(sig=(10**400, 0.1, 0.05))

    def test_unknown_key_rejected(self, tmp_path):
        fc = default_forecast()
        doc = {"load_factor": fc.load_factor.tolist(), "pv_factor": fc.pv_factor.tolist(), "price": fc.price.tolist()}
        path = tmp_path / "forecast.json"
        path.write_text(json.dumps({**doc, "sigma_loads": 0.3}))
        with pytest.raises(ValueError, match=r"^forecast .*forecast\.json: unknown keys \['sigma_loads'\]$"):
            load_forecast(path)


class TestSerialization:
    def test_deterministic_set(self):
        fc = default_forecast()
        sset = deterministic_set(fc)
        assert len(sset) == 1
        assert sset.probabilities[0] == 1.0


class TestScenarioArrays:
    """The grid states cached on a set's stacked arrays."""

    def test_states_map_back(self):
        sset = reduce(generate(default_forecast(), n=80, seed=2), 40)
        states = sset.grid_states
        assert states is sset.grid_states  # computed once per set
        state_hour, state_load, state_pv, state_of = states
        assert len(state_hour) < 40 * 24  # seven error levels repeat states
        hours = np.tile(np.arange(24), 40)
        assert np.array_equal(state_hour[state_of], hours)
        assert np.array_equal(state_load[state_of], sset.load_factor.ravel())
        assert np.array_equal(state_pv[state_of], sset.pv_factor.ravel())
        # states are distinct and numbered in order of first occurrence
        keys = set(zip(state_hour, state_load, state_pv))
        assert len(keys) == len(state_hour)
        _, first = np.unique(state_of, return_index=True)
        assert np.all(np.diff(first) > 0)

    def test_identity_without_repeats(self):
        state_hour, state_load, _, state_of = deterministic_set(default_forecast()).grid_states
        assert np.array_equal(state_of, np.arange(24))
        assert np.array_equal(state_hour, np.arange(24))
        assert np.array_equal(state_load, default_forecast().load_factor)

    def test_price_does_not_split_states(self):
        fc = default_forecast()
        sset = ScenarioSet([fc.load_factor] * 2, [fc.pv_factor] * 2, [fc.price, fc.price * 2.0], [0.5, 0.5])
        state_hour, _, _, state_of = sset.grid_states
        assert len(state_hour) == 24
        assert np.array_equal(state_of, np.tile(np.arange(24), 2))

    def test_signed_zero_is_a_distinct_state(self):
        # states merge on identical bits only, so -0.0 and 0.0 stay apart
        base = np.full(24, 0.5)
        neg = base.copy()
        neg[3] = -0.0
        pos = base.copy()
        pos[3] = 0.0
        sset = ScenarioSet([base, base], [neg, pos], np.full((2, 24), 0.1), [0.5, 0.5])
        assert len(sset.grid_states[0]) == 25


def _two_scenarios(**changes):
    fields = dict(
        load_factor=np.full((2, 24), 1.0),
        pv_factor=np.full((2, 24), 0.5),
        price=np.full((2, 24), 0.1),
        probabilities=[0.25, 0.75],
    )
    fields.update(changes)
    return ScenarioSet(**fields)


class TestScenarioSet:
    def test_arrays_are_read_only_copies(self):
        load = np.full((2, 24), 1.0)
        sset = _two_scenarios(load_factor=load)
        load[0, 0] = 2.0
        assert sset.load_factor[0, 0] == 1.0
        for arr in (sset.load_factor, sset.pv_factor, sset.price, sset.probabilities):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            sset.probabilities[0] = 0.5

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"price": np.full((2, 23), 0.1)}, "price must have 24 hourly entries per scenario"),
            ({"pv_factor": np.full(24, 0.5)}, "pv_factor must have 24 hourly entries per scenario"),
            ({"load_factor": np.full((3, 24), 1.0)}, "disagree on the number of scenarios"),
            ({"probabilities": [0.25, 0.25, 0.5]}, "disagree on the number of scenarios"),
            ({"price": np.full((2, 24), np.nan)}, "price entries must be finite"),
            ({"load_factor": np.full((2, 24), np.inf)}, "load_factor entries must be finite"),
            ({"probabilities": [0.0, 1.0]}, "must be positive"),
            ({"probabilities": [-0.25, 1.25]}, "must be positive"),
            ({"probabilities": [np.nan, 1.0]}, "must be positive"),
            ({"probabilities": [0.25, 0.5]}, "sum to 0.75"),
            ({"probabilities": [0.5, 0.5 + 2e-12]}, "expected 1"),
        ],
    )
    def test_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            _two_scenarios(**changes)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="sum to 0"):
            ScenarioSet(np.zeros((0, 24)), np.zeros((0, 24)), np.zeros((0, 24)), [])

    def test_mass_within_tolerance_accepted(self):
        assert len(_two_scenarios(probabilities=[0.5, 0.5 + 5e-13])) == 2

    @pytest.mark.parametrize("states_first", [False, True])
    def test_pickle_round_trip(self, ieee69, states_first):
        sset = reduce(generate(default_forecast(), n=24, seed=4), 8)
        if states_first:
            sset.grid_states
        back = pickle.loads(pickle.dumps(sset))
        assert "grid_states" not in back.__dict__  # recomputed on first use, never shipped
        for name in ("load_factor", "pv_factor", "price", "probabilities"):
            assert getattr(back, name).tobytes() == getattr(sset, name).tobytes()
            assert not getattr(back, name).flags.writeable
        lower, upper = decision_bounds(ieee69)
        positions = lower + np.random.default_rng(3).random((5, lower.size)) * (upper - lower)
        ev = ScheduleEvaluator(ieee69)
        a, b = ev.per_scenario(positions, sset), ev.per_scenario(positions, back)
        for name in ("cost", "ens", "penalty", "probabilities"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestGenerateOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        levels=st.sampled_from([3, 5, 7, 9]),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.01, 0.05, 0.2])] * 3),
        negative_hours=st.lists(st.integers(0, 23), max_size=6),
    )
    def test_equals_per_draw_loop(self, seed, n, levels, sigmas, negative_hours):
        fc = default_forecast()
        price = fc.price.copy()
        price[negative_hours] *= -1.0  # negative prices keep their sign and spread
        fc = ForecastProfile(fc.load_factor, fc.pv_factor, price, *sigmas)
        got = generate(fc, n=n, seed=seed, levels=levels)
        want = generate_oracle(fc, n=n, seed=seed, levels=levels)
        for name, ref in zip(("load_factor", "pv_factor", "price", "probabilities"), want):
            arr = getattr(got, name)
            assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), name

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from dnems.scenarios import (
    ForecastProfile,
    RunStatistics,
    Scenario,
    ScenarioSet,
    default_forecast,
    deterministic_set,
    discretize_normal,
    generate,
    reduce,
    reduction_features,
    stopping_rule,
)
from oracles import reduction_cost_oracle

# standard-normal CDF masses of sigma-wide bins at 0, +-1, +-2, +-3 sigma
P7 = (0.0062096653, 0.0605975359, 0.2417303375, 0.3829249226)


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
        s = sset.scenarios[0]
        assert s.probability == 1.0
        assert np.array_equal(s.load_factor, fc.load_factor)
        assert np.array_equal(s.pv_factor, fc.pv_factor)
        assert np.array_equal(s.price, fc.price)

    def test_deterministic_per_seed(self):
        fc = default_forecast()
        a = generate(fc, n=20, seed=42)
        b = generate(fc, n=20, seed=42)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.probability == sb.probability
            assert np.array_equal(sa.features(), sb.features())

    def test_invariants_hold(self):
        sset = generate(default_forecast(), n=30, seed=42, levels=7)
        assert abs(sum(s.probability for s in sset) - 1.0) <= 1e-12
        for s in sset:
            assert np.all(s.pv_factor >= 0) and np.all(s.pv_factor <= 1)
            assert np.all(s.load_factor >= 0)
            assert np.all(s.price >= 0)

    def test_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            generate(default_forecast(), n=0, seed=1)


class TestReduce:
    def test_identity(self):
        sset = generate(default_forecast(), n=10, seed=5)
        assert reduce(sset, len(sset)) is sset

    def test_merge_duplicates(self):
        base = np.full(24, 1.0)
        a = Scenario(base, base * 0.5, base * 0.1, 0.5)
        b = Scenario(base, base * 0.5, base * 0.1, 0.5)
        out = reduce(ScenarioSet((a, b)), 1)
        assert len(out) == 1
        assert out.scenarios[0].probability == pytest.approx(1.0)

    def test_probability_redistribution(self, rng):
        sset = generate(default_forecast(), n=14, seed=9)
        original = {s.features().tobytes(): s.probability for s in sset}
        reduced = reduce(sset, max(1, len(sset) // 2))
        assert abs(sum(s.probability for s in reduced) - 1.0) <= 1e-12
        for s in reduced:
            # survivors only ever gain mass from their deleted neighbours
            assert s.probability >= original[s.features().tobytes()] - 1e-15

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
            kept = [s.features().tobytes() for s in reduced]
            assert raw.scenarios[victim].features().tobytes() not in kept

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
            assert abs(sum(s.probability for s in sset) - 1.0) <= 1e-12
            assert all(s.probability > 0 for s in sset)

    def test_bad_target(self):
        sset = generate(default_forecast(), n=5, seed=1)
        with pytest.raises(ValueError, match="target"):
            reduce(sset, 0)
        with pytest.raises(ValueError, match="target"):
            reduce(sset, len(sset) + 1)


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

    def test_nonfinite_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigmas must be finite"):
            flat_forecast(sig=(0.05, float("nan"), 0.05))


class TestSerialization:
    def test_deterministic_set(self):
        fc = default_forecast()
        sset = deterministic_set(fc)
        assert len(sset) == 1
        assert sset.scenarios[0].probability == 1.0


class TestScenarioArrays:
    def test_states_map_back(self):
        sset = reduce(generate(default_forecast(), n=80, seed=2), 40)
        arr = sset.arrays
        assert arr is sset.arrays  # computed once per set
        assert np.array_equal(arr.load_factor, np.stack([s.load_factor for s in sset]))
        assert np.array_equal(arr.price, np.stack([s.price for s in sset]))
        assert len(arr.state_hour) < 40 * 24  # seven error levels repeat states
        hours = np.tile(np.arange(24), 40)
        assert np.array_equal(arr.state_hour[arr.state_of], hours)
        assert np.array_equal(arr.state_load[arr.state_of], arr.load_factor.ravel())
        assert np.array_equal(arr.state_pv[arr.state_of], arr.pv_factor.ravel())
        # states are distinct and numbered in order of first occurrence
        keys = set(zip(arr.state_hour, arr.state_load, arr.state_pv))
        assert len(keys) == len(arr.state_hour)
        _, first = np.unique(arr.state_of, return_index=True)
        assert np.all(np.diff(first) > 0)

    def test_identity_without_repeats(self):
        arr = deterministic_set(default_forecast()).arrays
        assert arr.state_of is None
        assert np.array_equal(arr.state_hour, np.arange(24))
        assert np.array_equal(arr.state_load, default_forecast().load_factor)

    def test_price_does_not_split_states(self):
        fc = default_forecast()
        sset = ScenarioSet(
            (
                Scenario(fc.load_factor, fc.pv_factor, fc.price, 0.5),
                Scenario(fc.load_factor, fc.pv_factor, fc.price * 2.0, 0.5),
            )
        )
        arr = sset.arrays
        assert len(arr.state_hour) == 24
        assert np.array_equal(arr.state_of, np.tile(np.arange(24), 2))

    def test_signed_zero_is_a_distinct_state(self):
        # states merge on identical bits only, so -0.0 and 0.0 stay apart
        base = np.full(24, 0.5)
        neg = base.copy()
        neg[3] = -0.0
        pos = base.copy()
        pos[3] = 0.0
        sset = ScenarioSet(
            (Scenario(base, neg, np.full(24, 0.1), 0.5), Scenario(base, pos, np.full(24, 0.1), 0.5))
        )
        assert len(sset.arrays.state_hour) == 25

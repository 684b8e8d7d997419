import numpy as np
import pytest

from dnems.objectives import ObjectiveVector
from dnems.pareto import (
    ArchiveEntry,
    MembershipScaler,
    ParetoArchive,
    best_compromise,
    dominates,
    membership,
)
from oracles import nondominated_filter


def ov(f1, f2, pen=0.0):
    return ObjectiveVector(f1=f1, f2=f2, penalty=pen)


class TestMembership:
    def test_best_attainable(self):
        assert membership(1.0, 1.0, 2.0) == 1.0

    def test_worst_attainable(self):
        assert membership(2.0, 1.0, 2.0) == 0.0

    def test_midpoint(self):
        assert membership(1.5, 1.0, 2.0) == 0.5

    def test_outside_clamps(self):
        assert membership(0.0, 1.0, 2.0) == 1.0
        assert membership(99.0, 1.0, 2.0) == 0.0

    def test_monotone(self, rng):
        values = np.sort(rng.uniform(0, 10, size=30))
        degrees = [membership(v, 2.0, 8.0) for v in values]
        assert all(a >= b for a, b in zip(degrees, degrees[1:]))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="f_min < f_max"):
            membership(1.0, 2.0, 2.0)


class TestDominates:
    def test_strict_improvement(self):
        assert dominates(ov(10, 5), ov(12, 6))

    def test_tradeoff_pair_mutually_nondominated(self):
        a, b = ov(10, 7), ov(12, 6)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_equal_not_dominating(self):
        a = ov(10, 5)
        assert not dominates(a, ov(10, 5))

    def test_feasibility_first(self):
        feasible = ov(1000, 1000, pen=0.0)
        infeasible = ov(1, 1, pen=5.0)
        assert dominates(feasible, infeasible)
        assert not dominates(infeasible, feasible)

    def test_infeasible_ranked_by_penalty(self):
        assert dominates(ov(9, 9, pen=1.0), ov(1, 1, pen=2.0))

    def test_antisymmetry(self, rng):
        for _ in range(200):
            a = ov(*rng.uniform(0, 10, 2), pen=float(rng.choice([0.0, 0.0, 1.0, 3.0])))
            b = ov(*rng.uniform(0, 10, 2), pen=float(rng.choice([0.0, 0.0, 1.0, 3.0])))
            assert not (dominates(a, b) and dominates(b, a))


class TestArchive:
    def test_insert_into_empty(self):
        arch = ParetoArchive(capacity=10)
        assert arch.insert(ArchiveEntry(x=None, f=ov(1, 2)))
        assert len(arch) == 1

    def test_total_dominance_collapses(self):
        arch = ParetoArchive(capacity=10)
        for f in (ov(5, 5), ov(4, 6), ov(6, 4)):
            arch.insert(ArchiveEntry(x=None, f=f))
        arch.insert(ArchiveEntry(x=None, f=ov(1, 1)))
        assert len(arch) == 1
        assert arch.entries[0].f.f1 == 1

    def test_dominated_insert_rejected(self):
        arch = ParetoArchive(capacity=10)
        arch.insert(ArchiveEntry(x=None, f=ov(1, 1)))
        assert not arch.insert(ArchiveEntry(x=None, f=ov(2, 2)))
        assert len(arch) == 1

    def test_capacity_eviction(self, rng):
        arch = ParetoArchive(capacity=50)
        # points on a strictly decreasing curve are mutually non-dominated
        f1 = np.sort(rng.uniform(0, 1, size=100))
        f2 = 1.0 / (1.0 + f1)
        for a, b in zip(f1, f2):
            arch.insert(ArchiveEntry(x=None, f=ov(float(a), float(b))))
        assert len(arch) == 50
        for i, e in enumerate(arch.entries):
            for other in arch.entries[i + 1 :]:
                assert not dominates(e.f, other.f)
                assert not dominates(other.f, e.f)

    def test_extremes_survive_eviction(self, rng):
        arch = ParetoArchive(capacity=5)
        f1 = np.linspace(0, 1, 40)
        for a in f1:
            arch.insert(ArchiveEntry(x=None, f=ov(float(a), float(1 - a))))
        kept_f1 = [e.f.f1 for e in arch.entries]
        assert min(kept_f1) == 0.0
        assert max(kept_f1) == 1.0  # the best-f2 end

    def test_matches_bruteforce_filter(self, rng):
        for _ in range(30):
            arch = ParetoArchive(capacity=100)
            points = [
                (float(a), float(b), float(p))
                for a, b, p in zip(
                    rng.uniform(0, 10, 8),
                    rng.uniform(0, 10, 8),
                    rng.choice([0.0, 0.0, 0.0, 2.0], 8),
                )
            ]
            for f1, f2, pen in points:
                arch.insert(ArchiveEntry(x=None, f=ov(f1, f2, pen)))
            got = {(e.f.f1, e.f.f2, e.f.penalty) for e in arch.entries}
            assert got == nondominated_filter(points)


class TestBestCompromise:
    def make_archive(self):
        # extremes (0,1) and (1,0) pin the scaler; A scores 0.9/0.4, B 0.5/0.5
        arch = ParetoArchive(capacity=10)
        for f1, f2 in ((0.0, 1.0), (1.0, 0.0), (0.1, 0.6), (0.5, 0.5)):
            arch.insert(ArchiveEntry(x=(f1, f2), f=ov(f1, f2)))
        return arch

    def test_singleton(self):
        arch = ParetoArchive(capacity=5)
        arch.insert(ArchiveEntry(x="only", f=ov(3, 4)))
        assert best_compromise(arch).x == "only"

    def test_hand_scores(self):
        arch = self.make_archive()
        entry = best_compromise(arch, weights=(1.0, 1.0))
        scaler = MembershipScaler.from_entries(arch.entries)
        assert scaler.of(entry.f) == (pytest.approx(0.9), pytest.approx(0.4))
        assert entry.f.f1 == pytest.approx(0.1)
        # normalized score of the winner over the four entries
        num = 0.9 + 0.4
        denom = (1.0 + 0.0) + (0.0 + 1.0) + (0.9 + 0.4) + (0.5 + 0.5)
        assert num / denom == pytest.approx(1.3 / 4.3)

    def test_weight_scale_invariance(self):
        arch = self.make_archive()
        a = best_compromise(arch, weights=(0.3, 0.7))
        b = best_compromise(arch, weights=(3.0, 7.0))
        assert a is b

    def test_corner_weights_pick_single_objective(self):
        arch = self.make_archive()
        cost_only = best_compromise(arch, weights=(1.0, 0.0))
        assert cost_only.f.f1 == 0.0  # minimal f1
        ens_only = best_compromise(arch, weights=(0.0, 1.0))
        assert ens_only.f.f2 == 0.0

    def test_empty_archive(self):
        with pytest.raises(ValueError, match="empty"):
            best_compromise(ParetoArchive())

    def test_bad_weights(self):
        arch = self.make_archive()
        with pytest.raises(ValueError, match="weights"):
            best_compromise(arch, weights=(0.0, 0.0))
        with pytest.raises(ValueError, match="weights"):
            best_compromise(arch, weights=(-1.0, 2.0))


class TestScaler:
    def test_from_entries(self):
        entries = [ArchiveEntry(x=None, f=ov(1, 20)), ArchiveEntry(x=None, f=ov(3, 10))]
        scaler = MembershipScaler.from_entries(entries)
        assert (scaler.f1_min, scaler.f1_max) == (1, 3)
        assert scaler.of(ov(2, 15)) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_degenerate_span(self):
        entries = [ArchiveEntry(x=None, f=ov(1, 10)), ArchiveEntry(x=None, f=ov(1, 20))]
        scaler = MembershipScaler.from_entries(entries)
        assert scaler.of(ov(1, 15)) == (1.0, pytest.approx(0.5))

    def test_csv_dump(self, tmp_path):
        arch = ParetoArchive(capacity=5)
        arch.insert(ArchiveEntry(x=None, f=ov(1, 2)))
        arch.insert(ArchiveEntry(x=None, f=ov(2, 1)))
        path = tmp_path / "front.csv"
        arch.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "f1,f2,psi1,psi2,y"
        assert len(lines) == 3
        ys = [float(line.split(",")[-1]) for line in lines[1:]]
        assert sum(ys) == pytest.approx(1.0)

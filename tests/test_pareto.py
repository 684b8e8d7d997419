import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnems.objectives import ObjectiveVector
from dnems.pareto import ArchiveEntry, ParetoArchive, _scores, best_compromise, dominates
from oracles import nondominated_filter


def ov(f1, f2, pen=0.0):
    return ObjectiveVector(f1=f1, f2=f2, penalty=pen)


def entries(*points):
    return [ArchiveEntry(x=None, f=ov(f1, f2)) for f1, f2 in points]


def psi_of(points):
    psi, _ = _scores(entries(*points), (0.5, 0.5))
    return [tuple(row) for row in psi]


class TestMembership:
    """psi is 1 at the entries' best value of an objective, 0 at the worst."""

    POINTS = ((1.0, 20.0), (3.0, 10.0), (2.0, 15.0))

    def test_best_attainable(self):
        psi = psi_of(self.POINTS)
        assert psi[0][0] == 1.0 and psi[1][1] == 1.0

    def test_worst_attainable(self):
        psi = psi_of(self.POINTS)
        assert psi[1][0] == 0.0 and psi[0][1] == 0.0

    def test_midpoint(self):
        assert psi_of(self.POINTS)[2] == (0.5, 0.5)

    def test_monotone(self, rng):
        values = np.sort(rng.uniform(0, 10, size=30))
        degrees = [m1 for m1, _ in psi_of([(v, 1.0) for v in values])]
        assert all(a >= b for a, b in zip(degrees, degrees[1:]))

    def test_degenerate_span(self):
        # every entry shares f1: each is the best there is
        assert psi_of(((1.0, 10.0), (1.0, 20.0), (1.0, 15.0))) == [(1.0, 1.0), (1.0, 0.0), (1.0, 0.5)]
        assert psi_of(((4.0, 4.0),)) == [(1.0, 1.0)]

    def test_weighted_score(self):
        _, score = _scores(entries(*self.POINTS), (0.25, 2.0))
        assert list(score) == [0.25, 2.0, 0.25 * 0.5 + 2.0 * 0.5]


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

    @settings(max_examples=200, deadline=None)
    @given(
        # few distinct values, so objective ties and exact repeats are common
        points=st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 1.5, 3.0]), st.sampled_from([0.0, 1.0, 1.5, 3.0]),
                      st.sampled_from([0.0, 0.0, 1.0, 2.0])),
            max_size=40,
        ),
        capacity=st.integers(1, 6),
    )
    def test_any_insert_stream_keeps_invariants(self, points, capacity):
        arch = ParetoArchive(capacity=capacity)
        for f1, f2, pen in points:
            arch.insert(ArchiveEntry(x=None, f=ov(f1, f2, pen)))
        kept = [(e.f.f1, e.f.f2, e.f.penalty) for e in arch.entries]
        assert len(kept) <= capacity
        assert len(set(kept)) == len(kept)
        assert nondominated_filter(kept) == set(kept)


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
        i = arch.entries.index(entry)
        psi, _ = _scores(arch.entries, (1.0, 1.0))
        assert tuple(psi[i]) == (pytest.approx(0.9), pytest.approx(0.4))
        assert entry.f.f1 == pytest.approx(0.1)
        # normalized score of the winner over the four entries, as written
        num = 0.9 + 0.4
        denom = (1.0 + 0.0) + (0.0 + 1.0) + (0.9 + 0.4) + (0.5 + 0.5)
        assert front_y(arch, (1.0, 1.0))[i] == pytest.approx(num / denom)

    def test_equal_scores_go_to_lower_f1_then_earlier(self):
        arch = ParetoArchive(capacity=10)
        for f1, f2 in ((1.0, 0.0), (0.0, 1.0)):  # both score 0.5
            arch.insert(ArchiveEntry(x=(f1, f2), f=ov(f1, f2)))
        assert best_compromise(arch).f.f1 == 0.0
        arch = ParetoArchive(capacity=10)
        for x in ("first", "second"):
            arch.entries.append(ArchiveEntry(x=x, f=ov(1.0, 1.0)))  # duplicates, bypassing insert
        assert best_compromise(arch).x == "first"

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
        for weights in ((0.0, 0.0), (-1.0, 2.0), (float("nan"), 1.0), (float("inf"), 1.0), (1.0,)):
            with pytest.raises(ValueError, match="^weights must be two finite numbers"):
                best_compromise(arch, weights=weights)


def front_y(arch, weights):
    """The ``y`` column of ``arch``'s ``to_csv`` text."""
    return [float(line.split(",")[-1]) for line in arch.to_csv(weights).splitlines()[1:]]


objective_values = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 7.25])
weight_values = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), st.floats(0.0, 10.0))


class TestFrontCsv:
    def test_csv_dump(self):
        arch = ParetoArchive(capacity=5)
        arch.insert(ArchiveEntry(x=None, f=ov(1, 2)))
        arch.insert(ArchiveEntry(x=None, f=ov(2, 1)))
        assert arch.to_csv((0.5, 0.5)) == "f1,f2,psi1,psi2,y\n1,2,1,0,0.5\n2,1,0,1,0.5\n"

    def test_y_weighted(self):
        arch = ParetoArchive(capacity=5)
        for f1, f2 in ((1, 2), (2, 1), (1.5, 1.5)):
            arch.insert(ArchiveEntry(x=None, f=ov(f1, f2)))
        # scores 0.95, 0.05 and 0.5 of a total 1.5
        assert front_y(arch, (0.95, 0.05)) == pytest.approx([0.95 / 1.5, 0.05 / 1.5, 0.5 / 1.5])

    def test_empty_archive_and_bad_weights(self):
        with pytest.raises(ValueError, match="empty"):
            ParetoArchive().to_csv((0.5, 0.5))
        arch = ParetoArchive(capacity=5)
        arch.insert(ArchiveEntry(x=None, f=ov(1, 2)))
        for weights in ((0.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0), (1.0,)):
            with pytest.raises(ValueError, match="^weights must be two finite numbers"):
                arch.to_csv(weights)

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.tuples(objective_values, objective_values, st.sampled_from([0.0, 0.0, 1.0])),
                        min_size=1, max_size=12),
        weights=st.tuples(weight_values, weight_values).filter(lambda w: max(w) > 0),
    )
    def test_highest_y_is_best_compromise(self, points, weights):
        arch = ParetoArchive(capacity=8)
        for f1, f2, pen in points:
            arch.insert(ArchiveEntry(x=None, f=ov(f1, f2, pen)))
        ys = front_y(arch, weights)
        bcs = best_compromise(arch, weights)
        assert ys[next(i for i, e in enumerate(arch.entries) if e is bcs)] == max(ys)
        assert sum(ys) == pytest.approx(1.0)

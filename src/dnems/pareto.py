"""Two-objective Pareto machinery: dominance, bounded archive, fuzzy selection.

Feasibility comes first: a candidate with constraint penalty never dominates a
feasible one, and among infeasible candidates the smaller penalty wins.  The
archive keeps mutually non-dominated entries up to a capacity, evicting from
the most crowded region of normalized objective space when full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "MembershipScaler",
    "ArchiveEntry",
    "ParetoArchive",
    "membership",
    "dominates",
    "best_compromise",
]


def membership(f: float, f_min: float, f_max: float) -> float:
    """Degree to which an objective value is satisfactory: 1 at the best
    attainable value, 0 at the worst, linear in between."""
    if not f_min < f_max:
        raise ValueError(f"need f_min < f_max, got [{f_min}, {f_max}]")
    if f <= f_min:
        return 1.0
    if f >= f_max:
        return 0.0
    return (f_max - f) / (f_max - f_min)


@dataclass(frozen=True)
class MembershipScaler:
    """Normalization bounds per objective, usually the archive's extremes."""

    f1_min: float
    f1_max: float
    f2_min: float
    f2_max: float

    @classmethod
    def from_entries(cls, entries) -> "MembershipScaler":
        f1 = [e.f.f1 for e in entries]
        f2 = [e.f.f2 for e in entries]
        return cls(min(f1), max(f1), min(f2), max(f2))

    def of(self, f) -> tuple[float, float]:
        m1 = membership(f.f1, self.f1_min, self.f1_max) if self.f1_min < self.f1_max else 1.0
        m2 = membership(f.f2, self.f2_min, self.f2_max) if self.f2_min < self.f2_max else 1.0
        return (m1, m2)


def dominates(a, b) -> bool:
    """True iff ``a`` dominates ``b``: feasibility first, then componentwise
    no-worse with at least one strictly-better objective."""
    a_feas = a.penalty == 0
    b_feas = b.penalty == 0
    if a_feas != b_feas:
        return a_feas
    if not a_feas:
        return a.penalty < b.penalty
    return a.f1 <= b.f1 and a.f2 <= b.f2 and (a.f1 < b.f1 or a.f2 < b.f2)


@dataclass
class ArchiveEntry:
    x: object  # decision data, opaque to the archive
    f: object  # objective vector with f1, f2, penalty


@dataclass
class ParetoArchive:
    capacity: int = 100
    entries: list[ArchiveEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, entry: ArchiveEntry) -> bool:
        """Insert unless dominated (or duplicated in objective space); evict
        anything the newcomer dominates, then enforce capacity.  Returns
        whether the entry was retained."""
        f = entry.f
        for e in self.entries:
            if dominates(e.f, f):
                return False
            if e.f.f1 == f.f1 and e.f.f2 == f.f2 and e.f.penalty == f.penalty:
                return False
        self.entries = [e for e in self.entries if not dominates(f, e.f)]
        self.entries.append(entry)
        if len(self.entries) > self.capacity:
            self._evict_crowded()
        return True

    def _evict_crowded(self) -> None:
        f1 = np.array([e.f.f1 for e in self.entries])
        f2 = np.array([e.f.f2 for e in self.entries])
        span1 = f1.max() - f1.min() or 1.0
        span2 = f2.max() - f2.min() or 1.0
        pts = np.column_stack([(f1 - f1.min()) / span1, (f2 - f2.min()) / span2])
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        nn = d.min(axis=1)
        # the objective-wise best entries anchor the front; never evict them
        nn[int(np.argmin(f1))] = np.inf
        nn[int(np.argmin(f2))] = np.inf
        del self.entries[int(np.argmin(nn))]

    def to_csv(self, path) -> None:
        scaler = MembershipScaler.from_entries(self.entries)
        psi = [scaler.of(e.f) for e in self.entries]
        num = np.array([sum(m) for m in psi])
        denom = num.sum() or 1.0
        lines = ["f1,f2,psi1,psi2,y"]
        for e, (m1, m2), y in zip(self.entries, psi, num / denom):
            lines.append(f"{e.f.f1:.10g},{e.f.f2:.10g},{m1:.10g},{m2:.10g},{y:.10g}")
        Path(path).write_text("\n".join(lines) + "\n")


def best_compromise(arch: ParetoArchive, weights: tuple[float, float] = (0.5, 0.5)) -> ArchiveEntry:
    """Entry with the highest weighted-membership score; ties go to lower f1.

    The score of entry q is sum_h w_h * psi_qh normalized by the total over
    the archive; the normalization is common to all entries, so the argmax is
    invariant to scaling both weights by the same positive constant.
    """
    if not arch.entries:
        raise ValueError("archive is empty")
    w1, w2 = weights
    if w1 < 0 or w2 < 0 or (w1 == 0 and w2 == 0):
        raise ValueError("weights must be nonnegative and not both zero")
    scaler = MembershipScaler.from_entries(arch.entries)
    best = None
    best_score = -1.0
    for e in arch.entries:
        m1, m2 = scaler.of(e.f)
        score = w1 * m1 + w2 * m2
        if score > best_score or (score == best_score and best is not None and e.f.f1 < best.f.f1):
            best, best_score = e, score
    return best

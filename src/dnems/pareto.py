"""Two-objective Pareto machinery: dominance, bounded archive, fuzzy selection.

Feasibility comes first: a candidate with constraint penalty never dominates a
feasible one, and among infeasible candidates the smaller penalty wins.  The
archive keeps mutually non-dominated entries up to a capacity, evicting from
the most crowded region of normalized objective space when full.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._documents import number_problem

__all__ = ["ArchiveEntry", "ParetoArchive", "dominates", "best_compromise"]


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

    def to_csv(self, weights: tuple[float, float]) -> str:
        """CSV text of each entry's objectives, memberships and normalized
        score ``y = score / sum of scores`` under ``weights`` (see ``_scores``)."""
        psi, score = _scores(self.entries, weights)
        lines = ["f1,f2,psi1,psi2,y"]
        for e, (m1, m2), y in zip(self.entries, psi, score / score.sum()):
            lines.append(f"{e.f.f1:.10g},{e.f.f2:.10g},{m1:.10g},{m2:.10g},{y:.10g}")
        return "\n".join(lines) + "\n"


def _check_weights(weights, name: str = "weights") -> None:
    """ValueError naming the field ``name`` unless ``weights`` are two finite
    numbers, nonnegative and not both zero."""
    two_numbers = isinstance(weights, (list, tuple)) and len(weights) == 2 and not any(map(number_problem, weights))
    if not two_numbers or min(weights) < 0 or max(weights) <= 0:
        raise ValueError(f"{name} must be two finite numbers, nonnegative and not both zero, got {weights!r}")


def _scores(entries, weights) -> tuple[np.ndarray, np.ndarray]:
    """Fuzzy memberships ``psi`` (n, 2) of the entries and their weighted
    scores ``w1 psi1 + w2 psi2`` (n,).

    An objective's membership is 1 at the entries' best (lowest) value, 0 at
    their worst and ``(max - f) / (max - min)`` in between; it is 1 for every
    entry when all share one value.
    """
    if not entries:
        raise ValueError("archive is empty")
    _check_weights(weights)
    w1, w2 = weights
    f = np.array([(e.f.f1, e.f.f2) for e in entries], dtype=float)
    lo, hi = f.min(axis=0), f.max(axis=0)
    flat = hi == lo
    psi = np.where(flat, 1.0, (hi - f) / np.where(flat, 1.0, hi - lo))
    return psi, w1 * psi[:, 0] + w2 * psi[:, 1]


def best_compromise(arch: ParetoArchive, weights: tuple[float, float] = (0.5, 0.5)) -> ArchiveEntry:
    """Entry with the highest weighted-membership score (``_scores``); equal
    scores go to the lower f1, then to the earlier entry.

    Scaling both weights by the same positive constant scales every score
    alike, so the choice does not change.
    """
    _, score = _scores(arch.entries, weights)
    best = max(range(len(score)), key=lambda i: (score[i], -arch.entries[i].f.f1, -i))
    return arch.entries[best]

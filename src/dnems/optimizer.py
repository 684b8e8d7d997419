"""Hybrid wolf-pack / swarm population search with a Pareto archive.

Each iteration the population is split at random into two equal halves: one
moves by the three-leader pack rules (exploration controlled by a scalar that
decays linearly from two to zero), the other by inertia-weighted swarm
velocity updates.  Everyone is then evaluated (the whole population in one
evaluator call), archived, and reshuffled, and the archive's best member is
fed back to both halves as the shared incumbent.

Ranking inside the search is scalar: weighted normalized objective shortfalls
plus the constraint penalty.  The archive keeps the actual non-dominated set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._documents import number_problem, python_numbers
from .pareto import ArchiveEntry, ParetoArchive, _check_weights

__all__ = [
    "SearchSpace",
    "GwoState",
    "PsoState",
    "HybridConfig",
    "EvaluatorFailure",
    "epsilon_schedule",
    "mu_schedule",
    "gwo_step",
    "pso_step",
    "hybrid_run",
    "single_run",
    "rowwise",
]


@dataclass(frozen=True)
class SearchSpace:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if not np.all(self.lower <= self.upper):
            raise ValueError("need lower <= upper componentwise")

    @property
    def dimension(self) -> int:
        return self.lower.size


@dataclass
class GwoState:
    positions: np.ndarray  # (n, d)
    alpha: np.ndarray  # best position
    beta: np.ndarray  # second best
    delta: np.ndarray  # third best
    epsilon: float  # exploration scalar in [0, 2]


@dataclass
class PsoState:
    positions: np.ndarray  # (n, d)
    velocities: np.ndarray  # (n, d)
    pbest: np.ndarray  # (n, d) per-particle best positions
    gbest: np.ndarray  # (d,) global best position
    mu: float  # inertia
    c1: float = 1.49618
    c2: float = 1.49618


@dataclass(frozen=True)
class HybridConfig:
    population: int = 60
    iterations: int = 50
    mu_high: float = 0.9
    mu_low: float = 0.4
    c1: float = 1.49618
    c2: float = 1.49618
    seed: int = 0
    archive_capacity: int = 100
    objective_weights: tuple[float, float] = (0.5, 0.5)
    penalty_weights: dict | None = None  # overrides merged over the schedule evaluator's defaults

    def __post_init__(self):
        # numpy and other numbers are kept as Python ones, which a study manifest's JSON takes
        python_numbers(self)
        if self.population < 2 or self.population % 2:
            raise ValueError("population must be even and >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.archive_capacity < 1:
            raise ValueError("archive_capacity must be >= 1")
        for name in ("c1", "c2", "mu_high", "mu_low"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if isinstance(self.penalty_weights, dict):  # the evaluator checks the weights themselves
            weights = {name: w if number_problem(w) else float(w) for name, w in self.penalty_weights.items()}
            object.__setattr__(self, "penalty_weights", weights)
        _check_weights(self.objective_weights, "objective_weights")


class EvaluatorFailure(RuntimeError):
    """Evaluator raised; ``x`` holds the offending position (row ``row`` of
    the block), or the whole block when the failing row is not known."""

    def __init__(self, x: np.ndarray, cause: BaseException, row: int | None = None):
        where = f"row {row}" if row is not None else f"a {'x'.join(map(str, np.shape(x)))} block"
        super().__init__(f"evaluator failed at {where}: {type(cause).__name__}: {cause}")
        self.x = x


def epsilon_schedule(iteration: int, total: int) -> float:
    """Exploration scalar, linear from 2 at the first iteration to 0 at the last."""
    if total <= 1:
        return 2.0
    return 2.0 * (1.0 - iteration / (total - 1))


def mu_schedule(iteration: int, total: int, high: float = 0.9, low: float = 0.4) -> float:
    """Inertia weight, linear from ``high`` down to ``low`` across iterations."""
    if total <= 1:
        return high
    return high - (high - low) * iteration / (total - 1)


def gwo_step(state: GwoState, space: SearchSpace, rng) -> np.ndarray:
    """One pack move: every wolf averages three leader-relative candidates.

    For each leader (alpha, beta, delta in that order) two uniform draws per
    wolf and dimension set the stretch factor eta = 2*R1 and the step scalar
    zeta = epsilon*(2*R2 - 1); the candidate is leader - zeta*|eta*leader - x|.
    """
    x = state.positions
    new = np.zeros_like(x)
    for leader in (state.alpha, state.beta, state.delta):
        eta = 2.0 * rng.random(x.shape)
        zeta = state.epsilon * (2.0 * rng.random(x.shape) - 1.0)
        dis = np.abs(eta * leader[None, :] - x)
        new += leader[None, :] - zeta * dis
    return np.clip(new / 3.0, space.lower, space.upper)


def pso_step(state: PsoState, space: SearchSpace, rng) -> tuple[np.ndarray, np.ndarray]:
    """One swarm move: inertia plus cognitive and social pulls, with the
    velocity clamped to the box width and the position repaired into bounds."""
    x, v = state.positions, state.velocities
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
    v_new = state.mu * v + state.c1 * r1 * (state.pbest - x) + state.c2 * r2 * (state.gbest[None, :] - x)
    width = space.upper - space.lower
    v_new = np.clip(v_new, -width, width)
    x_new = np.clip(x + v_new, space.lower, space.upper)
    return x_new, v_new


def rowwise(fn):
    """Population evaluator from a one-position objective ``fn(x) -> f``: it
    maps an (n, d) block to ``[fn(row) for row in block]``."""

    def evaluate_rows(positions):
        out = []
        for i, row in enumerate(positions):
            try:
                out.append(fn(row))
            except Exception as exc:
                raise EvaluatorFailure(row.copy(), exc, row=i) from exc
        return out

    return evaluate_rows


def _evaluate_all(evaluator, positions):
    try:
        fs = list(evaluator(positions))
    except EvaluatorFailure:
        raise
    except Exception as exc:
        raise EvaluatorFailure(positions.copy(), exc) from exc
    if len(fs) != len(positions):
        raise EvaluatorFailure(
            positions.copy(), ValueError(f"{len(fs)} objective vectors for {len(positions)} positions")
        )
    return fs


def _objective_rows(fs) -> np.ndarray:
    return np.array([(f.f1, f.f2, f.penalty) for f in fs], dtype=float)


def _scalars(f: np.ndarray, lo: np.ndarray, hi: np.ndarray, weights) -> np.ndarray:
    """Search ranking of (n, 3) rows of (f1, f2, penalty), lower is better:
    ``w1 s1 + w2 s2 + penalty``, where each objective is scaled to the running
    extremes, ``s = (f - lo) / (hi - lo)``, and is 0 where they coincide."""
    spread = hi > lo
    s = np.where(spread, (f[:, :2] - lo) / np.where(spread, hi - lo, 1.0), 0.0)
    return weights[0] * s[:, 0] + weights[1] * s[:, 1] + f[:, 2]


def _incumbent(archive: ParetoArchive, lo, hi, weights) -> tuple[ArchiveEntry, float]:
    """The archive entry with the lowest ``_scalars`` score (the earliest of
    equals) and that score."""
    scores = _scalars(_objective_rows(e.f for e in archive.entries), lo, hi, weights)
    best = int(np.argmin(scores))
    return archive.entries[best], float(scores[best])


def _run(mode: str, cfg: HybridConfig, space: SearchSpace, evaluator):
    if mode not in ("gwo", "pso", "hybrid"):
        raise ValueError(f"unknown algorithm {mode!r}")
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.population, space.dimension
    split = {"hybrid": n // 2, "gwo": n, "pso": 0}[mode]  # rows that move as wolves
    weights = cfg.objective_weights

    x = space.lower + rng.random((n, d)) * (space.upper - space.lower)
    v = np.zeros((n, d))
    fs = _evaluate_all(evaluator, x)
    f = _objective_rows(fs)
    # running objective extremes over everything evaluated so far
    lo, hi = f[:, :2].min(axis=0), f[:, :2].max(axis=0)
    archive = ParetoArchive(capacity=cfg.archive_capacity)
    for row, fv in zip(x, fs):
        archive.insert(ArchiveEntry(x=row.copy(), f=fv))
    pbest_x, pbest_f = x.copy(), f.copy()
    best, best_score = _incumbent(archive, lo, hi, weights)

    log = []
    for it in range(cfg.iterations):
        eps = epsilon_schedule(it, cfg.iterations)
        mu = mu_schedule(it, cfg.iterations, cfg.mu_high, cfg.mu_low)
        perm = rng.permutation(n)
        gwo_rows, pso_rows = perm[:split], perm[split:]
        if gwo_rows.size:
            # the incumbent and the population ranked together; the incumbent
            # goes first among equals
            order = np.argsort(np.append(best_score, _scalars(f, lo, hi, weights)), kind="stable")[:3]
            a, b, c = (best.x if i == 0 else x[i - 1] for i in order)
            gs = GwoState(positions=x[gwo_rows], alpha=a, beta=b, delta=c, epsilon=eps)
            x[gwo_rows] = gwo_step(gs, space, rng)
        if pso_rows.size:
            ps = PsoState(
                positions=x[pso_rows],
                velocities=v[pso_rows],
                pbest=pbest_x[pso_rows],
                gbest=best.x,
                mu=mu,
                c1=cfg.c1,
                c2=cfg.c2,
            )
            x[pso_rows], v[pso_rows] = pso_step(ps, space, rng)

        fs = _evaluate_all(evaluator, x)
        f = _objective_rows(fs)
        lo, hi = np.minimum(lo, f[:, :2].min(axis=0)), np.maximum(hi, f[:, :2].max(axis=0))
        for row, fv in zip(x, fs):
            archive.insert(ArchiveEntry(x=row.copy(), f=fv))
        better = _scalars(f, lo, hi, weights) < _scalars(pbest_f, lo, hi, weights)
        pbest_x[better], pbest_f[better] = x[better], f[better]

        best, best_score = _incumbent(archive, lo, hi, weights)
        log.append(
            {
                "iteration": it,
                "best_scalar": best_score,
                "archive_size": len(archive),
                "best_f1": min(e.f.f1 for e in archive.entries),
                "best_f2": min(e.f.f2 for e in archive.entries),
            }
        )
    return archive, log


def hybrid_run(cfg: HybridConfig, space: SearchSpace, evaluator):
    """Split-evolve-shuffle search; returns (ParetoArchive, convergence log).

    ``evaluator`` maps an (n, d) block of positions, the whole population, to
    a sequence of n objective vectors with ``f1``, ``f2`` and ``penalty``
    attributes, in row order; ``rowwise`` builds one from a one-position
    objective.  Fully deterministic per seed.
    """
    return _run("hybrid", cfg, space, evaluator)


def single_run(algorithm: str, cfg: HybridConfig, space: SearchSpace, evaluator):
    """Undivided-population baseline: the whole population moves by one rule."""
    return _run(algorithm, cfg, space, evaluator)


"""Scenario generation, reduction, and run statistics for the stochastic study.

Uncertain inputs (hourly load multipliers, PV availability, energy price) are
modeled as normal forecast errors, discretized into sigma-wide bins, and
sampled by roulette wheel.  A backward reduction prunes the set while pushing
deleted probability mass onto each victim's nearest survivor, and a relative
error threshold on repeated runs decides when enough scenarios were used.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from ._documents import number_problem, object_fields, python_numbers, read_document

__all__ = [
    "HOURS",
    "ForecastProfile",
    "ScenarioSet",
    "RunStatistics",
    "load_forecast",
    "default_forecast",
    "deterministic_set",
    "discretize_normal",
    "generate",
    "reduce",
    "stopping_rule",
]

HOURS = 24
_PROB_TOL = 1e-12


def _hourly(name, values, ndim: int = 1) -> np.ndarray:
    """A float array of hourly values: (24,) for ``ndim`` 1, (n, 24) for 2."""
    try:
        arr = np.array(values, dtype=float, order="C")
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{name} entries must be finite") from None
    if arr.ndim != ndim or arr.shape[-1] != HOURS:
        per = " per scenario" * (ndim == 2)
        raise ValueError(f"{name} must have {HOURS} hourly entries{per}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    return arr


@dataclass(frozen=True)
class ForecastProfile:
    """Nominal 24-hour profiles plus relative forecast-error deviations."""

    load_factor: np.ndarray
    pv_factor: np.ndarray
    price: np.ndarray
    sigma_load: float = 0.05
    sigma_pv: float = 0.10
    sigma_price: float = 0.05

    def __post_init__(self):
        for name in ("load_factor", "pv_factor", "price"):
            object.__setattr__(self, name, _hourly(name, getattr(self, name)))
        python_numbers(self)
        if min(self.sigma_load, self.sigma_pv, self.sigma_price) < 0:
            raise ValueError("sigmas must be nonnegative")
        if np.any(self.load_factor < 0):
            raise ValueError("load_factor must be nonnegative")
        if np.any(self.pv_factor < 0) or np.any(self.pv_factor > 1):
            raise ValueError("pv_factor must lie in [0, 1]")


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct value among ``keys``' rows, in order of
    first occurrence, and the number in that order of every row's value."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """n_s realized 24-hour (load factor, PV factor, price) triples, stacked
    into read-only (n_s, 24) arrays, with their occurrence probabilities.

    Every probability is positive and they sum to one within 1e-12, summed
    one after another in scenario order.  The arrays are copies, so a set
    never changes after it is built.
    """

    load_factor: np.ndarray  # (n_s, 24)
    pv_factor: np.ndarray  # (n_s, 24)
    price: np.ndarray  # (n_s, 24)
    probabilities: np.ndarray  # (n_s,)

    def __post_init__(self):
        for name in ("load_factor", "pv_factor", "price"):
            object.__setattr__(self, name, _hourly(name, getattr(self, name), ndim=2))
        object.__setattr__(self, "probabilities", np.array(self.probabilities, dtype=float))
        for arr in (self.load_factor, self.pv_factor, self.price, self.probabilities):
            arr.setflags(write=False)
        shapes = [a.shape for a in (self.load_factor, self.pv_factor, self.price, self.probabilities)]
        if not (shapes[0] == shapes[1] == shapes[2] and shapes[3] == shapes[0][:1]):
            raise ValueError(f"profiles and probabilities disagree on the number of scenarios: shapes {shapes}")
        if not np.all(self.probabilities > 0):
            raise ValueError("scenario probability must be positive")
        total = sum(self.probabilities.tolist())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.probabilities)

    def __reduce__(self):
        # rebuilt through the constructor: the arrays come back read-only and
        # the grid states are recomputed on first use, never shipped
        return ScenarioSet, (self.load_factor, self.pv_factor, self.price, self.probabilities)

    @cached_property
    def grid_states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The distinct grid states among the set's scenario-hours, computed
        on first use: their hours (u,), load factors (u,) and PV factors (u,),
        and the (n_s * 24,) state of each scenario-hour.

        A grid state is an (hour, load factor, PV factor) triple: all that a
        power flow of that hour sees of a scenario, since price never reaches
        the network.  Scenario-hours whose factors agree bit for bit share a
        state.  States are numbered in order of first occurrence, so a set
        without repeats (a deterministic set, say) maps each scenario-hour to
        itself.
        """
        load, pv = self.load_factor.ravel(), self.pv_factor.ravel()
        hour = np.tile(np.arange(HOURS), len(self))
        # compare factors by their bits, so that states merge only where the
        # power flows would be identical
        states, state_of = _distinct_rows(np.stack([hour, load.view(np.int64), pv.view(np.int64)], axis=1))
        return hour[states], load[states], pv[states], state_of


def _forecast_from_doc(doc) -> ForecastProfile:
    """A forecast document: three hourly profiles, each a list of numbers, plus optional sigmas."""
    object_fields(ForecastProfile, doc)
    for key in ("load_factor", "pv_factor", "price"):
        if not (isinstance(doc[key], list) and all(type(v) in (int, float) for v in doc[key])):
            raise ValueError(f"{key} must be a list of numbers")
    return ForecastProfile(**doc)


def load_forecast(path) -> ForecastProfile:
    return read_document(path, "forecast", _forecast_from_doc)


def default_forecast() -> ForecastProfile:
    return _forecast_from_doc(json.loads(resources.files("dnems.data").joinpath("default_forecast.json").read_text()))


def deterministic_set(forecast: ForecastProfile) -> ScenarioSet:
    """Singleton set realizing the forecast exactly with probability 1."""
    return ScenarioSet(forecast.load_factor[None], forecast.pv_factor[None], forecast.price[None], [1.0])


def _bins(mean, sigma, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The centres and masses, (..., levels) each, of ``discretize_normal``'s
    bins for each entry of the same-shaped ``mean`` and ``sigma``."""
    if levels < 3 or levels % 2 == 0:
        raise ValueError(f"levels must be odd and >= 3, got {levels}")
    half = (levels - 1) // 2
    ks = np.arange(-half, half + 1)
    edges = [0.5 * math.erfc(-(k + 0.5) / math.sqrt(2)) for k in ks[:-1]]
    std_masses = np.diff(np.concatenate([[0.0], edges, [1.0]]))
    sigma = np.asarray(sigma)[..., None]
    return np.asarray(mean)[..., None] + ks * sigma, np.where(sigma != 0, std_masses, ks == 0)


def discretize_normal(mean: float, sigma: float, levels: int = 7) -> list[tuple[float, float]]:
    """Discretize N(mean, sigma) into ``levels`` sigma-wide bins.

    Bins are centered at mean + k*sigma; each interior bin carries the CDF
    mass of its sigma-wide interval and the outer bins absorb the tails, so
    the probabilities always sum to one.  A sigma of 0 gives one certain
    bin, the middle one.
    """
    centres, masses = _bins(mean, sigma, levels)
    return [(float(c), float(p)) for c, p in zip(centres, masses)]


def generate(forecast: ForecastProfile, n: int, seed: int, levels: int = 7) -> ScenarioSet:
    """Draw ``n`` scenarios by roulette-wheel sampling of the discretized PDFs.

    Each hour of each uncertain variable draws one bin independently; a
    scenario's weight is the product of its drawn bin probabilities.  Bins
    are those of ``discretize_normal(nominal, sigma·|nominal|, levels)``.
    Load draws are clipped at 0 and PV draws to [0, 1]; price draws are not
    clipped, so a negative price keeps its sign and spreads by
    ``sigma·|price|``.  Draws whose three profiles agree after rounding to
    12 decimals are merged into the first of them, their weights summed in
    draw order, and the weights are renormalized to sum to one.
    Deterministic for a given seed.
    """
    n = _count("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)

    # per-variable (load, PV, price), per-hour bin values and probabilities (3, HOURS, levels)
    nominal = np.stack([forecast.load_factor, forecast.pv_factor, forecast.price])
    sig = np.array([forecast.sigma_load, forecast.sigma_pv, forecast.sigma_price])[:, None] * np.abs(nominal)
    centres, probs = _bins(nominal, sig, levels)
    lower, upper = np.array([[0.0, 0.0, -np.inf], [np.inf, 1.0, np.inf]])[:, :, None, None]
    values = np.clip(centres, lower, upper)

    # draw-major uniforms: the same stream as drawing 24 per variable per draw
    u = rng.random((n, 3, HOURS))
    idx = (np.cumsum(probs, axis=2) > u[..., None]).argmax(axis=3)  # (n, 3, HOURS)
    cell = (np.arange(3)[:, None], np.arange(HOURS), idx)
    realized = values[cell]
    bin_probs = np.prod(probs[cell], axis=2)  # (n, 3)
    weights = bin_probs[:, 0] * bin_probs[:, 1] * bin_probs[:, 2]

    # + 0.0 merges -0.0 with 0.0
    keep, merged_into = _distinct_rows(np.round(realized.reshape(n, -1), 12) + 0.0)
    merged = np.zeros(len(keep))
    np.add.at(merged, merged_into, weights)  # sums each scenario's weights in draw order
    load, pv, price = realized[keep].swapaxes(0, 1)
    return ScenarioSet(load, pv, price, _renormalized(merged / sum(merged.tolist())))


def _count(name: str, value) -> int:
    """``value`` as an int if it is an integer (a numpy one included) and not
    a bool, else ValueError naming the argument."""
    problem = number_problem(value, integer=True)
    if problem:
        raise ValueError(f"{name} {problem}")
    return int(value)


def _renormalized(probabilities: np.ndarray) -> np.ndarray:
    """``probabilities`` divided once more by their sum if they miss one by
    more than a set tolerates."""
    total = sum(probabilities.tolist())
    return probabilities / total if abs(total - 1.0) > _PROB_TOL else probabilities


def reduction_features(scenario_set: ScenarioSet) -> np.ndarray:
    """Per-scenario feature rows for the reduction distance: the three hourly
    blocks concatenated, each standardized by its mean level across the set."""
    raw = np.concatenate([scenario_set.load_factor, scenario_set.pv_factor, scenario_set.price], axis=1)
    feats = raw.copy()
    for blk in range(3):
        sl = slice(blk * HOURS, (blk + 1) * HOURS)
        scale = np.abs(raw[:, sl]).mean()
        if scale > 0:
            feats[:, sl] = raw[:, sl] / scale
    return feats


def reduce(scenario_set: ScenarioSet, target: int) -> ScenarioSet:
    """Backward reduction to ``target`` scenarios.

    Repeatedly deletes the scenario with the smallest probability-weighted
    distance to its nearest surviving neighbour and hands its probability to
    that neighbour, preserving the total probability mass.  Ties go to the
    lowest index: the first such scenario is deleted, and its mass goes to
    the first of its equally near survivors.

    This is the fast backward reduction of Heitsch & Roemisch (2003): each
    scenario keeps its nearest survivor and the distance to it, and a
    deletion rescans only the rows whose nearest survivor it was.  The
    distances are built a block of rows at a time, so the memory is one
    n x n float64 matrix; the time is typically O(n^2).
    """
    n = len(scenario_set)
    target = _count("target", target)
    if not 1 <= target <= n:
        raise ValueError(f"target must be in [1, {n}], got {target}")
    if target == n:
        return scenario_set

    dist = _distances(reduction_features(scenario_set))
    nearest_of = dist.argmin(axis=1)
    nearest = dist[np.arange(n), nearest_of]

    weights = scenario_set.probabilities.copy()
    alive = np.ones(n, dtype=bool)
    for _ in range(n - target):
        # a deleted scenario's distance is infinite and its weight positive,
        # so it never wins again
        victim = int(np.argmin(weights * nearest))
        weights[nearest_of[victim]] += weights[victim]
        alive[victim] = False
        nearest[victim], nearest_of[victim] = np.inf, -1
        dist[:, victim] = np.inf
        orphans = np.flatnonzero(nearest_of == victim)
        if len(orphans):
            rows = dist[orphans]
            nearest_of[orphans] = rows.argmin(axis=1)
            nearest[orphans] = rows[np.arange(len(orphans)), nearest_of[orphans]]

    survivors = (a[alive] for a in (scenario_set.load_factor, scenario_set.pv_factor, scenario_set.price))
    return ScenarioSet(*survivors, _renormalized(weights[alive]))


_BLOCK_ELEMENTS = 1 << 18  # bound on the difference array of one block of rows


def _distances(feats: np.ndarray) -> np.ndarray:
    """The (n, n) Euclidean distances between ``feats``' rows, infinite on
    the diagonal.  Each entry sums the same contiguous squared differences
    whatever the block size, so its bits do not depend on it."""
    n = len(feats)
    dist = np.empty((n, n))
    step = max(1, _BLOCK_ELEMENTS // feats.size)
    for lo in range(0, n, step):
        diff = feats[lo : lo + step, None, :] - feats[None, :, :]
        dist[lo : lo + step] = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return dist


@dataclass(frozen=True)
class RunStatistics:
    """Summary statistics across repeated runs (the scenario-size sweep rows)."""

    n: int
    mean: float
    sd: float
    ci95_halfwidth: float
    ev: float
    re: float

    @classmethod
    def from_samples(cls, samples, ev: float | None = None) -> "RunStatistics":
        arr = np.asarray(samples, dtype=float)
        if arr.size < 2:
            raise ValueError("need at least 2 samples")
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1))
        ci = 1.96 * sd / np.sqrt(arr.size)
        if sd == 0:
            re = 0.0
        elif mean == 0:
            re = float("inf")
        else:
            re = ci / abs(mean)
        return cls(n=int(arr.size), mean=mean, sd=sd, ci95_halfwidth=float(ci), ev=mean if ev is None else float(ev), re=float(re))


def stopping_rule(samples, epsilon: float) -> tuple[bool, RunStatistics]:
    """Stop once the 95% CI half-width falls below ``epsilon`` of the mean."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    stats = RunStatistics.from_samples(samples)
    return stats.re <= epsilon, stats

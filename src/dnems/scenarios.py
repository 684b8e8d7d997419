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
from pathlib import Path

import numpy as np

__all__ = [
    "HOURS",
    "ForecastProfile",
    "Scenario",
    "ScenarioSet",
    "ScenarioArrays",
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


def _as24(name, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (HOURS,):
        raise ValueError(f"{name} must have {HOURS} hourly entries, got shape {arr.shape}")
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
        object.__setattr__(self, "load_factor", _as24("load_factor", self.load_factor))
        object.__setattr__(self, "pv_factor", _as24("pv_factor", self.pv_factor))
        object.__setattr__(self, "price", _as24("price", self.price))
        if not all(0 <= s < np.inf for s in (self.sigma_load, self.sigma_pv, self.sigma_price)):
            raise ValueError("sigmas must be finite and nonnegative")
        if np.any(self.pv_factor < 0) or np.any(self.pv_factor > 1):
            raise ValueError("pv_factor must lie in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """One realized 24-hour triple with its occurrence probability."""

    load_factor: np.ndarray
    pv_factor: np.ndarray
    price: np.ndarray
    probability: float

    def __post_init__(self):
        object.__setattr__(self, "load_factor", _as24("load_factor", self.load_factor))
        object.__setattr__(self, "pv_factor", _as24("pv_factor", self.pv_factor))
        object.__setattr__(self, "price", _as24("price", self.price))
        if not self.probability > 0:
            raise ValueError("scenario probability must be positive")

    def features(self) -> np.ndarray:
        return np.concatenate([self.load_factor, self.pv_factor, self.price])


@dataclass(frozen=True)
class ScenarioArrays:
    """A set's scenarios stacked into (n_s, 24) arrays, and the distinct grid
    states among its scenario-hours.

    A grid state is an (hour, load factor, PV factor) triple: all that a
    power flow of that hour sees of a scenario, since price never reaches the
    network.  Scenario-hours whose factors agree bit for bit share a state.
    States are numbered in order of first occurrence, so a set without
    repeats (a deterministic set, say) maps each scenario-hour to itself.
    """

    load_factor: np.ndarray  # (n_s, 24)
    pv_factor: np.ndarray  # (n_s, 24)
    price: np.ndarray  # (n_s, 24)
    state_hour: np.ndarray  # (u,) int
    state_load: np.ndarray  # (u,)
    state_pv: np.ndarray  # (u,)
    state_of: np.ndarray | None  # (n_s * 24,) state of each scenario-hour; None for the identity


def _scenario_arrays(scenarios: tuple[Scenario, ...]) -> ScenarioArrays:
    load = np.stack([s.load_factor for s in scenarios])
    pv = np.stack([s.pv_factor for s in scenarios])
    price = np.stack([s.price for s in scenarios])
    hour = np.tile(np.arange(HOURS), len(scenarios))
    # compare factors by their bits, so that states merge only where the
    # power flows would be identical
    keys = np.stack([hour, load.ravel().view(np.int64), pv.ravel().view(np.int64)], axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    states = first[order]
    state_of = None if len(states) == len(keys) else rank[inverse.reshape(-1)]
    return ScenarioArrays(load, pv, price, hour[states], load.ravel()[states], pv.ravel()[states], state_of)


@dataclass(frozen=True)
class ScenarioSet:
    scenarios: tuple[Scenario, ...]

    def __post_init__(self):
        total = sum(s.probability for s in self.scenarios)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])

    @cached_property
    def arrays(self) -> ScenarioArrays:
        """Stacked arrays and grid states, computed on first use and kept for
        the set's lifetime (its scenarios are not to be mutated)."""
        return _scenario_arrays(self.scenarios)


def _parse_forecast(text: str, source) -> ForecastProfile:
    """Forecast document: three hourly profiles plus optional sigmas."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"forecast {source}: expected a JSON object")
    for key in ("load_factor", "pv_factor", "price"):
        if key not in doc:
            raise ValueError(f"forecast {source}: missing key {key!r}")
    sigmas = {k: float(doc[k]) for k in ("sigma_load", "sigma_pv", "sigma_price") if k in doc}
    return ForecastProfile(doc["load_factor"], doc["pv_factor"], doc["price"], **sigmas)


def load_forecast(path) -> ForecastProfile:
    return _parse_forecast(Path(path).read_text(), path)


def default_forecast() -> ForecastProfile:
    return _parse_forecast(
        resources.files("dnems.data").joinpath("default_forecast.json").read_text(), "default_forecast.json"
    )


def deterministic_set(forecast: ForecastProfile) -> ScenarioSet:
    """Singleton set realizing the forecast exactly with probability 1."""
    return ScenarioSet(
        (Scenario(forecast.load_factor, forecast.pv_factor, forecast.price, probability=1.0),)
    )


def discretize_normal(mean: float, sigma: float, levels: int = 7) -> list[tuple[float, float]]:
    """Discretize N(mean, sigma) into ``levels`` sigma-wide bins.

    Bins are centered at mean + k*sigma; each interior bin carries the CDF
    mass of its sigma-wide interval and the outer bins absorb the tails, so
    the probabilities always sum to one.
    """
    if levels < 3 or levels % 2 == 0:
        raise ValueError(f"levels must be odd and >= 3, got {levels}")
    half = (levels - 1) // 2
    ks = np.arange(-half, half + 1)
    if sigma == 0:
        probs = np.zeros(levels)
        probs[half] = 1.0
        return [(float(mean), float(p)) for p in probs]
    edges = [0.5 * math.erfc(-(k + 0.5) / math.sqrt(2)) for k in ks[:-1]]
    probs = np.diff(np.concatenate([[0.0], edges, [1.0]]))
    centers = mean + ks * sigma
    return [(float(c), float(p)) for c, p in zip(centers, probs)]


def _bin_probs(levels: int) -> np.ndarray:
    return np.array([p for _, p in discretize_normal(0.0, 1.0, levels)])


def generate(forecast: ForecastProfile, n: int, seed: int, levels: int = 7) -> ScenarioSet:
    """Draw ``n`` scenarios by roulette-wheel sampling of the discretized PDFs.

    Each hour of each uncertain variable draws one bin independently; a
    scenario's weight is the product of its drawn bin probabilities.
    Duplicates (identical realized profiles) are merged and the weights are
    renormalized to sum to one.  Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    half = (levels - 1) // 2
    ks = np.arange(-half, half + 1)
    std_probs = _bin_probs(levels)
    degenerate = np.zeros(levels)
    degenerate[half] = 1.0

    variables = [
        (forecast.load_factor, forecast.sigma_load, 0.0, np.inf),
        (forecast.pv_factor, forecast.sigma_pv, 0.0, 1.0),
        (forecast.price, forecast.sigma_price, 0.0, np.inf),
    ]
    # per-variable, per-hour bin values and probabilities
    values = []  # (HOURS, levels)
    probs = []  # (HOURS, levels)
    for nominal, rel_sigma, lo, hi in variables:
        sig = rel_sigma * nominal  # absolute per-hour sigma
        vals = np.clip(nominal[:, None] + ks[None, :] * sig[:, None], lo, hi)
        prb = np.where(sig[:, None] > 0, std_probs[None, :], degenerate[None, :])
        values.append(vals)
        probs.append(prb)

    merged: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}
    for _ in range(n):
        weight = 1.0
        realized = []
        for vals, prb in zip(values, probs):
            u = rng.random(HOURS)
            idx = (np.cumsum(prb, axis=1) > u[:, None]).argmax(axis=1)
            realized.append(vals[np.arange(HOURS), idx])
            weight *= float(np.prod(prb[np.arange(HOURS), idx]))
        key = tuple(np.round(np.concatenate(realized), 12))
        if key in merged:
            lf, pv, pr, w = merged[key]
            merged[key] = (lf, pv, pr, w + weight)
        else:
            merged[key] = (realized[0], realized[1], realized[2], weight)

    total = sum(w for *_, w in merged.values())
    scenarios = tuple(
        Scenario(lf, pv, pr, probability=w / total) for lf, pv, pr, w in merged.values()
    )
    return _renormalized(scenarios)


def _renormalized(scenarios: tuple[Scenario, ...]) -> ScenarioSet:
    total = sum(s.probability for s in scenarios)
    if abs(total - 1.0) > _PROB_TOL:
        scenarios = tuple(
            Scenario(s.load_factor, s.pv_factor, s.price, s.probability / total) for s in scenarios
        )
    return ScenarioSet(scenarios)


def reduction_features(scenario_set: ScenarioSet) -> np.ndarray:
    """Per-scenario feature rows for the reduction distance: the three hourly
    blocks concatenated, each standardized by its mean level across the set."""
    raw = np.stack([s.features() for s in scenario_set.scenarios])
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
    that neighbour, preserving the total probability mass.
    """
    n = len(scenario_set)
    if not 1 <= target <= n:
        raise ValueError(f"target must be in [1, {n}], got {target}")
    if target == n:
        return scenario_set

    feats = reduction_features(scenario_set)
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    weights = scenario_set.probabilities.copy()
    alive = np.ones(n, dtype=bool)
    for _ in range(n - target):
        idx_alive = np.flatnonzero(alive)
        sub = dist[np.ix_(idx_alive, idx_alive)]
        nearest = sub.min(axis=1)
        victim_pos = int(np.argmin(weights[idx_alive] * nearest))
        victim = idx_alive[victim_pos]
        heir = idx_alive[int(np.argmin(sub[victim_pos]))]
        weights[heir] += weights[victim]
        weights[victim] = 0.0
        alive[victim] = False

    survivors = tuple(
        Scenario(s.load_factor, s.pv_factor, s.price, probability=weights[i])
        for i, s in enumerate(scenario_set.scenarios)
        if alive[i]
    )
    return _renormalized(survivors)


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

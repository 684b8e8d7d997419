"""Energy management for radial distribution networks with DG, PV, and storage.

Library layout:

- :mod:`dnems.network` - feeder data model, the built-in 69-bus system
- :mod:`dnems.powerflow` - batched radial power-flow solver
- :mod:`dnems.scenarios` - scenario generation, reduction, run statistics
- :mod:`dnems.objectives` - cost / reliability evaluation and profit analysis
- :mod:`dnems.pareto` - dominance, archive, fuzzy best-compromise selection
- :mod:`dnems.optimizer` - hybrid wolf-pack / swarm population search
- :mod:`dnems.study` - batch studies and result artifacts
- :mod:`dnems.cli` - the ``dnems`` command
"""

from .network import (
    Branch,
    Bus,
    DgSpec,
    EssSpec,
    Network,
    PvSpec,
    builtin_ieee69,
    load_network,
    radial_order,
    save_network,
)
from .objectives import (
    DecisionVector,
    ObjectiveVector,
    ScheduleEvaluator,
    decision_bounds,
    ess_trajectory,
    profit_analysis,
)
from .optimizer import HybridConfig, SearchSpace, hybrid_run, rowwise, single_run
from .pareto import ParetoArchive, best_compromise, dominates, membership
from .powerflow import check_limits, solve_batch
from .scenarios import (
    ForecastProfile,
    Scenario,
    ScenarioSet,
    default_forecast,
    discretize_normal,
    generate,
    reduce,
    stopping_rule,
)
from .study import StudyConfig, emit_artifacts, run_study

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Bus",
    "DecisionVector",
    "DgSpec",
    "EssSpec",
    "ForecastProfile",
    "HybridConfig",
    "Network",
    "ObjectiveVector",
    "ParetoArchive",
    "PvSpec",
    "Scenario",
    "ScenarioSet",
    "ScheduleEvaluator",
    "SearchSpace",
    "StudyConfig",
    "best_compromise",
    "builtin_ieee69",
    "check_limits",
    "decision_bounds",
    "default_forecast",
    "discretize_normal",
    "dominates",
    "ess_trajectory",
    "emit_artifacts",
    "generate",
    "hybrid_run",
    "load_network",
    "membership",
    "profit_analysis",
    "radial_order",
    "reduce",
    "rowwise",
    "run_study",
    "save_network",
    "single_run",
    "solve_batch",
    "stopping_rule",
]

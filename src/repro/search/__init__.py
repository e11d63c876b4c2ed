"""Closed-loop design-space search over the fitted predictors.

The paper stops at "predict anywhere in the 13-parameter space"; this
subsystem supplies the modern sequel (ArchGym/OneDSE framing, see
PAPERS.md): the trained predictor becomes the cheap inner loop of an
*optimizer* that navigates the space toward Pareto-optimal designs.

Public surface:

* :class:`DesignSpaceEnv` — gym-style budgeted environment over a
  design space plus a metric oracle (:class:`PredictorOracle` /
  :class:`SimulationOracle`).
* :class:`Agent` implementations — random, hill-climb, annealing,
  genetic (NSGA-II-style), Bayesian expected improvement — built by
  :func:`make_agent`, all seeded and deterministic.
* :class:`ParetoArchive` / :func:`pareto_indices` /
  :func:`hypervolume` — multi-objective frontier machinery.
* :func:`run_search` / :class:`SearchOutcome` / :func:`write_frontier`
  — the shared search loop behind ``repro search``, ``/search`` and
  the benchmark.
* :func:`pick_response_indices` — active-learning response selection
  beating the paper's random R = 32 draw at equal budget.
"""

from .agents import (
    AGENT_NAMES,
    Agent,
    AnnealingAgent,
    BayesianAgent,
    GeneticAgent,
    HillClimbAgent,
    RandomAgent,
    make_agent,
)
from .env import (
    DesignSpaceEnv,
    Observation,
    Oracle,
    PredictorOracle,
    SimulationOracle,
)
from .pareto import (
    FrontierPoint,
    ParetoArchive,
    dominated_fraction_nd,
    hypervolume,
    pareto_indices,
    suggest_reference,
)
from .responses import (
    RESPONSE_STRATEGIES,
    pick_response_indices,
)
from .runner import SearchOutcome, run_search, write_frontier

__all__ = [
    "AGENT_NAMES",
    "Agent",
    "AnnealingAgent",
    "BayesianAgent",
    "DesignSpaceEnv",
    "FrontierPoint",
    "GeneticAgent",
    "HillClimbAgent",
    "Observation",
    "Oracle",
    "ParetoArchive",
    "PredictorOracle",
    "RESPONSE_STRATEGIES",
    "RandomAgent",
    "SearchOutcome",
    "SimulationOracle",
    "dominated_fraction_nd",
    "hypervolume",
    "make_agent",
    "pareto_indices",
    "pick_response_indices",
    "run_search",
    "suggest_reference",
    "write_frontier",
]

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
* The classic one-shot strategies (:func:`hill_climb`,
  :func:`simulated_annealing`, :func:`pareto_front`, ...).
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
from .strategies import (
    Predictor,
    RankedCandidate,
    SearchResult,
    TradeOffPoint,
    dominated_fraction,
    hill_climb,
    pareto_front,
    predicted_best,
    simulated_annealing,
)

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
    "Predictor",
    "PredictorOracle",
    "RESPONSE_STRATEGIES",
    "RandomAgent",
    "RankedCandidate",
    "SearchOutcome",
    "SearchResult",
    "SimulationOracle",
    "TradeOffPoint",
    "dominated_fraction",
    "dominated_fraction_nd",
    "hill_climb",
    "hypervolume",
    "make_agent",
    "pareto_front",
    "pareto_indices",
    "pick_response_indices",
    "predicted_best",
    "run_search",
    "simulated_annealing",
    "suggest_reference",
    "write_frontier",
]

"""repro — reproduction of *Network Uncertainty in Selfish Routing*
(Georgiou, Pavlides & Philippou; IPPS 2006).

The library models selfish routing of ``n`` users over ``m`` parallel
links when users hold private probabilistic *beliefs* about the links'
capacities, and implements everything the paper builds or cites:

* the model layer — states, beliefs, games, latencies, social costs;
* the paper's three pure-NE algorithms (``Atwolinks``, ``Asymmetric``,
  ``Auniform``) plus enumeration and best-response dynamics;
* fully mixed Nash equilibria in closed form, with uniqueness and
  worst-case (social-cost-maximising) verification;
* the price-of-anarchy bounds of Theorems 4.13/4.14;
* the substrates: the KP-model and Milchtaich's player-specific games;
* the experiment harness (E1-E13) regenerating every checkable artefact;
* the batched game engine (:mod:`repro.batch`) — B instances stacked
  into ``(B, n, m)`` tensors, with vectorised kernels, lockstep
  best-response dynamics and stacked support enumeration; the
  single-game APIs are its ``B = 1`` views;
* the campaign runtime (:mod:`repro.runtime`) — declarative
  :class:`~repro.runtime.spec.SweepSpec` campaigns, a chunked
  process-pool scheduler, and an append-only JSONL result store with
  checkpoint/resume.

Quickstart::

    import numpy as np
    from repro import StateSpace, BeliefProfile, UncertainRoutingGame
    from repro import solve_pure_nash, fully_mixed_nash

    states = StateSpace([[1.0, 2.0], [2.0, 1.0]])
    beliefs = BeliefProfile.from_matrix(states, [[0.9, 0.1], [0.2, 0.8]])
    game = UncertainRoutingGame([1.0, 2.0], beliefs)
    profile, method = solve_pure_nash(game)
"""

from repro.errors import (
    AlgorithmDomainError,
    BeliefError,
    ConvergenceError,
    DimensionError,
    ModelError,
    NoEquilibriumError,
    NotFullyMixedError,
    ReproError,
    SolverError,
)
from repro.model import (
    Belief,
    BeliefProfile,
    MixedProfile,
    OptimumResult,
    PureProfile,
    StateSpace,
    UncertainRoutingGame,
    common_belief_profile,
    coordination_ratios,
    dirichlet_belief,
    opt1,
    opt2,
    optimum,
    point_mass_belief,
    sc1,
    sc2,
    uniform_belief,
)
from repro.equilibria import (
    asymmetric,
    atwolinks,
    auniform,
    best_response_dynamics,
    better_response_dynamics,
    count_pure_nash,
    enumerate_mixed_nash,
    exists_pure_nash,
    fully_mixed_candidate,
    fully_mixed_nash,
    has_fully_mixed_nash,
    is_mixed_nash,
    is_pure_nash,
    pure_nash_profiles,
    solve_pure_nash,
)
from repro.analysis import (
    poa_bound_general,
    poa_bound_uniform,
    run_conjecture_campaign,
    verify_fmne_dominance,
)
from repro.batch import (
    BatchDynamicsResult,
    GameBatch,
    batch_best_response_dynamics,
    batch_better_response_dynamics,
    batch_count_pure_nash,
    batch_deviation_latencies,
    batch_exists_pure_nash,
    batch_loads,
    batch_pure_latencies,
    batch_pure_nash_mask,
    batch_empirical_ratios,
    batch_fully_mixed_candidate,
    batch_is_mixed_nash,
    batch_min_expected_latencies,
    batch_mixed_latency_matrix,
    batch_poa_bound_general,
    batch_poa_bound_uniform,
    batch_social_optima,
    batch_enumerate_mixed_nash,
    random_game_batch,
)
from repro.runtime import ResultStore, SweepResult, SweepSpec, run_sweep
from repro.substrates import PlayerSpecificGame, kp_game

__version__ = "1.0.0"

__all__ = [
    # errors
    "AlgorithmDomainError",
    "BeliefError",
    "ConvergenceError",
    "DimensionError",
    "ModelError",
    "NoEquilibriumError",
    "NotFullyMixedError",
    "ReproError",
    "SolverError",
    # model
    "Belief",
    "BeliefProfile",
    "MixedProfile",
    "OptimumResult",
    "PureProfile",
    "StateSpace",
    "UncertainRoutingGame",
    "common_belief_profile",
    "coordination_ratios",
    "dirichlet_belief",
    "opt1",
    "opt2",
    "optimum",
    "point_mass_belief",
    "sc1",
    "sc2",
    "uniform_belief",
    # equilibria
    "asymmetric",
    "atwolinks",
    "auniform",
    "best_response_dynamics",
    "better_response_dynamics",
    "count_pure_nash",
    "enumerate_mixed_nash",
    "exists_pure_nash",
    "fully_mixed_candidate",
    "fully_mixed_nash",
    "has_fully_mixed_nash",
    "is_mixed_nash",
    "is_pure_nash",
    "pure_nash_profiles",
    "solve_pure_nash",
    # analysis
    "poa_bound_general",
    "poa_bound_uniform",
    "run_conjecture_campaign",
    "verify_fmne_dominance",
    # batch engine
    "BatchDynamicsResult",
    "GameBatch",
    "batch_best_response_dynamics",
    "batch_better_response_dynamics",
    "batch_count_pure_nash",
    "batch_deviation_latencies",
    "batch_exists_pure_nash",
    "batch_loads",
    "batch_pure_latencies",
    "batch_pure_nash_mask",
    "batch_empirical_ratios",
    "batch_fully_mixed_candidate",
    "batch_is_mixed_nash",
    "batch_min_expected_latencies",
    "batch_mixed_latency_matrix",
    "batch_poa_bound_general",
    "batch_poa_bound_uniform",
    "batch_social_optima",
    "batch_enumerate_mixed_nash",
    "random_game_batch",
    # campaign runtime
    "ResultStore",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    # substrates
    "PlayerSpecificGame",
    "kp_game",
    "__version__",
]

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

Each exported name is imported on first use (:mod:`repro._lazy`), so
``import repro`` loads no subpackage and no NumPy.
"""

from repro._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.errors": (
            "AlgorithmDomainError",
            "BeliefError",
            "ConvergenceError",
            "DimensionError",
            "ModelError",
            "NoEquilibriumError",
            "NotFullyMixedError",
            "ReproError",
            "SolverError",
        ),
        # model
        "repro.model.beliefs": (
            "Belief",
            "BeliefProfile",
            "common_belief_profile",
            "dirichlet_belief",
            "point_mass_belief",
            "uniform_belief",
        ),
        "repro.model.game": ("UncertainRoutingGame",),
        "repro.model.profiles": ("MixedProfile", "PureProfile"),
        "repro.model.social": (
            "OptimumResult",
            "coordination_ratios",
            "opt1",
            "opt2",
            "optimum",
            "sc1",
            "sc2",
        ),
        "repro.model.state": ("StateSpace",),
        # equilibria
        "repro.equilibria.best_response": (
            "best_response_dynamics",
            "better_response_dynamics",
        ),
        "repro.equilibria.conditions": ("is_mixed_nash", "is_pure_nash"),
        "repro.equilibria.enumeration": (
            "count_pure_nash",
            "exists_pure_nash",
            "pure_nash_profiles",
        ),
        "repro.equilibria.fully_mixed": (
            "fully_mixed_candidate",
            "fully_mixed_nash",
            "has_fully_mixed_nash",
        ),
        "repro.equilibria.solve": ("solve_pure_nash",),
        "repro.equilibria.support_enum": ("enumerate_mixed_nash",),
        "repro.equilibria.symmetric": ("asymmetric",),
        "repro.equilibria.two_links": ("atwolinks",),
        "repro.equilibria.uniform": ("auniform",),
        # analysis
        "repro.analysis.conjecture": ("run_conjecture_campaign",),
        "repro.analysis.poa": ("poa_bound_general", "poa_bound_uniform"),
        "repro.analysis.worst_case": ("verify_fmne_dominance",),
        # batch engine
        "repro.batch.container": ("GameBatch",),
        "repro.batch.dynamics": (
            "BatchDynamicsResult",
            "batch_best_response_dynamics",
            "batch_better_response_dynamics",
        ),
        "repro.batch.generator": ("random_game_batch",),
        "repro.batch.kernels": (
            "batch_count_pure_nash",
            "batch_deviation_latencies",
            "batch_exists_pure_nash",
            "batch_loads",
            "batch_pure_latencies",
            "batch_pure_nash_mask",
        ),
        "repro.batch.mixed": (
            "batch_fully_mixed_candidate",
            "batch_is_mixed_nash",
            "batch_min_expected_latencies",
            "batch_mixed_latency_matrix",
        ),
        "repro.batch.poa": (
            "batch_empirical_ratios",
            "batch_poa_bound_general",
            "batch_poa_bound_uniform",
            "batch_social_optima",
        ),
        "repro.batch.support": ("batch_enumerate_mixed_nash",),
        # campaign runtime
        "repro.runtime.scheduler": ("SweepResult", "run_sweep"),
        "repro.runtime.spec": ("SweepSpec",),
        "repro.runtime.store": ("ResultStore",),
        # substrates
        "repro.substrates.kp": ("kp_game",),
        "repro.substrates.player_specific": ("PlayerSpecificGame",),
    },
)
__all__.append("__version__")

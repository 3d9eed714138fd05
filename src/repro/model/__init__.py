"""Model layer: states, beliefs, games, latencies, profiles, social cost."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.model.beliefs": (
            "Belief",
            "BeliefProfile",
            "common_belief_profile",
            "dirichlet_belief",
            "point_mass_belief",
            "uniform_belief",
        ),
        "repro.model.game": ("UncertainRoutingGame",),
        "repro.model.latency": (
            "expected_link_latencies",
            "min_expected_latencies",
            "mixed_latency_matrix",
            "pure_latencies",
            "pure_latency_of_user",
        ),
        "repro.model.profiles": (
            "MixedProfile",
            "PureProfile",
            "loads_of",
            "profile_from_support_sets",
            "pure_to_mixed",
        ),
        "repro.model.social": (
            "OptimumResult",
            "coordination_ratios",
            "opt1",
            "opt2",
            "optimum",
            "sc1",
            "sc2",
            "social_costs_of_pure",
        ),
        "repro.model.state": ("StateSpace",),
    },
)

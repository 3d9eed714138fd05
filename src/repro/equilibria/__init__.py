"""Equilibrium computation: Nash conditions, the paper's algorithms,
best-response dynamics, enumeration, fully mixed equilibria, game graphs
and potential-function analysis."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.equilibria.approximate": (
            "best_epsilon_pure",
            "epsilon_mixed",
            "epsilon_pure",
            "rounded_fully_mixed",
        ),
        "repro.equilibria.best_response": (
            "DynamicsResult",
            "best_response_dynamics",
            "best_responses",
            "better_response_dynamics",
        ),
        "repro.equilibria.conditions": (
            "deviation_gains",
            "epsilon_of_profile",
            "is_mixed_nash",
            "is_pure_nash",
            "mixed_regrets",
            "pure_regrets",
        ),
        "repro.equilibria.enumeration": (
            "count_pure_nash",
            "exists_pure_nash",
            "pure_nash_profiles",
        ),
        "repro.equilibria.fixpoint": ("FixpointSolution", "fixpoint_mixed_nash"),
        "repro.equilibria.fully_mixed": (
            "FullyMixedResult",
            "fully_mixed_candidate",
            "fully_mixed_nash",
            "has_fully_mixed_nash",
        ),
        "repro.equilibria.game_graph": (
            "best_response_graph",
            "better_response_graph",
            "find_response_cycle",
            "sink_states",
        ),
        "repro.equilibria.nashify": (
            "NashifyResult",
            "nashify",
            "nashify_common_beliefs",
        ),
        "repro.equilibria.potential": (
            "exact_potential_cycle_gap",
            "has_better_response_cycle",
            "ordinal_potential_symmetric",
            "weighted_potential_common_beliefs",
        ),
        "repro.equilibria.solve": ("solve_pure_nash",),
        "repro.equilibria.structure": ("EquilibriumSet", "equilibrium_set"),
        "repro.equilibria.support_enum": ("enumerate_mixed_nash",),
        "repro.equilibria.symmetric": ("asymmetric",),
        "repro.equilibria.two_links": ("atwolinks", "tolerances"),
        "repro.equilibria.uniform": ("auniform",),
    },
)

# ``nashify`` is both a submodule and the function it defines. Loading a
# submodule sets the package attribute of its name to the module, which
# would replace a lazily bound function, so the function is bound now,
# with the submodule loaded.
nashify = __getattr__("nashify")

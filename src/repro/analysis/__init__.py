"""Analysis layer: price-of-anarchy bounds, worst-case equilibria,
the conjecture campaign and empirical complexity fits."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.analysis.conjecture": ("CampaignResult", "run_conjecture_campaign"),
        "repro.analysis.cycles": (
            "CycleSearchResult",
            "realize_cycle",
            "search_improvement_cycle_instance",
        ),
        "repro.analysis.information": (
            "InformationStudy",
            "objective_latency",
            "run_information_study",
        ),
        "repro.analysis.poa": (
            "PoAObservation",
            "empirical_coordination_ratios",
            "poa_bound_general",
            "poa_bound_uniform",
            "poa_study",
        ),
        "repro.analysis.scaling": ("ScalingObservation", "measure_scaling"),
        "repro.analysis.worst_case": ("DominanceReport", "verify_fmne_dominance"),
    },
)

"""Shared utilities: RNG handling, validation, table rendering, timing,
chunked process-pool execution."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.util.parallel": ("chunk_ranges", "resolve_jobs", "run_tasks"),
        "repro.util.rng": ("as_generator", "spawn_generators", "stable_seed"),
        "repro.util.tables": ("Table", "format_float"),
        "repro.util.timing": ("ScalingFit", "fit_power_law", "time_callable"),
        "repro.util.validation": (
            "check_positive_array",
            "check_probability_matrix",
            "check_probability_vector",
        ),
    },
)

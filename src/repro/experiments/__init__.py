"""Experiment runners E1-E13: each regenerates one paper artefact
(figure/algorithm or theorem claim) and reports a pass/fail verdict."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.experiments.base": ("ExperimentResult",),
        "repro.experiments.registry": (
            "EXPERIMENTS",
            "get_experiment",
            "run_experiment",
        ),
    },
)

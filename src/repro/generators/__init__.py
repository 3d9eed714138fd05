"""Reproducible random-instance generators and named workload suites.

Single-instance generators live in :mod:`repro.generators.games`; the
vectorised batch generator (:func:`random_game_batch`, drawing all B
instances of a cell in one RNG pass) is re-exported from
:mod:`repro.batch.generator`.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.batch.generator": ("random_game_batch",),
        "repro.generators.games": (
            "random_game",
            "random_kp_game",
            "random_symmetric_game",
            "random_two_link_game",
            "random_uniform_beliefs_game",
            "random_weights",
        ),
        "repro.generators.suites": (
            "conjecture_grid",
            "poa_grid",
            "scaling_sizes",
            "small_verification_grid",
        ),
    },
)

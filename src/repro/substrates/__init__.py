"""Substrates the paper builds on: the KP-model (complete information) and
Milchtaich's player-specific congestion games (the superclass whose
negative result the paper contrasts against)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.substrates.kp": (
            "expected_max_congestion",
            "kp_game",
            "kp_greedy_nash",
            "kp_price_of_anarchy",
            "opt_max_congestion",
        ),
        "repro.substrates.milchtaich": (
            "CounterexampleReport",
            "canonical_counterexample",
            "multiplicative_pne_sweep",
            "search_no_pne_instance",
        ),
        "repro.substrates.player_specific": ("PlayerSpecificGame",),
    },
)

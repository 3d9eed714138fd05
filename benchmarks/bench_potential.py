"""E6 — Section 3.2: potential-function structure benchmarks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cycles import search_improvement_cycle_instance
from repro.equilibria.potential import (
    exact_potential_cycle_gap,
    ordinal_potential_symmetric,
    weighted_potential_common_beliefs,
)
from repro.generators.games import random_game, random_kp_game, random_symmetric_game
from repro.util.rng import stable_seed


def test_exact_potential_gap_exhaustive(benchmark):
    game = random_game(3, 3, seed=stable_seed("bench-e6", "gap"))
    gap = benchmark(lambda: exact_potential_cycle_gap(game))
    assert gap > 1e-9  # no exact potential


def test_weighted_potential_evaluation(benchmark):
    game = random_kp_game(64, 8, seed=stable_seed("bench-e6", "wp"))
    sigma = np.arange(64) % 8
    value = benchmark(lambda: weighted_potential_common_beliefs(game, sigma))
    assert value > 0


def test_ordinal_potential_evaluation(benchmark):
    game = random_symmetric_game(64, 8, seed=stable_seed("bench-e6", "op"))
    sigma = np.arange(64) % 8
    value = benchmark(lambda: ordinal_potential_symmetric(game, sigma))
    assert np.isfinite(value)


def test_e6_cycle_search(benchmark, report):
    """The full E6 search: every (3, 3) move cycle of length <= 6
    against 12 weight draws."""
    result = benchmark.pedantic(
        lambda: search_improvement_cycle_instance(
            max_cycle_length=6, weight_draws=12, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    assert result.cycles_tested == 2889
    assert not result.found
    report.append(
        f"[E6] improvement-cycle search: {result.cycles_tested} cycles of "
        "length <= 6 tested at (n, m) = (3, 3), none realisable (full E6)"
    )


def test_four_user_cycle_search(benchmark, report):
    """The first realisable (4, 3) cycle: 8 moves, at cycle 2,418."""
    result = benchmark.pedantic(
        lambda: search_improvement_cycle_instance(
            4, 3, max_cycle_length=8, max_cycles=2418, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    assert result.found
    assert result.cycles_tested == 2418
    report.append(
        f"[E6] improvement-cycle search at (n, m) = (4, 3): an "
        f"{len(result.cycle) - 1}-move improvement cycle realised and "
        f"verified after {result.cycles_tested} cycles"
    )

"""Ablations for the design choices DESIGN.md calls out.

* exhaustive vs branch-and-bound social optimum — when does pruning win?
* best-response schedules — round-robin vs max-regret;
* enumeration block size — the memory/speed knob of the vectorised
  pure-NE sweep;
* special-case algorithms vs the generic dynamics on their own domains.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.equilibria.best_response import best_response_dynamics
from repro.equilibria.enumeration import pure_nash_mask
from repro.equilibria.two_links import atwolinks
from repro.equilibria.uniform import auniform
from repro.model.social import enumerate_assignments, optimum
from repro.generators.games import (
    random_game,
    random_two_link_game,
    random_uniform_beliefs_game,
)
from repro.util.rng import stable_seed


@pytest.mark.parametrize("method", ["exhaustive", "branch_and_bound"])
def test_optimum_method_small(benchmark, method):
    """n=8, m=3: 6561 profiles — exhaustive vectorisation vs pruning."""
    game = random_game(8, 3, seed=stable_seed("bench-abl", "opt"))
    result = benchmark.pedantic(
        lambda: optimum(game, "sum", method=method), rounds=2, iterations=1
    )
    assert result.value > 0


def test_optimum_bb_large(benchmark):
    """n=14, m=3: ~4.8M profiles — exhaustive is out, B&B must carry."""
    game = random_game(14, 3, seed=stable_seed("bench-abl", "optL"))
    result = benchmark.pedantic(
        lambda: optimum(game, "max", method="branch_and_bound"),
        rounds=1,
        iterations=1,
    )
    assert result.value > 0


@pytest.mark.parametrize("schedule", ["round_robin", "max_regret"])
def test_brd_schedule(benchmark, schedule):
    game = random_game(10, 4, seed=stable_seed("bench-abl", "brd"))
    result = benchmark(
        lambda: best_response_dynamics(game, seed=0, schedule=schedule)
    )
    assert result.converged


@pytest.mark.parametrize("block", [1024, 16384, 131072])
def test_enumeration_block_size(benchmark, block):
    game = random_game(8, 3, seed=stable_seed("bench-abl", "blk"))
    assignments = enumerate_assignments(8, 3)
    mask = benchmark(
        lambda: pure_nash_mask(game, assignments, block_size=block)
    )
    assert mask.any()


def test_special_case_vs_generic_two_links(benchmark, report):
    """Atwolinks vs generic dynamics on the same m=2 instances."""
    games = [
        random_two_link_game(64, seed=stable_seed("bench-abl2", rep))
        for rep in range(5)
    ]

    def special():
        return [atwolinks(g) for g in games]

    profiles = benchmark.pedantic(special, rounds=3, iterations=1)
    assert len(profiles) == 5
    import time

    t0 = time.perf_counter()
    for g in games:
        assert best_response_dynamics(g, seed=0).converged
    generic = time.perf_counter() - t0
    report.append(
        f"[ablation] m=2: Atwolinks on 5x n=64 games vs generic BRD "
        f"({generic * 1000:.1f} ms for BRD; see benchmark table for Atwolinks)"
    )


def test_special_case_vs_generic_uniform(benchmark):
    game = random_uniform_beliefs_game(512, 8, seed=stable_seed("bench-abl3", 0))
    profile = benchmark(lambda: auniform(game))
    assert profile.num_users == 512

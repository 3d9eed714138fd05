"""Batched vs per-game fixed-point solving (the solver-tier gate).

Measures the E13 solver load two ways:

* ``batched``    — :func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`
  over the whole game stack at once, exactly as the E13 chunk kernels
  and the service ``fixpoint`` op drive it: every round updates all
  ``B`` games' users in one ``(B, m)`` sweep per user;
* ``sequential`` — the same solver invoked game by game (``B = 1``),
  the shape a naive per-query loop would take. The two paths are
  *bitwise identical* per game (trajectories are independent of
  batch-mates — the tier-1 invariance property pins this), so the
  comparison isolates pure batching leverage, not algorithmic drift.

Both sides run :data:`~repro.batch.fixpoint.POLISH_ROUND` rounds and
then the best-response polish (one lockstep dynamics call per solve),
so the ratio still measures batching alone. The >= 5x gate runs at an
E13-representative width; with the polish it measured 26.7-27.3x on a
2-vCPU Xeon (9.4-9.7x when every game iterated to convergence, 7.2-7.4x
while finished games still rode along in the NumPy loop's working
tensors). Its timings land in ``BENCH_trajectory.json`` so the
solver's performance history is tracked per commit.

Two more benches time the windows where finished games matter, and
assert outcomes and round counts, not time: a 64-game uniform-beliefs
window, and E13's slowest chunk for the round loop, the uniform
``(100, 10)`` pair. The polish answers every game of both at round 16.
The round loop alone keeps its own bench on the same window, where its
median game converges in 51 rounds while one stalls at round 1,057, so
the loop's compaction of finished games stays covered. A single
``(300, 30)`` game shows the polish certifying far past E13's widths.
"""

from __future__ import annotations

import numpy as np
import pytest
from _timing import _timed

from repro.batch.container import GameBatch
from repro.batch.fixpoint import (
    DEFAULT_BETA_MAX,
    DEFAULT_ETA,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_STALL_ROUNDS,
    DEFAULT_TOL,
    POLISH_ROUND,
    STALL_RTOL,
    _generic_fixpoint_loop,
    batch_fixpoint_mixed_nash,
)
from repro.experiments.fixpoint_tier import e13_specs
from repro.util.rng import stable_seed

LABEL = "bench-fixpoint"
NUM_GAMES = 48
NUM_USERS = 16
NUM_LINKS = 4
WINDOW_LABEL = "bench-fixpoint-straggler"
WINDOW_GAMES = 64


def _stack() -> GameBatch:
    seeds = [
        stable_seed(LABEL, NUM_USERS, NUM_LINKS, rep)
        for rep in range(NUM_GAMES)
    ]
    return GameBatch.from_seeds(seeds, NUM_USERS, NUM_LINKS)


def batched_solve(batch: GameBatch):
    return batch_fixpoint_mixed_nash(
        batch.weights, batch.capacities, batch.initial_traffic
    )


def sequential_solve(batch: GameBatch):
    return [
        batch_fixpoint_mixed_nash(
            batch.weights[i : i + 1],
            batch.capacities[i : i + 1],
            batch.initial_traffic[i : i + 1],
        )
        for i in range(len(batch))
    ]


def test_fixpoint_batched_speedup_at_least_5x(report, trajectory):
    """Acceptance gate: one stacked solve >= 5x the per-game loop."""
    batch = _stack()
    together = batched_solve(batch)
    alone = sequential_solve(batch)
    # Bitwise agreement first, or the timing comparison is meaningless.
    assert bool(together.converged.all())
    for i, single in enumerate(alone):
        assert np.array_equal(
            single.probabilities[0], together.probabilities[i]
        )
        assert single.rounds[0] == together.rounds[i]

    batched_times = [_timed(lambda: batched_solve(batch)) for _ in range(5)]
    sequential_times = [
        _timed(lambda: sequential_solve(batch)) for _ in range(3)
    ]
    trajectory.record("fixpoint-solver", batched_times, sequential_times)
    batched, sequential = min(batched_times), min(sequential_times)
    ratio = sequential / batched
    report.append(
        f"[fixpoint] {NUM_GAMES} games at ({NUM_USERS}, {NUM_LINKS}): "
        f"batched {batched * 1e3:.2f} ms, per-game loop "
        f"{sequential * 1e3:.2f} ms, speedup {ratio:.1f}x"
    )
    assert ratio >= 5.0, f"batched fixpoint solve only {ratio:.2f}x faster"


def test_batched_fixpoint_solve(benchmark):
    batch = _stack()
    result = benchmark(lambda: batched_solve(batch))
    assert bool(result.converged.all())


def _window() -> GameBatch:
    seeds = [
        stable_seed(WINDOW_LABEL, "uniform", NUM_USERS, NUM_LINKS, rep)
        for rep in range(WINDOW_GAMES)
    ]
    return GameBatch.from_seeds_uniform_beliefs(
        seeds, NUM_USERS, NUM_LINKS, with_initial_traffic=True
    )


def test_fixpoint_window_with_straggler(benchmark):
    """A 64-game uniform-beliefs window, the size of a full service
    ``fixpoint`` batch: every game is polished at round 16, including
    the one the round loop alone stalls on."""
    batch = _window()
    result = benchmark(lambda: batched_solve(batch))
    assert int(np.median(result.rounds)) == POLISH_ROUND
    assert int(result.converged.sum()) == WINDOW_GAMES
    assert bool(result.polished.all()) and bool(result.certified.all())
    assert result.rounds[result.stalled].tolist() == []


def test_fixpoint_loop_window_with_straggler(benchmark):
    """The round loop alone on the same window: the median game
    converges in 51 rounds, one game stalls at round 1,057. Finished
    games leave the working tensors, so the tail costs what the
    straggler costs."""
    batch = _window()
    log2_beta_max = DEFAULT_BETA_MAX.bit_length() - 1
    args = (DEFAULT_TOL, DEFAULT_ETA, log2_beta_max, DEFAULT_MAX_ROUNDS,
            DEFAULT_STALL_ROUNDS, STALL_RTOL)
    _, rounds, _, converged, stalled = benchmark(
        lambda: _generic_fixpoint_loop(
            batch.weights, batch.capacities, batch.initial_traffic, *args
        )
    )
    assert int(np.median(rounds)) == 51
    assert int(converged.sum()) == WINDOW_GAMES - 1
    assert rounds[stalled].tolist() == [1057]


def test_fixpoint_e13_uniform_widest_chunk(benchmark):
    """E13's widest chunk: the uniform-beliefs ``(100, 10)`` pair (263
    and 235 rounds in the round loop alone)."""
    _, uniform = e13_specs(quick=False)
    chunks, _ = uniform.chunks()
    (chunk,) = [c for c in chunks if (c.num_users, c.num_links) == (100, 10)]
    batch = GameBatch.from_seeds_uniform_beliefs(
        chunk.seeds(), 100, 10, with_initial_traffic=True
    )
    result = benchmark(lambda: batched_solve(batch))
    assert bool(result.converged.all())
    assert result.rounds.tolist() == [POLISH_ROUND, POLISH_ROUND]


def test_fixpoint_single_wide_game(benchmark):
    """One ``(300, 30)`` game: polished and certified at round 16."""
    n, m = 300, 30
    batch = GameBatch.from_seeds([stable_seed(LABEL, n, m, 0)], n, m)
    result = benchmark(lambda: batched_solve(batch))
    assert bool(result.polished[0]) and bool(result.certified[0])


@pytest.mark.parametrize(("n", "m"), [(32, 6), (64, 8)])
def test_fixpoint_widths(benchmark, n, m):
    """Solver throughput at the E13 grid's larger widths."""
    seeds = [stable_seed(LABEL, n, m, rep) for rep in range(8)]
    batch = GameBatch.from_seeds(seeds, n, m)
    result = benchmark(
        lambda: batch_fixpoint_mixed_nash(
            batch.weights, batch.capacities, batch.initial_traffic
        )
    )
    assert bool(result.converged.all())

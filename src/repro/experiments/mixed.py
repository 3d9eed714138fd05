"""Experiments E7-E9: fully mixed Nash equilibria.

* E7 — Theorem 4.6 / Corollary 4.7: the closed form is Nash whenever
  interior, unique among fully mixed equilibria (cross-checked against
  support enumeration), and O(nm) to evaluate.
* E8 — Theorem 4.8: uniform user beliefs force ``p^l_i = 1/m``.
* E9 — Lemma 4.9 / Theorems 4.11-4.12: the fully mixed point dominates
  every equilibrium user-by-user, hence maximises SC1 and SC2.

Execution model: each experiment declares a
:class:`~repro.runtime.spec.SweepSpec` (cell grid + per-chunk kernel)
and delegates execution — chunking, process-pool fan-out, checkpoint/
resume — to the shared campaign runtime. Inside a kernel each chunk's
replications are stacked into a :class:`~repro.batch.container.GameBatch`
and the closed-form candidates, Nash verdicts and dominance comparisons
are evaluated by the batched mixed kernels (:mod:`repro.batch.mixed`);
the support-enumeration cross-checks run on the batched
``(B, k, k)``-stacked indifference solver
(:func:`repro.batch.support.batch_enumerate_mixed_nash`), so no
per-game sequential path remains. Per-rep seeds come from
:func:`~repro.util.rng.stable_seed`, so results are bit-identical
regardless of batching, chunking, worker count or resume — and
identical to the pre-batch per-game loops, which
``tests/data/mixed_seed_baseline.json`` pins.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.mixed import (
    batch_fully_mixed_candidate,
    batch_is_mixed_nash,
    batch_min_expected_latencies,
    normalize_rows,
)
from repro.batch.support import batch_enumerate_mixed_nash
from repro.experiments.base import ExperimentResult
from repro.generators.suites import GridCell, small_verification_grid
from repro.runtime.scheduler import run_sweep
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.util.parallel import ReplicationChunk
from repro.util.tables import Table

__all__ = [
    "run_e7",
    "run_e8",
    "run_e9",
    "e7_specs",
    "e8_specs",
    "e9_specs",
]


def _chunk_batch(chunk: ReplicationChunk, *, uniform_beliefs: bool = False) -> GameBatch:
    """The chunk's instances, stacked (seeds independent of chunking)."""
    seeds = chunk.seeds()
    if uniform_beliefs:
        return GameBatch.from_seeds_uniform_beliefs(
            seeds, chunk.num_users, chunk.num_links
        )
    return GameBatch.from_seeds(seeds, chunk.num_users, chunk.num_links)


def _examine_e7_chunk(chunk: ReplicationChunk) -> tuple[int, int, int]:
    """(exists, closed form is NE, uniqueness verified) counts for a chunk.

    The candidate evaluation and Nash verdicts run batched; the support
    enumeration cross-check (exactly one fully mixed equilibrium, equal
    to the closed form) runs on the stacked indifference solver over the
    whole interior sub-batch at once.
    """
    batch = _chunk_batch(chunk)
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    interior = np.flatnonzero(fm.exists)
    if interior.size == 0:
        return 0, 0, 0
    matrices = normalize_rows(fm.probabilities[interior])
    nash = batch_is_mixed_nash(
        matrices,
        batch.weights[interior],
        batch.capacities[interior],
        batch.initial_traffic[interior],
        tol=1e-7,
    )
    all_equilibria = batch_enumerate_mixed_nash(
        batch.weights[interior],
        batch.capacities[interior],
        batch.initial_traffic[interior],
    )
    unique_ok = 0
    for j, equilibria in enumerate(all_equilibria):
        fully_mixed = [
            eq for eq in equilibria if eq.is_fully_mixed(atol=1e-9)
        ]
        if len(fully_mixed) == 1 and np.allclose(
            fully_mixed[0].matrix, matrices[j], atol=1e-6
        ):
            unique_ok += 1
    return int(interior.size), int(nash.sum()), unique_ok


def e7_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E7's declarative sweep: the small-verification grid."""
    grid = tuple(small_verification_grid(replications=4 if quick else 12))
    return (SweepSpec("E7", "E7", grid, _examine_e7_chunk),)


def run_e7(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E7 — closed-form FMNE: Nash when interior, unique, O(nm)."""
    (spec,) = e7_specs(quick=quick)
    sweep = run_sweep(
        spec, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    table = Table(
        ["n", "m", "instances", "FMNE exists", "closed form is NE",
         "uniqueness verified"],
        title="E7 — Theorem 4.6: fully mixed NE closed form",
    )
    totals = [[0, 0, 0] for _ in spec.cells]
    for cell_index, (exists, nash_ok, unique_ok) in zip(
        sweep.cell_of_chunk, sweep.chunk_payloads
    ):
        totals[cell_index][0] += exists
        totals[cell_index][1] += nash_ok
        totals[cell_index][2] += unique_ok

    all_ok = True
    cells = []
    for cell, (exists, nash_ok, unique_ok) in zip(spec.cells, totals):
        ok = nash_ok == exists and unique_ok == exists
        all_ok = all_ok and ok
        cells.append(
            {
                "n": cell.num_users, "m": cell.num_links,
                "reps": cell.replications, "exists": exists,
                "nash_ok": nash_ok, "unique_ok": unique_ok,
            }
        )
        table.add_row(
            [cell.num_users, cell.num_links, cell.replications, exists,
             f"{nash_ok}/{exists}", f"{unique_ok}/{exists}"]
        )
    return ExperimentResult(
        "E7",
        "Theorem 4.6 / Corollary 4.7 — FMNE closed form, uniqueness",
        passed=all_ok,
        tables=[table],
        details={"all_ok": all_ok, "cells": cells},
    )


def _examine_e8_chunk(chunk: ReplicationChunk) -> float:
    """Worst ``|p - 1/m|`` over the chunk's uniform-beliefs instances."""
    batch = _chunk_batch(chunk, uniform_beliefs=True)
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    return float(np.abs(fm.probabilities - 1.0 / chunk.num_links).max())


def e8_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E8's declarative sweep."""
    reps = 20 if quick else 100
    cells = tuple(
        GridCell(n, m, reps) for (n, m) in [(2, 2), (3, 3), (5, 4), (8, 6)]
    )
    return (SweepSpec("E8", "E8", cells, _examine_e8_chunk),)


def run_e8(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E8 — uniform beliefs give the equiprobable fully mixed NE."""
    (spec,) = e8_specs(quick=quick)
    sweep = run_sweep(
        spec, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    table = Table(
        ["n", "m", "instances", "max |p - 1/m|"],
        title="E8 — Theorem 4.8: uniform beliefs => p = 1/m",
    )
    cell_worst = [0.0] * len(spec.cells)
    for cell_index, dev in zip(sweep.cell_of_chunk, sweep.chunk_payloads):
        cell_worst[cell_index] = max(cell_worst[cell_index], dev)

    worst = 0.0
    cell_rows = []
    for cell, dev in zip(spec.cells, cell_worst):
        worst = max(worst, dev)
        cell_rows.append(
            {"n": cell.num_users, "m": cell.num_links,
             "reps": cell.replications, "max_dev": dev}
        )
        table.add_row([cell.num_users, cell.num_links, cell.replications, dev])
    passed = worst < 1e-9
    return ExperimentResult(
        "E8",
        "Theorem 4.8 — equiprobable FMNE under uniform beliefs",
        passed=passed,
        tables=[table],
        details={"max_deviation": worst, "cells": cell_rows},
    )


def _examine_e9_chunk(chunk: ReplicationChunk) -> tuple[int, int]:
    """(equilibria checked, dominance violations) for one chunk.

    The reference latencies (Lemma 4.1) come from one batched
    closed-form evaluation; every game's equilibria come from one
    stacked support-enumeration call over the whole chunk, and each
    game's equilibrium stack is compared against the reference in one
    kernel call. Violation counting mirrors
    :func:`repro.analysis.worst_case.verify_fmne_dominance` — per-user
    dominance per equilibrium, plus the SC1/SC2 maximality checks.
    """
    batch = _chunk_batch(chunk)
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    all_equilibria = batch_enumerate_mixed_nash(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    eqs = violations = 0
    for i, equilibria in enumerate(all_equilibria):
        eqs += len(equilibria)
        if not equilibria:
            continue
        reference = fm.latencies[i]
        lat = batch_min_expected_latencies(
            np.stack([eq.matrix for eq in equilibria]),
            batch.weights[i],
            batch.capacities[i],
            batch.initial_traffic[i],
        )  # (E, n)
        excess = lat - reference
        scale = np.maximum(np.abs(reference), 1.0)
        violations += int(np.count_nonzero(excess > 1e-7 * scale))
        # SC maximality follows from per-user dominance; check anyway.
        if float(lat.sum(axis=1).max()) > float(reference.sum()) * (1 + 1e-7):
            violations += 1
        if float(lat.max(axis=1).max()) > float(reference.max()) * (1 + 1e-7):
            violations += 1
    return eqs, violations


def e9_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E9's declarative sweep."""
    grid = tuple(small_verification_grid(replications=3 if quick else 8))
    return (SweepSpec("E9", "E9", grid, _examine_e9_chunk),)


def run_e9(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E9 — FMNE dominance: per-user latency and both social costs."""
    (spec,) = e9_specs(quick=quick)
    sweep = run_sweep(
        spec, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    table = Table(
        ["n", "m", "instances", "equilibria checked", "violations"],
        title="E9 — Lemma 4.9 / Thms 4.11-4.12: FMNE maximises social cost",
    )
    totals = [[0, 0] for _ in spec.cells]
    for cell_index, (chunk_eqs, chunk_violations) in zip(
        sweep.cell_of_chunk, sweep.chunk_payloads
    ):
        totals[cell_index][0] += chunk_eqs
        totals[cell_index][1] += chunk_violations

    all_ok = True
    total_eqs = 0
    cells = []
    for cell, (eqs, violations) in zip(spec.cells, totals):
        all_ok = all_ok and violations == 0
        total_eqs += eqs
        cells.append(
            {
                "n": cell.num_users, "m": cell.num_links,
                "reps": cell.replications, "equilibria": eqs,
                "violations": violations,
            }
        )
        table.add_row(
            [cell.num_users, cell.num_links, cell.replications, eqs, violations]
        )
    return ExperimentResult(
        "E9",
        "Lemma 4.9 — fully mixed NE dominates every equilibrium",
        passed=all_ok,
        tables=[table],
        details={"total_equilibria": total_eqs, "all_ok": all_ok, "cells": cells},
    )

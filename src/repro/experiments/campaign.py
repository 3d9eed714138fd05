"""Experiments E5-E6: the conjecture campaign and the potential negatives.

* E5 — Section 3.2 / Conjecture 3.7: the random-instance campaign; every
  sampled game must possess a pure NE (checked exhaustively).
* E6 — Section 3.2: the game is not a potential game — a better-response
  cycle exists in some instance (no ordinal potential, B. Monien's
  observation) and two-player four-cycles have non-zero cost sums (no
  exact potential); by contrast, common-beliefs instances carry an exact
  weighted potential.

Execution model: E5 delegates to
:func:`repro.analysis.conjecture.run_conjecture_campaign`, which runs
its spec through the shared campaign runtime; E6 declares three small
sweeps of its own (the exact-potential gap sample, the weighted- and
the ordinal-potential identity checks), each with a distinct seed label
so their store keys and streams cannot collide. Each E6 chunk stacks
its instances into one :class:`~repro.batch.container.GameBatch` and
grades them with the batched potential kernels of
:mod:`repro.batch.pure` (per-instance RNG streams replayed draw for
draw, results pinned by ``tests/data/pure_seed_baseline.json``). The
cycle realisability search is an exact, unseeded computation and runs
outside the sweeps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.analysis.conjecture import (
    conjecture_sweep_spec,
    run_conjecture_campaign,
)
from repro.analysis.cycles import search_improvement_cycle_instance
from repro.batch.container import GameBatch
from repro.batch.pure import (
    batch_sampled_cycle_gaps,
    batch_verify_ordinal_potential_symmetric,
    batch_verify_weighted_potential,
)
from repro.experiments.base import ExperimentResult
from repro.generators.suites import (
    GridCell,
    conjecture_grid,
    quick_conjecture_grid,
)
from repro.runtime.scheduler import run_sweep
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.util.parallel import ReplicationChunk
from repro.util.rng import as_generator, stable_seed
from repro.util.tables import Table

__all__ = ["run_e5", "run_e6", "e5_specs", "e6_specs"]


def e5_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E5's declarative sweep: the published conjecture grid."""
    grid = quick_conjecture_grid() if quick else conjecture_grid()
    return (conjecture_sweep_spec(tuple(grid), label="E5"),)


def run_e5(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E5 — Conjecture 3.7 simulation campaign.

    Runs on the shared campaign runtime: each cell's instances are
    stacked into one :class:`~repro.batch.container.GameBatch`; *jobs*
    and *batch_size* control the process-pool fan-out, *store*/*resume*
    the chunk-level checkpointing (results are identical for every
    setting).
    """
    if quick:
        grid = list(quick_conjecture_grid())
    else:
        grid = list(conjecture_grid())
    campaign = run_conjecture_campaign(
        grid, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    return ExperimentResult(
        "E5",
        "Section 3.2 / Conjecture 3.7 — pure NE existence campaign",
        passed=campaign.conjecture_supported,
        tables=[campaign.to_table()],
        details={
            "total_instances": campaign.total_instances,
            "counterexamples": campaign.counterexamples,
        },
    )


def _probe_moves(chunk: ReplicationChunk, seeds: list[int]):
    """Reproducible (profiles, users, new links) probes, one per instance.

    Each probe stream is derived from the chunk label and the instance
    seed, so every replication is reproducible in isolation — no draw
    depends on loop ordering or on how many replications ran before it.
    """
    n, m = chunk.num_users, chunk.num_links
    sigma = np.empty((len(seeds), n), dtype=np.intp)
    users = np.empty(len(seeds), dtype=np.intp)
    new_links = np.empty(len(seeds), dtype=np.intp)
    for k, seed in enumerate(seeds):
        draw = as_generator(stable_seed(chunk.label, "probe", seed))
        sigma[k] = draw.integers(0, m, size=n)
        users[k] = int(draw.integers(n))
        new_links[k] = int(draw.integers(m))
    return sigma, users, new_links


def _examine_e6_gap_chunk(chunk: ReplicationChunk) -> list[float]:
    """Exact-potential 4-cycle gaps for the chunk's general games."""
    seeds = chunk.seeds()
    batch = GameBatch.from_seeds(seeds, chunk.num_users, chunk.num_links)
    worst = batch_sampled_cycle_gaps(batch, seeds, num_samples=200)
    return [float(g) for g in worst]


def _examine_e6_kp_chunk(chunk: ReplicationChunk) -> bool:
    """Weighted-potential identity verdict over the chunk's KP games."""
    seeds = chunk.seeds()
    batch = GameBatch.from_seeds_kp(seeds, chunk.num_users, chunk.num_links)
    sigma, users, new_links = _probe_moves(chunk, seeds)
    return bool(
        batch_verify_weighted_potential(batch, sigma, users, new_links).all()
    )


def _examine_e6_sym_chunk(chunk: ReplicationChunk) -> bool:
    """Ordinal-potential identity verdict over the chunk's symmetric games."""
    seeds = chunk.seeds()
    batch = GameBatch.from_seeds_symmetric(
        seeds, chunk.num_users, chunk.num_links
    )
    sigma, users, new_links = _probe_moves(chunk, seeds)
    return bool(
        batch_verify_ordinal_potential_symmetric(
            batch, sigma, users, new_links
        ).all()
    )


def e6_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E6's three sub-sweeps (distinct labels: distinct streams and keys)."""
    reps = 5 if quick else 25
    return (
        SweepSpec("E6", "E6-gap", (GridCell(3, 3, reps),), _examine_e6_gap_chunk),
        SweepSpec("E6", "E6-kp", (GridCell(4, 3, reps),), _examine_e6_kp_chunk),
        SweepSpec("E6", "E6-sym", (GridCell(4, 3, reps),), _examine_e6_sym_chunk),
    )


def run_e6(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E6 — potential-function structure.

    Reproduces three facts around Section 3.2:

    * **no exact potential**: sampled general games have non-zero
      two-player four-cycle cost sums (Monderer-Shapley criterion);
    * **common beliefs admit a weighted potential**: the identity
      ``Delta Phi = w_i Delta lambda_i`` holds on KP games;
    * **symmetric users admit an ordinal potential** (a result this
      library adds): ``Delta Phi = log lambda_after - log lambda_before``
      holds on symmetric games, so Monien's improvement cycle [19]
      necessarily uses unequal weights.

    The cycle search itself (``repro.analysis.cycles``) exhaustively
    refutes realisable improvement cycles of length <= 6 for (n=3, m=3),
    deciding 128 cycles against all 12 weight draws per call of the
    batched max-plus kernel. The outcome is reported as data, not a
    pass/fail criterion, because the paper's cycle instance [19] is
    unpublished. At (n=4, m=3) the same search with length <= 8 realises
    and verifies an 8-move improvement cycle at cycle 2,418 (see
    ``repro.analysis.cycles``); E6 runs the (3, 3) search only.
    """
    gap_spec, kp_spec, sym_spec = e6_specs(quick=quick)
    options = dict(
        jobs=jobs, batch_size=batch_size, seed=seed, store=store, resume=resume
    )
    gaps = [
        g for payload in run_sweep(gap_spec, **options).chunk_payloads
        for g in payload
    ]
    max_gap = max(gaps)
    kp_ok = all(run_sweep(kp_spec, **options).chunk_payloads)
    sym_ok = all(run_sweep(sym_spec, **options).chunk_payloads)

    search = search_improvement_cycle_instance(
        max_cycle_length=4 if quick else 6,
        weight_draws=4 if quick else 12,
        max_cycles=500 if quick else 50_000,
    )

    table = Table(["check", "result"], title="E6 — potential-function structure")
    table.add_row(
        ["max 4-cycle gap, general games (nonzero => no exact potential)", max_gap]
    )
    table.add_row(["weighted potential identity holds (common beliefs)", kp_ok])
    table.add_row(["ordinal potential identity holds (symmetric users)", sym_ok])
    table.add_row(
        [f"improvement cycles realisable among {search.cycles_tested} short "
         "cycle shapes", search.found]
    )

    passed = max_gap > 1e-9 and kp_ok and sym_ok
    return ExperimentResult(
        "E6",
        "Section 3.2 — potential structure (no exact potential; cycle search)",
        passed=passed,
        tables=[table],
        details={
            "max_gap": float(max_gap),
            "weighted_potential_ok": kp_ok,
            "ordinal_potential_symmetric_ok": sym_ok,
            "cycle_found": search.found,
            "cycles_tested": search.cycles_tested,
        },
    )

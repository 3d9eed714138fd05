"""Experiments E1-E4: the paper's algorithms and the n=3 existence claim.

* E1 — Figure 1 / Theorem 3.3: ``Atwolinks`` correctness + O(n^2) scaling.
* E2 — Figure 2 / Theorem 3.5: ``Asymmetric`` correctness + move bound.
* E3 — Figure 3 / Theorem 3.6: ``Auniform`` correctness + scaling.
* E4 — Section 3.1: every sampled 3-user game has a pure NE and an
  acyclic best-response game graph.

Execution model: each correctness sweep is declared as a
:class:`~repro.runtime.spec.SweepSpec` and executed by the shared
campaign runtime (chunking, ``jobs`` fan-out, checkpoint/resume); the
complexity fits of E1-E3 are timing measurements and therefore run
outside the seeded sweep (they are re-measured, never resumed).

Each chunk is one whole-stack batch computation: the chunk's seeds
become a :class:`~repro.batch.container.GameBatch` via the bit-parity
generators, the paper's algorithm runs in lockstep over the stack
(:mod:`repro.batch.pure`), and a single batched Nash mask (E1-E3) or
the stacked PNE/cycle census (E4) grades every instance at once.
Results are pinned bit-identical to the pre-batch per-game loops by
``tests/data/pure_seed_baseline.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.analysis.scaling import THEORETICAL_EXPONENTS, measure_scaling
from repro.batch.container import GameBatch
from repro.batch.kernels import batch_count_pure_nash, batch_pure_nash_mask
from repro.batch.pure import (
    batch_asymmetric,
    batch_atwolinks,
    batch_auniform,
    batch_response_cycle_census,
)
from repro.experiments.base import ExperimentResult
from repro.generators.suites import GridCell
from repro.runtime.scheduler import run_sweep
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.util.parallel import ReplicationChunk
from repro.util.tables import Table

__all__ = [
    "run_e1", "run_e2", "run_e3", "run_e4",
    "e1_specs", "e2_specs", "e3_specs", "e4_specs",
]


def _correctness_table(title: str) -> Table:
    return Table(
        ["n", "m", "instances", "all returned NE"],
        title=title,
    )


def _solved_count(batch: GameBatch, profiles) -> int:
    """How many of the stack's computed profiles are pure NE."""
    mask = batch_pure_nash_mask(
        profiles, batch.weights, batch.capacities, batch.initial_traffic
    )
    return int(mask.sum())


def _examine_e1_chunk(chunk: ReplicationChunk) -> int:
    """How many of the chunk's two-link games Atwolinks solves to a NE."""
    batch = GameBatch.from_seeds(
        chunk.seeds(), chunk.num_users, chunk.num_links,
        with_initial_traffic=True,
    )
    return _solved_count(batch, batch_atwolinks(batch))


def _examine_e2_chunk(chunk: ReplicationChunk) -> int:
    """How many of the chunk's symmetric games Asymmetric solves."""
    batch = GameBatch.from_seeds_symmetric(
        chunk.seeds(), chunk.num_users, chunk.num_links
    )
    return _solved_count(batch, batch_asymmetric(batch))


def _examine_e3_chunk(chunk: ReplicationChunk) -> int:
    """How many of the chunk's uniform-beliefs games Auniform solves."""
    batch = GameBatch.from_seeds_uniform_beliefs(
        chunk.seeds(), chunk.num_users, chunk.num_links,
        with_initial_traffic=True,
    )
    return _solved_count(batch, batch_auniform(batch))


def _examine_e4_chunk(chunk: ReplicationChunk) -> tuple[int, int]:
    """(games with a pure NE, best-response-graph cycles) for one chunk."""
    batch = GameBatch.from_seeds(
        chunk.seeds(), chunk.num_users, chunk.num_links
    )
    with_pne = int((batch_count_pure_nash(batch) > 0).sum())
    cycles = int(batch_response_cycle_census(batch, kind="best").sum())
    return with_pne, cycles


def e1_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    sizes = [2, 3, 5, 8, 13, 21] if quick else [2, 3, 5, 8, 13, 21, 34, 55, 89]
    reps = 10 if quick else 30
    cells = tuple(GridCell(n, 2, reps) for n in sizes)
    return (SweepSpec("E1", "E1", cells, _examine_e1_chunk),)


def e2_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    pairs = [(3, 2), (5, 3), (8, 4)] if quick else [
        (3, 2), (5, 3), (8, 4), (13, 5), (21, 6), (34, 8),
    ]
    reps = 10 if quick else 30
    cells = tuple(GridCell(n, m, reps) for (n, m) in pairs)
    return (SweepSpec("E2", "E2", cells, _examine_e2_chunk),)


def e3_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    pairs = [(4, 2), (8, 3), (16, 4)] if quick else [
        (4, 2), (8, 3), (16, 4), (32, 5), (64, 8), (128, 8), (512, 16),
    ]
    reps = 10 if quick else 30
    cells = tuple(GridCell(n, m, reps) for (n, m) in pairs)
    return (SweepSpec("E3", "E3", cells, _examine_e3_chunk),)


def e4_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    reps = 40 if quick else 250
    cells = tuple(GridCell(3, m, reps) for m in [2, 3, 4])
    return (SweepSpec("E4", "E4", cells, _examine_e4_chunk),)


def _correctness_sweep(
    spec: SweepSpec, table: Table, **runtime_options
) -> bool:
    """Run a correctness spec and fill its table; True when every cell
    solved every instance."""
    sweep = run_sweep(spec, **runtime_options)
    all_ok = True
    for cell, payloads in zip(spec.cells, sweep.payloads_by_cell):
        ok = sum(payloads)
        reps = cell.replications
        all_ok = all_ok and ok == reps
        table.add_row(
            [cell.num_users, cell.num_links, reps,
             "yes" if ok == reps else f"NO ({ok}/{reps})"]
        )
    return all_ok


def _scaling_tables(
    algorithm: str, title: str, tables: list[Table], details: dict
) -> bool:
    obs = measure_scaling(algorithm)
    fit_table = Table(["n", "seconds"], title=title)
    for n, s in zip(obs.sizes, obs.seconds):
        fit_table.add_row([n, s])
    fit_table.add_row(["exponent", obs.exponent])
    fit_table.add_row(["theory", THEORETICAL_EXPONENTS[algorithm]])
    tables.append(fit_table)
    details["exponent"] = obs.exponent
    details["within_theory"] = obs.within_theory()
    return obs.within_theory()


def run_e1(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E1 — Atwolinks returns a pure NE on every sampled two-link game."""
    (spec,) = e1_specs(quick=quick)
    table = _correctness_table("E1 — Atwolinks correctness (with initial traffic)")
    all_ok = _correctness_sweep(
        spec, table, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    tables = [table]
    details: dict = {"correctness": all_ok}
    if not quick:
        all_ok = _scaling_tables(
            "atwolinks", "E1 — Atwolinks runtime (fit below)", tables, details
        ) and all_ok
    return ExperimentResult(
        "E1",
        "Figure 1 / Theorem 3.3 — Atwolinks computes a pure NE in O(n^2)",
        passed=all_ok,
        tables=tables,
        details=details,
    )


def run_e2(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E2 — Asymmetric returns a pure NE for identical-weight games."""
    (spec,) = e2_specs(quick=quick)
    table = _correctness_table("E2 — Asymmetric correctness (symmetric users)")
    all_ok = _correctness_sweep(
        spec, table, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    tables = [table]
    details: dict = {"correctness": all_ok}
    if not quick:
        all_ok = _scaling_tables(
            "asymmetric", "E2 — Asymmetric runtime", tables, details
        ) and all_ok
    return ExperimentResult(
        "E2",
        "Figure 2 / Theorem 3.5 — Asymmetric computes a pure NE in O(n^2 m)",
        passed=all_ok,
        tables=tables,
        details=details,
    )


def run_e3(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E3 — Auniform returns a pure NE under uniform user beliefs."""
    (spec,) = e3_specs(quick=quick)
    table = _correctness_table("E3 — Auniform correctness (uniform beliefs, with t)")
    all_ok = _correctness_sweep(
        spec, table, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    tables = [table]
    details: dict = {"correctness": all_ok}
    if not quick:
        all_ok = _scaling_tables(
            "auniform", "E3 — Auniform runtime", tables, details
        ) and all_ok
    return ExperimentResult(
        "E3",
        "Figure 3 / Theorem 3.6 — Auniform computes a pure NE in O(n(log n + m))",
        passed=all_ok,
        tables=tables,
        details=details,
    )


def run_e4(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E4 — every sampled 3-user game has a pure NE; no best-response cycles."""
    (spec,) = e4_specs(quick=quick)
    sweep = run_sweep(
        spec, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
        resume=resume,
    )
    table = Table(
        ["m", "instances", "all with PNE", "BR-graph cycles"],
        title="E4 — n=3 existence and best-response acyclicity",
    )
    all_ok = True
    for cell, payloads in zip(spec.cells, sweep.payloads_by_cell):
        with_pne = sum(p[0] for p in payloads)
        cycles = sum(p[1] for p in payloads)
        reps = cell.replications
        ok = with_pne == reps and cycles == 0
        all_ok = all_ok and ok
        table.add_row(
            [cell.num_links, reps,
             "yes" if with_pne == reps else f"NO ({with_pne})", cycles]
        )
    return ExperimentResult(
        "E4",
        "Section 3.1 — three-user games possess pure NE (no BR cycles)",
        passed=all_ok,
        tables=[table],
        details={"all_ok": all_ok},
    )

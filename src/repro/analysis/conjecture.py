"""The Conjecture 3.7 simulation campaign (Section 3.2 / experiment E5).

The paper reports that "simulations ran on numerous instances of the game
(dealing with small number of users and links) suggest the existence of
pure NE". This module rebuilds that campaign at scale and with decidable
outcomes: every sampled instance is checked *exhaustively* (the grid keeps
``m^n`` small), so a single negative cell would be an actual
counterexample to Conjecture 3.7, not a convergence failure.

The campaign also records how pure NE are found in practice (how many
best-response steps a round-robin dynamic needs), which substantiates the
library's use of dynamics as the general-case solver.

Execution model: each grid cell's replications are stacked into a
:class:`~repro.batch.container.GameBatch` and examined by the batched
kernels — one sweep decides pure-NE existence for the whole stack, one
lockstep run drives every instance's best-response dynamic. The sweep
itself is declared as a :class:`~repro.runtime.spec.SweepSpec`
(:func:`conjecture_sweep_spec`) and executed by the shared campaign
runtime (:func:`~repro.runtime.scheduler.run_sweep`): chunks of
replications (``batch_size``) can fan out over a process pool
(``jobs``), checkpoint to a result store and resume. Every
replication's instance and dynamics seed is derived independently via
:func:`~repro.util.rng.stable_seed`, so the results are bit-identical
regardless of batching, chunking, worker count or resume — and
identical to examining each instance with the single-game APIs in a
Python loop, which is exactly what this module did before the batch
engine existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

from repro.batch.container import GameBatch
from repro.batch.dynamics import batch_best_response_dynamics
from repro.batch.kernels import batch_count_pure_nash
from repro.generators.suites import GridCell, conjecture_grid
from repro.runtime.scheduler import run_sweep
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore
from repro.util.parallel import ReplicationChunk
from repro.util.tables import Table

__all__ = [
    "CellResult",
    "CampaignResult",
    "conjecture_sweep_spec",
    "run_conjecture_campaign",
]

#: Step budget for the per-instance best-response dynamic.
BRD_MAX_STEPS = 50_000


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome for one (n, m) grid cell."""

    num_users: int
    num_links: int
    instances: int
    with_pure_nash: int
    min_equilibria: int
    max_equilibria: int
    mean_equilibria: float
    mean_brd_steps: float
    brd_always_converged: bool

    @property
    def all_have_pure_nash(self) -> bool:
        return self.with_pure_nash == self.instances


@dataclass
class CampaignResult:
    """Full campaign outcome with table rendering."""

    cells: list[CellResult] = field(default_factory=list)

    @property
    def total_instances(self) -> int:
        return sum(c.instances for c in self.cells)

    @property
    def counterexamples(self) -> int:
        return sum(c.instances - c.with_pure_nash for c in self.cells)

    @property
    def conjecture_supported(self) -> bool:
        return self.counterexamples == 0

    def to_table(self) -> Table:
        table = Table(
            [
                "n", "m", "instances", "PNE found", "min#NE", "max#NE",
                "mean#NE", "mean BRD steps", "BRD converged",
            ],
            title="E5 — Conjecture 3.7 campaign (pure NE existence)",
        )
        for c in self.cells:
            table.add_row(
                [
                    c.num_users, c.num_links, c.instances, c.with_pure_nash,
                    c.min_equilibria, c.max_equilibria, c.mean_equilibria,
                    c.mean_brd_steps, "yes" if c.brd_always_converged else "NO",
                ]
            )
        return table


@dataclass(frozen=True)
class _CellChunk(ReplicationChunk):
    """The shared replication chunk plus the campaign's generator knobs."""

    num_states: int
    concentration: float


def _examine_chunk(chunk: _CellChunk) -> tuple[list[int], list[int], list[bool]]:
    """(pure-NE counts, BRD steps, BRD converged) for one replication chunk."""
    seeds = chunk.seeds()
    batch = GameBatch.from_seeds(
        seeds,
        chunk.num_users,
        chunk.num_links,
        num_states=chunk.num_states,
        concentration=chunk.concentration,
    )
    counts = batch_count_pure_nash(batch)
    dynamics = batch_best_response_dynamics(
        batch, schedule="round_robin", max_steps=BRD_MAX_STEPS, seeds=seeds
    )
    return (
        counts.tolist(),
        dynamics.steps.tolist(),
        dynamics.converged.tolist(),
    )


def conjecture_sweep_spec(
    cells: Sequence[GridCell],
    *,
    label: str = "E5",
    num_states: int = 4,
    concentration: float = 1.0,
) -> SweepSpec:
    """The campaign as a declarative spec for the shared runtime."""
    return SweepSpec(
        experiment=label,
        label=label,
        cells=tuple(cells),
        kernel=_examine_chunk,
        chunk_factory=_CellChunk,
        chunk_extra={"num_states": num_states, "concentration": concentration},
    )


def run_conjecture_campaign(
    grid: Sequence[GridCell] | None = None,
    *,
    concentration: float = 1.0,
    num_states: int = 4,
    label: str = "E5",
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> CampaignResult:
    """Run the campaign over *grid* (default: the published E5 grid).

    Parameters
    ----------
    jobs:
        Worker processes for the chunk fan-out; ``1`` (default) runs
        inline, ``0`` uses every CPU.
    batch_size:
        Replications per :class:`GameBatch` chunk; ``None`` stacks each
        cell's full replication axis into one batch. Smaller chunks
        trade kernel width for process-pool granularity. Results do not
        depend on this value.
    seed:
        Optional global seed override, folded into the seed label by
        the runtime; ``None`` keeps the published baseline streams.
    store / resume:
        Chunk-level checkpointing — see
        :func:`repro.runtime.scheduler.run_sweep`.
    """
    cells = list(grid) if grid is not None else list(conjecture_grid())
    spec = conjecture_sweep_spec(
        cells, label=label, num_states=num_states, concentration=concentration
    )
    sweep = run_sweep(
        spec,
        jobs=jobs,
        batch_size=batch_size,
        seed=seed,
        store=store,
        resume=resume,
    )

    # One pass: chunk payloads arrive in submission order, so each
    # cell's replications concatenate back in rep order regardless of
    # jobs (and regardless of which chunks were resumed from the store).
    counts_by_cell: list[list[int]] = [[] for _ in cells]
    steps_by_cell: list[list[int]] = [[] for _ in cells]
    converged_by_cell: list[bool] = [True] * len(cells)
    for cell_index, result in zip(sweep.cell_of_chunk, sweep.chunk_payloads):
        chunk_counts, chunk_steps, chunk_converged = result
        counts_by_cell[cell_index].extend(chunk_counts)
        steps_by_cell[cell_index].extend(chunk_steps)
        converged_by_cell[cell_index] = converged_by_cell[cell_index] and all(
            chunk_converged
        )

    outcome = CampaignResult()
    for cell_index, cell in enumerate(cells):
        counts = counts_by_cell[cell_index]
        steps = steps_by_cell[cell_index]
        converged_all = converged_by_cell[cell_index]
        outcome.cells.append(
            CellResult(
                num_users=cell.num_users,
                num_links=cell.num_links,
                instances=cell.replications,
                with_pure_nash=sum(1 for c in counts if c > 0),
                min_equilibria=min(counts),
                max_equilibria=max(counts),
                mean_equilibria=sum(counts) / len(counts),
                mean_brd_steps=sum(steps) / len(steps),
                brd_always_converged=converged_all,
            )
        )
    return outcome

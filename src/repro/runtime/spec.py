"""Declarative sweep specifications — what a campaign *is*, not how it runs.

A :class:`SweepSpec` captures everything the scheduler needs to execute
one experiment campaign: the cell grid (``(n, m)`` x replications), the
per-chunk kernel, the chunk dataclass that carries campaign-specific
knobs to worker processes, and the seed policy. Every ``run_e1`` ...
``run_e12`` declares one (or, for multi-part experiments, a few) of
these instead of hand-rolling its own loop; the registry exposes them as
inspectable metadata.

Seed policy
-----------
Each replication's seed is ``stable_seed(label, n, m, rep)`` — a pure
function of the spec's label and the replication coordinates, never of
chunk boundaries or worker scheduling (see
:class:`repro.util.parallel.ReplicationChunk`). A global seed override
(the CLI's ``--seed``) is folded into the label via
:meth:`SweepSpec.seeded_label`, deriving a fresh but equally
deterministic family of streams; ``seed=None`` keeps the published
baseline streams bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro.generators.suites import GridCell
from repro.util.parallel import ReplicationChunk, make_replication_chunks

__all__ = ["ShardPlan", "SweepSpec"]

T = TypeVar("T")


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic ownership of one shard of a campaign's chunk list.

    ``ShardPlan(index, count)`` names shard *index* of *count* total
    shards (the CLI spelling ``--shard index/count``). Ownership is
    round-robin over canonical chunk order: shard ``k`` of ``K`` owns
    chunks ``k, k + K, k + 2K, ...`` of each spec's chunk list. Because
    per-replication seeds are a pure function of ``(label, n, m, rep)``
    — never of chunk boundaries, worker scheduling, or shard placement
    — any partition of the chunk list computes exactly the records a
    single-host run would, so ``K`` shards executed on ``K`` hosts merge
    back into the single-host store (see
    :func:`repro.runtime.store.merge_shard_stores` and
    ``docs/STORE_FORMAT.md``).

    Round-robin (rather than contiguous blocks) keeps shards balanced
    across the grid's cells and gives the merge step a deterministic
    interleave: taking one record from each shard in index order
    reconstructs canonical chunk order exactly.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardPlan":
        """Parse the CLI spelling ``"k/K"`` (e.g. ``"0/3"``)."""
        head, sep, tail = text.partition("/")
        if not sep:
            raise ValueError(
                f"expected a shard spelled k/K (e.g. 0/3), got {text!r}"
            )
        try:
            index, count = int(head), int(tail)
        except ValueError:
            raise ValueError(
                f"expected a shard spelled k/K (e.g. 0/3), got {text!r}"
            ) from None
        return cls(index, count)

    def owns(self, chunk_index: int) -> bool:
        """Whether this shard owns canonical chunk *chunk_index*."""
        return chunk_index % self.count == self.index

    def select(self, items: Sequence[T]) -> list[T]:
        """This shard's slice of *items* (round-robin by position)."""
        return list(items[self.index :: self.count])

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"

#: Per-chunk kernel: a picklable module-level callable mapping one
#: replication chunk to a JSON-serialisable payload.
Kernel = Callable[[ReplicationChunk], Any]


@dataclass(frozen=True)
class SweepSpec:
    """One campaign: a cell grid, a seed label and a per-chunk kernel.

    Attributes
    ----------
    experiment:
        The experiment id the sweep belongs to (``"E1"`` ... ``"E13"``);
        recorded in every store line.
    label:
        Seed-derivation label. Usually equals *experiment*; multi-part
        experiments (E6's three potential checks) use distinct labels so
        their store keys and seed streams cannot collide.
    cells:
        The ``(n, m, replications)`` grid to sweep.
    kernel:
        Module-level callable mapping a chunk to its payload. The
        payload must survive a JSON round trip unchanged (ints, floats,
        bools, strings, lists, dicts) — the store is JSONL and resumed
        payloads are read back from it.
    chunk_factory:
        The (frozen, picklable) chunk dataclass; subclasses of
        :class:`ReplicationChunk` carry campaign knobs to workers.
    chunk_extra:
        Extra keyword arguments forwarded to *chunk_factory* for every
        chunk (e.g. the E5 generator's ``num_states``/``concentration``).
    """

    experiment: str
    label: str
    cells: tuple[GridCell, ...]
    kernel: Kernel
    chunk_factory: Callable[..., ReplicationChunk] = ReplicationChunk
    chunk_extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "chunk_extra", dict(self.chunk_extra))

    def seeded_label(self, seed: int | None = None) -> str:
        """The effective seed label under a global *seed* override.

        ``None`` (the default everywhere) leaves the published label —
        and therefore every baseline-pinned result — untouched.
        """
        if seed is None:
            return self.label
        return f"{self.label}@seed={int(seed)}"

    def chunks(
        self,
        *,
        batch_size: int | None = None,
        seed: int | None = None,
        shard: ShardPlan | None = None,
    ) -> tuple[list[ReplicationChunk], list[int]]:
        """``(chunks, cell_of_chunk)`` for this spec.

        Chunk boundaries depend only on the grid and *batch_size*, and
        seeds only on the (possibly overridden) label — so any two runs
        with the same flags produce identical chunks, which is what
        makes store keys stable across resume. A *shard* restricts the
        list to the chunks that shard owns (round-robin over canonical
        chunk order); the union over all shards of a plan is exactly the
        unsharded list, which is what makes a sharded campaign merge
        back into the single-host store.
        """
        chunks, cell_of_chunk = make_replication_chunks(
            self.cells,
            self.seeded_label(seed),
            batch_size,
            factory=self.chunk_factory,
            **self.chunk_extra,
        )
        if shard is None:
            return chunks, cell_of_chunk
        return shard.select(chunks), shard.select(cell_of_chunk)

    @property
    def total_replications(self) -> int:
        return sum(cell.replications for cell in self.cells)

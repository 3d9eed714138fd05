"""The chunked sweep scheduler: spec in, per-cell payloads out.

:func:`run_sweep` is the single execution path behind every experiment
campaign (E1-E13). It expands a :class:`~repro.runtime.spec.SweepSpec`
into replication chunks, restricts them to one shard of a
:class:`~repro.runtime.spec.ShardPlan` when asked (``shard=``), skips
the chunks a result store already holds (``resume=True``), fans the
rest out over :func:`repro.util.parallel.iter_tasks` (inline or process
pool), and checkpoints each payload to the store the moment it arrives
— in canonical chunk order, so an interrupted store is always a
resumable prefix and a resumed store is byte-identical to an
uninterrupted one. Sharded runs inherit every one of those guarantees
per shard file; shard stores are recombined by
:func:`repro.runtime.store.merge_shard_stores`.

Determinism contract: for fixed spec and ``seed``, the aggregated
payloads are identical for every ``jobs``/``batch_size=None``/``store``/
``resume`` combination, and identical to what the pre-runtime bespoke
loops produced (the frozen baselines under ``tests/data/`` pin this for
E5 and E7-E11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from repro.batch.backend import get_backend
from repro.errors import BackendError
from repro.runtime.spec import ShardPlan, SweepSpec
from repro.runtime.store import ResultStore, canonical_payload
from repro.util.parallel import ReplicationChunk, iter_tasks

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """Outcome of one sweep: chunk payloads plus their cell geometry."""

    spec: SweepSpec
    chunk_payloads: list[Any] = field(default_factory=list)
    cell_of_chunk: list[int] = field(default_factory=list)
    computed_chunks: int = 0
    resumed_chunks: int = 0
    shard: ShardPlan | None = None

    @property
    def payloads_by_cell(self) -> list[list[Any]]:
        """Chunk payloads grouped per grid cell, in replication order."""
        grouped: list[list[Any]] = [[] for _ in self.spec.cells]
        for cell_index, payload in zip(self.cell_of_chunk, self.chunk_payloads):
            grouped[cell_index].append(payload)
        return grouped


def _chunk_record(
    spec: SweepSpec, label: str, chunk: ReplicationChunk, payload: Any
) -> dict[str, Any]:
    return {
        "experiment": spec.experiment,
        "label": label,
        "n": chunk.num_users,
        "m": chunk.num_links,
        "rep_lo": chunk.rep_lo,
        "rep_hi": chunk.rep_hi,
        "backend": get_backend().name,
        "payload": payload,
    }


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int | None = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
    shard: ShardPlan | None = None,
) -> SweepResult:
    """Execute *spec* and return its per-chunk payloads.

    Parameters
    ----------
    jobs:
        Worker processes for the chunk fan-out (``1`` inline, ``0`` all
        CPUs). Never affects results or store contents.
    batch_size:
        Replications per chunk (``None``: one chunk per cell). Resuming
        requires the same value the interrupted run used — different
        chunk boundaries produce different store keys and the completed
        work would not be recognised.
    seed:
        Optional global seed override, folded into the spec's seed
        label; ``None`` keeps the published baseline streams.
    store:
        A :class:`ResultStore` (or path) to checkpoint chunk payloads
        into, one JSONL line per chunk as it completes.
    resume:
        Skip chunks whose keys the store already holds, aggregating
        their stored payloads instead of recomputing.
    shard:
        Execute only the chunks this :class:`ShardPlan` owns
        (round-robin over canonical chunk order). Each shard of a
        campaign should write to its own store file
        (:func:`~repro.runtime.store.shard_store_path`); the shard
        stores merge back into the single-host store via
        :func:`~repro.runtime.store.merge_shard_stores`. Every
        per-shard guarantee is the single-host one: checkpoints land in
        the shard's canonical chunk order and a killed shard resumes to
        a byte-identical shard store.
    """
    store = ResultStore.coerce(store)
    label = spec.seeded_label(seed)
    chunks, cell_of_chunk = spec.chunks(
        batch_size=batch_size, seed=seed, shard=shard
    )

    payloads: list[Any] = [None] * len(chunks)
    done: list[bool] = [False] * len(chunks)
    resumed = 0
    if resume:
        if store is None:
            raise ValueError("resume=True requires a result store")
        stored = store.load_records()
        backend_name = get_backend().name
        for i, chunk in enumerate(chunks):
            key = (
                spec.experiment,
                label,
                chunk.num_users,
                chunk.num_links,
                chunk.rep_lo,
                chunk.rep_hi,
            )
            if key in stored:
                record = stored[key]
                # Pre-backend stores carry no provenance field and are
                # accepted (they were all NumPy). Another name is
                # refused: an older version's numba census verdicts were
                # only certified to a tolerance, and mixing them in would
                # break the resumed store's byte identity.
                stored_backend = record.get("backend")
                if stored_backend is not None and stored_backend != backend_name:
                    raise BackendError(
                        f"cannot resume from {store.path}: chunk "
                        f"{key} was computed under backend "
                        f"{stored_backend!r}, not {backend_name!r}; "
                        f"start a fresh store"
                    )
                payloads[i] = record["payload"]
                done[i] = True
                resumed += 1
        # Heal a killed run's final line before anything is appended, and
        # only once the store is accepted: a refused store keeps its bytes.
        store.repair_tail()

    pending = [i for i, complete in enumerate(done) if not complete]
    results = iter_tasks(spec.kernel, [chunks[i] for i in pending], jobs=jobs)
    for i, raw in zip(pending, results):
        payload = canonical_payload(raw)
        payloads[i] = payload
        done[i] = True
        if store is not None:
            store.append(_chunk_record(spec, label, chunks[i], payload))

    return SweepResult(
        spec=spec,
        chunk_payloads=payloads,
        cell_of_chunk=list(cell_of_chunk),
        computed_chunks=len(pending),
        resumed_chunks=resumed,
        shard=shard,
    )

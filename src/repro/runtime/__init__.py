"""Unified campaign runtime — declarative sweeps, checkpoint/resume,
sharded scale-out.

The shared execution machinery behind every experiment campaign:

* :class:`~repro.runtime.spec.SweepSpec`           — a declarative
  campaign description (cell grid x replications, per-chunk kernel,
  seed policy);
* :class:`~repro.runtime.spec.ShardPlan`           — deterministic
  round-robin ownership of a slice of a spec's chunk list, so a
  campaign can be split across ``K`` workers/hosts at any granularity
  down to single chunks;
* :class:`~repro.runtime.store.ResultStore`        — an append-only
  JSONL store keyed by ``(experiment, label, n, m, rep_lo, rep_hi)``,
  with shard-file naming (:func:`~repro.runtime.store.shard_store_path`
  / :func:`~repro.runtime.store.discover_shard_stores`), a
  deterministic multi-shard merge
  (:func:`~repro.runtime.store.merge_shard_stores`) and a store-level
  identity check that is *canonical-record* equality
  (:func:`~repro.runtime.store.canonical_record_digest`) rather than
  file-byte equality — the format is specified in
  ``docs/STORE_FORMAT.md``;
* :func:`~repro.runtime.scheduler.run_sweep`       — the chunked
  scheduler layered on :mod:`repro.util.parallel`, with checkpoint
  writes per completed chunk, resume that skips stored chunks while
  reproducing a byte-identical store, and shard-scoped execution.

Every ``run_e1`` ... ``run_e13`` declares a spec plus a kernel and
delegates execution here; the CLI's ``--jobs``/``--batch-size``/
``--seed``/``--store``/``--resume``/``--shard`` flags all terminate in
:func:`run_sweep`'s keyword arguments, and the CLI's ``merge``/
``digest`` subcommands in the store-layer functions.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.runtime.scheduler": ("SweepResult", "run_sweep"),
        "repro.runtime.spec": ("ShardPlan", "SweepSpec"),
        "repro.runtime.store": (
            "MergeResult",
            "ResultStore",
            "canonical_dumps",
            "canonical_loads",
            "canonical_payload",
            "canonical_record_digest",
            "discover_shard_stores",
            "merge_shard_stores",
            "shard_store_path",
        ),
    },
)

"""Command-line interface: ``python -m repro`` / ``repro-experiments``.

Subcommands:

* ``list``               — show the experiment registry;
* ``run E5 [E7 ...]``    — run experiments by id (``all`` for everything;
  duplicates are collapsed, first occurrence wins);
* ``report``             — run experiments and write EXPERIMENTS.md;
* ``merge``              — combine shard stores into one canonical
  store (see ``docs/STORE_FORMAT.md``);
* ``digest``             — print a store's canonical-record digest,
  the store-level identity check sharding is gated on;
* ``serve``              — the equilibrium query service (JSON lines
  over TCP, dynamic batching, content-addressed cache; see
  :mod:`repro.service`);
* ``--quick``            — reduced replication counts for smoke runs;
* ``--jobs/--batch-size``— process-pool fan-out for the campaign runtime;
* ``--seed``             — global seed override threaded through the
  runtime's seed policy (omit for the published baseline streams);
* ``--store/--resume``   — append-only JSONL result store with
  chunk-level checkpoint/resume;
* ``--shard k/K``        — execute only shard ``k`` of ``K`` (requires
  ``--store``; writes ``<stem>.shard-k<suffix>``): the scale-out path —
  run the K shards on any hosts in any order, ``merge`` their stores,
  then replay verdicts from the merged store with ``run/report
  --store ... --resume``.

Each subcommand imports what it runs when it runs: ``digest``,
``merge`` and ``list`` load no NumPy, ``serve`` loads no experiment,
and ``run`` and ``report`` load the experiment registry.

Output is the same ASCII tables EXPERIMENTS.md records, plus an overall
verdict; the process exit code is non-zero when any experiment fails,
making the CLI usable as a reproduction gate in CI. A store that cannot
be read or resumed (a line that is not a chunk record, a record from
another backend) is one line on stderr and exit code 2, and so is a
``run`` or ``report`` without ``--resume`` into a store that is not
empty (a ``--shard`` run checks its own shard file): such a run never
reads its store, so it would append after whatever the file holds.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Sequence

from repro.errors import StoreError

__all__ = ["main", "build_parser", "expand_ids"]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _delay_ms(text: str) -> float:
    value = float(text)
    # A NaN fails both tests; an infinite window would never flush.
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _shard_plan(text: str):
    from repro.runtime.spec import ShardPlan

    try:
        return ShardPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def expand_ids(ids: Sequence[str]) -> list[str]:
    """Normalise a CLI id list: expand ``all``, uppercase, deduplicate.

    ``all`` expands in place to the full registry; duplicates (including
    case variants like ``e5``/``E5``, and ids repeated through ``all``)
    collapse onto their first occurrence, so ``run E5 E5 all`` runs E5
    once, first, followed by the remaining twelve experiments.
    """
    from repro.experiments.registry import EXPERIMENTS

    expanded: list[str] = []
    for raw in ids:
        if raw.lower() == "all":
            expanded.extend(EXPERIMENTS)
        else:
            expanded.append(raw.upper())
    seen: set[str] = set()
    ordered: list[str] = []
    for key in expanded:
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered


def _experiment_ids(
    ids: Sequence[str], parser: argparse.ArgumentParser
) -> list[str]:
    """:func:`expand_ids`, refusing unknown ids before any work starts."""
    from repro.experiments.registry import EXPERIMENTS

    expanded = expand_ids(ids)
    unknown = [key for key in expanded if key not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment id(s) {', '.join(unknown)}; valid ids: "
            f"{', '.join(EXPERIMENTS)} or 'all'"
        )
    return expanded


def _add_runtime_flags(
    parser: argparse.ArgumentParser, *, shard: bool = False
) -> None:
    """The campaign-runtime flags shared by ``run`` and ``report``.

    ``--shard`` is run-only: a shard computes a store, not a verdict
    (verdicts need every cell's payloads — replay them from the merged
    store with ``run``/``report`` ``--store ... --resume``).
    """
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced replication counts (smoke mode)",
    )
    parser.add_argument(
        "--jobs",
        type=_non_negative_int,
        default=1,
        help="worker processes for batched campaigns (0 = all CPUs)",
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        help="instances per GameBatch chunk (default: one batch per cell)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="global seed override folded into every experiment's seed "
             "policy (default: the published baseline streams)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="append-only JSONL result store; every completed chunk is "
             "checkpointed into it",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip chunks already present in --store (requires --store)",
    )
    if shard:
        parser.add_argument(
            "--shard",
            type=_shard_plan,
            default=None,
            metavar="k/K",
            help="execute only shard k of K (round-robin over canonical "
                 "chunk order; requires --store and writes to "
                 "<stem>.shard-k<suffix> next to it); combine completed "
                 "shards with the merge subcommand",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction harness for 'Network Uncertainty in Selfish "
            "Routing' (IPPS 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment registry")

    run_p = sub.add_parser("run", help="run experiments by id")
    run_p.add_argument(
        "ids",
        nargs="+",
        help="experiment ids (E1..E13) or 'all'; duplicates collapse",
    )
    _add_runtime_flags(run_p, shard=True)

    merge_p = sub.add_parser(
        "merge",
        help="merge shard stores into one canonical store",
        description=(
            "Combine the shard stores of a sharded campaign "
            "(<stem>.shard-<k><suffix>, as written by run --shard) into "
            "one canonical store, in any shard completion order. "
            "Duplicate chunks with canonically equal records collapse; "
            "disagreeing records abort the merge. Prints the merged "
            "store's canonical-record digest — compare it against the "
            "single-host store's (see the digest subcommand)."
        ),
    )
    merge_p.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="the merged store to write; shard files are discovered "
             "next to it by name unless --shards is given",
    )
    merge_p.add_argument(
        "--shards",
        nargs="+",
        default=None,
        metavar="PATH",
        help="explicit shard store files, in shard-index order "
             "(default: discover <stem>.shard-<k><suffix> siblings)",
    )
    merge_p.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing non-empty destination store",
    )

    digest_p = sub.add_parser(
        "digest",
        help="print a store's canonical-record digest",
        description=(
            "Print the SHA-256 canonical-record digest of a result "
            "store: the order-independent, store-level identity check "
            "(docs/STORE_FORMAT.md). Two stores hold the same campaign "
            "results iff their digests match, regardless of sharding, "
            "resume history, or the order records landed on disk."
        ),
    )
    digest_p.add_argument("store", metavar="PATH", help="result store path")

    report_p = sub.add_parser(
        "report", help="run all experiments and write EXPERIMENTS.md"
    )
    report_p.add_argument(
        "-o", "--output", default="EXPERIMENTS.md", help="output markdown path"
    )
    report_p.add_argument(
        "--ids", nargs="*", default=None, help="subset of experiment ids"
    )
    _add_runtime_flags(report_p)

    serve_p = sub.add_parser(
        "serve", help="serve equilibrium queries (JSON lines over TCP)"
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port",
        type=_port,
        default=8571,
        help="TCP port (0 picks a free one)",
    )
    serve_p.add_argument(
        "--max-batch",
        type=_positive_int,
        default=64,
        help="flush the pending window at this many distinct games",
    )
    serve_p.add_argument(
        "--max-delay-ms",
        type=_delay_ms,
        default=None,
        help="hold each pending window open this many milliseconds for "
             "more games (default: flush as soon as the requests that "
             "have already arrived are in)",
    )
    serve_p.add_argument(
        "--cache-size",
        type=_non_negative_int,
        default=1024,
        help="content-addressed response cache entries (0 disables)",
    )
    serve_p.add_argument(
        "--fixpoint-max-rounds",
        type=_positive_int,
        default=None,
        help="round budget for the iterative 'fixpoint' op "
             "(default: the solver's own budget)",
    )
    return parser


def _runtime_options(args: argparse.Namespace) -> dict:
    return {
        "jobs": args.jobs,
        "batch_size": args.batch_size,
        "seed": args.seed,
        "store": args.store,
        "resume": args.resume,
    }


def _refuse_a_written_store(store: str, shard) -> None:
    """Raise :class:`StoreError` unless the file a run without
    ``--resume`` would append to (*store*, or its *shard*'s file) is
    missing or empty.

    Such a run never reads its store. Appending after a note would
    leave a file every later read refuses at line 1, and appending to a
    finished store would write each chunk a second time. A line that is
    not a chunk record is named as a read names it. Nothing is written
    either way.
    """
    from repro.runtime.store import ResultStore, shard_store_path

    path = store if shard is None else shard_store_path(store, shard.index)
    if not (os.path.isfile(path) and os.path.getsize(path)):
        return
    for _ in ResultStore(path).iter_records():
        pass
    raise StoreError(
        f"{path} is not empty; pass --resume to continue it, or name a new store"
    )


def _cmd_list() -> int:
    from repro.experiments.titles import TITLES

    width = max(len(k) for k in TITLES)
    for key, title in TITLES.items():
        print(f"{key.ljust(width)}  {title}")
    return 0


def _cmd_run_shard(ids: Sequence[str], quick: bool, shard, **options) -> int:
    """Execute one shard of a campaign: specs in, a shard store out.

    A shard owns a round-robin slice of every requested spec's chunk
    list and checkpoints it into ``<stem>.shard-k<suffix>``; it cannot
    evaluate experiment verdicts (those need every cell's payloads), so
    the output is chunk accounting, not PASS/FAIL lines. Combine the
    completed shards with ``merge`` and replay verdicts from the merged
    store via ``run``/``report`` ``--store ... --resume``.
    """
    from repro.experiments.registry import get_experiment_specs
    from repro.runtime.scheduler import run_sweep
    from repro.runtime.store import shard_store_path

    store = options.pop("store")
    path = shard_store_path(store, shard.index)
    computed = resumed = owned = 0
    for experiment_id in ids:
        for spec in get_experiment_specs(experiment_id, quick=quick):
            result = run_sweep(spec, store=path, shard=shard, **options)
            owned += len(result.chunk_payloads)
            computed += result.computed_chunks
            resumed += result.resumed_chunks
            print(
                f"[{experiment_id}] {spec.label}: shard {shard} owns "
                f"{len(result.chunk_payloads)} chunk(s) "
                f"({result.computed_chunks} computed, "
                f"{result.resumed_chunks} resumed)"
            )
    print(
        f"shard {shard} complete: {owned} chunk(s) "
        f"({computed} computed, {resumed} resumed) -> {path}"
    )
    print(
        f"next: run the other shards, then "
        f"`repro-experiments merge --store {store}`"
    )
    return 0


def _cmd_merge(store: str, shards: Sequence[str] | None, force: bool) -> int:
    from repro.runtime.store import discover_shard_stores, merge_shard_stores

    sources = (
        list(shards) if shards is not None else discover_shard_stores(store)
    )
    if not sources:
        print(
            f"no shard stores found next to {store} "
            f"(expected <stem>.shard-<k><suffix> siblings)",
            file=sys.stderr,
        )
        return 1
    try:
        result = merge_shard_stores(sources, store, force=force)
    except StoreError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"merged {result.shards} shard store(s) -> {result.path} "
        f"({result.records} record(s), "
        f"{result.duplicates} duplicate(s) collapsed)"
    )
    print(f"canonical digest: {result.digest}")
    return 0


def _cmd_digest(store: str) -> int:
    from pathlib import Path

    from repro.runtime.store import ResultStore

    # A missing path would digest as the empty store, so an equality
    # check between two mistyped paths would pass.
    if not Path(store).is_file():
        print(f"digest: no store file at {store}", file=sys.stderr)
        return 2
    try:
        print(ResultStore(store).canonical_digest())
    except StoreError as exc:
        print(f"digest: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(ids: Sequence[str], quick: bool, **options) -> int:
    from repro.experiments.registry import run_experiment

    failures = 0
    for experiment_id in ids:
        start = time.perf_counter()
        result = run_experiment(experiment_id, quick=quick, **options)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"(elapsed: {elapsed:.2f}s)\n")
        if not result.passed:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
        return 1
    print("all experiments passed")
    return 0


def _cmd_report(
    output: str, quick: bool, ids: Sequence[str] | None, **options
) -> int:
    from repro.experiments.report import render_markdown, run_all

    run = run_all(quick=quick, ids=ids, **options)
    text = render_markdown(run, quick=quick)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {output} ({len(run.results)} experiments, "
          f"{'all passed' if run.all_passed else 'FAILURES PRESENT'})")
    return 0 if run.all_passed else 1


def _cmd_serve(
    host: str,
    port: int,
    max_batch: int,
    max_delay_ms: float | None,
    cache_size: int,
    fixpoint_max_rounds: int | None,
) -> int:
    import asyncio

    from repro.batch.fixpoint import DEFAULT_MAX_ROUNDS
    from repro.service.batcher import DEFAULT_MAX_DELAY_MS
    from repro.service.server import EquilibriumServer

    if max_delay_ms is None:
        max_delay_ms = DEFAULT_MAX_DELAY_MS
    if fixpoint_max_rounds is None:
        fixpoint_max_rounds = DEFAULT_MAX_ROUNDS

    async def run() -> int:
        server = EquilibriumServer(
            host,
            port,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            cache_size=cache_size,
            fixpoint_max_rounds=fixpoint_max_rounds,
        )
        try:
            await server.start()
        except OSError as exc:  # a bad host or a port in use
            print(f"serve: cannot listen on {host}:{port}: {exc}", file=sys.stderr)
            return 1
        # The readiness line supervisors (and the CI smoke job) wait on.
        print(
            f"serving equilibria on {server.host}:{server.port} "
            f"(max_batch={max_batch}, max_delay_ms={max_delay_ms}, "
            f"cache_size={cache_size}, "
            f"fixpoint_max_rounds={fixpoint_max_rounds}, "
            f"backend={server.info()['backend']})",
            flush=True,
        )
        try:
            await server.serve_until_shutdown()
        finally:
            await server.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "merge":
        return _cmd_merge(args.store, args.shards, args.force)
    if args.command == "digest":
        return _cmd_digest(args.store)
    if args.command == "serve":
        return _cmd_serve(
            args.host,
            args.port,
            args.max_batch,
            args.max_delay_ms,
            args.cache_size,
            args.fixpoint_max_rounds,
        )
    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.command == "run":
        ids = _experiment_ids(args.ids, parser)
        if args.shard is not None and not args.store:
            parser.error("--shard requires --store")
    else:
        ids = None if args.ids is None else _experiment_ids(args.ids, parser)
    try:
        if args.store and not args.resume:
            _refuse_a_written_store(args.store, getattr(args, "shard", None))
        if args.command == "report":
            return _cmd_report(
                args.output, args.quick, ids, **_runtime_options(args)
            )
        if args.shard is not None:
            return _cmd_run_shard(
                ids, args.quick, args.shard, **_runtime_options(args)
            )
        return _cmd_run(ids, args.quick, **_runtime_options(args))
    except StoreError as exc:  # a foreign line, another backend's record
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

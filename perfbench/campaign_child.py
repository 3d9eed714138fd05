"""One campaign repetition in a fresh process.

Usage::

    python3 perfbench/campaign_child.py --seed SEED --store STORE [--replay]
                                        [--trace SUMMARY]
    python3 perfbench/campaign_child.py --setup-only

Prints ``ready`` once the experiment registry is imported (the parent
times set-up from spawn to that line) and, unless ``--setup-only``,
then runs the campaign through the public ``run_experiment`` into a
fresh STORE and, with ``--replay``, runs it again with ``resume=True``.
The last stdout line is a JSON object with timings, verdicts and the
store's digests.

With ``--trace`` the runtime, store and kernel functions the campaign
calls are wrapped in spans first, and their per-layer totals are
written to SUMMARY.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import host_probe_ms  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    wrap_classmethod,
    wrap_everywhere,
    wrap_method,
)

#: The campaign: (experiment id, whether it takes the workload seed).
#: E13's solve time swings 1.8-8.3 s with the seed (a few stalled
#: (100, 10) games decide it), so it runs on its published streams to
#: keep runs comparable across seeds; the others take the workload seed.
CAMPAIGN = (("E5", True), ("E6", True), ("E9", True), ("E11", True),
            ("E13", False))
BATCH_SIZE = 8


def instrument(tracer: Tracer, run_experiment):
    """Wrap the campaign's layers; returns the traced *run_experiment*."""
    from repro.analysis.cycles import search_improvement_cycle_instance
    from repro.batch import (
        dynamics, fixpoint, kernels, pure, support,
    )
    from repro.batch.container import GameBatch
    from repro.runtime import scheduler, store

    def fixpoint_counts(result) -> None:
        tracer.sample("batch.fixpoint.games", len(result.rounds))
        tracer.sample("batch.fixpoint.rounds", int(result.rounds.sum()))
        tracer.sample("batch.fixpoint.converged", int(result.converged.sum()))

    def cycle_counts(result) -> None:
        tracer.sample("analysis.cycles.cycles_tested", result.cycles_tested)

    wrap_everywhere(tracer, "runtime.scheduler.run_sweep", scheduler.run_sweep)
    wrap_everywhere(
        tracer, "analysis.cycles.search", search_improvement_cycle_instance,
        cycle_counts,
    )
    wrap_everywhere(
        tracer, "batch.kernels.count_pure_nash", kernels.batch_count_pure_nash
    )
    wrap_everywhere(
        tracer, "batch.dynamics.brd", dynamics.batch_best_response_dynamics
    )
    for fn in (
        pure.batch_sampled_cycle_gaps,
        pure.batch_verify_weighted_potential,
        pure.batch_verify_ordinal_potential_symmetric,
    ):
        wrap_everywhere(tracer, "batch.pure.potential", fn)
    wrap_everywhere(
        tracer, "batch.support.enumerate", support.batch_enumerate_mixed_nash
    )
    wrap_everywhere(
        tracer, "batch.fixpoint.solve", fixpoint.batch_fixpoint_mixed_nash,
        fixpoint_counts,
    )
    for attr in (
        "from_seeds", "from_seeds_kp", "from_seeds_symmetric",
        "from_seeds_uniform_beliefs",
    ):
        wrap_classmethod(tracer, "batch.container.generate", GameBatch, attr)
    scheduler.canonical_payload = tracer.wrap(
        "runtime.store.canonical_payload", scheduler.canonical_payload
    )
    wrap_method(tracer, "runtime.store.append", store.ResultStore, "append")
    wrap_method(
        tracer, "runtime.store.load", store.ResultStore, "load_records"
    )
    iter_tasks = scheduler.iter_tasks

    def traced_iter_tasks(fn, tasks, *, jobs=1):
        return iter_tasks(
            tracer.wrap("runtime.scheduler.kernel", fn), tasks, jobs=jobs
        )

    scheduler.iter_tasks = traced_iter_tasks
    return tracer.wrap("experiments.run", run_experiment)


def run_all(run, seed: int, store: Path, resume: bool) -> list[dict]:
    """Each experiment's verdict and wall time, with the host probe taken
    on this process's CPU just before and after it."""
    out = []
    for experiment_id, seeded in CAMPAIGN:
        probe_ms = host_probe_ms(5)
        start = time.perf_counter()
        result = run(
            experiment_id,
            seed=seed if seeded else None,
            batch_size=BATCH_SIZE,
            jobs=1,
            store=store,
            resume=resume,
        )
        seconds = time.perf_counter() - start
        probe_ms = (probe_ms + host_probe_ms(5)) / 2
        out.append(
            {
                "id": experiment_id,
                "seconds": seconds,
                "probe_ms": probe_ms,
                "passed": bool(result.passed),
                "details": json.dumps(result.details, sort_keys=True,
                                      default=repr),
            }
        )
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="one campaign repetition")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--store", type=Path)
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("--trace", type=Path, metavar="SUMMARY")
    args = parser.parse_args(argv)
    from repro.experiments.registry import run_experiment

    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.seed is None or args.store is None:
        parser.error("--seed and --store are required")
    from repro.batch.backend import get_backend
    from repro.runtime import ResultStore

    tracer = Tracer() if args.trace else None
    run = instrument(tracer, run_experiment) if tracer else run_experiment
    store = ResultStore(args.store)

    mark = tracer.mark if tracer else (lambda: None)
    mark()
    start = time.perf_counter()
    fresh = run_all(run, args.seed, args.store, resume=False)
    campaign_s = time.perf_counter() - start
    mark()
    out = {
        "backend": get_backend().name,
        "campaign_s": campaign_s,
        "fresh": fresh,
        "records": sum(1 for _ in store.iter_records()),
        "store_bytes": args.store.stat().st_size,
        "digest": store.canonical_digest(),
    }
    if args.replay:
        mark()
        start = time.perf_counter()
        out["replay"] = run_all(run, args.seed, args.store, resume=True)
        out["replay_s"] = time.perf_counter() - start
        mark()
        out["store_bytes_after_replay"] = args.store.stat().st_size
        out["digest_after_replay"] = store.canonical_digest()
    if tracer:
        marks = tracer.marks
        summary = {"fresh": tracer.summary(marks[0], marks[1])}
        if args.replay:
            summary["replay"] = tracer.summary(marks[2], marks[3])
        args.trace.write_text(json.dumps(summary), encoding="utf-8")
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

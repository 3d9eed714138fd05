"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-solve --seed 1 --seconds 25 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``serve-solve`` — distinct games against ``repro serve``: every
  request misses the cache;
* ``serve-hot`` — a preloaded pool of 512 games drawn with Zipf
  popularity, 10% fresh games among them;
* ``campaign`` — E5, E6, E9, E11 and E13 through ``run_experiment``
  into a fresh store, repeated, the first run replayed with
  ``resume=True``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics
(0 for layers the workload does not reach). Every response, verdict
and store digest is checked; failures count in ``failed``. The last
stdout line is the JSON result, the line before it the run record
(phase counts, generator lateness, machine fingerprint). The program
under test is always ``src/`` of the current directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, child_env, median  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.server.decode_s": "s",
    "service.server.encode_s": "s",
    "service.server.bytes_out": "bytes",
    "service.query.parse_s": "s",
    "service.query.digest_s": "s",
    "service.query.solve_s": "s",
    "service.query.canonical_payload_s": "s",
    "service.batcher.games_per_batch": "count",
    "service.batcher.wait_ms.p50": "ms",
    "service.batcher.wait_ms.p99": "ms",
    "service.batcher.coalesced": "count",
    "service.batcher.size_flushes": "count",
    "service.batcher.deadline_flushes": "count",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "batch.poa.census_s": "s",
    "batch.pure.nashify_s": "s",
    "batch.mixed.fully_mixed_s": "s",
    "batch.poa.bounds_s": "s",
    "batch.container.from_requests_s": "s",
    "batch.container.generate_s": "s",
    "batch.kernels.count_pure_nash_s": "s",
    "batch.dynamics.brd_s": "s",
    "batch.pure.potential_s": "s",
    "batch.support.enumerate_s": "s",
    "batch.fixpoint.solve_s": "s",
    "batch.fixpoint.rounds": "count",
    "batch.fixpoint.converged_ratio": "ratio",
    "analysis.cycles.search_s": "s",
    "analysis.cycles.cycles_tested": "count",
    "runtime.scheduler.kernel_s": "s",
    "runtime.scheduler.chunks": "count",
    "runtime.store.canonical_payload_s": "s",
    "runtime.store.append_s": "s",
    "runtime.store.bytes": "bytes",
    "runtime.store.load_s": "s",
    "experiments.aggregate_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_networkx_s": "s",
    "setup.import_repro_s": "s",
    "setup.import_scipy_special_s": "s",
    "client.send_lag_ms.p99": "ms",
    "trace.overhead_frac": "ratio",
}


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def commit() -> str:
    """The checkout's commit, read from its ``.git`` when it has one."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def import_timings(samples: int = 3) -> dict[str, float]:
    """``setup.*``: incremental import times, medians of fresh processes.

    numpy, networkx, the ``repro`` CLI (what ``serve`` loads) and the
    ``scipy.special`` import E6 makes lazily, each timed after the ones
    before it, so each figure is that layer's own share (about 0 for a
    package that is gone).
    """
    code = (
        "import importlib, json, time\n"
        "t = [time.perf_counter()]\n"
        "for name in ('numpy', 'networkx', 'repro.cli', 'scipy.special'):\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except ImportError:\n"
        "        pass\n"
        "    t.append(time.perf_counter())\n"
        "print(json.dumps([b - a for a, b in zip(t, t[1:])]))\n"
    )
    names = (
        "setup.import_numpy_s",
        "setup.import_networkx_s",
        "setup.import_repro_s",
        "setup.import_scipy_special_s",
    )
    runs = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {name: median(column) for name, column in zip(names, zip(*runs))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("serve-solve", "serve-hot", "campaign"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_run" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "campaign":
            import campaign_load

            outcome = campaign_load.run(
                args.seed, args.seconds, bool(args.trace), work
            )
        else:
            import serve_load

            outcome = asyncio.run(serve_load.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            ))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        return 3
    record, correct, attempted, failed, measured = outcome
    if args.trace:
        measured.update(import_timings())
        units = PER_LAYER
    else:
        units = END_TO_END
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, attempted=attempted, failed=failed,
        failed_frac=failed / attempted,
    )
    record["fingerprint"] = {**fingerprint(), **record.get("fingerprint", {})}
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

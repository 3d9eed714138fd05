"""The ``campaign`` workload: repetitions of the campaign in fresh children.

Each repetition is one ``campaign_child.py`` process with a fresh store,
so every repetition pays the same lazy imports (E6's ``scipy.special``)
a user's ``repro-experiments run`` does. Set-up is timed from spawning a
child to its ``ready`` line, i.e. until the experiment registry is
imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, at_ref, child_env, median, percentile, probe_on

CHILD = Path(__file__).resolve().parent / "campaign_child.py"
#: Set-up samples per run, each a child that stops once ready.
SETUP_SAMPLES = 5
MIN_REPS = 3
#: A repetition takes 4-8 s on a 2-vCPU Xeon host; a child outlasting
#: this many seconds has hung.
CHILD_TIMEOUT_S = 150


def start(args: list[str], cpu: int | None = None):
    """Spawn one child, pinned to *cpu* when given; returns (proc, t0)."""
    t0 = time.perf_counter()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        preexec_fn=pin,
    )
    return proc, t0


def finish(proc: subprocess.Popen, t0: float) -> tuple[float, dict | None]:
    """Wait for a child; returns (set-up seconds, its JSON result or None).

    Set-up is read off the ``ready`` line, so it is only right for a
    child waited on from the moment it started. The pipes are unbuffered,
    so reading that line takes nothing more from the pipe than the line.
    """
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"campaign child failed ({proc.returncode}): "
                           + err.decode(errors="replace"))
    lines = out.decode().strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def spawn_all(jobs: list[tuple[list[str], int | None]]) -> list:
    """Run children at once, one per (args, cpu); kill all on failure."""
    procs = []
    try:
        for args, cpu in jobs:
            procs.append(start(args, cpu))
        return [finish(proc, t0) for proc, t0 in procs]
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def spawn(args: list[str]) -> tuple[float, dict | None]:
    return spawn_all([(args, None)])[0]


def check(rep: dict, reference_digest: str) -> tuple[int, int]:
    """(checks, failures) for one repetition.

    Every verdict passes; every repetition stores the same records; and
    a replay passes the same verdicts with the same details while
    recomputing nothing, so the store's size and digest stay put.
    """
    oks = [entry["passed"] for entry in rep["fresh"]]
    oks.append(rep["digest"] == reference_digest)
    if "replay" in rep:
        for fresh, replay in zip(rep["fresh"], rep["replay"]):
            oks += [replay["passed"], fresh["details"] == replay["details"]]
        oks += [rep["store_bytes_after_replay"] == rep["store_bytes"],
                rep["digest_after_replay"] == rep["digest"]]
    return len(oks), oks.count(False)


def rep_args(seed: int, work: Path, index: int, replay: bool,
             trace_path: Path | None = None) -> list[str]:
    args = ["--seed", str(seed),
            "--store", str(work / f"store-{index}.jsonl")]
    if replay:
        args.append("--replay")
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    return args


def run_reps(seed: int, seconds: float, work: Path) -> list[dict]:
    """Repetitions while another round fits in *seconds* (at least
    MIN_REPS), one child per CPU at a time.

    The CPUs' speeds flip independently, so running one repetition on
    each doubles the samples an experiment's fastest run is taken from.
    The first repetition also replays its store.
    """
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        cpus = [None]
    reps: list[dict] = []
    t0 = time.perf_counter()
    while True:
        round_t0 = time.perf_counter()
        done = spawn_all([
            (rep_args(seed, work, len(reps) + k, not reps and k == 0), cpu)
            for k, cpu in enumerate(cpus)
        ])
        reps += [rep for _, rep in done]
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + (now - round_t0) - t0 > seconds:
            return reps


def fastest_experiments(reps: list[dict]) -> dict[str, float]:
    """Each experiment's fastest fresh run over the repetitions, scaled
    to the reference CPU by the probes around it.

    A CPU's speed also flips every few seconds, about as long as E6 or
    E13 runs; taking each experiment's fastest run on its own, rather
    than the fastest whole repetition, lets each find an undisturbed
    stretch.
    """
    return {
        entry["id"]: min(
            at_ref(rep["fresh"][i]["seconds"], rep["fresh"][i]["probe_ms"])
            for rep in reps
        )
        for i, entry in enumerate(reps[0]["fresh"])
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    fresh, replay = summary["fresh"], summary["replay"]
    spans, samples = fresh["spans"], fresh["samples"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    games = sum(samples.get("batch.fixpoint.games", []))
    return {
        "batch.container.generate_s": total("batch.container.generate"),
        "batch.kernels.count_pure_nash_s": total(
            "batch.kernels.count_pure_nash"
        ),
        "batch.dynamics.brd_s": total("batch.dynamics.brd"),
        "batch.pure.potential_s": total("batch.pure.potential"),
        "batch.support.enumerate_s": total("batch.support.enumerate"),
        "batch.fixpoint.solve_s": total("batch.fixpoint.solve"),
        "batch.fixpoint.rounds": sum(samples.get("batch.fixpoint.rounds", [])),
        "batch.fixpoint.converged_ratio": (
            sum(samples.get("batch.fixpoint.converged", [])) / games
            if games else 0.0
        ),
        "analysis.cycles.search_s": total("analysis.cycles.search"),
        "analysis.cycles.cycles_tested": sum(
            samples.get("analysis.cycles.cycles_tested", [])
        ),
        "runtime.scheduler.kernel_s": total("runtime.scheduler.kernel"),
        "runtime.scheduler.chunks": spans.get(
            "runtime.scheduler.kernel", {}
        ).get("count", 0),
        "runtime.store.canonical_payload_s": total(
            "runtime.store.canonical_payload"
        ),
        "runtime.store.append_s": total("runtime.store.append"),
        "runtime.store.load_s": replay["spans"].get(
            "runtime.store.load", {}
        ).get("total_s", 0.0),
        "experiments.aggregate_s": spans.get("experiments.run", {}).get(
            "self_s", 0.0
        ),
    }


def run(seed: int, seconds: float, trace: bool, work: Path):
    setups: list[float] = []
    setup_probes: list[float] = []
    if trace:
        # Untraced and traced repetitions of the same campaign, in turn
        # and each with a replay: their fastest campaign_s give the
        # overhead; the last traced one gives the layers.
        summary_path = work / "trace.json"
        untraced, traced = [], []
        for k in range(2):
            for reps, path in ((untraced, None), (traced, summary_path)):
                index = len(untraced) + len(traced)
                reps.append(spawn(rep_args(seed, work, index, True, path))[1])
        reps = untraced + traced
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    else:
        cpu = min(os.sched_getaffinity(0))
        for _ in range(SETUP_SAMPLES):
            setup_probes.append(probe_on(cpu))
            setups.append(spawn_all([(["--setup-only"], cpu)])[0][0])
        reps = run_reps(seed, seconds, work)
    attempted = failed = 0
    for rep in reps:
        checks, failures = check(rep, reps[0]["digest"])
        attempted += checks
        failed += failures
    record = {
        "fingerprint": {"backend": reps[0]["backend"]},
        "reps": len(reps),
        "campaign_s": [rep["campaign_s"] for rep in reps],
        "replay_s": reps[0]["replay_s"],
        "experiment_s": {
            entry["id"]: [r["fresh"][i]["seconds"] for r in reps]
            for i, entry in enumerate(reps[0]["fresh"])
        },
        "records": reps[0]["records"],
        "store_bytes": reps[0]["store_bytes"],
        "setup_s": setups,
        "setup_probe_ms": setup_probes,
        "host_probe_ms": {
            entry["id"]: [r["fresh"][i]["probe_ms"] for r in reps]
            for i, entry in enumerate(reps[0]["fresh"])
        },
    }
    if trace:
        metrics = layer_metrics(summary)
        metrics["runtime.store.bytes"] = reps[-1]["store_bytes"]
        metrics["trace.overhead_frac"] = (
            sum(fastest_experiments(traced).values())
            / sum(fastest_experiments(untraced).values()) - 1.0
        )
        return record, failed == 0, attempted, failed, metrics
    experiment_s = list(fastest_experiments(reps).values())
    campaign_s = sum(experiment_s)
    metrics = {
        "setup_s": median(map(at_ref, setups, setup_probes)),
        "throughput_qps": reps[0]["records"] / campaign_s,
        "latency_p50_ms": percentile(experiment_s, 50) * 1e3,
        "latency_p99_ms": percentile(experiment_s, 99) * 1e3,
        "campaign_s": campaign_s,
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }
    return record, failed == 0, attempted, failed, metrics

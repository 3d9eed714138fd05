"""Paths and small helpers shared by the benchmark's modules."""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

#: The checkout under test: the benchmark always runs from its root.
ROOT = Path.cwd()
SRC = ROOT / "src"


def child_env() -> dict[str, str]:
    """Environment for spawned processes: ``src/`` here, default backend."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_BACKEND", None)
    return env


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[min(len(ordered), int(rank)) - 1])


#: :func:`host_probe_ms` on an undisturbed CPU of the 2-vCPU Xeon host the
#: benchmark was tuned on. Reported times are scaled to it (:func:`at_ref`).
PROBE_REF_MS = 3.0


def host_probe_ms(samples: int = 15) -> float:
    """Median time of a fixed pure-Python loop, in ms: how fast the host
    runs right now."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        sum(i * i for i in range(50_000))
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def probe_on(cpu: int | None, samples: int = 5) -> float:
    """:func:`host_probe_ms` on *cpu* (any when None), then back to the
    caller's CPUs."""
    if cpu is None:
        return host_probe_ms(samples)
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return host_probe_ms(samples)
    finally:
        os.sched_setaffinity(0, before)


def at_ref(elapsed: float, probe_ms: float) -> float:
    """A time measured while the probe took *probe_ms*, scaled to a CPU
    on which it takes :data:`PROBE_REF_MS`.

    A shared host's CPUs change speed by up to 1.5x for minutes at a
    time, as the other tenants of their cores come and go; every
    figure of a run moves with it, and no choice among the run's own
    samples removes a slowdown that lasts the whole run. The probe is
    fixed benchmark code, so the scale does not depend on the program
    under test.
    """
    return elapsed * PROBE_REF_MS / probe_ms

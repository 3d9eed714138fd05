"""Launch the equilibrium service with per-layer spans.

Usage: ``python3 perfbench/traced_server.py SUMMARY_PATH``

Serves like ``python -m repro serve --port 0`` (same defaults, and a
readiness line naming the port the same way), after wrapping the public
functions each service layer calls:

* ``service.server`` — the ``canonical_loads``/``canonical_dumps`` the
  server decodes requests and encodes responses with;
* ``service.query`` — ``EquilibriumRequest.from_payload``,
  ``game_digest``, the solver seam handed to ``EquilibriumServer``, and
  ``canonical_payload``;
* ``batch.*`` — the kernel names ``repro.service.query`` calls, and
  ``GameBatch.from_requests``;
* ``service.batcher`` — each request's wait from ``submit`` to the start
  of its flush.

Every ``stats`` op marks a phase boundary; on shutdown the launcher
writes the spans between the first and the last mark, reduced to
per-layer totals, to SUMMARY_PATH.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, wrap_classmethod  # noqa: E402


def instrument(tracer: Tracer):
    """Wrap the service layers; returns the traced solver seam."""
    from repro.batch.container import GameBatch
    from repro.service import query, server

    server.canonical_loads = tracer.wrap(
        "service.server.decode", server.canonical_loads
    )
    dumps = server.canonical_dumps

    def count_bytes(text: str) -> None:
        # canonical_dumps escapes to ASCII, so characters are bytes;
        # the server appends one newline per response.
        tracer.sample("service.server.bytes_out", len(text) + 1)

    server.canonical_dumps = tracer.wrap(
        "service.server.encode", dumps, count_bytes
    )
    wrap_classmethod(
        tracer, "service.query.from_payload", query.EquilibriumRequest,
        "from_payload",
    )
    wrap_classmethod(
        tracer, "batch.container.from_requests", GameBatch, "from_requests"
    )
    for name, attr in (
        ("service.query.digest", "game_digest"),
        ("service.query.canonical_payload", "canonical_payload"),
        ("batch.poa.census", "batch_empirical_ratios"),
        ("batch.pure.nashify", "batch_nashify"),
        ("batch.mixed.fully_mixed", "batch_fully_mixed_candidate"),
        ("batch.poa.bounds", "batch_poa_bound_general"),
        ("batch.poa.bounds", "batch_poa_bound_uniform"),
    ):
        setattr(query, attr, tracer.wrap(name, getattr(query, attr)))
    return tracer.wrap("service.query.solve", query.solve_requests)


def instrument_batcher(tracer: Tracer, solve):
    """Record each request's wait from ``submit`` to its flush's start.

    Returns the solver to hand the server: the traced seam, preceded by
    the wait bookkeeping. Cache hits and ride-alongs never reach a
    flush, so they record no wait.
    """
    from repro.service.batcher import DynamicBatcher

    submitted: dict[int, int] = {}
    original = DynamicBatcher.submit

    async def submit(self, request):
        submitted[id(request)] = time.perf_counter_ns()
        try:
            return await original(self, request)
        finally:
            submitted.pop(id(request), None)

    def solver(requests):
        start = time.perf_counter_ns()
        for request in requests:
            stamp = submitted.get(id(request))
            if stamp is not None:
                tracer.sample("service.batcher.wait_ms", (start - stamp) / 1e6)
        return solve(requests)

    DynamicBatcher.submit = submit
    return solver


async def serve(tracer: Tracer) -> None:
    from repro.service.server import EquilibriumServer

    solver = instrument_batcher(tracer, instrument(tracer))
    server = EquilibriumServer("127.0.0.1", 0, solver=solver)
    stats = server.stats

    def marking_stats():
        tracer.mark()
        return stats()

    server.stats = marking_stats
    await server.start()
    print(f"serving equilibria on {server.host}:{server.port} (traced)",
          flush=True)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.close()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: traced_server.py SUMMARY_PATH", file=sys.stderr)
        return 2
    tracer = Tracer()
    asyncio.run(serve(tracer))
    marks = tracer.marks
    summary = tracer.summary(marks[0], marks[-1]) if marks else tracer.summary()
    Path(argv[0]).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

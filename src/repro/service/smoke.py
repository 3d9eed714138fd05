"""CI smoke driver: burst a running service, gate on cache hits.

``python -m repro.service.smoke --port P`` connects to an already
running :class:`~repro.service.server.EquilibriumServer`, pipelines a
concurrent burst of distinct solve queries, then sends the same burst
twice more, each wave after the last one completed (so the
content-addressed cache *must* hit), and verifies:

* every response is well-formed and the repeated answers are
  identical objects field for field;
* the cache hit at least once per game, at least one batch coalesced
  more than one game, and the request memo answered the third wave:
  the second wave's lines repeat answered games, so they enter the
  memo, and the third wave's (the client writes ``id`` first) hit it;
* ``--shutdown`` (the CI default) stops the server cleanly so the
  supervising shell can ``wait`` on its exit code.

Exit status 0 means the service round trip, the dynamic batcher and
the cache all did their jobs; any assertion failure is a non-zero exit
for CI to trip on.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Sequence

from repro.batch.container import GameBatch
from repro.service.client import ServiceClient
from repro.util.rng import stable_seed

__all__ = ["main"]


def _burst_queries(games: int) -> list[dict]:
    """*games* distinct small games across a few shapes."""
    shapes = [(3, 3), (4, 3), (3, 4)]
    queries: list[dict] = []
    for index in range(games):
        n, m = shapes[index % len(shapes)]
        seed = stable_seed("service-smoke", n, m, index)
        batch = GameBatch.from_seeds([seed], n, m)
        queries.append(
            {
                "weights": batch.weights[0].tolist(),
                "capacities": batch.capacities[0].tolist(),
            }
        )
    return queries


async def _run(host: str, port: int, games: int, shutdown: bool) -> int:
    client = await ServiceClient.connect(host, port)
    try:
        if not await client.ping():
            print("smoke: server did not answer ping", file=sys.stderr)
            return 1
        # Wave 1: a pipelined concurrent burst — exercises the dynamic
        # batcher. Wave 2: the same queries again after wave 1 fully
        # completed — every answer must now come from the cache, and
        # every line enters the request memo. Wave 3: the memo answers.
        queries = _burst_queries(games)
        results = await client.solve_many(queries)
        repeated = await client.solve_many(queries)
        memoised = await client.solve_many(queries)
        if not results == repeated == memoised:
            print("smoke: repeated query answers differ", file=sys.stderr)
            return 1
        digests = {result["digest"] for result in results}
        if len(digests) != len(queries):
            print(
                f"smoke: expected {len(queries)} distinct digests, "
                f"got {len(digests)}",
                file=sys.stderr,
            )
            return 1
        stats = await client.stats()
        cache_hits = stats["cache"]["hits"]
        if cache_hits < len(queries):
            print(
                f"smoke: expected >= {len(queries)} cache hits, "
                f"got {cache_hits}",
                file=sys.stderr,
            )
            return 1
        memo_hits = stats["memo"]["hits"]
        if memo_hits < len(queries):
            print(
                f"smoke: expected >= {len(queries)} request memo hits, "
                f"got {memo_hits}",
                file=sys.stderr,
            )
            return 1
        if stats["batched_games"] <= stats["batches"]:
            print(
                "smoke: no batch coalesced more than one game "
                f"({stats['batched_games']} games in {stats['batches']} "
                "batches)",
                file=sys.stderr,
            )
            return 1
        info = await client.info()
        print(
            f"smoke ok: {3 * len(results)} responses, "
            f"{stats['batches']} batches ({stats['batched_games']} games), "
            f"{cache_hits} cache hits, {memo_hits} memo hits, "
            f"{stats['coalesced']} coalesced, backend {info['backend']}"
        )
        if shutdown:
            await client.shutdown()
        return 0
    finally:
        await client.close()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="fire a concurrent burst at a running equilibrium "
        "service and gate on its batching/cache counters",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--games",
        type=int,
        default=24,
        help="distinct games in the burst (each is queried three times)",
    )
    parser.add_argument(
        "--no-shutdown",
        action="store_true",
        help="leave the server running after the burst",
    )
    args = parser.parse_args(argv)
    return asyncio.run(
        _run(args.host, args.port, args.games, not args.no_shutdown)
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

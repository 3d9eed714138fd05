"""A minimal asyncio client for the JSON-lines equilibrium service.

Speaks the :mod:`repro.service.server` protocol: one JSON object per
line, optional ``id`` correlation. :meth:`ServiceClient.solve_many`
pipelines a whole burst on one connection — all request lines go out
before any response is awaited, which is what makes a single client
generate the concurrent load the server's dynamic batcher coalesces.

Used by the differential tests, ``benchmarks/bench_service.py`` and the
CI smoke driver (:mod:`repro.service.smoke`); it is also a reasonable
starting point for real integrations.
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service.server import MAX_LINE_BYTES

__all__ = ["ServiceClient"]


class ServiceClient:
    """One connection to an :class:`EquilibriumServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0
    ) -> "ServiceClient":
        # Responses can be as long as requests (a wide fixpoint profile).
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------ #
    # protocol helpers
    # ------------------------------------------------------------------ #

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One message, one response (no pipelining)."""
        self._writer.write(canonical_dumps(message).encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return canonical_loads(line.decode("utf-8"))

    async def solve(self, query: dict[str, Any]) -> dict[str, Any]:
        """Solve one game; raises :class:`RuntimeError` on service errors."""
        response = await self.request({"op": "solve", **query})
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "service error"))
        return response["result"]

    async def solve_many(
        self, queries: Sequence[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Pipeline a burst of solves; results come back in query order.

        All lines are written before any response is read, so the burst
        arrives at the server as concurrent requests — the load shape
        the dynamic batcher exists for. Service-level errors surface as
        :class:`RuntimeError` carrying the first failure.
        """
        ids = []
        for query in queries:
            self._next_id += 1
            ids.append(self._next_id)
            # The id goes first: a repeated game is then a line the
            # server's request memo can answer without parsing it.
            message = {"id": self._next_id, "op": "solve", **query}
            self._writer.write(
                canonical_dumps(message).encode("utf-8") + b"\n"
            )
        await self._writer.drain()
        by_id: dict[int, dict[str, Any]] = {}
        while len(by_id) < len(ids):
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = canonical_loads(line.decode("utf-8"))
            by_id[response["id"]] = response
        results = []
        for request_id in ids:
            response = by_id[request_id]
            if not response.get("ok"):
                raise RuntimeError(response.get("error", "service error"))
            results.append(response["result"])
        return results

    async def stats(self) -> dict[str, Any]:
        response = await self.request({"op": "stats"})
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "service error"))
        return response["stats"]

    async def info(self) -> dict[str, Any]:
        response = await self.request({"op": "info"})
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "service error"))
        return response["info"]

    async def ping(self) -> bool:
        return bool((await self.request({"op": "ping"})).get("pong"))

    async def shutdown(self) -> None:
        await self.request({"op": "shutdown"})

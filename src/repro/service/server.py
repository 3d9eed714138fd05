"""The equilibrium service: a JSON-lines asyncio TCP server.

Stdlib-only (``asyncio.start_server``) so the service runs wherever the
library does; the protocol is newline-delimited JSON, one object per
line. Every reply line is the runtime store's canonical encoding
(:func:`repro.runtime.store.canonical_dumps` — ``repr`` floats, the
non-finite sentinel) of its envelope ``{"id", "ok", ...}``, keys in
that order. Each solved response is encoded once, when its batch
completes, and the result caches hold those bytes: a ``solve`` or
``fixpoint`` reply is the encoded ``id`` and the cached bytes spliced
into the envelope, never a second encode of the response.

Request objects carry an ``op`` (default ``"solve"``) and an optional
``id`` echoed back verbatim, so clients may pipeline any number of
requests per connection and match the (possibly reordered) responses:

* ``{"op": "solve", "id": 7, "weights": [...], "capacities": [[...]]}``
  → ``{"id": 7, "ok": true, "result": {...}}`` — the full equilibrium
  answer (see :mod:`repro.service.query` for request spellings and the
  response schema);
* ``{"op": "fixpoint", ...}`` — same request spellings, answered by the
  iterative fixed-point solver instead of the exhaustive census, so
  games past the ``MAX_SERVICE_PROFILES`` width are accepted; the
  result carries the certified profile or an explicit
  non-convergence flag;
* ``{"op": "stats"}`` → batcher/cache counters;
* ``{"op": "info"}`` → deployment facts: the array backend solving the
  queries (always ``numpy``);
* ``{"op": "ping"}`` → liveness;
* ``{"op": "shutdown"}`` → acknowledges, then gracefully stops the
  server (drains in-flight batches first).

Every ``solve`` line becomes its own task, so one pipelining connection
generates genuinely concurrent requests for the
:class:`~repro.service.batcher.DynamicBatcher` to coalesce. Every line
gets exactly one reply: malformed lines, lines longer than
:data:`MAX_LINE_BYTES`, and ids that cannot be encoded produce
``{"ok": false, "error": ...}`` (without the ``id`` when it is the
problem) instead of killing the connection.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, Sequence

from repro.batch.backend import get_backend
from repro.batch.fixpoint import DEFAULT_MAX_ROUNDS
from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service.batcher import DynamicBatcher, Solver
from repro.service.cache import ResultCache
from repro.service.query import (
    EquilibriumRequest,
    RequestError,
    solve_fixpoint_requests,
    solve_requests,
)

__all__ = ["EquilibriumServer", "MAX_LINE_BYTES"]

#: Longest request line read (the stream limit; newline excluded). A
#: ``fixpoint`` query for a 300 x 30 game is ~181 KB, far past asyncio's
#: 64 KiB default; a longer line is skipped and answered with an error.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: The opening of a reply that carries no ``id``.
_NO_ID = b"{"


def _encoding(
    solver: Solver,
) -> Callable[[Sequence[EquilibriumRequest]], list[bytes]]:
    """Wrap a solver seam so each response is encoded exactly once; the
    batcher and its cache then pass the canonical bytes around."""

    def solve(requests: Sequence[EquilibriumRequest]) -> list[bytes]:
        return [
            canonical_dumps(response).encode("utf-8")
            for response in solver(requests)
        ]

    return solve


def _reply(head: bytes, body: dict[str, Any]) -> bytes:
    """A reply line: *head* (``{`` plus the encoded ``id``, if any),
    then the encoded fields of *body*."""
    return head + canonical_dumps(body).encode("utf-8")[1:] + b"\n"


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard buffered and incoming input through the next newline."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:  # EOF inside the line
            return


class EquilibriumServer:
    """A long-lived equilibrium-query service on one asyncio loop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        cache_size: int = 1024,
        solver: Solver = solve_requests,
        fixpoint_solver: Solver | None = None,
        fixpoint_max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> None:
        self.host = host
        self.port = port
        self.cache = ResultCache(cache_size)
        self.batcher = DynamicBatcher(
            _encoding(solver),
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            cache=self.cache,
        )
        # The fixpoint op gets its own batcher and cache: both ops key
        # responses by the same reduced-form digest, so sharing a cache
        # would hand a census answer to a fixpoint query (and vice
        # versa) whenever the same game hits both ops.
        if fixpoint_solver is None:
            fixpoint_solver = functools.partial(
                solve_fixpoint_requests, max_rounds=fixpoint_max_rounds
            )
        self.fixpoint_cache = ResultCache(cache_size)
        self.fixpoint_batcher = DynamicBatcher(
            _encoding(fixpoint_solver),
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            cache=self.fixpoint_cache,
        )
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.connections = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting, drain in-flight batches, release the socket."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Nudge lingering connections to EOF so their handlers finish
        # (instead of being cancelled mid-read at loop teardown).
        for writer in self._handlers.values():
            writer.close()
        if self._handlers:
            await asyncio.gather(
                *tuple(self._handlers), return_exceptions=True
            )
        await self.batcher.close()
        await self.fixpoint_batcher.close()

    def stats(self) -> dict[str, Any]:
        return {
            "connections": self.connections,
            "backend": get_backend().name,
            **self.batcher.stats(),
            "fixpoint": self.fixpoint_batcher.stats(),
        }

    def info(self) -> dict[str, Any]:
        """Deployment facts: which backend answers."""
        return {"backend": get_backend().name}

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers[handler] = writer
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(line: bytes) -> None:
            async with write_lock:
                writer.write(line)
                await writer.drain()

        async def handle_line(raw: bytes) -> None:
            await respond(await self._dispatch(raw))

        try:
            while not reader.at_eof():
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    raw = exc.partial  # EOF: a final unterminated line
                except asyncio.LimitOverrunError:
                    await _skip_line(reader)
                    await respond(_reply(_NO_ID, {
                        "ok": False,
                        "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
                    }))
                    continue
                if not raw:
                    break
                task = asyncio.ensure_future(handle_line(raw))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
        except ConnectionError:
            pass
        finally:
            if handler is not None:
                self._handlers.pop(handler, None)
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, raw: bytes) -> bytes:
        """The reply line to one request line.

        The ``id`` is encoded once, up front, into the reply's head; a
        solved result arrives as cached bytes and is spliced in after
        it. The line equals ``canonical_dumps`` of the envelope dict.
        """
        try:
            message = canonical_loads(raw.decode("utf-8"))
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an
        # integer past the interpreter's digit limit.
        except (RecursionError, ValueError) as exc:
            return _reply(_NO_ID, {"ok": False, "error": f"invalid JSON: {exc}"})
        if not isinstance(message, dict):
            return _reply(
                _NO_ID, {"ok": False, "error": "request must be a JSON object"}
            )
        head = _NO_ID
        if "id" in message:
            try:
                encoded_id = canonical_dumps(message["id"]).encode("utf-8")
            except (RecursionError, ValueError) as exc:
                return _reply(
                    _NO_ID, {"ok": False, "error": f"cannot encode id: {exc}"}
                )
            head = b'{"id": ' + encoded_id + b", "
        op = message.get("op", "solve")
        if op in ("solve", "fixpoint"):
            batcher = self.batcher if op == "solve" else self.fixpoint_batcher
            try:
                request = EquilibriumRequest.from_payload(
                    message, check_width=op == "solve"
                )
                result = await batcher.submit(request)
            except RequestError as exc:
                return _reply(head, {"ok": False, "error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - solver failure
                return _reply(
                    head, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                )
            return head + b'"ok": true, "result": ' + result + b"}\n"
        if op == "stats":
            return _reply(head, {"ok": True, "stats": self.stats()})
        if op == "info":
            return _reply(head, {"ok": True, "info": self.info()})
        if op == "ping":
            return _reply(head, {"ok": True, "pong": True})
        if op == "shutdown":
            self._shutdown.set()
            return _reply(head, {"ok": True, "stopping": True})
        return _reply(head, {"ok": False, "error": f"unknown op {op!r}"})

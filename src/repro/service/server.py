"""The equilibrium service: a JSON-lines asyncio TCP server.

Stdlib-only (``loop.create_server``) so the service runs wherever the
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

Each connection is an :class:`asyncio.Protocol`. Every complete line in
the bytes one read delivers is answered in that same callback, in
order: a reply that is ready at once (a memo or cache hit, a control
op, a refusal) joins a buffer that goes out in one write when the
callback returns. A miss's reply joins the same buffer when its batcher
future is done; the done-callbacks of one window run together, so the
replies of a window's misses go out to each connection in one write
once the window is solved. No line gets a task, a lock or a drain;
when the transport's write buffer passes its high-water mark, the
connection stops reading until it drains.

At the default ``max_delay_ms = 0`` a window stays open while requests
keep arriving: its timer checks it once per event-loop pass, and a pass
that added a game keeps it open. A pass that brought the batcher only
other requests (cache hits, memo hits, ride-alongs) keeps it open too,
until it has been open as long as the batcher's last solver call took.
The first pass that brings neither flushes it. ``max_batch`` games
flush it at once, and a lone request reaches the solver two passes
after it was submitted. A positive ``max_delay_ms`` holds each window
open that long instead (see :mod:`repro.service.batcher`). So a
pipelining connection hands its
:class:`~repro.service.batcher.DynamicBatcher` every game of a read at
once, and the games of its next reads join the same window, even when
hits come between them.

After the client half-closes, every line is still answered before the
connection closes, and a final line without a newline is answered too.
Every line gets exactly one reply: malformed lines, lines longer than
:data:`MAX_LINE_BYTES`, and ids that cannot be encoded produce
``{"ok": false, "error": ...}`` (without the ``id`` when it is the
problem) instead of killing the connection.

A repeated request skips decode and validation. A ``solve`` or
``fixpoint`` line that starts ``{"id": <integer>, `` (at most
:data:`MEMO_ID_DIGITS` digits, no leading zero) and repeats a game the
op has already answered is looked up, by the exact bytes after that
opening, in a bounded LRU memo of validated requests, and goes straight
to its batcher, as the parsed request would. A line enters the memo
only when it decoded and validated, its decoded ``id`` re-encodes to
the opening, the rest of the line holds neither ``"id"`` nor a
backslash (so no second, possibly escaped, ``id`` key can override the
first), and the op's cache already holds its game; so a stream of
distinct games never fills it. The memo holds at most ``cache_size``
lines (``--cache-size 0`` turns it off too), each of at most
:data:`MEMO_MAX_ENTRY_BYTES` of line bytes and request arrays, and
``stats`` reports it as ``memo``. No reply byte changes: a memo hit
takes the same cache, coalescing and error paths as a parsed request.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, Sequence

from repro.batch.backend import get_backend
from repro.batch.fixpoint import DEFAULT_MAX_ROUNDS
from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service.batcher import DEFAULT_MAX_DELAY_MS, DynamicBatcher, Solver
from repro.service.cache import ResultCache
from repro.service.query import (
    EquilibriumRequest,
    RequestError,
    solve_fixpoint_requests,
    solve_requests,
)

__all__ = [
    "EquilibriumServer",
    "MAX_LINE_BYTES",
    "MEMO_ID_DIGITS",
    "MEMO_MAX_ENTRY_BYTES",
]

#: Longest request line read (newline excluded). A ``fixpoint`` query
#: for a 300 x 30 game is ~181 KB, far past asyncio's 64 KiB stream
#: default; a longer line is discarded, without being held, and answered
#: with one error.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Most digits of an ``id`` the request memo reads. Far below the
#: decoder's integer digit limit (4,300 by default), so the memo never
#: answers a line the decoder would refuse.
MEMO_ID_DIGITS = 15

#: Largest memo entry: the line's bytes after its ``id`` plus the
#: validated request's three arrays. A line of 16 KiB can spell a
#: ``fixpoint`` game far larger than itself (``link_capacities`` gives
#: ``n * m`` capacities from ``n + m`` numbers), so the arrays count
#: too. Every ``solve`` game of up to about 500 capacity entries fits.
#: With about 750 bytes of Python objects per entry, the memo holds at
#: most about 17 MiB at the default ``cache_size`` of 1,024; for the
#: small games of perfbench's serve mix an entry takes about 1.2 KB,
#: against 1.05 KB for the same game's cached response.
MEMO_MAX_ENTRY_BYTES = 16 * 1024

#: The opening of a reply that carries no ``id``.
_NO_ID = b"{"
#: The opening of a line the request memo may answer.
_ID_OPENING = b'{"id": '


def _encoding(
    solver: Solver,
) -> Callable[[Sequence[EquilibriumRequest]], list[bytes | Exception]]:
    """Wrap a solver seam so each response is encoded exactly once; the
    batcher and its cache then pass the canonical bytes around. A failed
    stack's exceptions pass through."""

    def solve(requests: Sequence[EquilibriumRequest]) -> list[bytes | Exception]:
        return [
            response
            if isinstance(response, Exception)
            else canonical_dumps(response).encode("utf-8")
            for response in solver(requests)
        ]

    return solve


def _reply(head: bytes, body: dict[str, Any]) -> bytes:
    """A reply line: *head* (``{`` plus the encoded ``id``, if any),
    then the encoded fields of *body*."""
    return head + canonical_dumps(body).encode("utf-8")[1:] + b"\n"


def _failure(head: bytes, exc: Exception) -> bytes:
    """The reply to a refused request or a failed solve."""
    if isinstance(exc, RequestError):
        return _reply(head, {"ok": False, "error": str(exc)})
    return _reply(head, {"ok": False, "error": f"{type(exc).__name__}: {exc}"})


def _answer(
    head: bytes, request: EquilibriumRequest, batcher: DynamicBatcher
) -> bytes | tuple[bytes, asyncio.Future]:
    """The reply to a validated request if its batcher answered at once,
    else *head* and the future that will answer it."""
    future = asyncio.ensure_future(batcher.submit(request))
    if future.done():
        return _outcome(head, future)
    return head, future


def _outcome(head: bytes, future: asyncio.Future) -> bytes:
    """The reply line to a done batcher future: its result, or the error
    the batcher raised (a closed batcher, a failed solve)."""
    try:
        result = future.result()
    except Exception as exc:  # noqa: BLE001 - answered, not raised
        return _failure(head, exc)
    return head + b'"ok": true, "result": ' + result + b"}\n"


def _too_long() -> bytes:
    """The reply to a line longer than :data:`MAX_LINE_BYTES`."""
    return _reply(_NO_ID, {
        "ok": False,
        "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
    })


def _memo_split(raw: bytes) -> int:
    """Where the request memo's key starts in *raw*: just past a leading
    ``{"id": <digits>, `` whose digits are a canonical integer of at most
    :data:`MEMO_ID_DIGITS` digits, so those bytes are the reply's head.
    0 when *raw* has no such opening, or when what follows it is too
    long for the memo to hold."""
    if not raw.startswith(_ID_OPENING):
        return 0
    comma = raw.find(b", ", 7, 9 + MEMO_ID_DIGITS)
    if (
        comma < 8
        or not raw[7:comma].isdigit()
        or (raw[7] == 0x30 and comma > 8)  # a leading zero
        or len(raw) - comma - 2 > MEMO_MAX_ENTRY_BYTES
    ):
        return 0
    return comma + 2


class _Connection(asyncio.Protocol):
    """One client connection: each read's complete lines are answered in
    that read's callback (see the module docstring)."""

    def __init__(self, server: EquilibriumServer) -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        #: The start of a line whose newline has not arrived yet.
        self._partial = bytearray()
        #: Inside a line past :data:`MAX_LINE_BYTES`, dropping its bytes.
        self._discarding = False
        #: Replies ready, written together when the read's callback
        #: ends, or, for misses, once their window's done-callbacks ran.
        self._ready: list[bytes] = []
        #: Lines whose replies wait for a batcher future.
        self._in_flight = 0
        #: No more lines will be read: EOF, or the server is closing.
        self._eof = False
        #: Done once the transport is closed.
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._server._connections.add(self)
        self._server.connections += 1

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        start = 0
        if self._partial or self._discarding:
            newline = data.find(b"\n")
            if newline < 0:
                self._hold(data)
                return
            start = newline + 1
            self._end_held_line(data[:start])
        find = data.find
        newline = find(b"\n", start)
        while newline >= 0:
            self._line(data[start : newline + 1])
            start = newline + 1
            newline = find(b"\n", start)
        if start < len(data):
            self._hold(data[start:])
        self._write_ready()

    def eof_received(self) -> bool:
        """Answer a final line without a newline, then close once every
        line is answered; until then the transport stays half-open."""
        self._eof = True
        if self._partial or self._discarding:
            self._end_held_line(b"")
        self._write_ready()
        return True

    def pause_writing(self) -> None:
        if not self._eof:
            self._transport.pause_reading()

    def resume_writing(self) -> None:
        if not self._eof:
            self._transport.resume_reading()

    def close(self) -> None:
        """Read no more lines; close once every line read is answered."""
        self._eof = True
        self._transport.pause_reading()
        self._write_ready()

    def _hold(self, piece: bytes) -> None:
        """Keep *piece*, the start of a line, unless that line is
        already past the limit: then drop it and what follows."""
        if self._discarding:
            return
        self._partial += piece
        if len(self._partial) > MAX_LINE_BYTES:
            self._partial.clear()
            self._discarding = True

    def _end_held_line(self, tail: bytes) -> None:
        """The line held so far ends with *tail*: answer it, or refuse it
        once if it went past the limit."""
        if self._discarding:
            self._discarding = False
            self._ready.append(_too_long())
            return
        self._partial += tail
        line = bytes(self._partial)
        self._partial.clear()
        self._line(line)

    def _line(self, raw: bytes) -> None:
        """Answer one line (newline included, unless it ended at EOF)."""
        if len(raw) - raw.endswith(b"\n") > MAX_LINE_BYTES:
            self._ready.append(_too_long())
            return
        reply = self._server._dispatch(raw)
        if isinstance(reply, bytes):
            self._ready.append(reply)
            return
        head, future = reply
        self._in_flight += 1
        future.add_done_callback(functools.partial(self._answered, head))

    def _answered(self, head: bytes, future: asyncio.Future) -> None:
        """A miss's batcher future is done: its reply joins the buffer,
        which goes out once the done-callbacks of its window have run."""
        self._in_flight -= 1
        if future.cancelled() or self._transport.is_closing():
            return
        if not self._ready:
            asyncio.get_running_loop().call_soon(self._write_ready)
        self._ready.append(_outcome(head, future))

    def _write_ready(self) -> None:
        """Write the replies ready so far in one write; once no more
        lines will be read and none waits for its window, close."""
        if self._transport.is_closing():
            self._ready.clear()
            return
        if self._ready:
            self._transport.write(b"".join(self._ready))
            self._ready.clear()
        if self._eof and not self._in_flight:
            self._transport.close()


class EquilibriumServer:
    """A long-lived equilibrium-query service on one asyncio loop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 64,
        max_delay_ms: float = DEFAULT_MAX_DELAY_MS,
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
        #: Line bytes after a canonical ``id`` -> (validated request, the
        #: batcher of its op); see the module docstring.
        self.memo = ResultCache(cache_size)
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._connections: set[_Connection] = set()
        self.connections = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting and reading, answer every line read (draining
        in-flight batches), then close the connections and the socket."""
        self._shutdown.set()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Each connection reads no more and closes once the lines it has
        # read are answered, which the batchers' last flushes do; from
        # Python 3.12 on, ``wait_closed`` waits for the connections too.
        connections = tuple(self._connections)
        for connection in connections:
            connection.close()
        await self.batcher.close()
        await self.fixpoint_batcher.close()
        await asyncio.gather(*(connection.closed for connection in connections))
        if server is not None:
            await server.wait_closed()

    def stats(self) -> dict[str, Any]:
        return {
            "connections": self.connections,
            "backend": get_backend().name,
            **self.batcher.stats(),
            "fixpoint": self.fixpoint_batcher.stats(),
            "memo": self.memo.stats(),
        }

    def info(self) -> dict[str, Any]:
        """Deployment facts: which backend answers."""
        return {"backend": get_backend().name}

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #

    def _dispatch(self, raw: bytes) -> bytes | tuple[bytes, asyncio.Future]:
        """The reply line to one request line, or, for a request its
        batcher cannot answer at once, the reply's head and the future
        that will answer it.

        The ``id`` is encoded once, up front, into the reply's head; a
        solved result arrives as cached bytes and is spliced in after
        it. The line equals ``canonical_dumps`` of the envelope dict. A
        line the request memo holds skips decode and validation.
        """
        key = None
        split = _memo_split(raw)
        if split:
            key = raw[split:]
            entry = self.memo.get(key)
            if entry is not None:
                return _answer(raw[:split], *entry)
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
            except Exception as exc:  # noqa: BLE001 - answered, not raised
                return _failure(head, exc)
            # A miss pays one membership test: only a game already
            # answered is worth a memo entry.
            if (
                key is not None
                and request.digest in batcher.cache
                and len(head) == split
                and raw.startswith(head)
                and b'"id"' not in key
                and b"\\" not in key
                and len(key)
                + request.weights.nbytes
                + request.capacities.nbytes
                + request.initial_traffic.nbytes
                <= MEMO_MAX_ENTRY_BYTES
            ):
                self.memo.put(key, (request, batcher))
            return _answer(head, request, batcher)
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

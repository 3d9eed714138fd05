"""Inference-server-style dynamic batching for equilibrium queries.

Concurrent :meth:`DynamicBatcher.submit` calls coalesce into one
pending window that flushes to the solver when either trigger fires,
whichever comes first:

* **size** — ``max_batch`` distinct games are waiting;
* **deadline** — ``max_delay_ms`` elapsed since the window opened (the
  first request's arrival), or, at the default of
  :data:`DEFAULT_MAX_DELAY_MS` = 0, the first event-loop pass that
  neither adds a game nor, while the window is younger than the last
  solve, brings another request.

At the default ``max_delay_ms = 0`` a window stays open while requests
keep arriving: its timer checks it once per event-loop pass, and a pass
that added a game keeps it open. A pass that brought the batcher only
other requests (cache hits, memo hits, ride-alongs) keeps it open too,
until it has been open as long as the batcher's last solver call took.
The first pass that brings neither flushes it. ``max_batch`` games
flush it at once, and a lone request reaches the solver two passes
after it was submitted. A positive ``max_delay_ms`` holds each window
open that long instead.

The server feeds it from each connection's reads
(:mod:`repro.service.server`): each connection is an
:class:`asyncio.Protocol`. Every complete line in the bytes one read
delivers is answered in that same callback, in order: a reply that is
ready at once (a memo or cache hit, a control op, a refusal) joins a
buffer that goes out in one write when the callback returns, and the
replies of a window's misses go out to each connection in one write
once the window is solved. No line gets a task, a lock or a drain;
when the transport's write buffer passes its high-water mark, the
connection stops reading until it drains. So
:meth:`DynamicBatcher.submit` returns a future without yielding,
already done for a cache hit.

The zero default makes the batcher work-conserving. A lone request on
an idle server is solved at once, while requests that arrive during a
solve queue up in the transport and land in the next window together.
A pipelining client's requests arrive over several passes rather than
in one read, and a window that stays open while they come fills
instead of splitting. Each window pays the census's fixed cost once per
shape stack, so a miss that closes a window of its own costs the server
far more than a hit; holding the window while hits keep the loop busy
lets the misses that arrive a few passes apart share it. The bound is
the measured solve time, so a held miss waits at most one solve longer,
which is what any request that arrives during a solve already waits on
this single-threaded loop. Without it, the 64-deep closed loop of
``benchmarks/bench_service.py::test_miss_window_trade`` with 1% fresh
games read a miss p99 of 65-73 ms in three runs, against medians of
9.8 ms with it and 10.6 ms when only games held a window (11 and 10
runs on a 2-vCPU Xeon). On perfbench's
``serve-hot`` workload, over whole runs with their open loop, a flush
took 5.7-5.8 games instead of 5.35-5.4 and throughput rose 14-18%
(medians of 10 run pairs per round, seeds 1-10 and 31-40, on a 2-vCPU
Xeon); ``serve-solve``, whose every request is a new game, keeps the
rule it had, at 14.0 games per flush. Holding a window only while games
arrive had taken ``serve-hot`` from 3.6 to 5.3-5.4 games per flush.
A fixed window cost every lone
request its full length: on the ``serve-solve`` benchmark's 100 qps
open loop, the old 2 ms default put the median latency at 4.0-4.1 ms
and 0 puts it at 1.5-1.6 ms (medians of two rounds of 10 run pairs on a
2-vCPU Xeon; the README's "Serving equilibria" gives the throughput). A
positive ``max_delay_ms`` is for a deployment that prefers fuller
batches to latency. Idle flushes count as ``deadline_flushes`` in
:meth:`DynamicBatcher.stats`.

A flush hands the whole window to the solver seam
(:func:`repro.service.query.solve_requests` by default), which stacks
it into per-shape :class:`~repro.batch.container.GameBatch` sub-batches
— one kernel pass per shape instead of one per request. A shape stack
that raises fills its own slots with the exception, and only its
requests fail; a seam that raises as a whole fails its whole window.
Three de-duplication layers keep repeated traffic O(hash):

1. completed responses come from the content-addressed
   :class:`~repro.service.cache.ResultCache` (when attached);
2. a query whose digest is already waiting or solving rides the
   in-flight computation instead of enqueueing a duplicate game;
3. only then does a digest claim a slot in the pending window.

The solver runs synchronously inside the flush task: the kernels are
CPU-bound NumPy, so handing them to a thread would only add latency
jitter while the event loop keeps accepting requests between flushes
(new arrivals buffer in the transport until the pass completes — the
standard single-worker inference-server shape).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Sequence

from repro.service.cache import ResultCache
from repro.service.query import EquilibriumRequest, solve_requests

__all__ = ["DEFAULT_MAX_DELAY_MS", "DynamicBatcher"]

#: How long a window waits for more games by default: no fixed time. The
#: window flushes on the first event-loop pass that adds no game and, while
#: it is younger than the last solve, brings no other request either (see
#: the module docstring). ``EquilibriumServer`` and ``serve
#: --max-delay-ms`` default to it too.
DEFAULT_MAX_DELAY_MS = 0.0

#: The solver seam: mixed-shape requests in, per-request responses out;
#: a request whose shape stack raised gets that exception instead.
Solver = Callable[
    [Sequence[EquilibriumRequest]], "list[dict[str, Any] | Exception]"
]


class DynamicBatcher:
    """Coalesce concurrent queries into batched solver passes.

    A window flushes at ``max_batch`` distinct games, or ``max_delay_ms``
    after it opened; at ``max_delay_ms = 0`` (the default) on the first
    event-loop pass that adds no game to it and, while it is younger than
    the last solver call took, brings the batcher no other request.
    """

    def __init__(
        self,
        solver: Solver = solve_requests,
        *,
        max_batch: int = 64,
        max_delay_ms: float = DEFAULT_MAX_DELAY_MS,
        cache: ResultCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be >= 0, got {max_delay_ms}"
            )
        self._solver = solver
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.cache = cache
        self._pending: list[EquilibriumRequest] = []
        #: digest -> futures awaiting it (pending *or* mid-flush).
        self._waiters: dict[str, list[asyncio.Future]] = {}
        self._deadline: asyncio.TimerHandle | None = None
        #: Games in the window, and requests submitted, when its timer
        #: last looked at it.
        self._seen = 0
        self._seen_requests = 0
        #: When the window opened, and how long the last solver call
        #: took, in event-loop seconds: the longest that passes bringing
        #: no game hold a window open.
        self._opened = 0.0
        self._solve_s = 0.0
        self._flushes: set[asyncio.Task] = set()
        self._closed = False
        # Counters for the ``stats`` op / benchmarks.
        self.requests = 0
        self.coalesced = 0
        self.batches = 0
        self.batched_games = 0
        self.size_flushes = 0
        self.deadline_flushes = 0

    def submit(self, request: EquilibriumRequest) -> asyncio.Future:
        """Resolve one query: cache, in-flight ride-along, or batch.

        Returns a future at once, without yielding to the event loop:
        already done for a cache hit (or with ``RuntimeError`` on a
        closed batcher), else done when the request's window is solved.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self._closed:
            future.set_exception(RuntimeError("batcher is closed"))
            return future
        self.requests += 1
        if self.cache is not None:
            cached = self.cache.get(request.digest)
            if cached is not None:
                future.set_result(cached)
                return future
        waiters = self._waiters.get(request.digest)
        if waiters is not None:
            self.coalesced += 1
            waiters.append(future)
            return future
        self._waiters[request.digest] = [future]
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            self._flush("size")
        elif self._deadline is None:
            self._seen = len(self._pending)
            self._seen_requests = self.requests
            self._opened = loop.time()
            self._deadline = loop.call_later(
                self.max_delay_ms / 1000.0, self._on_deadline
            )
        return future

    def _on_deadline(self) -> None:
        """The window's timer. At ``max_delay_ms = 0`` it is due on every
        pass, after that pass's reads: a pass that added a game re-arms
        it, and so does one that brought only other requests while the
        window is younger than the last solve; any other pass flushes."""
        if self.max_delay_ms == 0:
            loop = asyncio.get_running_loop()
            games, requests = len(self._pending), self.requests
            if games > self._seen or (
                requests > self._seen_requests
                and loop.time() - self._opened < self._solve_s
            ):
                self._seen, self._seen_requests = games, requests
                self._deadline = loop.call_later(0, self._on_deadline)
                return
        self._flush("deadline")

    def _flush(self, trigger: str) -> None:
        """Move the pending window into a solver task."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        window, self._pending = self._pending, []
        if not window:
            return
        self.batches += 1
        self.batched_games += len(window)
        if trigger == "size":
            self.size_flushes += 1
        else:
            self.deadline_flushes += 1
        task = asyncio.get_running_loop().create_task(self._solve(window))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _solve(self, window: list[EquilibriumRequest]) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            responses = self._solver(window)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            responses = [exc] * len(window)
        self._solve_s = loop.time() - start
        for request, response in zip(window, responses):
            waiters = self._waiters.pop(request.digest, [])
            if isinstance(response, Exception):
                for future in waiters:
                    if not future.done():
                        future.set_exception(response)
                continue
            if self.cache is not None:
                self.cache.put(request.digest, response)
            for future in waiters:
                if not future.done():
                    future.set_result(response)

    async def close(self) -> None:
        """Flush any open window and wait for in-flight passes."""
        self._closed = True
        self._flush("size")
        while self._flushes:
            await asyncio.gather(*tuple(self._flushes), return_exceptions=True)

    def stats(self) -> dict[str, Any]:
        """Counter snapshot (cache counters ride along when attached)."""
        out: dict[str, Any] = {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "batched_games": self.batched_games,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
            "pending": len(self._pending),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
